"""Benchmark one state of the tree and write BENCH_<n>.json at its root.

    python3 scripts/bench_pr.py N

N numbers the change measured.

Runs `qcbench/run.py` for each workload at each seed with `--seconds 20`,
one traced `catalog` run at seed 101, and the Tier-1 test suite.  The file
holds every result line, the per-workload medians of the end-to-end
metrics, the machine (cores, RAM, Python, numpy, scipy, the reference
chunk) and Tier-1's wall time and counts.  Before the runs it deletes every
cached catalog under `.qcbench_out/catalogs/` that was built from another
version of the source.  Progress goes to stderr.
"""
from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from qcbench.common import OUT, reference_chunk, source_key  # noqa: E402

WORKLOADS = ("catalog", "approx", "sk", "reduce")
SEEDS = (101, 102, 103)
SECONDS = 20
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def log(msg: str) -> None:
    print(f"[bench_pr] {msg}", file=sys.stderr, flush=True)


def prune_catalog_cache() -> list[str]:
    """Delete cached catalogs whose name lacks the current source key."""
    key = source_key()
    gone = []
    for p in sorted((OUT / "catalogs").glob("*")):
        if p.is_file() and key not in p.name:
            p.unlink()
            gone.append(p.name)
    return gone


def run_bench(workload: str, seed: int, trace: int = 0) -> dict:
    argv = [sys.executable, "qcbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    log(" ".join(argv[1:]))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": time.perf_counter() - t0, "result": result}


def medians(runs: list[dict]) -> dict:
    """Per workload and end-to-end metric, the median over the seeds."""
    out = {}
    for w in WORKLOADS:
        values: dict[str, list[float]] = {}
        for r in runs:
            if r["workload"] == w and not r["trace"] and r["result"]:
                for name, m in r["result"]["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        out[w] = {name: statistics.median(v) for name, v in values.items()}
    return out


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                            if env.get("PYTHONPATH") else "")
    log("tier-1 tests")
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)",
                                                      summary)}
    return {"wall_s": wall, "exit": proc.returncode, "summary": summary,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0)}


def machine() -> dict:
    import numpy
    import scipy
    with open("/proc/meminfo") as fh:
        kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    return {"cores": os.cpu_count(), "ram_gb": round(kb / 2 ** 20, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "reference_chunk_ms": statistics.median(reference_chunk() for _ in range(25)) * 1e3}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    n = int(args[0])
    pruned = prune_catalog_cache()
    log(f"pruned {len(pruned)} stale cached catalogs")
    runs = [run_bench(w, s) for w in WORKLOADS for s in SEEDS]
    runs.append(run_bench("catalog", 101, trace=1))
    report = {
        "change": n,
        "source_key": source_key(),
        "machine": machine(),
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "medians": medians(runs),
        "runs": runs,
        "tier1": tier1(),
        "pruned_catalogs": pruned,
    }
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    log(f"wrote {path}")
    ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
    return 0 if ok and report["tier1"]["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
