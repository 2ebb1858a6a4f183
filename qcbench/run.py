"""qcanon benchmark: one workload as one closed-loop client in this process.

    python3 qcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything goes to stderr except the last line of stdout, which is the one
result object.  With --trace 0 it carries the end-to-end metrics; with
--trace 1 every public function of qcanon is wrapped in spans, one round of
each other workload runs as well, and it carries the per-layer metrics.
Exits non-zero, printing no result, when the run cannot be made.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from common import (BenchError, Checker, OUT, REF_NOMINAL_S, ROOT, import_qcanon, log,
                    process_age, reference_chunk)

# metric names and units as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in _SPEC["workloads"])


def run_rounds(wl, seconds: float):
    """Whole rounds until the next one would end past `seconds` (at least one).

    Returns the timer, the outputs of the last round and the failed-check
    count from comparing every round's answers with the first round's.
    """
    from workloads import Timer
    timer = Timer()
    first = out = None
    mismatches = 0
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        out = None  # let the previous round's outputs go before the next one runs
        summary, out = wl.round(timer)
        now = time.perf_counter()
        if first is None:
            first = summary
        elif summary != first:
            mismatches += 1
            log(f"CHECK FAILED: round answers differ from the first round's ({wl.name})")
        if now - t0 + (now - r0) > seconds:
            return timer, out, mismatches


def measure(wl, seconds: float, chk: Checker, tracer=None):
    """Set-up, timed rounds and checks of one workload; returns its record."""
    wait = wl.prepare()
    if tracer is not None:
        tracer.phase = wl.name
    wl.setup()
    wl.warm()
    setup_s = process_age() - wait
    setup_ref = statistics.median(reference_chunk() for _ in range(5))
    timer, out, mismatches = run_rounds(wl, seconds)
    timer.flush()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.phase = "verify"
    for _ in range(mismatches):
        chk.expect(False, "a later round answered differently")
    t_counts = wl.verify(out, chk)
    ref_s = statistics.median(timer.ref)
    log(f"{wl.name} raw: setup {setup_s:.4f} s, op {statistics.median(timer.raw['op']) * 1e3:.4f} ms, "
        f"aux {statistics.median(timer.raw['aux']) * 1e3:.4f} ms; reference chunk {ref_s * 1e3:.4f} ms "
        f"median of {len(timer.ref)} bursts, {setup_ref * 1e3:.4f} ms after set-up")
    return {
        "setup_s": setup_s * REF_NOMINAL_S / setup_ref,
        "op_ms": statistics.median(timer.op) * 1e3,
        "aux_ms": statistics.median(timer.aux) * 1e3,
        "reference_ms": ref_s * 1e3,
        "peak_rss_mb": peak_mb,
        "t_count_mean": statistics.fmean(t_counts),
        "attempted": len(timer.op) + len(timer.aux),
        "ops": len(timer.op),
        "out": out,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # the result line is the only thing this process writes to stdout;
    # everything else, child processes included, goes to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    try:
        import_qcanon()
        import_s = process_age()  # interpreter start-up, numpy and qcanon
        from workloads import WORKLOADS
        chk = Checker()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.instrument()
            for name in tracer.missing:
                log(f"not traced, absent from the program: {name}")
        wl = WORKLOADS[args.workload](args.seed)
        try:
            rec = measure(wl, args.seconds, chk, tracer)
            if tracer is None:
                metrics = {k: rec[k] for k in END_TO_END_UNITS}
                units = END_TO_END_UNITS
            else:
                metrics = trace_layers(wl, rec, args, chk, tracer)
                metrics["setup.import_ms"] = import_s * 1e3
                metrics["machine.reference_ms"] = rec["reference_ms"]
                units = LAYER_UNITS
        finally:
            wl.close()
        log(f"{args.workload}: {rec['ops']} ops per kind, setup {rec['setup_s']:.3f} s, "
            f"op {rec['op_ms']:.4f} ms, aux {rec['aux_ms']:.4f} ms, "
            f"peak {rec['peak_rss_mb']:.1f} MB, T {rec['t_count_mean']:.3f}")
    except BenchError as e:
        log(f"error: {e}")
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    result = {
        "correct": not chk.failures,
        "attempted": rec["attempted"],
        "failed": min(len(chk.failures), rec["attempted"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if v is not None},
    }
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0


def trace_layers(wl, rec, args, chk, tracer) -> dict:
    """Per-layer metrics: the named workload's traced rounds, then one traced
    round of each other workload, so every layer is reported from every run."""
    from workloads import WORKLOADS
    tracer.phase = wl.name
    metrics = wl.layer_metrics(tracer, rec["out"])
    log(f"traced {wl.name}: op {rec['op_ms']:.4f} ms (tracing on)")
    for name in WORKLOAD_NAMES:
        if name == wl.name:
            continue
        other = WORKLOADS[name](args.seed)
        try:
            orec = measure(other, 0.0, chk, tracer)
            tracer.phase = name
            metrics.update(other.layer_metrics(tracer, orec["out"]))
            log(f"traced {name}: op {orec['op_ms']:.4f} ms (tracing on)")
        finally:
            other.close()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.jsonl")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
