"""Shared pieces of the qcanon benchmark.

Paths, the import of qcanon from the checkout's own source tree, seeded
inputs, the catalog cache, child `qcanon` processes, and the numeric
checks that judge qcanon's answers without asking qcanon.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qcbench_out"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result may be printed."""


def log(msg: str) -> None:
    print(f"[qcbench] {msg}", file=sys.stderr, flush=True)


def import_qcanon() -> None:
    """Import qcanon from ./src of this checkout (it is not installed)."""
    if not (SRC / "qcanon" / "__init__.py").is_file():
        raise BenchError(f"no qcanon package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcanon.catalog  # noqa: F401
    import qcanon.rewrite  # noqa: F401
    import qcanon.search  # noqa: F401
    import qcanon.sk  # noqa: F401


def process_age() -> float:
    """Seconds since this process was started (interpreter start-up included)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# ---------------------------------------------------------------------------
# machine speed

# The machine is shared, and its speed drifts by up to 1.75x within minutes
# (other tenants), far beyond any bound a raw wall-clock median could hold
# between two sets of runs.  Each run therefore times this fixed chunk of
# interpreter and small-numpy work between its operations and reports its
# latencies scaled by REF_NOMINAL_S / (median chunk time): milliseconds on a
# machine where one chunk takes REF_NOMINAL_S.  The chunk uses no qcanon
# code, so a change to the program cannot move it.
REF_NOMINAL_S = 0.004
_REF_VEC = np.random.default_rng(0).random((4096, 2))
_REF_MAT = np.eye(2) * 0.5


def reference_chunk() -> float:
    """Seconds taken by one fixed chunk of interpreter and numpy work.

    It allocates no object the cyclic garbage collector tracks, so it does
    not trigger collections of the program's objects.
    """
    t0 = time.perf_counter()
    x = y = 1
    for _ in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        y += x % 7
    m = _REF_MAT
    for _ in range(300):
        m = m @ _REF_MAT + _REF_MAT
        _REF_VEC @ m[0]
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# child qcanon processes and the catalog cache

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(*argv: str, ok_codes=(0,), timeout: float = 600.0) -> tuple[str, float]:
    """Run `qcanon ARGV...` as a child process; returns (stdout, wall seconds).

    The child's stdout is captured and its stderr goes to ours, so nothing it
    prints can land on the benchmark's own stdout.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qcanon.cli", *argv], cwd=ROOT, env=_child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True, timeout=timeout, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode not in ok_codes:
        raise BenchError(f"qcanon {' '.join(argv)} exited {proc.returncode}: {proc.stdout[-500:]}")
    return proc.stdout, wall


def source_key() -> str:
    """Hash of every file of the qcanon package: a cache key covering the program."""
    h = hashlib.sha256()
    pkg = SRC / "qcanon"
    for p in sorted(pkg.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(pkg)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def catalog_file(t_max: int) -> tuple[Path, float]:
    """Path of a t_max catalog written by `qcanon build-db`, and the seconds
    spent building it now (0.0 when the cache already held it).

    The build runs in a child process, so it adds nothing to this process's
    peak RSS, and the caller subtracts the returned time from its set-up.
    """
    path = OUT / "catalogs" / f"t{t_max}-{source_key()}.qcat"
    if path.is_file():
        return path, 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    log(f"building the t = {t_max} catalog with qcanon build-db (cache miss)")
    try:
        summary, wall = run_cli("build-db", "--max-tcount", str(t_max), "--out", str(tmp))
        log(f"build-db: {summary.strip()}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path, wall


def work_dir() -> Path:
    d = OUT / "work"
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# seeded inputs

def haar_targets(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """n Haar-random SU(2) matrices, from uniform unit quaternions."""
    out = []
    for c, x, y, z in rng.normal(size=(n, 4)):
        r = math.sqrt(c * c + x * x + y * y + z * z)
        c, x, y, z = c / r, x / r, y / r, z / r
        out.append(np.array([[c - 1j * z, -y - 1j * x], [y - 1j * x, c + 1j * z]]))
    return out


def random_word(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(list("HTS"), size=length))


def clifford_word(rng: np.random.Generator) -> str:
    return "".join(rng.choice(list("HS"), size=int(rng.integers(0, 7))))


def member_word(rng: np.random.Generator, t: int) -> str:
    """A word of T-count exactly t: t blocks (SH)^b T H between Clifford words."""
    body = "".join(("SH" if b else "") + "TH" for b in rng.integers(0, 2, size=t))
    return clifford_word(rng) + body + clifford_word(rng)


def matrix_json(mat: np.ndarray) -> str:
    """--matrix argument of the qcanon CLI; repr floats round-trip exactly."""
    return json.dumps([[[z.real, z.imag] for z in row] for row in mat.tolist()])


# ---------------------------------------------------------------------------
# independent numeric checks

_GATE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "T": np.diag([1.0, np.exp(1j * math.pi / 4)]),
    "S": np.diag([1.0, 1j]),
}


def word_matrix(word: str) -> np.ndarray:
    """Product of the letters left to right, with this file's own gates."""
    m = np.eye(2, dtype=complex)
    for ch in word:
        m = m @ _GATE[ch]
    return m


def dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared projective distance 1 - |tr(A B^dag)| / 2 of two unitaries."""
    tr = abs(np.trace(a @ b.conj().T)) / math.sqrt(abs(np.linalg.det(a) * np.linalg.det(b)))
    return max(0.0, 1.0 - tr / 2.0)


class Checker:
    """Collects failed output checks; each one counts as a failed operation."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
            log(f"CHECK FAILED: {what}")
        return ok

    def circuit(self, word: str, t_count: int, target: np.ndarray, dist: float, what: str) -> None:
        """The word multiplies out to the reported distance and T-count."""
        self.expect(word.count("T") == t_count,
                    f"{what}: T-count {t_count} but {word.count('T')} T letters")
        got = dist_sq(word_matrix(word), target)
        self.expect(abs(got - dist * dist) <= 1e-9,
                    f"{what}: reported distance {dist!r}, recomputed {math.sqrt(got)!r}")

    def same_answer(self, cli: dict, word: str | None, t_count: int | None, dist: float | None,
                    what: str) -> None:
        """The CLI returned the API's circuit.  Its distance is to the CLI's own
        det-normalised copy of the target, so it is compared squared, to 1e-9."""
        same = (cli.get("gates"), cli.get("t_count")) == (word, t_count)
        if same and dist is not None:
            same = abs(cli["dist"] ** 2 - dist ** 2) <= 1e-9
        self.expect(same, f"{what}: qcanon answered {cli}, the API {(word, t_count, dist)}")
