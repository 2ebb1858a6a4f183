"""Brute-force oracles that cross-check the fast paths.

Everything here favors transparency over speed: breadth-first enumeration
of the whole group with exact dedup, meet-in-the-middle over layer pairs,
and exact two-sided-translate tables for the coset checks.  Desk scale only.

Each BFS layer, and its numeric form for the kd-tree search, is a pure
function of t, built once per process by `functools.cache`.  Layer t holds
the new right extensions u.T.g of layer t-1.  Since T^-1 = S^3.T, such a
child v gives back u = v.(g^-1.S^3).T, so the minimal T-count of v is
t-2, t-1 or t: layers t-1 and t-2 are the only ones a revisit can be in.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import enumerate_canonical
from .clifford import CLIFFORD, G_H
from .rewrite import adjoint_z_state, blocks_tokens, tokens_to_unitary
from .search import _SNAP, as_matrix
from .unitary import GATES, ExactUnitary, su2_quaternion

_DESK_EXACT = 10
_DESK_MITM = 16


@dataclass
class AuditReport:
    name: str
    checked: int
    violations: list
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else "FAIL"
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.info.items()))
        head = f"{self.name}: {state} checked={self.checked}"
        return f"{head} violations={len(self.violations)}" + (f" {extra}" if extra else "")


# ---------------------------------------------------------------------------
# breadth-first layers by minimal T-count

# right-extension alphabet: any minimal word g0.T.g1...T.gt factors as
# (minimal word of count t-1) . (T.gt), so layer x {T.g} is complete
_TG = [GATES["T"] * c for c in CLIFFORD]


@functools.cache
def _layer(t: int) -> dict:
    """{psu2 key: element} with minimal T-count exactly t, in first-seen order."""
    if t == 0:
        return {c.key(): c for c in CLIFFORD}
    prev = _layer(t - 1)
    older = _layer(t - 2) if t >= 2 else {}
    cur = {}
    for u in prev.values():
        for tg in _TG:
            v = u * tg
            k = v.key()
            if k not in older and k not in cur and k not in prev:
                cur[k] = v
    return cur


def bfs_layers(t_max: int) -> list[dict]:
    """layers[t] = {psu2 key: element} with minimal T-count exactly t.

    Exact dedup throughout.  Each layer is built once per process and
    cached, so repeated calls are cheap.  Layer t is the right extensions
    u.T.g of layer t-1 minus revisits, and a revisit can only lie in layer
    t-1 or t-2 (see the module docstring), so only those are checked.
    """
    return [_layer(t) for t in range(t_max + 1)]


def _translates(u: ExactUnitary) -> dict:
    """{psu2 key: (g1, g2)} over the 576 translates CLIFFORD[g1].u.CLIFFORD[g2],
    keeping the first (g1, g2) in row-major order for each key."""
    out: dict = {}
    for g1 in range(24):
        left = CLIFFORD[g1] * u
        for g2 in range(24):
            out.setdefault((left * CLIFFORD[g2]).key(), (g1, g2))
    return out


# ---------------------------------------------------------------------------
# double-coset ground truth

def coset_counts_by_t(t_max: int) -> list[int]:
    """counts[t] = distinct two-sided Clifford cosets of minimal T-count t."""
    if t_max > _DESK_EXACT:
        raise ValueError(f"desk scale only (t_max <= {_DESK_EXACT})")
    labeled: set = set()
    out = []
    for layer in bfs_layers(t_max):
        new = 0
        for k, u in layer.items():
            if k in labeled:
                continue
            new += 1
            keys = _translates(u).keys()
            # minimal T-count is a double-coset invariant
            assert keys <= layer.keys(), "translate escaped its layer"
            labeled.update(keys)
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# minimum T-count search (meet in the middle, with a plain-BFS second opinion)

@dataclass
class _LayerNum:
    quats: np.ndarray  # (2n, 4), both signs, so queries need no sign fix
    tree: object  # scipy.spatial.cKDTree
    inv_mats: np.ndarray  # (n, 2, 2)


@functools.cache
def _layer_numeric(t: int) -> _LayerNum:
    from scipy.spatial import cKDTree  # kept off the import path of qcanon

    mats = np.stack([u.to_matrix() for u in _layer(t).values()])
    q = su2_quaternion(mats)
    pts = np.concatenate([q, -q])
    return _LayerNum(pts, cKDTree(pts), np.conj(np.swapaxes(mats, 1, 2)))


def _snap_dist(max_abs_dot: float) -> float:
    dsq = max(0.0, 1.0 - max_abs_dot)
    if dsq < _SNAP:
        dsq = 0.0
    return math.sqrt(dsq)


def brute_min_tcount(target, epsilon: float, t_max: int = 12,
                     method: str = "mitm"):
    """Minimum T-count of any {H,T} circuit within epsilon, or None.

    method="mitm" splits candidates of T-count t as A.B with A in layer
    t//2 and B in layer t - t//2 (a minimal word always factors that way),
    then looks A up as target.B^-1 in a per-layer kd-tree over unit
    quaternions at chord radius sqrt(2)*epsilon.  method="bfs" scans every
    element outright and is the slow second opinion.
    """
    mat = as_matrix(target)
    if method == "bfs":
        if t_max > _DESK_EXACT:
            raise ValueError(f"bfs method needs t_max <= {_DESK_EXACT}")
        qt = su2_quaternion(mat)
        for t in range(t_max + 1):
            ln = _layer_numeric(t)
            if _snap_dist(float(np.max(np.abs(ln.quats @ qt)))) <= epsilon:
                return t
        return None
    if method != "mitm":
        raise ValueError(f"unknown method {method!r}")
    if t_max > _DESK_MITM:
        raise ValueError(f"desk scale only (t_max <= {_DESK_MITM})")
    # chord = sqrt(2 - 2|dot|) = sqrt(2) * dist; slack covers fp noise
    radius = math.sqrt(2.0) * epsilon * (1.0 + 1e-9)
    for t in range(t_max + 1):
        t1 = t // 2
        t2 = t - t1
        ln1 = _layer_numeric(t1)
        ln2 = _layer_numeric(t2)
        shifted = np.einsum("ij,njk->nik", mat, ln2.inv_mats)
        pts = su2_quaternion(shifted)
        hits = ln1.tree.query_ball_point(pts, radius)
        for i, hs in enumerate(hits):
            if not hs:
                continue
            best = float(np.max(np.abs(ln1.quats[hs] @ pts[i])))
            if _snap_dist(best) <= epsilon:
                return t
    return None


# ---------------------------------------------------------------------------
# uniqueness audit: canonical circuits are pairwise disjoint under all
# 576 two-sided Clifford translates

def theorem1_audit(t_max: int, inject_fake: bool = False) -> AuditReport:
    """No two distinct canonical circuits of T-count <= t_max collide under
    any (g1, g2) two-sided Clifford translate.

    The 576 translates of circuit i are its double coset, so circuit j > i
    collides with it iff j's own exact psu2 key is in i's translate table,
    and the table's (g1, g2) is the witness.  Exact arithmetic end to end.
    inject_fake plants a known duplicate (a conjugate of an existing
    circuit) to prove the audit can fail.
    """
    if t_max > _DESK_EXACT:
        raise ValueError(f"desk scale only (t_max <= {_DESK_EXACT})")
    circuits = list(enumerate_canonical(t_max))
    units = [tokens_to_unitary(blocks_tokens(b)) for b in circuits]
    if inject_fake:
        src = 1 if len(units) > 1 else 0
        circuits.append(("injected",) + tuple(circuits[src]))
        units.append(CLIFFORD[G_H] * units[src] * CLIFFORD[G_H])
    keys = [u.key() for u in units]
    violations = []
    for i, u in enumerate(units):
        table = _translates(u)
        for j in range(i + 1, len(units)):
            hit = table.get(keys[j])
            if hit is not None:
                violations.append((circuits[i], circuits[j], *hit))
    n = len(units)
    return AuditReport(
        name="theorem1",
        checked=n * (n - 1) // 2,
        violations=violations,
        info={"circuits": n, "translates_per_pair": 576},
    )


# ---------------------------------------------------------------------------
# parity audit on the exact adjoint action

def random_normalized_bits(rng: np.random.Generator, t_lo: int = 1,
                           t_hi: int = 40, start_th: bool = False) -> tuple:
    """Uniform block bits at a uniform T-count in [t_lo, t_hi]."""
    t = int(rng.integers(t_lo, t_hi + 1))
    bits = [int(b) for b in rng.integers(0, 2, size=t)]
    if start_th and bits:
        bits[0] = 0
    return tuple(bits)


def parity_audit(samples: int = 1000, seed: int = 0) -> AuditReport:
    """x0 odd and y0, z0 of opposite parity, for every random normalized
    circuit that begins with a TH block.  Exact integer recurrence."""
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(samples):
        bits = random_normalized_bits(rng, start_th=True)
        _, (x0, _, y0, _, z0, _) = adjoint_z_state(bits)
        if x0 % 2 != 1 or (y0 - z0) % 2 != 1:
            violations.append(bits)
    return AuditReport(
        name="parity",
        checked=samples,
        violations=violations,
        info={"seed": seed},
    )
