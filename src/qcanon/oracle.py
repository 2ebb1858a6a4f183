"""Brute-force oracles that cross-check the fast paths.

Everything here favors transparency over speed: breadth-first enumeration
of the whole group with exact dedup, meet-in-the-middle over layer pairs,
and exhaustive two-sided-translate disjointness checks.  Desk scale only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import enumerate_canonical
from .clifford import CLIFFORD, G_H
from .rewrite import adjoint_z_state, blocks_tokens, tokens_to_unitary
from .search import _SNAP, as_matrix
from .unitary import GATES, ExactUnitary, psu2_equal, su2_quaternion

_DESK_BFS = 10
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

class _BfsState:
    def __init__(self):
        self.layers: list[dict] = []


_BFS = _BfsState()
_SEEN: set = set()
# right-extension alphabet: any minimal word g0.T.g1...T.gt factors as
# (minimal word of count t-1) . (T.gt), so frontier x {T.g} is complete
_TG = [GATES["T"] * c for c in CLIFFORD]


def bfs_layers(t_max: int) -> list[dict]:
    """layers[t] = {psu2 key: element} with minimal T-count exactly t.

    Exact dedup throughout; extended incrementally and cached for the
    process lifetime, so repeated calls at increasing t_max are cheap.
    """
    if not _BFS.layers:
        l0 = {c.key(): c for c in CLIFFORD}
        _BFS.layers.append(l0)
        _SEEN.update(l0)
    while len(_BFS.layers) <= t_max:
        cur = {}
        for u in _BFS.layers[-1].values():
            for tg in _TG:
                v = u * tg
                k = v.key()
                if k not in _SEEN:
                    _SEEN.add(k)
                    cur[k] = v
        _BFS.layers.append(cur)
    return _BFS.layers[: t_max + 1]


# ---------------------------------------------------------------------------
# double-coset ground truth

def coset_counts_by_t(t_max: int) -> list[int]:
    """counts[t] = distinct two-sided Clifford cosets of minimal T-count t."""
    if t_max > _DESK_BFS:
        raise ValueError(f"desk scale only (t_max <= {_DESK_BFS})")
    layers = bfs_layers(t_max)
    labeled: set = set()
    out = []
    for layer in layers:
        new = 0
        for k, u in layer.items():
            if k in labeled:
                continue
            new += 1
            for g1 in range(24):
                left = CLIFFORD[g1] * u
                for g2 in range(24):
                    kk = (left * CLIFFORD[g2]).key()
                    # minimal T-count is a double-coset invariant
                    assert kk in layer, "translate escaped its layer"
                    labeled.add(kk)
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# minimum T-count search (meet in the middle, with a plain-BFS second opinion)

@dataclass
class _LayerNum:
    quats: np.ndarray  # (2n, 4), both signs, so queries need no sign fix
    tree: object  # scipy.spatial.cKDTree
    inv_mats: np.ndarray  # (n, 2, 2)


_LAYER_NUM: dict[int, _LayerNum] = {}


def _layer_numeric(t: int) -> _LayerNum:
    ln = _LAYER_NUM.get(t)
    if ln is None:
        from scipy.spatial import cKDTree  # kept off the import path of qcanon

        layer = bfs_layers(t)[t]
        mats = np.stack([u.to_matrix() for u in layer.values()])
        q = su2_quaternion(mats)
        pts = np.concatenate([q, -q])
        ln = _LayerNum(pts, cKDTree(pts), np.conj(np.swapaxes(mats, 1, 2)))
        _LAYER_NUM[t] = ln
    return ln


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
        if t_max > _DESK_BFS:
            raise ValueError(f"bfs method needs t_max <= {_DESK_BFS}")
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

def _canonical_unitaries(t_max: int):
    circuits = list(enumerate_canonical(t_max))
    units = [tokens_to_unitary(blocks_tokens(b)) for b in circuits]
    return circuits, units


def _translate_witness(ui: ExactUnitary, uj: ExactUnitary):
    for g1 in range(24):
        left = CLIFFORD[g1] * ui
        for g2 in range(24):
            if psu2_equal(left * CLIFFORD[g2], uj):
                return g1, g2
    return None


def theorem1_audit(t_max: int, inject_fake: bool = False) -> AuditReport:
    """No two distinct canonical circuits of T-count <= t_max collide under
    any (g1, g2) two-sided Clifford translate.

    Per circuit we take the exact psu2 keys of all 576 translates; a pair
    collides for some (g1, g2) iff its key sets intersect, so the pairwise
    check runs on precomputed sets without repeating products.  Exact
    arithmetic end to end.  inject_fake plants a known duplicate (a
    conjugate of an existing circuit) to prove the audit can fail.
    """
    if t_max > _DESK_BFS:
        raise ValueError(f"desk scale only (t_max <= {_DESK_BFS})")
    circuits, units = _canonical_unitaries(t_max)
    if inject_fake:
        src = 1 if len(units) > 1 else 0
        circuits.append(("injected",) + tuple(circuits[src]))
        units.append(CLIFFORD[G_H] * units[src] * CLIFFORD[G_H])
    keysets = []
    for u in units:
        keys = set()
        for g1 in range(24):
            left = CLIFFORD[g1] * u
            for g2 in range(24):
                keys.add((left * CLIFFORD[g2]).key())
        keysets.append(frozenset(keys))
    violations = []
    pairs = 0
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            pairs += 1
            if keysets[i].isdisjoint(keysets[j]):
                continue
            g1, g2 = _translate_witness(units[i], units[j])
            violations.append((circuits[i], circuits[j], g1, g2))
    return AuditReport(
        name="theorem1",
        checked=pairs,
        violations=violations,
        info={"circuits": len(units), "translates_per_pair": 576},
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
