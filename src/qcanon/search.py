"""Minimum-T-count approximation queries against a catalog.

A query unitary U is compared with every catalog entry c through its 576
Clifford-dressed targets Ad_g[U h], held as one array with one row
(c, s, axis) per pair (h, g); a hit at distance d reassembles to
g^-1 . c . (g h^-1) at the same distance.  Rows that coincide for a
symmetric target are kept: they tie exactly and lose on (h, g).

One scan serves `approximate` (T-count first) and `nearest` (distance
first).  The 24 rows of one h share their trace, so each h makes one
trace-window call |key - |tr|| < 4 eps and one cone selection over its
24 axes: the distance condition becomes an exact angular cone around
each axis (or its antipode), and only entries whose tile, nearest arc or
nearest corner meets the cone are evaluated.  `nearest` seeds its radius
from the nearest-key buckets and then makes one scan at that radius.  A
plain linear scan of every entry against every row, with the identical
predicate and tie-break, is kept as a cross-check oracle.

All query arithmetic is double precision; exactness lives on the catalog
side.  Squared distances below 1e-13 snap to zero so that exact members
survive arbitrarily tight epsilons (the overlap value carries ~1e-15 of
arithmetic noise, which the square root would otherwise blow up to 1e-8).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, CatalogError, DELTA_BUCKET
from .clifford import CLIFFORD, INV, MULT
from .geometry import ROT_F, edge_distances, faces_of, vertex_distances
from .rewrite import CosetForm
from .unitary import ExactUnitary, su2_quaternion

_CLIFF_MATS = [c.to_matrix() for c in CLIFFORD]
_SNAP = 1e-13


@dataclass(frozen=True)
class ApproxQuery:
    target: object  # ExactUnitary or 2x2 complex array
    epsilon: float


@dataclass(frozen=True)
class ApproxResult:
    circuit: CosetForm | None
    t_count: int | None
    achieved_dist: float | None
    found: bool


def as_matrix(target) -> np.ndarray:
    """Accept an ExactUnitary or any 2x2 array; check unitarity to 1e-8."""
    if isinstance(target, ExactUnitary):
        return target.to_matrix()
    mat = np.asarray(target, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValueError("target must be 2x2")
    if np.abs(mat @ mat.conj().T - np.eye(2)).max() > 1e-8:
        raise ValueError("target is not unitary within 1e-8")
    return mat


def dist_matrix(a: np.ndarray, b: np.ndarray) -> float:
    """Projective distance between two numeric unitaries."""
    t = abs(np.trace(a @ b.conj().T))
    dd = abs(np.linalg.det(a) * np.linalg.det(b))
    t /= math.sqrt(dd) if dd > 0 else 1.0
    return math.sqrt(max(0.0, (2.0 - t) / 2.0))


def coset_targets(mat: np.ndarray) -> np.ndarray:
    """The 576 dressed targets Ad_g[U h], one row (c, s, axis) each.

    Row 24 h + g holds the target of Clifford h and rotation g; the 24
    rows of one h share c and s.  ROT_F are signed permutations, so the
    rotated axes are exact copies of the per-h axis components.
    """
    rows = np.empty((24, 24, 5))
    axes = np.empty((24, 3))
    for h in range(24):
        q = su2_quaternion(mat @ _CLIFF_MATS[h])
        v = q[1:]
        s = float(np.linalg.norm(v))
        rows[h, :, 0] = abs(float(q[0]))
        rows[h, :, 1] = s
        axes[h] = v / s if s > 1e-15 else (0.0, 0.0, 1.0)
    rows[:, :, 2:] = np.einsum("gij,hj->hgi", ROT_F, axes)
    return rows.reshape(576, 5)


def _branch_select(db: Catalog, s, e, axes: np.ndarray, x) -> np.ndarray:
    """Tile-index selection of the entries [s, e) for one cone branch.

    axes holds one cone centre per row, x the per-entry cos(alpha) bound;
    entry j is selected for centre k iff feasible and its tile, nearest
    arc, or nearest corner meets the widened cone: an entry inside the
    cone but outside the centre's tile is within alpha of its own nearest
    arc, which is then within 2 alpha of the centre.  alpha >= pi/2
    selects every feasible entry.
    """
    feas = x <= 1.0 + 1e-12
    alpha = np.arccos(np.clip(x, -1.0, 1.0))
    widen = 2.0 * alpha + 1e-12
    near = db.face[s:e] == faces_of(axes)[:, None]
    near |= edge_distances(axes)[:, db.edge[s:e]] <= widen
    near |= vertex_distances(axes)[:, db.vert[s:e]] <= widen
    return feas & ((alpha >= math.pi / 2) | near)


def _cone_candidates(db: Catalog, s, e, rows: np.ndarray,
                     epsilon: float) -> list[np.ndarray]:
    """Global entry ids of [s, e) passing the cone selection, per row of
    one h group."""
    c1 = db.c1[s:e]
    ss = db.s1[s:e] * rows[0, 1]
    cc = c1 * rows[0, 0]
    thr = 1.0 - epsilon * epsilon
    degenerate = ss < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        x_pri = (thr - cc) / ss
        x_ant = (thr + cc) / ss
    sel = np.zeros((len(rows), e - s), dtype=bool)
    if not degenerate.all():
        axes = rows[:, 2:]
        sel = _branch_select(db, s, e, axes, x_pri)
        if (x_ant <= 1.0 + 1e-12).any():
            sel |= _branch_select(db, s, e, -axes, x_ant)
        sel &= ~degenerate
    sel |= degenerate & (np.abs(cc) >= thr - 1e-12)
    return [s + np.flatnonzero(row) for row in sel]


def _eval_ids(db: Catalog, ids, row: np.ndarray) -> np.ndarray:
    """Distances of the selected entries to one dressed target."""
    dots = db.axes[ids] @ row[2:]
    vals = np.abs(db.c1[ids] * row[0] + (db.s1[ids] * row[1]) * dots)
    dsq = np.maximum(0.0, 1.0 - vals)
    dsq[dsq < _SNAP] = 0.0
    return np.sqrt(dsq)


class _Best:
    """Running argmin; key order (t, d, bits, k) or (d, t, bits, k), where
    k = 24 h + g is the dressed target's row."""

    __slots__ = ("dist_first", "t", "d", "bits", "k")

    def __init__(self, dist_first: bool):
        self.dist_first = dist_first
        self.t = None
        self.d = math.inf
        self.bits = None
        self.k = None

    def _key(self, t, d, bits, k):
        return (d, t, bits, k) if self.dist_first else (t, d, bits, k)

    def offer(self, db: Catalog, ids, row: np.ndarray, k: int, epsilon: float):
        """Offer the entries ids closer than epsilon to dressed target k."""
        if len(ids) == 0:
            return
        d = _eval_ids(db, ids, row)
        ok = d < epsilon
        ids, d = ids[ok], d[ok]
        if len(ids) == 0:
            return
        t = db.t[ids]
        j = np.lexsort((d, t) if not self.dist_first else (t, d))[0]
        tb, db_ = int(t[j]), float(d[j])
        if self.t is not None:
            cur = self._key(self.t, self.d, (), 0)[:2]
            if self._key(tb, db_, (), 0)[:2] > cur:
                return
        # resolve exact ties on the numeric part by block bits
        tie = np.flatnonzero((d == db_) & (t == tb))
        bits = min(db.entry_bits(int(ids[i])) for i in tie)
        if self.t is None or self._key(tb, db_, bits, k) < \
                self._key(self.t, self.d, self.bits, self.k):
            self.t, self.d, self.bits, self.k = tb, db_, bits, k


def _scan(db: Catalog, targets: np.ndarray, epsilon: float,
          dist_first: bool) -> _Best:
    """Best entry closer than epsilon to any dressed target.

    The 24 rows of one h share their trace, so each h makes one window
    call and one cone selection over all of its axes; every selected
    entry is then evaluated against its own row.
    """
    best = _Best(dist_first)
    for h in range(24):
        rows = targets[24 * h:24 * h + 24]
        win = db.window(2.0 * rows[0, 0], 4.0 * epsilon + DELTA_BUCKET)
        if len(win) == 0:
            continue
        s, e = int(db.starts[win.start]), int(db.starts[win.stop])
        for g, ids in enumerate(_cone_candidates(db, s, e, rows, epsilon)):
            best.offer(db, ids, rows[g], 24 * h + g, epsilon)
    return best


def _finish(best: _Best, mat: np.ndarray) -> ApproxResult:
    if best.t is None:
        return ApproxResult(None, None, None, False)
    h, g = divmod(best.k, 24)
    circuit = CosetForm(INV[g], best.bits, MULT[g][INV[h]])
    final = dist_matrix(circuit.to_unitary().to_matrix(), mat)
    # squared distances are linear in the trace, so they compare cleanly;
    # the distances themselves lose half the precision near zero
    # a stored axis that disagrees with the entry's bits shows up here
    if abs(final * final - best.d * best.d) > 1e-9:
        raise CatalogError(
            f"corrupt catalog: reassembled circuit distance {final} "
            f"disagrees with scan {best.d}"
        )
    return ApproxResult(circuit, best.t, best.d, True)


def approximate(q: ApproxQuery, db: Catalog, method: str = "geometric") -> ApproxResult:
    """Minimum-T-count circuit within epsilon of the target, if any."""
    if not (0.0 < q.epsilon <= 1.0):
        raise ValueError("epsilon must be in (0, 1]")
    if method not in ("geometric", "linear"):
        raise ValueError(f"unknown method {method!r}")
    mat = as_matrix(q.target)
    targets = coset_targets(mat)
    if method == "geometric":
        return _finish(_scan(db, targets, q.epsilon, dist_first=False), mat)
    best = _Best(dist_first=False)
    ids = np.arange(db.entry_count())
    for k, row in enumerate(targets):
        best.offer(db, ids, row, k, q.epsilon)
    return _finish(best, mat)


def nearest(target, db: Catalog) -> ApproxResult:
    """Global minimum-distance entry, no epsilon cap (distance-first order)."""
    mat = as_matrix(target)
    targets = coset_targets(mat)
    # seed: the nearest-key buckets of each h against its 24 rows at once,
    # an elementwise dot (a 2-D BLAS product holds more memory at its peak)
    overlap = 0.0
    nb = len(db.keys)
    for h in range(24):
        rows = targets[24 * h:24 * h + 24]
        lo = int(np.searchsorted(db.keys, 2.0 * rows[0, 0]))
        s, e = int(db.starts[max(0, lo - 1)]), int(db.starts[min(nb, lo + 1)])
        ax = db.axes[s:e]
        dots = ax[:, :1] * rows[:, 2] + ax[:, 1:2] * rows[:, 3] + ax[:, 2:] * rows[:, 4]
        vals = np.abs(db.c1[s:e, None] * rows[0, 0] + (db.s1[s:e, None] * rows[0, 1]) * dots)
        overlap = max(overlap, float(vals.max()))
    dsq = max(0.0, 1.0 - overlap)
    seed = 0.0 if dsq < _SNAP else math.sqrt(dsq)
    # The window and the cones never drop an entry closer than their
    # radius (criterion 08 checks them against the linear scan), so one
    # scan just past the seed's distance sees every entry at least as near.
    # The margin, 1e-12 in squared distance, covers the last-bit rounding
    # of one distance evaluated over different id sets.
    eps = min(1.0, math.sqrt(seed * seed + 1e-12))
    return _finish(_scan(db, targets, eps, dist_first=True), mat)
