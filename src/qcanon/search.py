"""Minimum-T-count approximation queries against a catalog.

A query unitary U is compared with every catalog entry c through its 576
Clifford-dressed targets Ad_g[U h], held as one array with one row
(c, s, axis) per pair (h, g); a hit at distance d reassembles to
g^-1 . c . (g h^-1) at the same distance.  Rows that coincide for a
symmetric target are kept: they tie exactly and lose on (h, g).

The catalog is ordered by (T-count, trace key), so the search runs layer
by layer.  The 24 rows of one h share their trace, so one window call per
layer gives each h its entry range |key - |tr|| < 4 eps within that
layer; the 24 ranges are gathered into one index array with an h index.
One bound per gathered entry, c1 c + s1 s (fold_e . fold_h) with the folds
of `geometry.assign_bins`, summed as four products, is at least the
entry's overlap with all 24 rows of its h; the entries it cannot rule out
are evaluated against the 24 rows of their h, elementwise.  A layer thus
costs a fixed number of numpy calls.  `approximate` (T-count first) scans
t = 0, 1, ... and stops at the first layer with a hit, whose hits go to
the judge: the least (d, bits, k), with exact ties broken by (bits, k) in
Python on the tied hits alone.  `nearest` (distance first) seeds its
radius from the nearest-key buckets, found with one `searchsorted` per
layer, then scans every layer at that radius and judges all hits by (d,
t, bits, k).  A plain linear scan of every entry against every row, with
the identical evaluation and judge and no window or bound, is kept as a
cross-check oracle.

All query arithmetic is double precision; exactness lives on the catalog
side.  Squared distances below 1e-13 snap to zero so that exact members
survive arbitrarily tight epsilons (the overlap value carries ~1e-15 of
arithmetic noise, which the square root would otherwise blow up to 1e-8).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import _BLOCK, Catalog, CatalogError, DELTA_BUCKET
from .clifford import CLIFFORD, INV, MULT
from .geometry import ROT_F, assign_bins
from .rewrite import CosetForm
from .unitary import ExactUnitary, su2_quaternion

_CLIFF_MATS = np.stack([c.to_matrix() for c in CLIFFORD])
_BLOCK_MATS = np.stack([b.to_matrix() for b in _BLOCK])
_SNAP = 1e-13
_H = np.arange(24)


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


def form_matrix(g1: int, bits, g2: int) -> np.ndarray:
    """CLIFFORD[g1] . blocks(bits) . CLIFFORD[g2] in doubles, the stacked
    factors multiplied pairwise: log2(t) stacked products, and log2(t)
    roundings per entry rather than t."""
    m = np.concatenate((_CLIFF_MATS[[g1]], _BLOCK_MATS[list(bits)], _CLIFF_MATS[[g2]]))
    while len(m) > 1:
        if len(m) % 2:
            m = np.concatenate((m, _CLIFF_MATS[:1]))
        m = m[0::2] @ m[1::2]
    return m[0]


def as_matrix(target) -> np.ndarray:
    """Accept an ExactUnitary or any 2x2 array of finite entries; check
    unitarity to 1e-8."""
    if isinstance(target, ExactUnitary):
        return target.to_matrix()
    mat = np.asarray(target, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValueError("target must be 2x2")
    if not np.isfinite(mat).all():
        raise ValueError("target has a non-finite entry")
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
    q = su2_quaternion(mat @ _CLIFF_MATS)
    v = q[:, 1:]
    s = np.sqrt(np.vecdot(v, v))
    rows[:, :, 0] = np.abs(q[:, :1])
    rows[:, :, 1] = s[:, None]
    axes = np.where(s[:, None] > 1e-15, v / np.maximum(s, 1e-300)[:, None], (0.0, 0.0, 1.0))
    rows[:, :, 2:] = np.einsum("gij,hj->hgi", ROT_F, axes)
    return rows.reshape(576, 5)


def _dist(db: Catalog, ids, c, s, rows: np.ndarray) -> np.ndarray:
    """Distances of the entries ids (an index array or a slice) to 24 dressed
    targets, as a (24, len(ids)) array: either one h for all entries (c and
    s scalars, rows (24, 1, 3) of axes) or each entry its own h (c and s
    (len(ids),), rows (24, len(ids), 3)).

    The dot is written out elementwise, not as a BLAS product, so that each
    distance is a function of its (entry, row) pair alone, whatever other
    entries are evaluated with it.
    """
    ax = db.axes[ids]
    dots = ax[:, 0] * rows[..., 0] + ax[:, 1] * rows[..., 1] + ax[:, 2] * rows[..., 2]
    vals = np.abs(db.c1[ids] * c + (db.s1[ids] * s) * dots)
    dsq = np.maximum(0.0, 1.0 - vals)
    dsq[dsq < _SNAP] = 0.0
    return np.sqrt(dsq)


def _gather(lo: np.ndarray, hi: np.ndarray, h: np.ndarray):
    """The entry ids of the ranges lo[i]:hi[i], in order, and h[i] for each."""
    n = hi - lo
    ends = np.cumsum(n)
    return np.arange(ends[-1]) + np.repeat(lo - ends + n, n), np.repeat(h, n)


class _Query:
    """The dressed targets of one query, laid out for the layer scan."""

    def __init__(self, mat: np.ndarray):
        self.rows = coset_targets(mat).reshape(24, 24, 5)
        self.traces = 2.0 * self.rows[:, 0, 0]
        # the 24 rows of one h hold one axis under the 24 rotations: one
        # fold, as the terms (c, s fold) against the entries' (c1, s1 fold)
        self.bound = np.empty((4, 24))
        self.bound[0] = self.rows[:, 0, 0]
        self.bound[1:] = self.rows[:, 0, 1] * assign_bins(self.rows[:, 0, 2:]).T

    def dist(self, db: Catalog, ids: np.ndarray, hh: np.ndarray) -> np.ndarray:
        """`_dist` of the entries ids to the 24 rows of their h, hh."""
        r = self.rows[hh]
        return _dist(db, ids, r[:, 0, 0], r[:, 0, 1], r[:, :, 2:].transpose(1, 0, 2))

    def scan(self, db: Catalog, layers, epsilon: float):
        """(entry id, row k = 24 h + g, distance) of every pair closer than
        epsilon, over the entries of the given layers that their windows
        and the fold bound keep, each against the 24 rows of its h.

        The fold bound c1 c + s1 s (fold_e . fold_h) is at least the
        overlap of entry e with every row of h, antipodes included, so an
        entry below the threshold is closer than epsilon to none of them.
        The threshold keeps exact members that the snap lets through at
        tiny epsilon, and 1e-12 covers rounding, the bound's reassociation
        into four products included.
        """
        radius = 4.0 * epsilon + DELTA_BUCKET
        lo, hi = zip(*(db.window(t, self.traces, radius) for t in layers))
        ids, hh = _gather(np.concatenate(lo), np.concatenate(hi), np.tile(_H, len(lo)))
        thr = 1.0 - max(epsilon * epsilon, _SNAP) - 1e-12
        b, q = db.bound, self.bound
        ub = (b[0].take(ids) * q[0].take(hh) + b[1].take(ids) * q[1].take(hh)
              + b[2].take(ids) * q[2].take(hh) + b[3].take(ids) * q[3].take(hh))
        keep = np.flatnonzero(ub >= thr)
        if not len(keep):  # most layers below the answer's T-count
            return keep, keep, ub[keep]
        ids, hh = ids[keep], hh[keep]
        d = self.dist(db, ids, hh)
        g, j = np.nonzero(d < epsilon)
        return ids[j], 24 * hh[j] + g, d[g, j]


def _judge(db: Catalog, hits: list, dist_first: bool):
    """The least hit by (t, d, bits, k), or (d, t, bits, k) when dist_first,
    as that tuple; None if there is no hit."""
    cols = [np.concatenate(col) for col in zip(*hits)]
    if not cols or len(cols[0]) == 0:
        return None
    ids, k, d = cols
    t = db.t[ids]
    j = np.lexsort((t, d) if dist_first else (d, t))[0]
    tie = np.flatnonzero((t == t[j]) & (d == d[j]))
    bits, kb = min((db.entry_bits(int(ids[i])), int(k[i])) for i in tie)
    return int(t[j]), float(d[j]), bits, kb


def _finish(best, mat: np.ndarray) -> ApproxResult:
    if best is None:
        return ApproxResult(None, None, None, False)
    t, d, bits, k = best
    h, g = divmod(k, 24)
    circuit = CosetForm(INV[g], bits, MULT[g][INV[h]])
    final = dist_matrix(form_matrix(circuit.g1, bits, circuit.g2), mat)
    # computed from the bits alone, so a stored axis that disagrees with
    # them shows up here; squared distances are linear in the trace, so they
    # compare cleanly, while distances lose half the precision near zero
    if abs(final * final - d * d) > 1e-9:
        raise CatalogError(
            f"corrupt catalog: reassembled circuit distance {final} "
            f"disagrees with scan {d}"
        )
    return ApproxResult(circuit, t, d, True)


def approximate(q: ApproxQuery, db: Catalog, method: str = "geometric") -> ApproxResult:
    """Minimum-T-count circuit within epsilon of the target, if any."""
    if not (0.0 < q.epsilon <= 1.0):
        raise ValueError("epsilon must be in (0, 1]")
    if method not in ("geometric", "linear"):
        raise ValueError(f"unknown method {method!r}")
    mat = as_matrix(q.target)
    if method == "linear":
        # every entry against every row: no window and no bound
        targets = coset_targets(mat)
        hits = []
        for h in range(24):
            rows = targets[24 * h:24 * h + 24]
            d = _dist(db, slice(None), rows[0, 0], rows[0, 1], rows[:, None, 2:])
            g, j = np.nonzero(d < q.epsilon)
            hits.append((j, 24 * h + g, d[g, j]))
        return _finish(_judge(db, hits, dist_first=False), mat)
    query = _Query(mat)
    for t in range(db.max_tcount + 1):
        hits = query.scan(db, (t,), q.epsilon)
        if len(hits[0]):
            return _finish(_judge(db, [hits], dist_first=False), mat)
    return _finish(None, mat)


def nearest(target, db: Catalog) -> ApproxResult:
    """Global minimum-distance entry, no epsilon cap (distance-first order)."""
    mat = as_matrix(target)
    query = _Query(mat)
    # seed: per h, the buckets of the largest key below its trace and of the
    # least key at or above it, over every layer (a key may recur in layers)
    pos = np.stack([db.layers[t] + np.searchsorted(
        db.keys[db.layers[t]:db.layers[t + 1]], query.traces)
        for t in range(db.max_tcount + 1)])
    has_below = pos > db.layers[:-1, None]
    has_above = pos < db.layers[1:, None]
    below = np.where(has_below, db.keys[pos - 1], -np.inf)
    above = np.where(has_above, db.keys[np.minimum(pos, len(db.keys) - 1)], np.inf)
    lt, lh = np.nonzero(has_below & (below == below.max(axis=0)))
    at, ah = np.nonzero(has_above & (above == above.min(axis=0)))
    b = np.concatenate((pos[lt, lh] - 1, pos[at, ah]))
    ids, hh = _gather(db.starts[b], db.starts[b + 1], np.concatenate((lh, ah)))
    seed = float(query.dist(db, ids, hh).min())
    # The window and the fold bound never drop an entry closer than their
    # radius (criterion 08 checks them against the linear scan), so one
    # scan just past the seed's distance sees every entry at least as near.
    # Each distance depends on its (entry, row) pair alone, so the seed's
    # entry reappears at exactly the seed; the margin, 1e-12 in squared
    # distance, keeps it under the strict d < eps.
    eps = min(1.0, math.sqrt(seed * seed + 1e-12))
    hits = query.scan(db, range(db.max_tcount + 1), eps)
    return _finish(_judge(db, [hits], dist_first=True), mat)
