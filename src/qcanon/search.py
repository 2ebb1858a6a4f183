"""Minimum-T-count approximation queries against a catalog.

A query unitary U is compared with every catalog entry c through its 576
Clifford-dressed targets Ad_g[U h], held as one array with one row
(c, s, axis) per pair (h, g); a hit at distance d reassembles to
g^-1 . c . (g h^-1) at the same distance.  Rows that coincide for a
symmetric target are kept: they tie exactly and lose on (h, g).

One scan serves `approximate` (T-count first) and `nearest` (distance
first).  The 24 rows of one h share their trace, so each h makes one
trace-window call |key - |tr|| < 4 eps.  One bound per window entry,
c1 c + s1 s (fold_e . fold_h) with the folds of `geometry.assign_bins`,
is at least the entry's overlap with all 24 rows of h; the entries it
cannot rule out are evaluated against the 24 rows at once.  Every hit
closer than eps, over all h, goes to one judge: one lexsort on (t, d), or
(d, t) for `nearest`, and exact ties broken by (bits, k) in Python on the
tied hits alone.  `nearest` seeds its radius from the nearest-key buckets
and then makes one scan at that radius.  A plain linear scan of every
entry against every row, with the identical evaluation and judge, is kept
as a cross-check oracle.

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
from .geometry import ROT_F, assign_bins
from .rewrite import CosetForm
from .unitary import ExactUnitary, su2_quaternion

_CLIFF_MATS = np.stack([c.to_matrix() for c in CLIFFORD])
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
    q = su2_quaternion(mat @ _CLIFF_MATS)
    v = q[:, 1:]
    s = np.sqrt(np.vecdot(v, v))
    rows[:, :, 0] = np.abs(q[:, :1])
    rows[:, :, 1] = s[:, None]
    axes = np.where(s[:, None] > 1e-15, v / np.maximum(s, 1e-300)[:, None], (0.0, 0.0, 1.0))
    rows[:, :, 2:] = np.einsum("gij,hj->hgi", ROT_F, axes)
    return rows.reshape(576, 5)


def _dist(db: Catalog, ids, rows: np.ndarray) -> np.ndarray:
    """Distances of the entries ids (an index array or a slice) to the 24
    dressed targets of one h, as a (24, len(ids)) array.

    The dot is written out elementwise, not as a BLAS product, so that each
    distance is a function of its (entry, row) pair alone, whatever other
    entries are evaluated with it.
    """
    ax = db.axes[ids]
    dots = ax[:, 0] * rows[:, 2:3] + ax[:, 1] * rows[:, 3:4] + ax[:, 2] * rows[:, 4:5]
    vals = np.abs(db.c1[ids] * rows[0, 0] + (db.s1[ids] * rows[0, 1]) * dots)
    dsq = np.maximum(0.0, 1.0 - vals)
    dsq[dsq < _SNAP] = 0.0
    return np.sqrt(dsq)


def _hits(db: Catalog, ids: np.ndarray, rows: np.ndarray, h: int,
          epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entry id, row k = 24 h + g, distance) of every pair closer than
    epsilon between the entries ids and the 24 rows of h."""
    d = _dist(db, ids, rows)
    g, j = np.nonzero(d < epsilon)
    return ids[j], 24 * h + g, d[g, j]


def _scan(db: Catalog, targets: np.ndarray, epsilon: float) -> list:
    """`_hits` of every h, over the entries its window and fold bound keep.

    The 24 rows of one h share their trace, so each h makes one window
    call; the fold bound c1 c + s1 s (fold_e . fold_h) is at least the
    overlap of entry e with every row of h, antipodes included, so an
    entry below the threshold is closer than epsilon to none of them.  The
    threshold keeps exact members that the snap lets through at tiny
    epsilon, and 1e-12 covers rounding.
    """
    thr = 1.0 - max(epsilon * epsilon, _SNAP) - 1e-12
    # the 24 rows of one h hold one axis under the 24 rotations: one fold
    folds = assign_bins(targets[::24, 2:])
    hits = []
    for h in range(24):
        rows = targets[24 * h:24 * h + 24]
        win = db.window(2.0 * rows[0, 0], 4.0 * epsilon + DELTA_BUCKET)
        if len(win) == 0:
            continue
        s, e = int(db.starts[win.start]), int(db.starts[win.stop])
        f, fh = db.fold[s:e], folds[h]
        ub = db.c1[s:e] * rows[0, 0] + (db.s1[s:e] * rows[0, 1]) * (
            f[:, 0] * fh[0] + f[:, 1] * fh[1] + f[:, 2] * fh[2])
        ids = s + np.flatnonzero(ub >= thr)
        if len(ids):
            hits.append(_hits(db, ids, rows, h, epsilon))
    return hits


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
    final = dist_matrix(circuit.to_unitary().to_matrix(), mat)
    # squared distances are linear in the trace, so they compare cleanly;
    # the distances themselves lose half the precision near zero
    # a stored axis that disagrees with the entry's bits shows up here
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
    targets = coset_targets(mat)
    if method == "geometric":
        hits = _scan(db, targets, q.epsilon)
    else:
        # every entry against every row: no window and no bound
        ids = np.arange(db.entry_count())
        hits = [_hits(db, ids, targets[24 * h:24 * h + 24], h, q.epsilon)
                for h in range(24)]
    return _finish(_judge(db, hits, dist_first=False), mat)


def nearest(target, db: Catalog) -> ApproxResult:
    """Global minimum-distance entry, no epsilon cap (distance-first order)."""
    mat = as_matrix(target)
    targets = coset_targets(mat)
    # seed: the nearest-key buckets of each h against its 24 rows
    seed = 1.0
    nb = len(db.keys)
    for h in range(24):
        rows = targets[24 * h:24 * h + 24]
        lo = int(np.searchsorted(db.keys, 2.0 * rows[0, 0]))
        s, e = int(db.starts[max(0, lo - 1)]), int(db.starts[min(nb, lo + 1)])
        seed = min(seed, float(_dist(db, slice(s, e), rows).min()))
    # The window and the fold bound never drop an entry closer than their
    # radius (criterion 08 checks them against the linear scan), so one
    # scan just past the seed's distance sees every entry at least as near.
    # Each distance depends on its (entry, row) pair alone, so the seed's
    # entry reappears at exactly the seed; the margin, 1e-12 in squared
    # distance, keeps it under the strict d < eps.
    eps = min(1.0, math.sqrt(seed * seed + 1e-12))
    return _finish(_judge(db, _scan(db, targets, eps), dist_first=True), mat)
