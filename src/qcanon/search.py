"""Minimum-T-count approximation queries against a catalog.

A query unitary U is compared with every catalog entry c through the up
to 576 Clifford-dressed targets Ad_g[U h]; a hit at distance d
reassembles to g^-1 . c . (g h^-1) at the same distance.  Buckets are
preselected through the trace window |key - |tr|| < 4 eps; inside the
window the distance condition is converted per entry to an exact angular
cone around the target axis (or its antipode), and only entries whose
tile, nearest arc or nearest corner meets the cone are evaluated.  The
dressed targets of one h share their trace, so each such group makes one
window call and one cone selection over all of its axes at once.  Every
scan reads the catalog's own entry columns (c1, s1, axis, T-count, tile
ids) over the bucket range the window selects.  A plain linear scan with
the identical predicate and tie-break is kept as a cross-check oracle.

All query arithmetic is double precision; exactness lives on the catalog
side.  Squared distances below 1e-13 snap to zero so that exact members
survive arbitrarily tight epsilons (the overlap value carries ~1e-15 of
arithmetic noise, which the square root would otherwise blow up to 1e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

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


class _Pair:
    """One deduplicated coset target Ad_g[U h]."""

    __slots__ = ("h", "g", "c", "s", "axis", "trace")

    def __init__(self, h, g, c, s, axis):
        self.h = h
        self.g = g
        self.c = c
        self.s = s
        self.axis = axis
        self.trace = 2.0 * c


def coset_targets(mat: np.ndarray) -> list[_Pair]:
    """The up-to-576 dressed targets, deduplicated by projective equality."""
    pairs = []
    seen = set()
    for h in range(24):
        q = su2_quaternion(mat @ _CLIFF_MATS[h])
        c = abs(float(q[0]))
        v = q[1:]
        s = float(np.linalg.norm(v))
        axis = v / s if s > 1e-15 else np.array([0.0, 0.0, 1.0])
        for g in range(24):
            ra = ROT_F[g] @ axis
            sv = s * ra
            if c < 1e-9:
                for x in sv:
                    if abs(x) > 1e-9:
                        if x < 0:
                            sv = -sv
                        break
            key = (round(c, 6), round(sv[0], 6), round(sv[1], 6), round(sv[2], 6))
            if key in seen:
                continue
            seen.add(key)
            pairs.append(_Pair(h, g, c, s, ra))
    return pairs


def _h_groups(pairs: list[_Pair]) -> list[list[_Pair]]:
    """Runs of dressed targets with one h: they share c, s and the trace."""
    return [list(run) for _, run in groupby(pairs, key=attrgetter("h"))]


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


def _cone_candidates(db: Catalog, s, e, group: list[_Pair],
                     epsilon: float) -> list[np.ndarray]:
    """Global entry ids of [s, e) passing the cone selection, per pair of
    one h group."""
    c1 = db.c1[s:e]
    ss = db.s1[s:e] * group[0].s
    cc = c1 * group[0].c
    thr = 1.0 - epsilon * epsilon
    degenerate = ss < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        x_pri = (thr - cc) / ss
        x_ant = (thr + cc) / ss
    sel = np.zeros((len(group), e - s), dtype=bool)
    if not degenerate.all():
        axes = np.array([pair.axis for pair in group])
        sel = _branch_select(db, s, e, axes, x_pri)
        if (x_ant <= 1.0 + 1e-12).any():
            sel |= _branch_select(db, s, e, -axes, x_ant)
        sel &= ~degenerate
    sel |= degenerate & (np.abs(cc) >= thr - 1e-12)
    return [s + np.flatnonzero(row) for row in sel]


def _eval_ids(db: Catalog, ids, pair: _Pair) -> np.ndarray:
    """Distances of the selected entries to one dressed target."""
    dots = db.axes[ids] @ pair.axis
    vals = np.abs(db.c1[ids] * pair.c + (db.s1[ids] * pair.s) * dots)
    dsq = np.maximum(0.0, 1.0 - vals)
    dsq[dsq < _SNAP] = 0.0
    return np.sqrt(dsq)


class _Best:
    """Running argmin; key order (t, d, bits, h, g) or (d, t, bits, h, g)."""

    __slots__ = ("dist_first", "t", "d", "bits", "h", "g")

    def __init__(self, dist_first: bool):
        self.dist_first = dist_first
        self.t = None
        self.d = math.inf
        self.bits = None
        self.h = None
        self.g = None

    def _key(self, t, d, bits, h, g):
        return (d, t, bits, h, g) if self.dist_first else (t, d, bits, h, g)

    def offer(self, db: Catalog, ids, d, pair: _Pair):
        if len(ids) == 0:
            return
        t = db.t[ids]
        k = np.lexsort((d, t) if not self.dist_first else (t, d))[0]
        tb, db_ = int(t[k]), float(d[k])
        if self.t is not None:
            cur = self._key(self.t, self.d, (), 0, 0)[:2]
            if self._key(tb, db_, (), 0, 0)[:2] > cur:
                return
        # resolve exact ties on the numeric part by block bits
        tie = np.flatnonzero((d == db_) & (t == tb))
        bits = min(db.entry_bits(int(ids[j])) for j in tie)
        if self.t is None or self._key(tb, db_, bits, pair.h, pair.g) < \
                self._key(self.t, self.d, self.bits, self.h, self.g):
            self.t, self.d, self.bits = tb, db_, bits
            self.h, self.g = pair.h, pair.g


def _finish(best: _Best, mat: np.ndarray) -> ApproxResult:
    if best.t is None:
        return ApproxResult(None, None, None, False)
    g, h = best.g, best.h
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
    geometric = method == "geometric"
    mat = as_matrix(q.target)
    eps = q.epsilon
    best = _Best(dist_first=False)
    for group in _h_groups(coset_targets(mat)):
        if geometric:
            win = db.window(group[0].trace, 4.0 * eps + DELTA_BUCKET)
            if len(win) == 0:
                continue
            s, e = int(db.starts[win.start]), int(db.starts[win.stop])
            candidates = _cone_candidates(db, s, e, group, eps)
        else:
            candidates = [np.arange(db.entry_count())] * len(group)
        for pair, ids in zip(group, candidates):
            if len(ids) == 0:
                continue
            d = _eval_ids(db, ids, pair)
            ok = d < eps
            best.offer(db, ids[ok], d[ok], pair)
    return _finish(best, mat)


def nearest(target, db: Catalog) -> ApproxResult:
    """Global minimum-distance entry, no epsilon cap (distance-first order)."""
    mat = as_matrix(target)
    groups = _h_groups(coset_targets(mat))
    best = _Best(dist_first=True)

    # seed: the nearest-key bucket per pair, scanned linearly
    nb = len(db.keys)
    for group in groups:
        lo = int(np.searchsorted(db.keys, group[0].trace))
        s = int(db.starts[max(0, lo - 1)])
        e = int(db.starts[min(nb, lo + 1)])
        if s < e:
            ids = np.arange(s, e)
            for pair in group:
                best.offer(db, ids, _eval_ids(db, ids, pair), pair)

    # sweep until the trace window at the current best stabilizes
    for _ in range(64):
        eps_now = min(1.0, best.d * (1 + 1e-12) + 1e-15)
        improved = False
        for group in groups:
            win = db.window(group[0].trace, 4.0 * eps_now + DELTA_BUCKET)
            if len(win) == 0:
                continue
            s, e = int(db.starts[win.start]), int(db.starts[win.stop])
            for pair, ids in zip(group, _cone_candidates(db, s, e, group, eps_now)):
                if len(ids) == 0:
                    continue
                d = _eval_ids(db, ids, pair)
                before = (best.d, best.t, best.bits, best.h, best.g)
                best.offer(db, ids, d, pair)
                if (best.d, best.t, best.bits, best.h, best.g) != before:
                    improved = True
        if not improved:
            break
    return _finish(best, mat)
