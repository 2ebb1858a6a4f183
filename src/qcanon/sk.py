"""Group-commutator recursion over the catalog.

Every intermediate circuit stays in normal form: all five factors of each
recursion step go through compose_reduce, so T cancellations are taken as
they appear instead of piling up a raw product word.  Each level's matrix
is its form's block product (`search.form_matrix`), so the next level
corrects, and the reported distance measures, the circuit returned.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .clifford import G_H, G_I
from .rewrite import NormalForm, compose_reduce, invert_nf, normalize_tokens
from .search import ApproxQuery, approximate, as_matrix, dist_matrix, form_matrix, nearest
from .unitary import su2_quaternion

_ID = np.eye(2, dtype=complex)


class SkError(RuntimeError):
    pass


@dataclass
class SkConfig:
    db: Catalog
    max_depth: int = 3
    level0_epsilon: float = 0.0  # <= 0: take the catalog minimum outright

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


@dataclass
class SkResult:
    circuit: NormalForm
    circuit_per_level: list[NormalForm]
    dist_per_level: list[float]
    t_count: int
    t_per_level: list[int]
    # largest T-count among all circuits produced at each recursion depth,
    # sub-approximations included; level k+1 costs at most five factors of
    # depth k, so t_per_level[k+1] <= 5 * max_t_per_depth[k] + O(1)
    max_t_per_depth: list[int]
    cancellations: dict


def _rot(axis, angle: float) -> np.ndarray:
    """cos(angle/2) I - i sin(angle/2) (axis . sigma), axis a unit 3-vector."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    nx, ny, nz = axis
    return np.array([
        [c - 1j * s * nz, -s * ny - 1j * s * nx],
        [s * ny - 1j * s * nx, c + 1j * s * nz],
    ])


def _align_z(axis: np.ndarray) -> np.ndarray:
    """A rotation taking +z to the given unit axis."""
    ax, ay, az = (float(x) for x in axis)
    sxy = math.hypot(ax, ay)
    if sxy < 1e-12:
        if az > 0.0:
            return _ID.copy()
        return _rot((1.0, 0.0, 0.0), math.pi)
    beta = math.atan2(sxy, az)
    return _rot((-ay / sxy, ax / sxy, 0.0), beta)


def gc_decompose(delta) -> tuple[np.ndarray, np.ndarray]:
    """Balanced group commutator: V, W with V.W.V^-1.W^-1 close to delta.

    V and W are equal-angle rotations about perpendicular axes.  The
    commutator of Rx(phi) and Ry(phi) rotates by theta where
    sin(theta/2) = 2 sin^2(phi/2) sqrt(1 - sin^4(phi/2)); the closed form
    sin^2(phi/2) = sin(theta/4) solves that exactly (double-angle check).
    The commutator axis sits near +z, which we align with delta's axis;
    the residual axis tilt is what leaves the reconstruction error of
    order dist(delta, I)^{3/2}.
    """
    mat = as_matrix(delta)
    d0 = dist_matrix(mat, _ID)
    if d0 >= 0.5:
        raise ValueError(f"delta too far from identity (dist {d0:.3f} >= 0.5)")
    q = su2_quaternion(mat)
    s = float(np.linalg.norm(q[1:]))
    theta = 2.0 * math.atan2(s, float(q[0]))
    if theta < 1e-9:
        return _ID.copy(), _ID.copy()
    phi = 2.0 * math.asin(math.sqrt(math.sin(theta / 4.0)))
    v = _rot((1.0, 0.0, 0.0), phi)
    w = _rot((0.0, 1.0, 0.0), phi)
    sigma = _align_z(q[1:] / s)
    sd = sigma.conj().T
    return sigma @ v @ sd, sigma @ w @ sd


def _form_matrix(form: NormalForm) -> np.ndarray:
    return form_matrix(G_H if form.hpre else G_I, form.body, form.tail)


def _rec(target_mat, depth, cfg, stats, depth_max):
    """(form, form's block product) of each level 0..depth of target_mat."""
    if cfg.level0_epsilon > 0.0:
        res = approximate(ApproxQuery(target_mat, cfg.level0_epsilon), cfg.db)
        if not res.found:
            raise SkError(
                f"no base approximation within {cfg.level0_epsilon:g}; "
                "enlarge the catalog or the epsilon")
    else:
        res = nearest(target_mat, cfg.db)
    stats["level0_lookups"] += 1
    form = normalize_tokens(res.circuit.to_tokens())
    depth_max[0] = max(depth_max[0], form.t_count)
    levels = [(form, _form_matrix(form))]
    for k in range(depth):
        prev_form, prev_mat = levels[-1]
        vc, wc = gc_decompose(target_mat @ prev_mat.conj().T)
        va = _rec(vc, k, cfg, stats, depth_max)[-1][0]
        wa = _rec(wc, k, cfg, stats, depth_max)[-1][0]
        form = va
        for part in (wa, invert_nf(va), invert_nf(wa), prev_form):
            before = form.t_count + part.t_count
            form = compose_reduce(form, part)
            stats["compose_merged" if form.t_count < before else "compose_plain"] += 1
        depth_max[k + 1] = max(depth_max[k + 1], form.t_count)
        levels.append((form, _form_matrix(form)))
    return levels


def sk_approximate(u, n: int, cfg: SkConfig) -> SkResult:
    """Depth-n recursive approximation of u over cfg.db.

    Level 0 is the catalog lookup; level k corrects level k-1 by an
    approximated group commutator, five factors composed through
    compose_reduce.  Depths beyond max_depth are refused: distances are
    tracked in doubles, whose floor (~1e-8) deeper recursion cannot beat.
    """
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > cfg.max_depth:
        raise ValueError(f"depth {n} exceeds max_depth {cfg.max_depth}")
    mat = as_matrix(u)
    stats: Counter = Counter()
    depth_max = [0] * (n + 1)
    levels = _rec(mat, n, cfg, stats, depth_max)
    forms = [form for form, _ in levels]
    dists = [dist_matrix(fmat, mat) for _, fmat in levels]
    return SkResult(
        circuit=forms[-1],
        circuit_per_level=forms,
        dist_per_level=dists,
        t_count=forms[-1].t_count,
        t_per_level=[f.t_count for f in forms],
        max_t_per_depth=depth_max,
        cancellations=dict(stats),
    )
