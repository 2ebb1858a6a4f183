"""Group-commutator recursion over the catalog.

Every intermediate circuit stays in normal form: all five factors of each
recursion step go through compose_reduce, so T cancellations are taken as
they appear instead of piling up a raw product word.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .rewrite import NormalForm, compose_reduce, invert_nf, normalize_tokens
from .search import _SNAP, ApproxQuery, approximate, as_matrix, dist_matrix, nearest
from .unitary import su2_quaternion

_ID = np.eye(2, dtype=complex)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
_GATE_MATS = {"H": _H, "T": _T, "S": _T @ _T}


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


def _word_matrix(word: str) -> np.ndarray:
    m = _ID.copy()
    for ch in word:
        m = m @ _GATE_MATS[ch]
    return m


def _level0(mat: np.ndarray, cfg: SkConfig, stats: Counter, depth_max: list):
    if cfg.level0_epsilon > 0.0:
        res = approximate(ApproxQuery(mat, cfg.level0_epsilon), cfg.db)
        if not res.found:
            raise SkError(
                f"no base approximation within {cfg.level0_epsilon:g}; "
                "enlarge the catalog or the epsilon")
    else:
        res = nearest(mat, cfg.db)
    stats["level0_lookups"] += 1
    form = normalize_tokens(res.circuit.to_tokens())
    depth_max[0] = max(depth_max[0], form.t_count)
    return form, _word_matrix(form.to_word())


def _gc_step(target_mat, prev_form, prev_mat, sub_depth, cfg, stats,
             depth_max: list):
    """One recursion step: commutator correction of the previous level."""
    delta = target_mat @ prev_mat.conj().T
    vc, wc = gc_decompose(delta)
    va_form, va_mat = _rec(vc, sub_depth, cfg, stats, depth_max)
    wa_form, wa_mat = _rec(wc, sub_depth, cfg, stats, depth_max)
    form = va_form
    for part in (wa_form, invert_nf(va_form), invert_nf(wa_form), prev_form):
        before = form.t_count + part.t_count
        form = compose_reduce(form, part)
        stats["compose_merged" if form.t_count < before else "compose_plain"] += 1
    carried = va_mat @ wa_mat @ va_mat.conj().T @ wa_mat.conj().T @ prev_mat
    # cheap per-level re-derivation in doubles guards the carried product;
    # only divergence pays for an exact re-evaluation, not rounding noise
    # (a squared distance below _SNAP, as in search)
    derived = _word_matrix(form.to_word())
    if dist_matrix(carried, derived) ** 2 >= _SNAP:
        stats["exact_reevals"] += 1
        carried = form.to_unitary().to_matrix()
    depth_max[sub_depth + 1] = max(depth_max[sub_depth + 1], form.t_count)
    return form, carried


def _rec(target_mat, depth, cfg, stats, depth_max):
    form, mat = _level0(target_mat, cfg, stats, depth_max)
    for k in range(1, depth + 1):
        form, mat = _gc_step(target_mat, form, mat, k - 1, cfg, stats, depth_max)
    return form, mat


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
    form, fmat = _level0(mat, cfg, stats, depth_max)
    forms = [form]
    dists = [dist_matrix(fmat, mat)]
    for k in range(1, n + 1):
        form, fmat = _gc_step(mat, form, fmat, k - 1, cfg, stats, depth_max)
        forms.append(form)
        dists.append(dist_matrix(fmat, mat))
    return SkResult(
        circuit=forms[-1],
        circuit_per_level=forms,
        dist_per_level=dists,
        t_count=forms[-1].t_count,
        t_per_level=[f.t_count for f in forms],
        max_t_per_depth=depth_max,
        cancellations=dict(stats),
    )
