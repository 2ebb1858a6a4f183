import math

import numpy as np
import pytest

from qcanon.catalog import build
from qcanon.cli import _random_targets
from qcanon.rewrite import NormalForm
from qcanon.search import dist_matrix, nearest
from qcanon.sk import SkConfig, SkError, _align_z, _rot, gc_decompose, sk_approximate

_ID = np.eye(2, dtype=np.complex128)


def rotation_angle(m: np.ndarray) -> float:
    t = abs(np.trace(m / np.sqrt(np.linalg.det(m))))
    return 2.0 * math.acos(min(1.0, t / 2.0))


def rotation_axis(m: np.ndarray) -> np.ndarray:
    v = m / np.sqrt(np.linalg.det(m))
    ax = np.array([-(v[0, 1] + v[1, 0]).imag,
                   (v[1, 0] - v[0, 1]).real,
                   -(v[0, 0] - v[1, 1]).imag])
    return ax / np.linalg.norm(ax)


# -- primitives ---------------------------------------------------------------

def test_rot_builds_su2():
    for axis in ((0, 0, 1), (1, 0, 0), (0.6, 0.0, 0.8)):
        m = _rot(axis, 0.7)
        assert np.allclose(m @ m.conj().T, _ID, atol=1e-12)
        assert np.isclose(np.linalg.det(m), 1.0)
        assert rotation_angle(m) == pytest.approx(0.7)


def test_align_z_maps_pole():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        s = _align_z(a)
        z_img = rotation_matrix(s) @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(z_img, a, atol=1e-10)
    assert np.allclose(_align_z(np.array([0.0, 0.0, 1.0])), _ID)


def rotation_matrix(u: np.ndarray) -> np.ndarray:
    v = u / np.sqrt(np.linalg.det(u))
    paulis = [np.array([[0, 1], [1, 0]], complex),
              np.array([[0, -1j], [1j, 0]], complex),
              np.array([[1, 0], [0, -1]], complex)]
    r = np.empty((3, 3))
    for j, s in enumerate(paulis):
        w = v @ s @ v.conj().T
        for i, t in enumerate(paulis):
            r[i, j] = 0.5 * np.trace(t @ w).real
    return r


# -- balanced group commutator ---------------------------------------------------

def test_gc_identity_short_circuit():
    v, w = gc_decompose(_ID)
    assert np.allclose(v, _ID) and np.allclose(w, _ID)


def test_gc_rejects_far_delta():
    with pytest.raises(ValueError, match="too far from identity"):
        gc_decompose(_rot((0, 0, 1), 2.0))


def test_gc_equal_angles_perpendicular_axes():
    rng = np.random.default_rng(9)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        delta = _rot(axis, 0.05)
        v, w = gc_decompose(delta)
        av, aw = rotation_angle(v), rotation_angle(w)
        assert av == pytest.approx(aw, abs=1e-9)
        nv, nw = rotation_axis(v), rotation_axis(w)
        assert abs(nv @ nw) < 1e-9


def test_gc_commutator_reconstructs_delta():
    rng = np.random.default_rng(10)
    for theta in (0.3, 0.1, 0.03, 0.01):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        delta = _rot(axis, theta)
        v, w = gc_decompose(delta)
        comm = v @ w @ v.conj().T @ w.conj().T
        err = dist_matrix(comm, delta)
        assert err <= 0.3 * theta ** 1.5 + 1e-12


def test_gc_error_scales_three_halves():
    thetas = np.logspace(-1, -3, 9)
    errs = []
    axis = np.array([0.3, -0.5, 0.81])
    axis /= np.linalg.norm(axis)
    for theta in thetas:
        v, w = gc_decompose(_rot(axis, theta))
        comm = v @ w @ v.conj().T @ w.conj().T
        errs.append(dist_matrix(comm, _rot(axis, theta)))
    slope = np.polyfit(np.log(thetas), np.log(errs), 1)[0]
    assert 1.4 <= slope <= 1.6


# -- recursion ---------------------------------------------------------------------

def test_config_validation(db12):
    with pytest.raises(ValueError, match="max_depth"):
        SkConfig(db12, max_depth=-1)
    cfg = SkConfig(db12, max_depth=2)
    with pytest.raises(ValueError, match="depth"):
        sk_approximate(_ID, 3, cfg)
    with pytest.raises(ValueError, match="depth"):
        sk_approximate(_ID, -1, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_target_is_rejected(db12, bad):
    mat = _ID.copy()
    mat[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sk_approximate(mat, 1, SkConfig(db12))


def test_level0_epsilon_miss_raises():
    db4 = build(4)
    cfg = SkConfig(db4, max_depth=0, level0_epsilon=1e-6)
    target = _random_targets(14, 1)[0]
    with pytest.raises(SkError, match="no base approximation"):
        sk_approximate(target, 0, cfg)


def test_depth_zero_equals_nearest(db12):
    target = _random_targets(15, 1)[0]
    res = sk_approximate(target, 0, SkConfig(db12))
    base = nearest(target, db12)
    assert res.t_count == base.t_count
    assert res.dist_per_level[0] == pytest.approx(base.achieved_dist, abs=1e-9)
    assert len(res.circuit_per_level) == 1


def test_sk_structural_invariants(db12):
    for target in _random_targets(16, 4):
        res = sk_approximate(target, 3, SkConfig(db12))
        assert len(res.dist_per_level) == 4
        assert len(res.t_per_level) == 4
        assert len(res.max_t_per_depth) == 4
        assert res.circuit is res.circuit_per_level[-1]
        assert res.t_count == res.circuit.t_count
        for form, t in zip(res.circuit_per_level, res.t_per_level):
            assert isinstance(form, NormalForm)
            assert form.t_count == t
            assert all(b in (0, 1) for b in form.body)
            assert 0 <= form.tail < 24
        for k in range(4):
            assert res.max_t_per_depth[k] >= res.t_per_level[k]
        for k in range(3):
            assert res.t_per_level[k + 1] <= 5 * res.max_t_per_depth[k] + 8
        assert res.cancellations["level0_lookups"] == 27


def test_sk_levels_track_claimed_distances(db12):
    target = _random_targets(17, 1)[0]
    res = sk_approximate(target, 2, SkConfig(db12))
    for form, d in zip(res.circuit_per_level, res.dist_per_level):
        got = dist_matrix(form.to_unitary().to_matrix(), target)
        assert got == pytest.approx(d, abs=1e-8)


def test_sk_mean_distance_decreases(db12):
    dists = np.zeros(4)
    targets = _random_targets(18, 8)
    for target in targets:
        res = sk_approximate(target, 3, SkConfig(db12))
        dists += np.array(res.dist_per_level)
    dists /= len(targets)
    assert np.all(np.diff(dists) < 0)


def test_sk_composition_merges_occur(db12):
    stats_keys = set()
    res = sk_approximate(_random_targets(19, 1)[0], 3, SkConfig(db12))
    stats_keys |= set(res.cancellations)
    assert {"level0_lookups", "compose_plain"} <= stats_keys
    # T cancellations at the junctions are the common case at depth 3
    assert res.cancellations.get("compose_merged", 0) > 0
