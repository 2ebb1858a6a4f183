import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcanon.ring import Real2, scalar_abs_sq
from qcanon.unitary import (GATES, ExactUnitary, adjoint_action, frob_inner,
                            from_word, gate_matrix, mat_omega, psu2_equal,
                            su2_quaternion)

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
_T = np.diag([1.0, np.exp(1j * math.pi / 4)])
_S = np.diag([1.0, 1j])

# -- exact distance and axis helpers, checked here against the exact side ----

_FOUR = Real2(4, 0, 0)


def overlap_abs_sq(u: ExactUnitary, v: ExactUnitary) -> Real2:
    p, q = scalar_abs_sq(frob_inner(u.m, v.m))
    return Real2(p, q, 2 * (u.k + v.k))


def dist(u: ExactUnitary, v: ExactUnitary) -> float:
    """Projective operator distance sqrt((2 - |tr(U V-adjoint)|) / 2)."""
    t = math.sqrt(max(0.0, float(overlap_abs_sq(u, v))))
    return math.sqrt(max(0.0, (2.0 - t) / 2.0))


def bloch_axis(u: ExactUnitary) -> tuple[np.ndarray, float]:
    """Rotation axis (unit 3-vector) and angle in (0, pi] on the sphere.

    The projective identity has every axis and none; it is rejected.
    """
    if u.trace_abs_sq() == _FOUR:
        raise ValueError("no axis")
    q = su2_quaternion(u.to_matrix())
    s = np.linalg.norm(q[1:])
    theta = 2.0 * math.atan2(s, q[0])
    return q[1:] / s, theta


words = st.text(alphabet="HTS", min_size=0, max_size=40)


def _proj_close(a: np.ndarray, b: np.ndarray, atol: float = 1e-12) -> bool:
    # stored matrices carry a global phase; compare as psu2 elements
    return abs(np.trace(a.conj().T @ b)) / 2.0 > 1.0 - atol


def test_gate_values():
    assert _proj_close(GATES["H"].to_matrix(), _H)
    assert _proj_close(GATES["T"].to_matrix(), _T)
    assert _proj_close(GATES["S"].to_matrix(), _S)
    assert _proj_close(GATES["I"].to_matrix(), np.eye(2, dtype=complex))
    assert gate_matrix("H") is GATES["H"]


def test_gate_matrix_rejects_unknown():
    with pytest.raises(ValueError, match="unknown gate symbol"):
        gate_matrix("X")


@given(words)
def test_from_word_matches_float_product(w):
    u = from_word(w)
    m = np.eye(2, dtype=complex)
    for ch in w:
        m = m @ {"H": _H, "T": _T, "S": _S}[ch]
    # exact product equals the float product up to phase and rounding
    assert _proj_close(u.to_matrix(), m, atol=1e-10)


@given(words)
def test_unitarity_exact(w):
    u = from_word(w)
    prod = u * u.adjoint()
    assert psu2_equal(prod, GATES["I"])
    assert np.allclose(prod.to_matrix(), np.eye(2), atol=1e-12)


@given(words, words)
def test_psu2_equal_iff_dist_zero(w1, w2):
    u, v = from_word(w1), from_word(w2)
    if psu2_equal(u, v):
        assert dist(u, v) < 1e-7
    else:
        # group is discrete at fixed word length; distances stay visible
        assert dist(u, v) > 1e-9


@given(words, st.integers(0, 7))
def test_phase_invariance(w, j):
    u = from_word(w)
    shifted = ExactUnitary(tuple(u.m), u.k)
    for _ in range(j):
        shifted = ExactUnitary(mat_omega(shifted.m), shifted.k)
    assert psu2_equal(u, shifted)
    assert u.key() == shifted.key()
    assert u.trace_abs_sq() == shifted.trace_abs_sq()


@given(words)
def test_trace_helpers_agree(w):
    u = from_word(w)
    tr = abs(np.trace(u.to_matrix()))
    assert abs(float(u.trace_abs_sq()) - tr * tr) < 1e-9


def test_dist_examples():
    assert dist(GATES["I"], GATES["I"]) == 0.0
    # dist(I, X-like) is maximal: |tr| = 0 -> sqrt(2-0)/sqrt2 = 1
    x_like = from_word("HSSH")
    assert abs(dist(GATES["I"], x_like) - 1.0) < 1e-12


@given(words, words, words)
def test_dist_triangle(w1, w2, w3):
    a, b, c = from_word(w1), from_word(w2), from_word(w3)
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


@given(words, words)
def test_dist_bi_invariance(w1, w2):
    a, b = from_word(w1), from_word(w2)
    g = from_word("HTS")
    assert abs(dist(g * a, g * b) - dist(a, b)) < 1e-12
    assert abs(dist(a * g, b * g) - dist(a, b)) < 1e-12


def test_bloch_axis_identity_rejected():
    with pytest.raises(ValueError, match="no axis"):
        bloch_axis(GATES["I"])
    with pytest.raises(ValueError, match="no axis"):
        bloch_axis(from_word("HH"))


def test_bloch_axis_of_t_and_h():
    ax, theta = bloch_axis(GATES["T"])
    assert np.allclose(ax, [0, 0, 1], atol=1e-12)
    assert abs(theta - math.pi / 4) < 1e-12
    ax, theta = bloch_axis(GATES["H"])
    assert np.allclose(ax, [1, 0, 1] / np.sqrt(2), atol=1e-12)
    assert abs(theta - math.pi) < 1e-12


@settings(max_examples=50)
@given(words)
def test_su2_quaternion_unit_and_canonical(w):
    q = su2_quaternion(from_word(w).to_matrix())
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert q[0] > -1e-12


def test_su2_quaternion_stack_equals_single_calls():
    # Haar unitaries under random global phases, then +-iX, +-iY, +-iZ,
    # where c = 0 and the first nonzero component fixes the sign
    rng = np.random.default_rng(7)
    z = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    haar = np.linalg.qr(z)[0] * np.exp(2j * math.pi * rng.random(200))[:, None, None]
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    signed = [s * 1j * p for p in paulis for s in (1, -1)]
    mats = np.concatenate([haar, np.array(signed, dtype=complex)])
    stacked = su2_quaternion(mats)
    single = np.array([su2_quaternion(m) for m in mats])
    assert stacked.shape == (len(mats), 4)
    assert np.array_equal(stacked.view(np.int64), single.view(np.int64))
    assert np.array_equal(su2_quaternion(mats.reshape(-1, 2, 2, 2)).reshape(-1, 4), stacked)
    for i in range(3):
        want = np.eye(4)[1 + i]
        assert np.array_equal(stacked[len(haar) + 2 * i], want)
        assert np.array_equal(stacked[len(haar) + 2 * i + 1], want)


@settings(max_examples=50)
@given(words, words)
def test_adjoint_action_homomorphism(w1, w2):
    u, v = from_word(w1), from_word(w2)
    ru, rv, ruv = adjoint_action(u), adjoint_action(v), adjoint_action(u * v)
    assert np.allclose(ru @ rv, ruv, atol=1e-9)
    assert abs(np.linalg.det(ru) - 1.0) < 1e-9


def test_adjoint_action_conjugates_paulis():
    z = np.diag([1.0, -1.0])
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]), z.astype(complex)]
    for w in ("H", "T", "SH", "THTH"):
        u = from_word(w)
        m = u.to_matrix()
        r = adjoint_action(u)
        got = m @ paulis[2] @ m.conj().T
        want = sum(r[i, 2] * paulis[i] for i in range(3))
        assert np.allclose(got, want, atol=1e-9)
