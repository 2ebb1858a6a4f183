import numpy as np
import pytest

from qcanon.catalog import CatalogError, build, enumerate_canonical, load
from qcanon.clifford import CLIFFORD, CLIFFORD_WORDS
from qcanon.geometry import ROT_F
from qcanon.rewrite import blocks_tokens, is_canonical_bits, tokens_to_unitary
from qcanon.search import (ApproxQuery, ApproxResult, approximate, as_matrix,
                           coset_targets, dist_matrix, nearest)
from qcanon.unitary import GATES, dist, from_word, su2_quaternion


def haar_targets(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = rng.normal(size=4)
        c, x, y, z = q / np.linalg.norm(q)
        out.append(np.array([[c - 1j * z, -y - 1j * x],
                             [y - 1j * x, c + 1j * z]]))
    return out


@pytest.fixture(scope="module")
def db6():
    return build(6)


# -- input validation -------------------------------------------------------

def test_as_matrix_accepts_exact_and_numeric():
    m = as_matrix(GATES["H"])
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    m2 = as_matrix([[1, 0], [0, 1j]])
    assert m2.dtype == np.complex128


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="2x2"):
        as_matrix(np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        as_matrix([[1, 0], [0, 2]])


def test_approximate_rejects_bad_args(db6):
    with pytest.raises(ValueError, match="epsilon"):
        approximate(ApproxQuery(GATES["T"], 0.0), db6)
    with pytest.raises(ValueError, match="epsilon"):
        approximate(ApproxQuery(GATES["T"], 1.5), db6)
    with pytest.raises(ValueError, match="unknown method"):
        approximate(ApproxQuery(GATES["T"], 0.1), db6, method="fast")


# -- coset targets ------------------------------------------------------------

def test_coset_targets_rows():
    mat = as_matrix(haar_targets(0, 1)[0])
    rows = coset_targets(mat)
    assert rows.shape == (576, 5)
    for h in range(24):
        q = su2_quaternion(mat @ CLIFFORD[h].to_matrix())
        s = np.linalg.norm(q[1:])
        for g in range(24):
            c, s_g, *axis = rows[24 * h + g]
            assert c == abs(q[0]) and s_g == s
            assert np.array_equal(axis, ROT_F[g] @ (q[1:] / s))
    # a generic target has 576 projectively distinct dressings
    quats = {(round(c, 9), round(s, 9), tuple(np.round(s * np.array(axis), 9)))
             for c, s, *axis in rows}
    assert len(quats) == 576


def test_symmetric_targets_found_at_distance_zero(db6):
    # the dressings of I, T and g T h coincide in groups of 24 or 8;
    # duplicate rows must tie, not change the answer
    dressed_t = from_word(CLIFFORD_WORDS[9] + "T" + CLIFFORD_WORDS[14])
    for u, t in ((GATES["I"], 0), (GATES["T"], 1), (dressed_t, 1)):
        for res in (approximate(ApproxQuery(u, 1e-9), db6), nearest(u, db6)):
            assert res.found
            assert res.achieved_dist == 0.0
            assert res.t_count == t


# -- membership lookups ------------------------------------------------------

def test_member_lookup_is_exact(db6):
    for bits in [(), (0,), (0, 0, 0, 0), (0, 0, 0, 0, 1, 1)]:
        u = tokens_to_unitary(blocks_tokens(bits))
        res = approximate(ApproxQuery(u, 1e-9), db6)
        assert res.found
        assert res.t_count == len(bits)
        assert res.achieved_dist == 0.0
        assert is_canonical_bits(res.circuit.body)


def test_dressed_member_keeps_t_count(db6):
    rng = np.random.default_rng(12)
    bodies = [b for b in enumerate_canonical(6) if len(b) >= 4]
    for _ in range(10):
        bits = bodies[rng.integers(len(bodies))]
        g1, g2 = rng.integers(24, size=2)
        w = CLIFFORD_WORDS[g1] + "".join("SH" * b + "TH" for b in bits) \
            + CLIFFORD_WORDS[g2]
        res = approximate(ApproxQuery(from_word(w), 1e-9), db6)
        assert res.found and res.t_count == len(bits)
        assert res.achieved_dist == 0.0


def test_result_circuit_reproduces_distance(db6):
    for target in haar_targets(3, 6):
        res = approximate(ApproxQuery(target, 0.4), db6)
        if not res.found:
            continue
        got = dist_matrix(res.circuit.to_unitary().to_matrix(), target)
        assert got == pytest.approx(res.achieved_dist, abs=1e-9)
        assert res.achieved_dist <= 0.4 + 1e-12
        assert res.t_count == res.circuit.t_count


def test_not_found_below_resolution(db6):
    res = approximate(ApproxQuery(haar_targets(9, 1)[0], 0.01), db6)
    assert res == ApproxResult(None, None, None, False)


# -- optimality structure ------------------------------------------------------

def test_geometric_matches_linear(db12):
    for i, target in enumerate(haar_targets(21, 12)):
        eps = (0.3, 0.1)[i % 2]
        a = approximate(ApproxQuery(target, eps), db12, method="geometric")
        b = approximate(ApproxQuery(target, eps), db12, method="linear")
        assert a.found == b.found
        if a.found:
            assert a.t_count == b.t_count
            assert abs(a.achieved_dist - b.achieved_dist) <= 1e-12


def test_epsilon_monotonicity(db12):
    target = haar_targets(31, 1)[0]
    prev_t = None
    for eps in (0.5, 0.3, 0.2, 0.1):
        res = approximate(ApproxQuery(target, eps), db12)
        if not res.found:
            continue
        if prev_t is not None:
            assert res.t_count >= prev_t
        prev_t = res.t_count


def test_nearest_matches_exhaustive_scan(db6):
    clif = [c.to_matrix() for c in CLIFFORD]
    for target in haar_targets(41, 3):
        res = nearest(target, db6)
        best = np.inf
        for bits in enumerate_canonical(6):
            u = tokens_to_unitary(blocks_tokens(bits)).to_matrix()
            for g in range(24):
                gu = clif[g] @ u
                for h in range(24):
                    best = min(best, dist_matrix(gu @ clif[h], target))
        assert res.found
        assert res.achieved_dist == pytest.approx(best, abs=1e-9)


def test_nearest_matches_dense_minimum(db12, db16):
    # every entry against every dressed target, with no tile pruning
    for db in (db12, db16):
        for target in haar_targets(51, 8):
            best_sq = np.inf
            for c, s, *axis in coset_targets(as_matrix(target)):
                dots = db.axes @ np.array(axis)
                vals = np.abs(db.c1 * c + (db.s1 * s) * dots)
                best_sq = min(best_sq, float(np.maximum(0.0, 1.0 - vals).min()))
            res = nearest(target, db)
            assert res.achieved_dist == pytest.approx(np.sqrt(best_sq), abs=1e-12)


def test_nearest_prefers_distance_over_t(db6):
    # a point near a deep entry must not be rounded to a shallow one
    bits = (0, 0, 0, 0, 1, 1)
    u = tokens_to_unitary(blocks_tokens(bits))
    res = nearest(u, db6)
    assert res.achieved_dist == 0.0
    assert res.t_count == 6


def test_approximate_prefers_t_over_distance(db6):
    # with a loose epsilon the shallowest circuit wins even if farther
    res = approximate(ApproxQuery(from_word("T"), 1.0), db6)
    assert res.found
    assert res.t_count == 0  # some Clifford is within dist 1 of T


def test_axis_disagreeing_with_bits_is_catalog_error(swapped_axes_path):
    db = load(swapped_axes_path)
    with pytest.raises(CatalogError, match="corrupt catalog"):
        approximate(ApproxQuery(from_word("THTHTHTHSHTHTH"), 1e-6), db)
