import math

import numpy as np
import pytest

from conftest import is_canonical_bits
from qcanon.catalog import Catalog, CatalogError, build, enumerate_canonical, load
from qcanon.cli import _random_targets
from qcanon.clifford import CLIFFORD, CLIFFORD_WORDS, INV, MULT
from qcanon.geometry import ROT_F
from qcanon.rewrite import CosetForm, blocks_tokens, tokens_to_unitary
from qcanon.search import (ApproxQuery, ApproxResult, _dist, approximate, as_matrix,
                           coset_targets, dist_matrix, form_matrix, nearest)
from qcanon.unitary import GATES, from_word, psu2_equal, su2_quaternion


def coset_form(bits, k):
    """The circuit a hit of entry bits on dressed row k = 24 h + g stands for."""
    h, g = divmod(k, 24)
    return CosetForm(INV[g], bits, MULT[g][INV[h]])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_target_is_rejected(db6, bad):
    # a NaN makes every comparison False, so a unitarity test written as
    # "error > tol" alone would let it through
    mat = np.eye(2, dtype=complex)
    mat[1, 0] = bad
    for call in (as_matrix, lambda m: nearest(m, db6),
                 lambda m: approximate(ApproxQuery(m, 0.1), db6)):
        with pytest.raises(ValueError, match="non-finite"):
            call(mat)


def test_approximate_rejects_bad_args(db6):
    with pytest.raises(ValueError, match="epsilon"):
        approximate(ApproxQuery(GATES["T"], 0.0), db6)
    with pytest.raises(ValueError, match="epsilon"):
        approximate(ApproxQuery(GATES["T"], 1.5), db6)
    with pytest.raises(ValueError, match="unknown method"):
        approximate(ApproxQuery(GATES["T"], 0.1), db6, method="fast")


# -- form matrices ------------------------------------------------------------

def test_form_matrix_equals_exact_product():
    rng = np.random.default_rng(23)
    cases = [int(t) for t in rng.integers(0, 65, 40)] + [0, 1, 2, 2040, 2047, 2048]
    for t in cases:
        g1, g2 = (int(g) for g in rng.integers(0, 24, 2))
        bits = tuple(int(b) for b in rng.integers(0, 2, t))
        got = form_matrix(g1, bits, g2)
        want = CosetForm(g1, bits, g2).to_unitary().to_matrix()
        # both multiply the same gate representatives, so even the global
        # phase agrees
        assert np.abs(got - want).max() < 1e-12, t


# -- coset targets ------------------------------------------------------------

def test_coset_targets_rows():
    mat = as_matrix(_random_targets(0, 1)[0])
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


def test_exact_ties_take_least_bits_then_row(db6):
    # the answer is the least (bits, k) over every (entry, dressed row k)
    # whose circuit equals the target exactly, at the answer's T-count
    dressed_t = from_word(CLIFFORD_WORDS[9] + "T" + CLIFFORD_WORDS[14])
    for u in (GATES["I"], GATES["T"], dressed_t):
        for res in (approximate(ApproxQuery(u, 1e-9), db6), nearest(u, db6)):
            exact = [(bits, k) for bits in enumerate_canonical(res.t_count)
                     if len(bits) == res.t_count for k in range(576)
                     if psu2_equal(coset_form(bits, k).to_unitary(), u)]
            assert res.circuit == coset_form(*min(exact))


# -- membership lookups ------------------------------------------------------

def test_member_lookup_is_exact(db6):
    for bits in [(), (0,), (0, 0, 0, 0), (0, 0, 0, 0, 1, 1)]:
        u = tokens_to_unitary(blocks_tokens(bits))
        res = approximate(ApproxQuery(u, 1e-9), db6)
        assert res.found
        assert res.t_count == len(bits)
        assert res.achieved_dist == 0.0
        assert is_canonical_bits(res.circuit.body)


def test_dressed_member_keeps_t_count(db12):
    # every entry: the fold bound must keep exact members at eps 1e-9
    rng = np.random.default_rng(12)
    for bits in enumerate_canonical(12):
        g1, g2 = rng.integers(24, size=2)
        w = CLIFFORD_WORDS[g1] + "".join("SH" * b + "TH" for b in bits) \
            + CLIFFORD_WORDS[g2]
        res = approximate(ApproxQuery(from_word(w), 1e-9), db12)
        assert res.found and res.t_count == len(bits)
        assert res.achieved_dist == 0.0


def test_result_circuit_reproduces_distance(db6):
    for target in _random_targets(3, 6):
        res = approximate(ApproxQuery(target, 0.4), db6)
        if not res.found:
            continue
        got = dist_matrix(res.circuit.to_unitary().to_matrix(), target)
        assert got == pytest.approx(res.achieved_dist, abs=1e-9)
        assert res.achieved_dist <= 0.4 + 1e-12
        assert res.t_count == res.circuit.t_count


def test_not_found_below_resolution(db6):
    res = approximate(ApproxQuery(_random_targets(9, 1)[0], 0.01), db6)
    assert res == ApproxResult(None, None, None, False)


# -- optimality structure ------------------------------------------------------

def test_geometric_matches_linear(db12):
    # the same word, T-count and distance, bit for bit
    found = 0
    for target in _random_targets(21, 12):
        for eps in (0.1, 0.03, 0.01):
            a = approximate(ApproxQuery(target, eps), db12, method="geometric")
            b = approximate(ApproxQuery(target, eps), db12, method="linear")
            assert a == b
            if a.found:
                assert a.circuit.to_word() == b.circuit.to_word()
                found += 1
    assert found >= 12


def test_approximate_windows_one_layer_per_t_count(db12, monkeypatch):
    # T-count first: layers 0..t of the answer are scanned, and no more
    layers = []
    real = Catalog.window

    def counted(self, t, traces, radius):
        layers.append(t)
        return real(self, t, traces, radius)

    monkeypatch.setattr(Catalog, "window", counted)
    found = 0
    for target in _random_targets(61, 8):
        for eps in (0.3, 0.1, 0.03):
            layers.clear()
            res = approximate(ApproxQuery(target, eps), db12)
            want = res.t_count + 1 if res.found else db12.max_tcount + 1
            assert layers == list(range(want))
            found += res.found
    assert found >= 8


def linear_minimum(target, db):
    """The least (d, t, bits, k) over every entry and dressed row k, each
    distance evaluated as the search does, with no window and no bound."""
    rows = coset_targets(as_matrix(target))
    best = None
    for h in range(24):
        r = rows[24 * h:24 * h + 24]
        d = _dist(db, slice(None), r[0, 0], r[0, 1], r[:, None, 2:])
        dmin = d.min()
        if best is not None and dmin > best[0]:
            continue
        cands = min((int(db.t[i]), db.entry_bits(int(i)), 24 * h + int(g))
                    for g, i in zip(*np.nonzero(d == dmin)))
        if best is None or (dmin, *cands) < best:
            best = (dmin, *cands)
    return best


def test_nearest_equals_linear_minimum(db12):
    for target in _random_targets(71, 10):
        d, t, bits, k = linear_minimum(target, db12)
        res = nearest(target, db12)
        assert (res.achieved_dist, res.t_count, res.circuit) == (d, t, coset_form(bits, k))


def test_epsilon_monotonicity(db12):
    target = _random_targets(31, 1)[0]
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
    for target in _random_targets(41, 3):
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


def dense_minimum(target, db):
    """Distance from target to the catalog: every entry against every
    dressed target, with no window and no bound."""
    best_sq = np.inf
    for c, s, *axis in coset_targets(as_matrix(target)):
        dots = db.axes @ np.array(axis)
        vals = np.abs(db.c1 * c + (db.s1 * s) * dots)
        best_sq = min(best_sq, float(np.maximum(0.0, 1.0 - vals).min()))
    return np.sqrt(best_sq)


def test_nearest_matches_dense_minimum(db12, db16):
    for db in (db12, db16):
        for target in _random_targets(51, 8):
            res = nearest(target, db)
            assert res.achieved_dist == pytest.approx(dense_minimum(target, db), abs=1e-12)


def rotations_about_fold_boundaries():
    """exp(-i theta/2 n.sigma) for axes n where the fold's coordinates tie or
    vanish, with sign flips, at a few angles."""
    axes = [np.array(a, dtype=float) / np.linalg.norm(a) for a in
            ((1, 0, 0), (0, -1, 0), (1, 1, 0), (-1, 0, 1), (1, 1, 1), (1, -1, -1),
             (1, 2, 2), (-2, 1, -2))]
    for n in axes:
        for theta in (0.2, 0.9, 2.4):
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            x, y, z = s * n
            yield np.array([[c - 1j * z, -y - 1j * x], [y - 1j * x, c + 1j * z]])


def test_fold_boundary_targets_match_linear_and_dense(db12):
    for target in rotations_about_fold_boundaries():
        for eps in (0.1, 0.03, 0.01):
            a = approximate(ApproxQuery(target, eps), db12)
            assert a == approximate(ApproxQuery(target, eps), db12, method="linear")
        res = nearest(target, db12)
        assert res.achieved_dist == pytest.approx(dense_minimum(target, db12), abs=1e-12)


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
