import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_canonical_bits
from qcanon.clifford import CLIFFORD, CLIFFORD_WORDS, G_I, MULT
from qcanon.rewrite import (RESTART_LHS, RESTART_RHS, SQUEEZE, T_TOK,
                            CosetForm, NormalForm, adjoint_z_state,
                            blocks_tokens, canonicalize_nf, canonicalize_word,
                            compose_reduce, invert_nf, normalize_tokens, normalize_word, pack_bits,
                            parse_word, tokens_to_unitary, unpack_bits,
                            _verify_tables)
from qcanon.ring import Real2
from qcanon.unitary import GATES, from_word, psu2_equal, adjoint_action

words = st.text(alphabet="HTS", min_size=0, max_size=200)
bits_st = st.lists(st.integers(0, 1), min_size=0, max_size=60).map(tuple)


def adjoint_z(bits) -> tuple[Real2, Real2, Real2]:
    """Exact Pauli coefficients (x, y, z) of ad_c(Z) for a normalized body."""
    l, (x0, x1, y0, y1, z0, z1) = adjoint_z_state(bits)
    return Real2(x0, x1, l), Real2(y0, y1, l), Real2(z0, z1, l)


# -- parsing ----------------------------------------------------------------

def test_parse_word_round_trip():
    assert parse_word("") == []
    assert parse_word("T") == [T_TOK]
    toks = parse_word("HTS")
    u = tokens_to_unitary(toks)
    assert psu2_equal(u, from_word("HTS"))


def test_parse_word_position_in_error():
    with pytest.raises(ValueError, match="position 2"):
        parse_word("HTXT")


# -- table identities -------------------------------------------------------

def test_verify_tables_runs_clean():
    # also runs at import; calling again keeps the check visible here
    _verify_tables()


def test_squeeze_has_the_eleven_patterns():
    assert len(SQUEEZE) == 11
    assert set(len(k) for k in SQUEEZE) == {1, 2, 3}


def test_restart_identity_exact():
    lhs = tokens_to_unitary(list(RESTART_LHS))
    rhs = tokens_to_unitary(list(RESTART_RHS))
    assert psu2_equal(lhs, rhs)


@pytest.mark.parametrize("pattern", sorted(SQUEEZE))
def test_squeeze_identity_exact(pattern):
    """blocks(0, b2..bm) minus its final H equals gL . (TH)^(m-1) T . gR."""
    gl, gr = SQUEEZE[pattern]
    m = len(pattern) + 1
    lhs = tokens_to_unitary(blocks_tokens((0,) + pattern))
    th = GATES["T"] * GATES["H"]
    open_run = GATES["I"]
    for _ in range(m - 1):
        open_run = open_run * th
    open_run = open_run * GATES["T"]
    rhs = CLIFFORD[gl] * open_run * CLIFFORD[gr] * GATES["H"]
    assert psu2_equal(lhs, rhs)


# -- normalize --------------------------------------------------------------

@given(words)
def test_normalize_sound_and_shaped(w):
    nf = normalize_word(w)
    assert psu2_equal(nf.to_unitary(), from_word(w))
    assert isinstance(nf.hpre, bool)
    assert all(b in (0, 1) for b in nf.body)
    assert 0 <= nf.tail < 24


@given(words)
def test_normalize_idempotent(w):
    nf = normalize_word(w)
    again = normalize_tokens(nf.to_tokens())
    assert again == nf


@given(words)
def test_normalize_unique_representative(w):
    # dressing with projective identities must not change the normal form
    nf = normalize_word(w)
    assert normalize_word("HH" + w) == nf
    assert normalize_word(w + "SSSS") == nf


@given(w=words)
def test_normalize_linear_meter(count_rewrite_steps, w):
    toks = parse_word(w)
    with count_rewrite_steps() as normalize:
        normalize(toks)
    assert normalize.steps <= 32 * max(1, len(toks))


def test_normalize_empty_is_identity():
    nf = normalize_word("")
    assert nf == NormalForm(False, (), G_I)


# -- canonicalize -----------------------------------------------------------

@given(words)
def test_canonicalize_sound_and_canonical(w):
    cf = canonicalize_word(w)
    assert psu2_equal(cf.to_unitary(), from_word(w))
    assert is_canonical_bits(cf.body)
    assert 0 <= cf.g1 < 24 and 0 <= cf.g2 < 24


@given(words)
def test_canonicalize_preserves_t_count(w):
    nf = normalize_word(w)
    cf = canonicalize_nf(nf)
    assert cf.t_count == nf.t_count


@given(words, st.integers(0, 23), st.integers(0, 23))
def test_canonical_body_is_coset_invariant(w, g1, g2):
    a = canonicalize_word(w)
    b = canonicalize_word(CLIFFORD_WORDS[g1] + w + CLIFFORD_WORDS[g2])
    assert a.body == b.body


def test_pure_clifford_coset_form():
    for g in (0, 1, 5, 23):
        cf = canonicalize_word(CLIFFORD_WORDS[g])
        assert cf == CosetForm(g, (), 0)


@given(w=words)
def test_canonicalize_quadratic_meter(count_rewrite_steps, w):
    nf = normalize_word(w)
    with count_rewrite_steps() as normalize:
        canonicalize_nf(nf)
    t = max(1, nf.t_count)
    assert normalize.steps <= 32 * t * t


def test_canonicalize_every_dressing_up_to_t8():
    """Each of the 48 forms [H] . blocks(bits) . g of one bits string lies in
    one double coset, so all must give one canonical body of the same
    T-count; one form per bits string is also checked exactly."""
    for t in range(9):
        for bits in itertools.product((0, 1), repeat=t):
            forms = [NormalForm(hpre, bits, tail)
                     for hpre in (False, True) for tail in range(24)]
            cfs = [canonicalize_nf(nf) for nf in forms]
            assert len({cf.body for cf in cfs}) == 1, bits
            body = cfs[0].body
            assert len(body) == t and is_canonical_bits(body), bits
            k = sum(bits) % len(forms)
            assert psu2_equal(cfs[k].to_unitary(), forms[k].to_unitary()), bits


# -- inverse and composition ------------------------------------------------

@given(words)
def test_invert_nf(w):
    nf = normalize_word(w)
    inv = invert_nf(nf)
    assert inv.t_count == nf.t_count
    prod = compose_reduce(nf, inv)
    assert prod == NormalForm(False, (), G_I)
    assert psu2_equal(inv.to_unitary(), nf.to_unitary().adjoint())


@given(words, words)
def test_compose_subadditive(w1, w2):
    a, b = normalize_word(w1), normalize_word(w2)
    c = compose_reduce(a, b)
    assert c.t_count <= a.t_count + b.t_count
    assert psu2_equal(c.to_unitary(), a.to_unitary() * b.to_unitary())


@given(words, st.integers(0, 23))
def test_compose_with_clifford_costs_nothing(w, g):
    a = normalize_word(w)
    b = normalize_word(CLIFFORD_WORDS[g])
    assert compose_reduce(a, b).t_count == a.t_count
    assert compose_reduce(b, a).t_count == a.t_count


@given(words, words)
def test_compose_reduce_matches_product(w1, w2):
    a = canonicalize_word(w1)
    b = normalize_word(w2)
    c = compose_reduce(a, b)
    assert psu2_equal(c.to_unitary(), a.to_unitary() * b.to_unitary())
    assert c.t_count <= a.t_count + b.t_count


# -- bit packing ------------------------------------------------------------

@given(bits_st)
def test_pack_unpack_round_trip(bits):
    data = pack_bits(bits)
    assert len(data) == (len(bits) + 7) // 8
    assert unpack_bits(data, len(bits)) == bits


def test_pack_bits_lsb_first():
    assert pack_bits((1, 0, 0, 0, 0, 0, 0, 0)) == b"\x01"
    assert pack_bits((0, 0, 0, 0, 0, 0, 0, 1)) == b"\x80"


# -- exact adjoint action of a body on Z -------------------------------------

@given(bits_st)
def test_adjoint_z_matches_float_rotation(bits):
    x, y, z = adjoint_z(bits)
    u = tokens_to_unitary(blocks_tokens(bits))
    col = adjoint_action(u)[:, 2]
    assert np.allclose([float(x), float(y), float(z)], col, atol=1e-9)


def test_adjoint_z_single_block():
    _, (x0, x1, y0, y1, z0, z1) = adjoint_z_state((0,))
    assert (x0, x1, y0, y1, z0, z1) == (1, 0, 1, 0, 0, 0)


@given(bits_st)
def test_adjoint_z_state_parity_when_th_leads(bits):
    bits = (0,) + bits
    _, (x0, _, y0, _, z0, _) = adjoint_z_state(bits)
    assert x0 % 2 == 1
    assert (y0 - z0) % 2 == 1
