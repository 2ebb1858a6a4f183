import itertools

from hypothesis import given, strategies as st

from qcanon.clifford import (CLIFFORD, CLIFFORD_WORDS, COMM, G_H, G_I, G_S,
                             G_SH, G_X, G_Z, INV, MULT, clifford_index)
from qcanon.unitary import GATES, from_word, psu2_equal

idx = st.integers(0, 23)


def test_twenty_four_distinct():
    keys = {CLIFFORD[g].key() for g in range(24)}
    assert len(keys) == 24


def test_words_evaluate_to_table():
    for g, w in enumerate(CLIFFORD_WORDS):
        assert psu2_equal(from_word(w), CLIFFORD[g])


def test_named_elements():
    assert CLIFFORD_WORDS[G_I] == ""
    assert CLIFFORD_WORDS[G_H] == "H"
    assert CLIFFORD_WORDS[G_S] == "S"
    assert psu2_equal(CLIFFORD[G_X], from_word("HSSH"))
    assert psu2_equal(CLIFFORD[G_Z], from_word("SS"))
    assert psu2_equal(CLIFFORD[G_SH], from_word("SH"))


@given(idx, idx)
def test_mult_table(g, h):
    assert psu2_equal(CLIFFORD[g] * CLIFFORD[h], CLIFFORD[MULT[g][h]])


@given(idx)
def test_inv_table(g):
    assert MULT[g][INV[g]] == G_I
    assert MULT[INV[g]][g] == G_I


@given(idx, idx, idx)
def test_associativity_through_table(g, h, k):
    assert MULT[MULT[g][h]][k] == MULT[g][MULT[h][k]]


def test_identity_row_and_column():
    for g in range(24):
        assert MULT[G_I][g] == g
        assert MULT[g][G_I] == g


def test_classify_round_trip():
    for g in range(24):
        assert clifford_index(CLIFFORD[g]) == g


def test_classify_non_clifford_is_none():
    assert clifford_index(GATES["T"]) is None


def test_commutation_rows_exact():
    """g . T = prefix . T^(as stored) . g' for every non-identity g.

    kind 0: plain (g commutes to a Clifford g' with T untouched)
    kind 1: an extra H lands before the T
    kind 2: an extra HSH lands before the T
    """
    t = GATES["T"]
    pref = {0: GATES["I"], 1: GATES["H"], 2: from_word("HSH")}
    for g in range(1, 24):
        kind, gp = COMM[g]
        lhs = CLIFFORD[g] * t
        rhs = pref[kind] * t * CLIFFORD[gp]
        assert psu2_equal(lhs, rhs), (g, kind, gp)


def test_comm_kinds_partition():
    # 23 non-identity rows; each kind appears and every row is one of the 3
    kinds = [COMM[g][0] for g in range(1, 24)]
    assert len(kinds) == 23
    assert set(kinds) == {0, 1, 2}


def test_subgroup_closure_under_words():
    # products of generator words stay inside the 24-element table
    gens = [G_H, G_S]
    seen = {G_I}
    frontier = [G_I]
    while frontier:
        g = frontier.pop()
        for h in gens:
            n = MULT[g][h]
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    assert seen == set(range(24))


def test_no_smaller_generating_set_of_words():
    # sanity: every element reachable as H/S word of length <= 8
    for g, w in enumerate(CLIFFORD_WORDS):
        assert len(w) <= 8
        assert set(w) <= {"H", "S"}
