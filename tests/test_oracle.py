import numpy as np
import pytest

from qcanon.catalog import canonical_count
from qcanon.clifford import CLIFFORD, G_H
from qcanon.oracle import (AuditReport, bfs_layers, brute_min_tcount,
                           coset_counts_by_t, parity_audit, random_normalized_bits,
                           theorem1_audit)
from qcanon.rewrite import blocks_tokens, tokens_to_unitary
from qcanon.unitary import GATES, from_word, psu2_equal


# -- report type ---------------------------------------------------------------

def test_audit_report_summary():
    ok = AuditReport("demo", 10, [], {"n": 3})
    assert ok.ok
    assert "demo: ok checked=10 violations=0 n=3" == ok.summary()
    bad = AuditReport("demo", 10, [("w",)])
    assert not bad.ok
    assert "FAIL" in bad.summary()


# -- BFS ground truth ------------------------------------------------------------

def layer_sizes(t_max: int) -> list[int]:
    return [len(layer) for layer in bfs_layers(t_max)]


def coset_count(t_max: int) -> int:
    """Distinct two-sided Clifford cosets reachable with minimal T-count <= t_max."""
    return sum(coset_counts_by_t(t_max))


def test_layer_sizes_frozen():
    assert layer_sizes(6) == [24, 72, 144, 288, 576, 1152, 2304]


def test_layers_hold_minimal_elements():
    layers = bfs_layers(3)
    seen = set()
    for layer in layers:
        keys = set(layer)
        assert not keys & seen  # layers are disjoint
        seen |= keys
    assert from_word("T").key() in layers[1]
    assert from_word("HTH").key() in layers[1]
    assert from_word("THT").key() in layers[2]


def test_coset_counts_match_closed_form():
    by_t = coset_counts_by_t(8)
    cum = np.cumsum(by_t)
    assert list(cum) == [canonical_count(t) for t in range(9)]
    assert coset_count(8) == canonical_count(8) == 35


def test_coset_counts_refuse_beyond_desk_scale():
    with pytest.raises(ValueError, match="desk scale"):
        coset_counts_by_t(11)


# -- minimum T-count oracle --------------------------------------------------------

def test_brute_trivial_cases():
    eps = 1e-6
    assert brute_min_tcount(GATES["I"], eps, t_max=4) == 0
    assert brute_min_tcount(GATES["T"], eps, t_max=4) == 1
    assert brute_min_tcount(from_word("HTH"), eps, t_max=4) == 1
    assert brute_min_tcount(from_word("THTHTHTHTH"), eps, t_max=6) == 5


def test_brute_returns_none_when_out_of_reach():
    u = tokens_to_unitary(blocks_tokens((0, 0, 0, 0, 1, 0, 1)))
    assert brute_min_tcount(u, 1e-6, t_max=5) is None
    assert brute_min_tcount(u, 1e-6, t_max=7) == 7


def test_mitm_agrees_with_bfs_scan():
    rng = np.random.default_rng(8)
    for _ in range(6):
        q = rng.normal(size=4)
        c, x, y, z = q / np.linalg.norm(q)
        target = np.array([[c - 1j * z, -y - 1j * x], [y - 1j * x, c + 1j * z]])
        for eps in (0.3, 0.15):
            a = brute_min_tcount(target, eps, t_max=8, method="mitm")
            b = brute_min_tcount(target, eps, t_max=8, method="bfs")
            assert a == b


def test_mitm_rejects_unknown_method():
    with pytest.raises(ValueError):
        brute_min_tcount(GATES["T"], 0.1, t_max=4, method="exact")


# -- separation audit ---------------------------------------------------------------

def test_theorem1_audit_passes_small():
    rep = theorem1_audit(5)
    assert rep.ok
    assert rep.info["circuits"] == canonical_count(5) == 7
    assert rep.checked == 7 * 6 // 2  # unordered pairs
    assert rep.info["translates_per_pair"] == 576


def test_theorem1_audit_catches_planted_collision():
    rep = theorem1_audit(5, inject_fake=True)
    assert not rep.ok
    v = rep.violations[0]
    assert "injected" in str(v)
    # the witness maps circuit i onto the planted fake
    (bits_i, fake, g1, g2), = rep.violations
    u_i = tokens_to_unitary(blocks_tokens(bits_i))
    planted = CLIFFORD[G_H] * u_i * CLIFFORD[G_H]
    assert fake == ("injected",) + bits_i
    assert psu2_equal(CLIFFORD[g1] * u_i * CLIFFORD[g2], planted)


# -- parity audit --------------------------------------------------------------------

def test_random_normalized_bits_ranges():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = random_normalized_bits(rng, t_lo=2, t_hi=9)
        assert 2 <= len(bits) <= 9
        assert set(bits) <= {0, 1}
    for _ in range(20):
        bits = random_normalized_bits(rng, start_th=True)
        assert bits[0] == 0


def test_parity_audit_clean():
    rep = parity_audit(samples=300, seed=1)
    assert rep.ok
    assert rep.checked == 300
