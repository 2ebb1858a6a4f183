"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its
measured numbers (bypassing capture, so the line shows in normal runs)
and then asserts.  Budgets are wall-clock upper bounds; the printed
times are what this machine actually took.
"""
import time

import numpy as np
import pytest

from conftest import is_canonical_bits
from qcanon import oracle
from qcanon.catalog import (build, canonical_count, load, save,
                            CatalogError)
from qcanon.cli import _random_targets
from qcanon.clifford import CLIFFORD, CLIFFORD_WORDS, COMM, MULT
from qcanon.rewrite import (RESTART_LHS, RESTART_RHS, SQUEEZE,
                            blocks_tokens, canonicalize_nf, parse_word,
                            tokens_to_unitary)
from qcanon.search import ApproxQuery, approximate, dist_matrix
from qcanon.sk import SkConfig, gc_decompose, sk_approximate, _rot
from qcanon.unitary import GATES, from_word, psu2_equal


def _report(capfd, n, name, ok, details):
    with capfd.disabled():
        print(f"criterion {n:02d} {name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {n}: {details}"


def test_criterion_01_clifford_tables(capfd):
    """24 table words pairwise distinct in PSU(2); 23 conjugation rows exact."""
    t0 = time.perf_counter()
    keys = {c.key() for c in CLIFFORD}
    distinct_ok = len(keys) == 24
    pref = {0: GATES["I"], 1: GATES["H"], 2: from_word("HSH")}
    rows = 0
    rows_ok = True
    for g in range(1, 24):
        kind, gp = COMM[g]
        lhs = CLIFFORD[g] * GATES["T"]
        rhs = pref[kind] * GATES["T"] * CLIFFORD[gp]
        rows_ok &= psu2_equal(lhs, rhs)
        rows += 1
    dt = time.perf_counter() - t0
    ok = distinct_ok and rows_ok and rows == 23 and dt < 1.0
    _report(capfd, 1, "clifford tables", ok,
            f"{len(keys)} distinct, {rows} rows exact, {dt:.3f} s < 1 s")


def test_criterion_02_rewrite_identities(capfd):
    """The 11 block-squeeze identities and the SH-restart identity, exact."""
    checked = 0
    ok = True
    for key, (gL, gR) in SQUEEZE.items():
        m = len(key) + 1
        lhs = tokens_to_unitary(blocks_tokens((0,) + key)[:-1])
        open_run = GATES["I"]
        th = GATES["T"] * GATES["H"]
        for _ in range(m - 1):
            open_run = open_run * th
        open_run = open_run * GATES["T"]
        ok &= psu2_equal(lhs, CLIFFORD[gL] * open_run * CLIFFORD[gR])
        checked += 1
    restart_ok = psu2_equal(tokens_to_unitary(RESTART_LHS),
                            tokens_to_unitary(RESTART_RHS))
    ok = ok and restart_ok and checked == 11
    _report(capfd, 2, "rewrite identities", ok,
            f"{checked} squeezes + restart, exact")


def test_criterion_03_rewrite_soundness(capfd, count_rewrite_steps):
    """10,000 random words, length <= 256: exact equality, valid shapes,
    rewrite steps within linear / quadratic bounds with constant <= 32.
    A step is a token fed to `normalize_tokens`, plus one per call."""
    rng = np.random.default_rng(0)
    n_words = 10_000
    t0 = time.perf_counter()
    worst_lin = 0.0
    worst_quad = 0.0
    ok = True
    for _ in range(n_words):
        length = int(rng.integers(0, 257))
        w = "".join(np.array(list("HTS"))[rng.integers(0, 3, size=length)])
        toks = parse_word(w)
        u = from_word(w)

        with count_rewrite_steps() as normalize:
            nf = normalize(toks)
        lin = normalize.steps / max(1, len(toks))
        worst_lin = max(worst_lin, lin)

        with count_rewrite_steps() as normalize:
            cf = canonicalize_nf(nf)
        quad = normalize.steps / max(1, nf.t_count) ** 2
        worst_quad = max(worst_quad, quad)

        ok &= psu2_equal(nf.to_unitary(), u)
        ok &= psu2_equal(cf.to_unitary(), u)
        ok &= all(b in (0, 1) for b in nf.body) and 0 <= nf.tail < 24
        ok &= is_canonical_bits(cf.body)
        ok &= cf.t_count == nf.t_count
        if not ok:
            break
    dt = time.perf_counter() - t0
    ok = ok and worst_lin <= 32 and worst_quad <= 32 and dt < 60.0
    _report(capfd, 3, "rewrite soundness", ok,
            f"{n_words} words, worst linear const {worst_lin:.2f}, "
            f"worst quadratic const {worst_quad:.2f}, {dt:.1f} s < 60 s")


def test_criterion_04_separation_audit(capfd):
    """No two canonical circuits of T-count <= 10 collide under any of the
    576 two-sided Clifford translates (exhaustive, exact)."""
    t0 = time.perf_counter()
    rep = oracle.theorem1_audit(10)
    dt = time.perf_counter() - t0
    ok = rep.ok and dt < 600.0
    _report(capfd, 4, "theorem1 audit", ok,
            f"{rep.info['circuits']} circuits, {rep.checked} pairs x "
            f"{rep.info['translates_per_pair']} translates, "
            f"{len(rep.violations)} collisions, {dt:.1f} s < 600 s")


def test_criterion_05_parity_audit(capfd):
    t0 = time.perf_counter()
    rep = oracle.parity_audit(1000, seed=0)
    dt = time.perf_counter() - t0
    ok = rep.ok and rep.checked == 1000 and dt < 10.0
    _report(capfd, 5, "parity audit", ok,
            f"{rep.checked} circuits, {len(rep.violations)} violations, "
            f"{dt:.2f} s < 10 s")


def test_criterion_06_counts(capfd):
    """Grammar counts equal the BFS double-coset oracle exactly for t <= 10;
    each stays within +-1 of the 2^(t-3)+4 closed form."""
    t0 = time.perf_counter()
    by_t = oracle.coset_counts_by_t(10)
    dt = time.perf_counter() - t0
    exact_ok = True
    plus4_ok = True
    cum = 0
    rows = []
    for t in range(11):
        cum += by_t[t]
        grammar = canonical_count(t)
        exact_ok &= cum == grammar
        if t >= 4:
            plus4 = 2 ** (t - 3) + 4
            plus4_ok &= abs(cum - plus4) <= 1
        rows.append(cum)
    ok = exact_ok and plus4_ok
    _report(capfd, 6, "canonical counts", ok,
            f"oracle==grammar for t<=10: {exact_ok}, within 1 of +4 form: "
            f"{plus4_ok}, cumulative {rows}, {dt:.1f} s")


def test_criterion_07_trace_scaling(capfd):
    """Distinct trace keys at T-count <= k stay below 6 * 2^(k/2), k = 10..20."""
    t0 = time.perf_counter()
    cat = build(20)
    worst = 0.0
    ok = True
    for k in range(10, 21):
        distinct = cat.distinct_traces(k)
        bound = 6.0 * 2.0 ** (k / 2.0)
        worst = max(worst, distinct / bound)
        ok &= distinct <= bound
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _report(capfd, 7, "trace scaling", ok,
            f"{cat.entry_count()} entries, {cat.distinct_traces()} keys at "
            f"k=20, worst ratio to 6*2^(k/2) {worst:.3f}, {dt:.1f} s < 300 s")


def test_criterion_08_search_optimality(capfd, db12):
    """approximate() returns the brute-force minimum T-count on 100 seeded
    targets for eps in {0.3, 0.1}; geometric equals linear to 1e-12."""
    t0 = time.perf_counter()
    mats = _random_targets(808, 100)
    mismatches = 0
    method_gap = 0.0
    checked = 0
    for mat in mats:
        for eps in (0.3, 0.1):
            geo = approximate(ApproxQuery(mat, eps), db12, method="geometric")
            lin = approximate(ApproxQuery(mat, eps), db12, method="linear")
            if geo.found != lin.found or (geo.found and (
                    geo.t_count != lin.t_count
                    or abs(geo.achieved_dist - lin.achieved_dist) > 1e-12)):
                mismatches += 1
            if geo.found and lin.found:
                method_gap = max(method_gap,
                                 abs(geo.achieved_dist - lin.achieved_dist))
            ref = oracle.brute_min_tcount(mat, eps, t_max=12)
            ours = geo.t_count if geo.found else None
            if ours != ref:
                mismatches += 1
            checked += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 300.0
    _report(capfd, 8, "search optimality", ok,
            f"{checked} queries, {mismatches} mismatches, geometric-linear "
            f"gap {method_gap:.1e}, {dt:.1f} s < 300 s")


def test_criterion_09_bucket_homogeneity(capfd, db14):
    """Every trace bucket at t_max = 14 holds a single T-count."""
    lo = db14.starts[:-1]
    violations = int(np.count_nonzero(
        np.minimum.reduceat(db14.t, lo) != np.maximum.reduceat(db14.t, lo)))
    ok = violations == 0
    _report(capfd, 9, "bucket homogeneity", ok,
            f"{len(db14.keys)} buckets, {db14.entry_count()} entries, "
            f"{violations} mixed")


def test_criterion_10_sk_behavior(capfd, db20):
    """100 seeded targets, catalog t_max = 20: mean distance strictly
    decreases over levels 0..3; every intermediate circuit is well shaped;
    commutator error scales as angle^1.5 (slope within 1.5 +- 0.1);
    T-count growth per level bounded by factor 5 plus 8."""
    t0 = time.perf_counter()
    mats = _random_targets(1010, 100)
    cfg = SkConfig(db20)
    sum_d = np.zeros(4)
    shape_bad = 0
    growth_bad = 0
    sum_t = np.zeros(4)
    for mat in mats:
        res = sk_approximate(mat, 3, cfg)
        sum_d += res.dist_per_level
        sum_t += res.t_per_level
        for form, t in zip(res.circuit_per_level, res.t_per_level):
            good = (isinstance(form.hpre, bool)
                    and all(b in (0, 1) for b in form.body)
                    and 0 <= form.tail < 24
                    and form.t_count == len(form.body) == t)
            shape_bad += 0 if good else 1
        for k in range(3):
            if res.t_per_level[k + 1] > 5 * res.max_t_per_depth[k] + 8:
                growth_bad += 1
    mean_d = sum_d / len(mats)
    mean_t = sum_t / len(mats)
    decrease_ok = bool(np.all(np.diff(mean_d) < 0))
    mean_growth_ok = all(mean_t[k + 1] <= 5 * mean_t[k] + 8 for k in range(3))

    thetas = np.logspace(-1, -3, 9)
    axis = np.array([0.3, -0.5, 0.81])
    axis /= np.linalg.norm(axis)
    errs = []
    for theta in thetas:
        v, w = gc_decompose(_rot(axis, theta))
        comm = v @ w @ v.conj().T @ w.conj().T
        errs.append(dist_matrix(comm, _rot(axis, theta)))
    slope = float(np.polyfit(np.log(thetas), np.log(errs), 1)[0])
    slope_ok = 1.4 <= slope <= 1.6

    dt = time.perf_counter() - t0
    ok = (decrease_ok and shape_bad == 0 and growth_bad == 0
          and mean_growth_ok and slope_ok and dt < 900.0)
    _report(capfd, 10, "sk behavior", ok,
            f"mean dist {np.array2string(mean_d, precision=2)} decreasing="
            f"{decrease_ok}, shapes bad {shape_bad}, growth bad {growth_bad}, "
            f"mean t {np.array2string(mean_t, precision=1)}, gc slope "
            f"{slope:.3f}, {dt:.0f} s < 900 s")


def test_criterion_11_persistence(capfd, db16, tmp_path):
    """Round trip at t_max = 16 is bit exact, checksummed, and corruption
    fails cleanly."""
    p1 = tmp_path / "a.qcat"
    p2 = tmp_path / "b.qcat"
    save(db16, p1)
    back = load(p1)
    save(back, p2)
    bytes_ok = p1.read_bytes() == p2.read_bytes()
    content_ok = (back.entry_count() == db16.entry_count()
                  and back.max_tcount == 16
                  and np.array_equal(back.keys, db16.keys))
    blob = bytearray(p1.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    p1.write_bytes(bytes(blob))
    try:
        load(p1)
        corrupt_ok = False
    except CatalogError:
        corrupt_ok = True
    ok = bytes_ok and content_ok and corrupt_ok
    _report(capfd, 11, "persistence", ok,
            f"{back.entry_count()} entries, resave identical={bytes_ok}, "
            f"corruption rejected={corrupt_ok}")
