"""The four workloads: seeded inputs, one round of operations, the checks.

Each workload times two operations, `op` and `aux`.  A round is a fixed,
seeded list of them; every round of a run repeats the same list and must
give the same answers.  Set-up ends with the first answered `aux`.
qcanon is reached only through its public functions, looked up on the
module at call time so that the traced run sees every call.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import statistics
import time
import tracemalloc
from array import array

import numpy as np
from qcanon import catalog, rewrite, search, sk

from common import (Checker, catalog_file, clifford_word, haar_targets, matrix_json,
                    REF_NOMINAL_S, member_word, random_word, reference_chunk, run_cli,
                    word_matrix, work_dir)


class Timer:
    """Latencies of the timed operations, each scaled to reference speed.

    Between operations, at most every REF_EVERY_S, a burst of reference
    chunks measures the machine's current speed (see common.reference_chunk);
    every latency since the previous burst is scaled by it.
    """

    REF_EVERY_S = 0.2
    REF_BURST = 3

    def __init__(self):
        # arrays, not lists of floats, so the record adds little to peak RSS
        self.op = array("d")
        self.aux = array("d")
        self.raw = {"op": array("d"), "aux": array("d")}
        self.ref: list[float] = []
        self._pending: list[tuple[str, float]] = []
        self._last_ref = -math.inf

    def time(self, kind: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self._pending.append((kind, t1 - t0))
        if t1 - self._last_ref >= self.REF_EVERY_S:
            self.flush()
        return result

    def flush(self) -> None:
        """Take a reference burst and scale the latencies waiting for one."""
        if not self._pending:
            return
        ref = statistics.median(reference_chunk() for _ in range(self.REF_BURST))
        self.ref.append(ref)
        for kind, dt in self._pending:
            self.raw[kind].append(dt)
            getattr(self, kind).append(dt * REF_NOMINAL_S / ref)
        self._pending.clear()
        self._last_ref = time.perf_counter()


def _median_ms(spans) -> float | None:
    return statistics.median(s.dur for s in spans) * 1e3 if spans else None


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.cli_s: float | None = None

    def prepare(self) -> float:
        """Make cached inputs; returns the seconds spent in child builds."""
        return 0.0

    def setup(self) -> None: ...

    def warm(self) -> None: ...

    def round(self, timer: Timer):
        """Run one round; returns (summary to compare across rounds, outputs)."""
        raise NotImplementedError

    def verify(self, out, chk: Checker) -> list[int]:
        """Check the outputs of a round; returns the T-counts of its circuits."""
        raise NotImplementedError

    def layer_metrics(self, tr, out) -> dict:
        raise NotImplementedError

    def close(self) -> None: ...


# ---------------------------------------------------------------------------

class CatalogWorkload(Workload):
    """op: build + save of a t = 18 catalog; aux: load of that file, twice
    per round, since a load costs half a build and varies more."""

    name = "catalog"
    T_MAX = 18
    MEMBER_T = range(0, T_MAX + 1, 2)

    def prepare(self):
        self.cached, wait = catalog_file(self.T_MAX)
        return wait

    def setup(self):
        wd = work_dir()
        self.path = wd / f"catalog-{os.getpid()}.qcat"
        self.resaved = wd / f"resaved-{os.getpid()}.qcat"
        self.words = [member_word(self.rng, t) for t in self.MEMBER_T]

    def warm(self):
        catalog.load(self.cached)

    def _build_save(self):
        cat = catalog.build(self.T_MAX)
        catalog.save(cat, self.path)
        return cat

    def round(self, timer):
        built = timer.time("op", self._build_save)
        timer.time("aux", catalog.load, self.path)
        loaded = timer.time("aux", catalog.load, self.path)
        return hashlib.sha256(self.path.read_bytes()).hexdigest(), (built, loaded)

    def verify(self, out, chk):
        built, loaded = out
        want = 2 ** (self.T_MAX - 3) + 3
        chk.expect(built.entry_count() == want, f"built entry_count {built.entry_count()} != {want}")
        chk.expect(loaded.entry_count() == want, f"loaded entry_count {loaded.entry_count()} != {want}")
        data = self.path.read_bytes()
        chk.expect(data == self.cached.read_bytes(),
                   "save(build(18)) differs from the file qcanon build-db wrote")
        catalog.save(loaded, self.resaved)
        chk.expect(self.resaved.read_bytes() == data, "save(load(f)) is not byte-identical to f")
        t_counts = []
        for w in self.words:
            res = search.nearest(word_matrix(w), built)
            want_t = rewrite.canonicalize_word(w).t_count
            chk.expect(res.achieved_dist == 0.0, f"nearest({w!r}) at distance {res.achieved_dist}")
            chk.expect(res.t_count == want_t, f"nearest({w!r}) T-count {res.t_count} != {want_t}")
            chk.circuit(res.circuit.to_word(), res.t_count, word_matrix(w), res.achieved_dist,
                        f"nearest({w!r})")
            t_counts.append(res.t_count)
        self.file_bytes = len(data)
        return t_counts

    def layer_metrics(self, tr, out):
        built, _ = out
        n = built.entry_count()
        m = {}
        builds = tr.select(self.name, "catalog.build", top=True)
        if builds:
            m["catalog.build_us_per_entry"] = statistics.median(s.dur for s in builds) / n * 1e6
        m["catalog.save_ms"] = _median_ms(tr.select(self.name, "catalog.save", top=True))
        loads = tr.select(self.name, "catalog.load", top=True)
        m["catalog.load_ms"] = _median_ms(loads)
        calls, secs = tr.hot_total(self.name, "geometry.assign_bins", root="catalog.load")
        if calls and loads:
            m["geometry.assign_bins_ms"] = secs / len(loads) * 1e3
        m["catalog.file_bytes_per_entry"] = self.file_bytes / n
        for metric, name in (("unitary.mul_us", "unitary.__mul__"),
                             ("unitary.su2_quaternion_us", "unitary.su2_quaternion")):
            calls, secs = tr.hot_total(self.name, name, root="catalog.build")
            if calls:
                m[metric] = secs / calls * 1e6
        # peak Python heap (numpy included) of one build and one load
        tr.phase = "memory"
        for metric, fn in (("catalog.build_peak_bytes_per_entry", lambda: catalog.build(self.T_MAX)),
                           ("catalog.load_peak_bytes_per_entry", lambda: catalog.load(self.path))):
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            m[metric] = (tracemalloc.get_traced_memory()[1] - base) / n
            tracemalloc.stop()
        tmp = work_dir() / f"cli-{os.getpid()}.qcat"
        try:
            _, m["cli.build_db_s"] = run_cli("build-db", "--max-tcount", str(self.T_MAX),
                                             "--out", str(tmp))
        finally:
            tmp.unlink(missing_ok=True)
        return m

    def close(self):
        for p in (getattr(self, "path", None), getattr(self, "resaved", None)):
            if p is not None:
                p.unlink(missing_ok=True)


# ---------------------------------------------------------------------------

class ApproxWorkload(Workload):
    """op: approximate at eps 0.1, 0.03, 0.01; aux: nearest; t = 18 catalog."""

    name = "approx"
    T_MAX = 18
    EPS = (0.1, 0.03, 0.01)
    TARGETS = 20
    ORACLE_TARGETS = 4  # meet-in-the-middle cross-check on the first ones
    ORACLE_T = 16

    def prepare(self):
        self.cached, wait = catalog_file(self.T_MAX)
        return wait

    def setup(self):
        self.db = catalog.load(self.cached)
        self.targets = haar_targets(self.rng, self.TARGETS)

    def warm(self):
        # the first query on a fresh catalog pays the lazy index set-up
        t0 = time.perf_counter()
        search.nearest(self.targets[0], self.db)
        self.first_query_s = time.perf_counter() - t0

    def round(self, timer):
        out = []
        for mat in self.targets:
            found = [timer.time("op", search.approximate, search.ApproxQuery(mat, eps), self.db)
                     for eps in self.EPS]
            near = timer.time("aux", search.nearest, mat, self.db)
            out.append((found, near))
        summary = [[(r.circuit.to_word() if r.found else None, r.t_count, r.achieved_dist)
                    for r in found + [near]] for found, near in out]
        return summary, out

    def verify(self, out, chk):
        from qcanon import oracle  # imports scipy; kept out of the timed set-up
        t_counts = []
        for i, (mat, (found, near)) in enumerate(zip(self.targets, out)):
            chk.circuit(near.circuit.to_word(), near.t_count, mat, near.achieved_dist,
                        f"nearest target {i}")
            t_counts.append(near.t_count)
            prev_t = None
            for eps, r in zip(self.EPS, found):
                what = f"approximate target {i} eps {eps}"
                if r.found:
                    chk.circuit(r.circuit.to_word(), r.t_count, mat, r.achieved_dist, what)
                    chk.expect(r.achieved_dist < eps, f"{what}: distance {r.achieved_dist} >= eps")
                    chk.expect(near.achieved_dist <= r.achieved_dist,
                               f"{what}: nearest {near.achieved_dist} > {r.achieved_dist}")
                    chk.expect(prev_t is not False and (prev_t is None or r.t_count >= prev_t),
                               f"{what}: T-count {r.t_count} below the one at a larger eps")
                    prev_t = r.t_count
                    t_counts.append(r.t_count)
                else:
                    prev_t = False  # nothing may be found at a smaller eps either
                if i < self.ORACLE_TARGETS:
                    ref = oracle.brute_min_tcount(mat, eps, t_max=self.ORACLE_T)
                    ours = r.t_count if r.found and r.t_count <= self.ORACLE_T else None
                    chk.expect(ref == ours, f"{what}: T-count {ours}, meet-in-the-middle {ref}")
        stdout, self.cli_s = run_cli("approx", "--db", str(self.cached), "--eps", "0.03",
                                     "--matrix", matrix_json(self.targets[0]),
                                     ok_codes=(0, 1))  # 1: nothing within eps
        api = out[0][0][1]
        chk.same_answer(json.loads(stdout), api.circuit.to_word() if api.found else None,
                        api.t_count, api.achieved_dist, "approx target 0 eps 0.03")
        return t_counts

    def layer_metrics(self, tr, out):
        m = {"search.first_query_ms": self.first_query_s * 1e3}
        queries = tr.select(self.name, "search.approximate", top=True)
        dressed = tr.select(self.name, "search.coset_targets", root="search.approximate")
        if dressed:
            m["search.coset_targets_ms"] = statistics.fmean(s.dur for s in dressed) * 1e3
            m["search.dressed_targets"] = statistics.fmean(s.size for s in dressed)
        calls, _ = tr.hot_total(self.name, "catalog.window", root="search.approximate")
        if calls and queries:
            m["catalog.window_calls"] = calls / len(queries)
        for eps in self.EPS:
            m[f"search.approximate_ms-eps{eps:g}"] = _median_ms(
                tr.select(self.name, "search.approximate", tag=f"{eps:g}-default", top=True))
        m["search.nearest_ms"] = _median_ms(tr.select(self.name, "search.nearest", top=True))
        if "method" in inspect.signature(search.approximate).parameters:
            for mat in self.targets[:2]:
                search.approximate(search.ApproxQuery(mat, 0.03), self.db, method="linear")
            m["search.linear_ms-eps0.03"] = _median_ms(
                tr.select(self.name, "search.approximate", tag="0.03-linear", top=True))
        m["cli.approx_s"] = self.cli_s
        return m


# ---------------------------------------------------------------------------

class SkWorkload(Workload):
    """op: sk_approximate at depth 3; aux: at depth 1; t = 12 catalog.

    Depth 1 costs a tenth of depth 3 and its latency varies more from
    target to target, so it runs on more targets.
    """

    name = "sk"
    T_MAX = 12
    DEEP_TARGETS = 5
    TARGETS = 32

    def prepare(self):
        self.cached, wait = catalog_file(self.T_MAX)
        return wait

    def setup(self):
        self.cfg = sk.SkConfig(db=catalog.load(self.cached), max_depth=3)
        self.targets = haar_targets(self.rng, self.TARGETS)

    def warm(self):
        sk.sk_approximate(self.targets[0], 1, self.cfg)

    def round(self, timer):
        out = []
        for i, mat in enumerate(self.targets):
            deep = (timer.time("op", sk.sk_approximate, mat, 3, self.cfg)
                    if i < self.DEEP_TARGETS else None)
            out.append((deep, timer.time("aux", sk.sk_approximate, mat, 1, self.cfg)))
        summary = [[(r.circuit.to_word(), r.dist_per_level) for r in pair if r is not None]
                   for pair in out]
        return summary, out

    def verify(self, out, chk):
        t_counts = []
        for i, (mat, pair) in enumerate(zip(self.targets, out)):
            for r in pair:
                if r is None:
                    continue
                depth = len(r.t_per_level) - 1
                what = f"sk target {i} depth {depth}"
                for k, form in enumerate(r.circuit_per_level):
                    chk.expect(form.t_count == r.t_per_level[k], f"{what}: level {k} T-count")
                    chk.circuit(form.to_word(), form.t_count, mat, r.dist_per_level[k],
                                f"{what} level {k}")
                for k in range(depth):
                    chk.expect(r.t_per_level[k + 1] <= 5 * r.max_t_per_depth[k] + 8,
                               f"{what}: T-count {r.t_per_level[k + 1]} at level {k + 1} "
                               f"exceeds 5 * {r.max_t_per_depth[k]} + 8")
                t_counts.append(r.t_count)
        deep = [r3 for r3, _ in out if r3 is not None]
        d0 = statistics.fmean(r.dist_per_level[0] for r in deep)
        d3 = statistics.fmean(r.dist_per_level[3] for r in deep)
        chk.expect(d3 < d0, f"mean distance at depth 3 ({d3}) not below depth 0 ({d0})")
        stdout, self.cli_s = run_cli("sk", "--db", str(self.cached), "--depth", "1",
                                     "--matrix", matrix_json(self.targets[0]))
        api = out[0][1]
        chk.same_answer(json.loads(stdout), api.circuit.to_word(), api.t_count,
                        api.dist_per_level[-1], "sk target 0 depth 1")
        return t_counts

    def layer_metrics(self, tr, out):
        root = dict(root="sk.sk_approximate", root_tag=3)
        tops = tr.select(self.name, "sk.sk_approximate", tag=3, top=True)
        n = len(tops)
        m = {"cli.sk_s": self.cli_s}
        if not n:
            return m
        lookups = tr.select(self.name, "search.nearest", **root)
        lookups_eps = tr.select(self.name, "search.approximate", **root)
        m["sk.level0_calls"] = (len(lookups) + len(lookups_eps)) / n
        m["sk.nearest_ms"] = sum(s.dur for s in lookups) / n * 1e3
        m["sk.compose_reduce_ms"] = sum(
            s.dur for s in tr.select(self.name, "rewrite.compose_reduce", **root)) / n * 1e3
        gc = tr.select(self.name, "sk.gc_decompose", **root)
        if gc:
            m["sk.gc_decompose_us"] = statistics.fmean(s.dur for s in gc) * 1e6
        m["sk.self_ms"] = statistics.fmean(s.self_s for s in tops) * 1e3
        deep = [r3 for r3, _ in out if r3 is not None]
        if all(isinstance(getattr(r, "cancellations", None), dict) for r in deep):
            m["sk.exact_reevals"] = statistics.fmean(
                r.cancellations.get("exact_reevals", 0) for r in deep)
        for k in range(4):
            m[f"sk.t_count-depth{k}"] = statistics.fmean(r.t_per_level[k] for r in deep)
            m[f"sk.dist-depth{k}"] = statistics.fmean(r.dist_per_level[k] for r in deep)
        return m


# ---------------------------------------------------------------------------

class ReduceWorkload(Workload):
    """op: canonicalize_word; aux: compose_reduce(a, invert_nf(normalize_word(v)))."""

    name = "reduce"
    LENGTHS = (24, 64, 160, 400, 1000)
    PER_LENGTH = 128  # half of them cancel: v == w

    def setup(self):
        self.pairs = []
        for length in self.LENGTHS:
            for j in range(self.PER_LENGTH):
                w = random_word(self.rng, length)
                v = w if j % 2 == 0 else random_word(self.rng, length)
                dressed = clifford_word(self.rng) + w + clifford_word(self.rng)
                self.pairs.append((w, v, dressed))

    @staticmethod
    def _compose(a, v):
        b_inv = rewrite.invert_nf(rewrite.normalize_word(v))
        return rewrite.compose_reduce(a, b_inv), b_inv

    def warm(self):
        w, v, _ = self.pairs[0]
        self._compose(rewrite.canonicalize_word(w), v)

    def round(self, timer):
        out = []
        for w, v, _ in self.pairs:
            a = timer.time("op", rewrite.canonicalize_word, w)
            r, b_inv = timer.time("aux", self._compose, a, v)
            out.append((a, r, b_inv))
        summary = [(a.g1, a.body, a.g2, r.hpre, r.body, r.tail) for a, r, _ in out]
        return summary, out

    def verify(self, out, chk):
        t_counts = []
        for i, ((w, v, dressed), (a, r, _)) in enumerate(zip(self.pairs, out)):
            mw = word_matrix(w)
            chk.circuit(a.to_word(), a.t_count, mw, 0.0, f"canonicalize word {i}")
            chk.circuit(r.to_word(), r.t_count, mw @ word_matrix(v).conj().T, 0.0,
                        f"compose word {i}")
            if v == w:
                chk.expect(r.t_count == 0, f"word {i} composed with its inverse keeps {r.t_count} T")
            d = rewrite.canonicalize_word(dressed)
            chk.expect((d.body, d.t_count) == (a.body, a.t_count),
                       f"word {i}: canonical body changes under Clifford dressing")
            t_counts += [a.t_count, r.t_count]
        w0 = self.pairs[0][0]
        stdout, self.cli_s = run_cli("canonicalize", w0, "--json")
        cli = json.loads(stdout)
        a0 = out[0][0]
        chk.expect((cli["g1"], cli["body"], cli["g2"], cli["t_count"], cli["word"])
                   == (a0.g1, "".join(map(str, a0.body)), a0.g2, a0.t_count, a0.to_word()),
                   "qcanon canonicalize answered differently from the API")
        return t_counts

    def layer_metrics(self, tr, out):
        m = {}
        for metric, name in (("rewrite.normalize_us_per_letter", "rewrite.normalize_word"),
                             ("rewrite.canonicalize_us_per_letter", "rewrite.canonicalize_word")):
            spans = tr.select(self.name, name, top=True)
            if spans:
                m[metric] = sum(s.dur for s in spans) / sum(s.tag for s in spans) * 1e6
        for metric, name in (("rewrite.compose_reduce_us", "rewrite.compose_reduce"),
                             ("rewrite.invert_nf_us", "rewrite.invert_nf")):
            spans = tr.select(self.name, name, top=True)
            if spans:
                m[metric] = statistics.fmean(s.dur for s in spans) * 1e6
        m["rewrite.t_removed"] = statistics.fmean(
            a.t_count + b_inv.t_count - r.t_count for a, r, b_inv in out)
        m["cli.canonicalize_s"] = self.cli_s
        return m


WORKLOADS = {w.name: w for w in (CatalogWorkload, ApproxWorkload, SkWorkload, ReduceWorkload)}
