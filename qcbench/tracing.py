"""Spans around qcanon's public functions, for the traced run.

`Tracer.instrument` replaces each listed function, in every qcanon module
that holds it, with a wrapper that times the call.  Calls are grouped by
phase (the workload running) and by root (the outermost traced call, with
its tag).  Ordinary calls become spans with their self time; hot kernel
calls are only counted and summed per (phase, root).  A function the
program no longer has is skipped, and the metrics that need it are absent.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, hot, tag): tag maps the call's arguments to a label
TRACED = [
    ("qcanon.catalog", "build", False, lambda a, k: a[0] if a else k.get("t_max")),
    ("qcanon.catalog", "save", False, None),
    ("qcanon.catalog", "load", False, None),
    ("qcanon.catalog", "Catalog.window", True, None),
    ("qcanon.geometry", "assign_bins", True, None),
    ("qcanon.unitary", "ExactUnitary.__mul__", True, None),
    ("qcanon.unitary", "su2_quaternion", True, None),
    ("qcanon.search", "approximate", False,
     lambda a, k: f"{a[0].epsilon:g}-{k.get('method', 'default')}"),
    ("qcanon.search", "nearest", False, None),
    ("qcanon.search", "coset_targets", False, None),
    ("qcanon.sk", "sk_approximate", False, lambda a, k: a[1] if len(a) > 1 else k.get("n")),
    ("qcanon.sk", "gc_decompose", False, None),
    ("qcanon.rewrite", "normalize_word", False, lambda a, k: len(a[0])),
    ("qcanon.rewrite", "canonicalize_word", False, lambda a, k: len(a[0])),
    ("qcanon.rewrite", "invert_nf", False, None),
    ("qcanon.rewrite", "compose_reduce", False, None),
]


class Span:
    __slots__ = ("phase", "name", "tag", "root", "root_tag", "start", "dur", "self_s", "size")

    def __init__(self, phase, name, tag, root, root_tag, start, dur, self_s, size):
        self.phase, self.name, self.tag = phase, name, tag
        self.root, self.root_tag = root, root_tag
        self.start, self.dur, self.self_s, self.size = start, dur, self_s, size


class Tracer:
    def __init__(self):
        self.phase = ""
        self.spans: list[Span] = []
        # (phase, root, root_tag, name) -> [calls, seconds]
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[list] = []  # [name, tag, start, child seconds]
        self.missing: list[str] = []

    def instrument(self) -> None:
        for modname, attr, hot, tag in TRACED:
            mod = sys.modules.get(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(f"{modname.split('.')[-1]}.{fname}", orig, hot, tag)
            if owner_name:
                setattr(owner, fname, wrapped)
                continue
            for name, m in list(sys.modules.items()):
                if name == "qcanon" or name.startswith("qcanon."):
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)

    def _wrap(self, name, fn, hot, tag):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = tag(args, kwargs) if tag else None
            frame = [name, label, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                if stack:
                    stack[-1][3] += dur
                root = stack[0] if stack else frame
                if hot:
                    cell = self.hot[(self.phase, root[0], root[1], name)]
                    cell[0] += 1
                    cell[1] += dur
                else:
                    size = len(result) if name == "search.coset_targets" and result is not None else None
                    self.spans.append(Span(self.phase, name, label, root[0], root[1],
                                           frame[2], dur, dur - frame[3], size))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- queries over the recorded spans -----------------------------------

    def select(self, phase, name, tag=None, root=None, root_tag=None, top=False):
        out = []
        for s in self.spans:
            if s.phase != phase or s.name != name:
                continue
            if tag is not None and s.tag != tag:
                continue
            if root is not None and (s.root != root or (root_tag is not None and s.root_tag != root_tag)):
                continue
            if top and s.root != s.name:
                continue
            out.append(s)
        return out

    def hot_total(self, phase, name, root=None, root_tag=None) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for (ph, rt, rtag, nm), (c, t) in self.hot.items():
            if ph == phase and nm == name and (root is None or rt == root) \
                    and (root_tag is None or rtag == root_tag):
                calls += c
                secs += t
        return calls, secs

    def dump(self, path) -> None:
        """Write the spans and hot-call totals out, once, when the run ends."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({k: getattr(s, k) for k in Span.__slots__}) + "\n")
            for (ph, rt, rtag, nm), (c, t) in sorted(self.hot.items(), key=str):
                fh.write(json.dumps({"phase": ph, "root": rt, "root_tag": rtag, "name": nm,
                                     "calls": c, "seconds": t}) + "\n")
