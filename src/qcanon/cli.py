"""Command-line front end.

Exit codes: 0 ok; 1 verification failure, not-found approximation, or an
operational failure (corrupt catalog, level-0 miss); 2 usage errors.
The QCANON_DB environment variable supplies the default --db path.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .catalog import CatalogError, DEFAULT_MAX_TCOUNT, build, canonical_count, load, save
from .rewrite import canonicalize_word, normalize_word
from .search import ApproxQuery, approximate, as_matrix, nearest
from .sk import SkConfig, SkError, _rot, sk_approximate
from .unitary import from_word

_BENCH_COLUMNS = (
    "kind,depth,t_count,mean_dist,samples -- kind=db rows group nearest() "
    "results by exact t_count (depth empty); kind=sk rows average over "
    "targets at one recursion depth (t_count is the mean, 2 decimals)"
)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _require_db(args) -> str:
    path = getattr(args, "db", None) or os.environ.get("QCANON_DB")
    if not path:
        raise _Usage("no catalog: pass --db PATH or set QCANON_DB")
    return path


class _Usage(Exception):
    pass


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# target parsing, shared by approx / sk / bench

def _add_target_args(p: argparse.ArgumentParser, with_target_alias: bool = False):
    g = p.add_argument_group("target (pick one form)")
    g.add_argument("--matrix", metavar="JSON",
                   help="[[[re,im],[re,im]],[[re,im],[re,im]]], unitary to 1e-8")
    if with_target_alias:
        g.add_argument("--target", metavar="JSON", help="alias for --matrix")
    g.add_argument("--axis", metavar="X,Y,Z", help="rotation axis (with --angle)")
    g.add_argument("--angle", type=float, metavar="A", help="rotation angle, radians")
    g.add_argument("--gates", metavar="STRING", help="gate word over H, T, S")


def _target_matrix(args) -> np.ndarray:
    raw = getattr(args, "matrix", None) or getattr(args, "target", None)
    picked = [p for p in (raw, args.axis, args.gates) if p is not None]
    if len(picked) != 1:
        raise _Usage("pick exactly one of --matrix/--axis/--gates")
    if raw is not None:
        try:
            rows = json.loads(raw)
            mat = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
            if mat.shape != (2, 2):
                raise ValueError
        except (ValueError, TypeError, IndexError):
            raise _Usage("malformed matrix JSON; want [[[re,im],[re,im]],[[re,im],[re,im]]]")
        mat = as_matrix(mat)  # unitarity check (1e-8)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        return mat / np.sqrt(det)
    if args.gates is not None:
        return from_word(args.gates).to_matrix()
    if args.angle is None:
        raise _Usage("--axis needs --angle")
    try:
        ax = np.array([float(x) for x in args.axis.split(",")])
        if ax.shape != (3,):
            raise ValueError
    except ValueError:
        raise _Usage("malformed --axis; want X,Y,Z")
    n = np.linalg.norm(ax)
    if n < 1e-12:
        raise _Usage("axis must be nonzero")
    return _rot(ax / n, args.angle)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_build(args) -> int:
    cat = build(args.max_tcount)
    save(cat, args.out)
    size = os.path.getsize(args.out)
    print(f"t_max {cat.max_tcount}: {cat.entry_count()} circuits in "
          f"{cat.distinct_traces()} trace buckets, {size} bytes -> {args.out}")
    return 0


def _form_lines(kind: str, form, word_in: str) -> list[str]:
    body = "".join(str(b) for b in form.body)
    lines = [f"input   {word_in}", f"t_count {form.t_count}"]
    if kind == "normal":
        lines.append(f"hpre    {'H' if form.hpre else '-'}")
        lines.append(f"body    {body or '-'}")
        lines.append(f"tail    G{form.tail}")
    else:
        lines.append(f"g1      G{form.g1}")
        lines.append(f"body    {body or '-'}")
        lines.append(f"g2      G{form.g2}")
    lines.append(f"word    {form.to_word() or 'I'}")
    return lines


def _cmd_normalize(args) -> int:
    nf = normalize_word(args.word)
    if args.json:
        print(json.dumps({
            "hpre": nf.hpre,
            "body": "".join(str(b) for b in nf.body),
            "tail": nf.tail,
            "t_count": nf.t_count,
            "word": nf.to_word(),
        }, indent=2))
    else:
        print("\n".join(_form_lines("normal", nf, args.word)))
    return 0


def _cmd_canonicalize(args) -> int:
    cf = canonicalize_word(args.word)
    if args.json:
        d = cf.to_json_dict()
        d["body"] = "".join(str(b) for b in cf.body)
        d["word"] = cf.to_word()
        print(json.dumps(d, indent=2))
    else:
        print("\n".join(_form_lines("coset", cf, args.word)))
    return 0


def _cmd_approx(args) -> int:
    db = load(_require_db(args))
    mat = _target_matrix(args)
    res = approximate(ApproxQuery(mat, args.eps), db)
    out = {
        "found": res.found,
        "gates": res.circuit.to_word() if res.found else None,
        "t_count": res.t_count,
        "dist": res.achieved_dist,
    }
    print(json.dumps(out, indent=2))
    return 0 if res.found else 1


def _cmd_sk(args) -> int:
    db = load(_require_db(args))
    mat = _target_matrix(args)
    # depth 4 is the double-precision floor; deeper is refused
    cfg = SkConfig(db=db, max_depth=4, level0_epsilon=args.level0_eps)
    res = sk_approximate(mat, args.depth, cfg)
    out = {
        "gates": res.circuit.to_word(),
        "t_count": res.t_count,
        "dist": res.dist_per_level[-1],
        "dist_per_level": res.dist_per_level,
        "t_per_level": res.t_per_level,
        "cancellations": res.cancellations,
    }
    print(json.dumps(out, indent=2))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("depth,dist,t_count\n")
            for k, (d, t) in enumerate(zip(res.dist_per_level, res.t_per_level)):
                fh.write(f"{k},{d:.17g},{t}\n")
    return 0


def _random_targets(seed: int, samples: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(samples, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    mats = np.empty((samples, 2, 2), dtype=complex)
    c, x, y, z = q.T
    mats[:, 0, 0] = c - 1j * z
    mats[:, 0, 1] = -y - 1j * x
    mats[:, 1, 0] = y - 1j * x
    mats[:, 1, 1] = c + 1j * z
    return mats


def _cmd_bench(args) -> int:
    depths = sorted({int(x) for x in args.sk_depths.split(",")}) if args.sk_depths else []
    if depths and not 0 <= depths[0] <= depths[-1] <= 4:
        raise _Usage("sk depths run from 0 to 4; deeper sits below the "
                     "double-precision floor")
    db = load(_require_db(args))
    mats = _random_targets(args.seed, args.samples)
    print("kind,depth,t_count,mean_dist,samples")
    by_t: dict[int, list[float]] = {}
    for mat in mats:
        r = nearest(mat, db)
        by_t.setdefault(r.t_count, []).append(r.achieved_dist)
    for t in sorted(by_t):
        ds = by_t[t]
        print(f"db,,{t},{np.mean(ds):.6e},{len(ds)}")
    if depths:
        cfg = SkConfig(db=db, max_depth=depths[-1])
        sk_rows: dict[int, list[tuple[int, float]]] = {d: [] for d in depths}
        for mat in mats:
            r = sk_approximate(mat, depths[-1], cfg)
            for d in depths:
                sk_rows[d].append((r.t_per_level[d], r.dist_per_level[d]))
        for d in depths:
            mt = np.mean([t for t, _ in sk_rows[d]])
            md = np.mean([x for _, x in sk_rows[d]])
            print(f"sk,{d},{mt:.2f},{md:.6e},{len(sk_rows[d])}")
    return 0


def _cmd_verify(args) -> int:
    from . import oracle  # brings in scipy; no other command needs it

    suite = args.suite
    ok = True
    report: dict = {"suite": suite}
    lines: list[str] = []
    if suite == "theorem1":
        t_max = 8 if args.t_max is None else args.t_max
        rep = oracle.theorem1_audit(t_max)
        lines.append(rep.summary())
        report.update(checked=rep.checked, violations=rep.violations, info=rep.info)
        ok = rep.ok
    elif suite == "parity":
        rep = oracle.parity_audit(args.samples or 1000, seed=args.seed)
        lines.append(rep.summary())
        report.update(checked=rep.checked, violations=rep.violations, info=rep.info)
        ok = rep.ok
    elif suite == "counts":
        t_max = 10 if args.t_max is None else args.t_max
        by_t = oracle.coset_counts_by_t(t_max)
        rows = []
        cum = 0
        for t in range(t_max + 1):
            cum += by_t[t]
            grammar = canonical_count(t)
            closed4 = 2 ** (t - 3) + 4 if t >= 4 else grammar
            line_ok = cum == grammar and abs(cum - closed4) <= 1
            ok = ok and line_ok
            rows.append({"t": t, "oracle": cum, "grammar": grammar,
                         "plus4_form": closed4, "ok": line_ok})
            lines.append(f"t={t:2d} oracle={cum:6d} grammar={grammar:6d} "
                         f"plus4={closed4:6d} {'ok' if line_ok else 'FAIL'}")
        report["rows"] = rows
    elif suite == "optimality":
        path = getattr(args, "db", None) or os.environ.get("QCANON_DB")
        db = load(path) if path else build(12)
        if db.max_tcount > 16:
            raise _Usage("optimality oracle runs at t_max <= 16; pass a smaller --db")
        mats = _random_targets(args.seed, args.samples or 20)
        checked = mism = 0
        for mat in mats:
            for eps in (0.3, 0.1):
                res = approximate(ApproxQuery(mat, eps), db)
                ours = res.t_count if res.found else None
                ref = oracle.brute_min_tcount(mat, eps, db.max_tcount)
                checked += 1
                if ours != ref:
                    mism += 1
                    lines.append(f"FAIL eps={eps}: approximate={ours} oracle={ref}")
        ok = mism == 0
        report.update(checked=checked, mismatches=mism)
        lines.append(f"optimality: {'ok' if ok else 'FAIL'} checked={checked} "
                     f"mismatches={mism}")
    if args.json:
        report["ok"] = ok
        print(json.dumps(report, indent=2, default=str))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcanon",
        description="Exact canonical {H,T} circuits: build, search, compile.")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build-db", help="enumerate canonical circuits and save a catalog")
    b.add_argument("--max-tcount", type=int, required=True,
                   help=f"T-count bound (<= {DEFAULT_MAX_TCOUNT})")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build)

    for name, fn in (("normalize", _cmd_normalize), ("canonicalize", _cmd_canonicalize)):
        c = sub.add_parser(name, help=f"{name} a gate word over H, T, S")
        c.add_argument("word")
        c.add_argument("--json", action="store_true")
        c.set_defaults(func=fn)

    a = sub.add_parser("approx", help="minimum-T-count epsilon approximation")
    a.add_argument("--eps", type=float, required=True)
    a.add_argument("--db")
    _add_target_args(a)
    a.set_defaults(func=_cmd_approx)

    s = sub.add_parser("sk", help="recursive commutator compilation")
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--db")
    s.add_argument("--level0-eps", type=float, default=0.0,
                   help="cap level-0 lookups; 0 = catalog minimum")
    s.add_argument("--trace", metavar="FILE", help="write per-level CSV (depth,dist,t_count)")
    _add_target_args(s, with_target_alias=True)
    s.set_defaults(func=_cmd_sk)

    be = sub.add_parser("bench", help="precision/T-count tradeoff CSV",
                        epilog=f"columns: {_BENCH_COLUMNS}")
    be.add_argument("--db")
    be.add_argument("--samples", type=_positive_int, default=100)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--sk-depths", help="comma list, e.g. 0,1,2,3")
    be.set_defaults(func=_cmd_bench)

    v = sub.add_parser("verify", help="run a brute-force oracle suite")
    v.add_argument("--suite", required=True,
                   choices=("theorem1", "parity", "counts", "optimality"))
    v.add_argument("--t-max", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=_positive_int, default=None,
                   help="parity: circuits (default 1000); optimality: targets (default 20)")
    v.add_argument("--db", help="optimality: catalog to check (default: ephemeral t=12 build)")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Usage as e:
        return _fail(str(e), 2)
    except (CatalogError, SkError, OSError) as e:
        return _fail(str(e), 1)
    except ValueError as e:
        return _fail(str(e), 2)


if __name__ == "__main__":
    sys.exit(main())
