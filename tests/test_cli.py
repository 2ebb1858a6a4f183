import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcanon
from qcanon.catalog import build, save
from qcanon.cli import main
from qcanon.rewrite import normalize_word
from qcanon.unitary import from_word, psu2_equal


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("db") / "t8.qcat"
    save(build(8), p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- word commands -------------------------------------------------------------

def test_normalize_text_output(capsys):
    code, out, _ = run(capsys, "normalize", "TT")
    assert code == 0
    assert "t_count 0" in out
    assert "tail    G4" in out  # TT = S


def test_normalize_json_round_trips(capsys):
    code, out, _ = run(capsys, "normalize", "HTSHT", "--json")
    assert code == 0
    d = json.loads(out)
    nf = normalize_word("HTSHT")
    assert d["t_count"] == nf.t_count
    assert d["tail"] == nf.tail
    assert psu2_equal(from_word(d["word"]), from_word("HTSHT"))


def test_canonicalize_json(capsys):
    code, out, _ = run(capsys, "canonicalize", "THTSHT", "--json")
    assert code == 0
    d = json.loads(out)
    assert set(d) >= {"g1", "blocks", "t_count", "g2", "body", "word"}
    assert psu2_equal(from_word(d["word"] or "I"), from_word("THTSHT"))
    assert d["body"][:4] in ("", "0000"[: len(d["body"])])


def test_bad_gate_word_is_usage_error(capsys):
    code, _, err = run(capsys, "normalize", "HTX")
    assert code == 2
    assert "position" in err


# -- build ----------------------------------------------------------------------

def test_build_db(tmp_path, capsys):
    out_path = tmp_path / "t5.qcat"
    code, out, _ = run(capsys, "build-db", "--max-tcount", "5",
                       "--out", str(out_path))
    assert code == 0
    assert "7 circuits" in out
    assert out_path.exists()


# -- approx -----------------------------------------------------------------------

def test_approx_member_hits_exactly(capsys, db_path):
    code, out, _ = run(capsys, "approx", "--db", db_path, "--eps", "1e-9",
                       "--gates", "THTHT")
    assert code == 0
    d = json.loads(out)
    assert d["found"] and d["dist"] == 0.0 and d["t_count"] == 3
    assert psu2_equal(from_word(d["gates"] or "I"), from_word("THTHT"))


def test_approx_not_found_exits_one(capsys, db_path):
    code, out, _ = run(capsys, "approx", "--db", db_path, "--eps", "0.001",
                       "--axis", "0.3,0.5,0.8", "--angle", "0.4")
    assert code == 1
    assert json.loads(out)["found"] is False


def test_approx_requires_db(capsys, monkeypatch):
    monkeypatch.delenv("QCANON_DB", raising=False)
    code, _, err = run(capsys, "approx", "--eps", "0.1", "--gates", "T")
    assert code == 2
    assert "no catalog" in err


def test_approx_env_db(capsys, monkeypatch, db_path):
    monkeypatch.setenv("QCANON_DB", db_path)
    code, out, _ = run(capsys, "approx", "--eps", "1e-9", "--gates", "T")
    assert code == 0
    assert json.loads(out)["t_count"] == 1


def test_approx_rejects_two_target_forms(capsys, db_path):
    code, _, err = run(capsys, "approx", "--db", db_path, "--eps", "0.1",
                       "--gates", "T", "--angle", "0.5", "--axis", "0,0,1")
    assert code == 2


def test_approx_matrix_target(capsys, db_path):
    m = from_word("HT").to_matrix()
    blob = json.dumps([[[v.real, v.imag] for v in row] for row in m])
    code, out, _ = run(capsys, "approx", "--db", db_path, "--eps", "1e-9",
                       "--matrix", blob)
    assert code == 0
    assert json.loads(out)["t_count"] == 1


def test_corrupt_db_is_operational_error(tmp_path, capsys):
    p = tmp_path / "bad.qcat"
    save(build(4), p)
    blob = bytearray(p.read_bytes())
    blob[25] ^= 0x55  # a byte of the first bucket key, just past the header
    p.write_bytes(bytes(blob))
    code, _, err = run(capsys, "approx", "--db", str(p), "--eps", "0.1",
                       "--gates", "T")
    assert code == 1
    assert "checksum mismatch" in err


def test_axis_disagreeing_with_bits_exits_one(capsys, swapped_axes_path):
    code, _, err = run(capsys, "approx", "--db", str(swapped_axes_path),
                       "--eps", "1e-6", "--gates", "THTHTHTHSHTHTH")
    assert code == 1
    assert err.startswith("error: corrupt catalog")


def test_missing_db_file(capsys, tmp_path):
    code, _, err = run(capsys, "approx", "--db", str(tmp_path / "none.qcat"),
                       "--eps", "0.1", "--gates", "T")
    assert code == 1


# -- sk ---------------------------------------------------------------------------

def test_sk_runs_and_traces(capsys, tmp_path, db_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "sk", "--db", db_path, "--depth", "2",
                       "--axis", "0,0,1", "--angle", "0.61",
                       "--trace", str(trace))
    assert code == 0
    d = json.loads(out)
    assert len(d["dist_per_level"]) == 3
    assert d["dist"] == d["dist_per_level"][-1]
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "depth,dist,t_count"
    assert len(lines) == 4


def test_sk_depth_beyond_floor_is_usage_error(capsys, db_path):
    code, _, err = run(capsys, "sk", "--db", db_path, "--depth", "5",
                       "--gates", "T")
    assert code == 2


# -- bench --------------------------------------------------------------------------

def test_bench_csv(capsys, db_path):
    code, out, _ = run(capsys, "bench", "--db", db_path, "--samples", "5",
                       "--seed", "3", "--sk-depths", "0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,depth,t_count,mean_dist,samples"
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert kinds == {"db", "sk"}


def test_bench_sk_depth_cap(capsys, db_path):
    code, _, err = run(capsys, "bench", "--db", db_path, "--samples", "2",
                       "--sk-depths", "0,5")
    assert code == 2


def test_bench_rejects_negative_sk_depth(capsys, db_path):
    code, out, err = run(capsys, "bench", "--db", db_path, "--samples", "2",
                         "--sk-depths=-1,1")
    assert code == 2
    assert out == "" and "sk depths" in err


@pytest.mark.parametrize("argv", [
    ("bench", "--samples", "0"),
    ("bench", "--samples", "-5"),
    ("verify", "--suite", "parity", "--samples", "0"),
    ("verify", "--suite", "parity", "--samples", "-5"),
    ("verify", "--suite", "optimality", "--samples", "0"),
])
def test_samples_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------------

def test_verify_counts_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--t-max", "7")
    assert code == 0
    assert "ok" in out


def test_verify_parity_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "parity",
                       "--samples", "50", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["violations"] == []
    assert d["checked"] == 50


def test_verify_theorem1_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--t-max", "4")
    assert code == 0
    assert "theorem1" in out


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "counts", "--t-max", "-1"),
    ("verify", "--suite", "theorem1", "--t-max", "-2"),
])
def test_verify_negative_tmax_is_usage_error(capsys, argv):
    # a negative bound would check nothing and pass
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be at least 0" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "everything"])


def test_no_args_is_usage(capsys):
    with pytest.raises(SystemExit):
        main([])


def scipy_modules_after(code: str) -> str:
    """Run code in a fresh interpreter; print the scipy modules it loaded."""
    src = str(Path(qcanon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_scipy_out():
    # only `verify` needs the oracle, and with it scipy
    assert scipy_modules_after("import qcanon.cli") == "[]"


def test_queries_leave_scipy_out(tmp_path):
    # scipy's import time would land on every query's set-up
    path = tmp_path / "t6.qcat"
    save(build(6), path)
    assert scipy_modules_after(
        "from qcanon.catalog import load\n"
        "from qcanon.search import ApproxQuery, approximate, nearest\n"
        "from qcanon.unitary import from_word\n"
        f"db = load({str(path)!r})\n"
        "u = from_word('THTHSHTH')\n"
        "assert approximate(ApproxQuery(u, 0.1), db).found\n"
        "assert nearest(u, db).found") == "[]"
