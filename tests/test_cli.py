"""Command-line surface: every subcommand runs and writes what it promises."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import prsplit
from prsplit import pgm
from prsplit.cli import build_parser, main

from oracles import read_trace


def test_rates_subcommand(capsys):
    assert main(["rates", "--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.116963" in out
    assert "delta" in out and "prs_lev" in out


def test_rates_with_explicit_delta(capsys):
    assert main(["rates", "--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1",
                 "--delta", "-0.5"]) == 0
    assert "r*" in capsys.readouterr().out


def test_tight_check_subcommand(capsys):
    assert main(["tight-check", "--rho", "1", "--alpha", "0.25", "--mu", "0",
                 "--beta", "1", "--steps", "15"]) == 0
    assert "max |ratio - r*|" in capsys.readouterr().out


def test_sweep_delta_subcommand(capsys):
    assert main(["sweep-delta", "--rho", "0.5", "--alpha", "0.8", "--mu", "2",
                 "--beta", "0.1", "--grid", "51"]) == 0
    assert "max |r(delta) - r*|" in capsys.readouterr().out


def test_bench_academic_subcommand(tmp_path, capsys):
    code = main(["bench-academic", "--dims", "6,8,7", "--reps", "2", "--seed", "3",
                 "--tol", "1e-8", "--max-iter", "20000", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "bench_academic.csv").exists()
    assert "prs_lev" in capsys.readouterr().out


def test_solve_subcommand(tmp_path, rng):
    A = rng.standard_normal((8, 5))
    B = rng.standard_normal((7, 5))
    problem = {
        "A": A.tolist(), "B": B.tolist(),
        "a": rng.standard_normal(8).tolist(), "b": rng.standard_normal(7).tolist(),
    }
    pf = tmp_path / "problem.json"
    pf.write_text(json.dumps(problem))
    code = main(["solve", "--problem-file", str(pf), "--tol", "1e-9",
                 "--out", str(tmp_path)])
    assert code == 0
    x = np.loadtxt(tmp_path / "solution.csv", delimiter=",")
    gram = A.T @ A + B.T @ B
    rhs = A.T @ np.array(problem["a"]) + B.T @ np.array(problem["b"])
    np.testing.assert_allclose(x, np.linalg.solve(gram, rhs), atol=1e-6)
    trace = read_trace(tmp_path / "trace.csv")
    assert trace.status == "converged"


@pytest.mark.parametrize("method", ["prs", "drs", "fista1"])
def test_solve_other_methods(tmp_path, rng, method):
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((6, 4))
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"A": A.tolist(), "B": B.tolist()}))
    code = main(["solve", "--problem-file", str(pf), "--method", method,
                 "--tol", "1e-8", "--out", str(tmp_path)])
    assert code == 0


def test_solve_missing_matrix_rejected(tmp_path, capsys):
    pf = tmp_path / "bad.json"
    pf.write_text(json.dumps({"A": [[1.0]]}))
    assert main(["solve", "--problem-file", str(pf), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "prsplit: error: problem file needs matrix 'B'\n"


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"AB"'])
def test_solve_non_object_file_rejected(tmp_path, capsys, text):
    pf = tmp_path / "list.json"
    pf.write_text(text)
    assert main(["solve", "--problem-file", str(pf), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "prsplit: error: problem file must hold a JSON object\n"


BAD_INPUT = [  # (id, problem file or --dims text, message)
    ("nan-in-A", {"A": [[1.0, math.nan]], "B": [[1.0, 0.0]]},
     "problem file: matrix 'A' has a non-finite entry"),
    ("B-columns", {"A": [[1.0, 0.0]], "B": [[1.0]]},
     "problem file: matrices 'A' and 'B' need the same column count, got 2 and 1"),
    ("1-D-B", {"A": [[1.0, 0.0]], "B": [1.0, 0.0]},
     "problem file: matrix 'B' must be a nonempty 2-D array, got shape (2,)"),
    ("a-length", {"A": [[1.0, 0.0]], "B": [[0.0, 1.0]], "a": [1.0, 2.0]},
     "problem file: vector 'a' needs one entry per row of matrix 'A' (1), got 2"),
    ("dims-pair", "20,20", "--dims: '20,20' is not a triple m,n,p of integers"),
]


@pytest.mark.parametrize("given, message", [c[1:] for c in BAD_INPUT],
                         ids=[c[0] for c in BAD_INPUT])
def test_bad_input_is_named_in_one_line(tmp_path, capsys, given, message):
    if isinstance(given, dict):
        (tmp_path / "bad.json").write_text(json.dumps(given))
        argv = ["solve", "--problem-file", str(tmp_path / "bad.json")]
    else:
        argv = ["bench-academic", "--dims", given]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"prsplit: error: {message}\n"


def test_solve_missing_file_rejected(tmp_path, capsys):
    code = main(["solve", "--problem-file", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("prsplit: error: ") and err.count("\n") == 1


def test_rates_without_leverage_is_a_one_line_error(capsys):
    code = main(["rates", "--rho", "0", "--alpha", "0", "--mu", "0", "--beta", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "prsplit: error: leveraged solver requires min(rho + mu, alpha + beta) > 0\n"
    )


@pytest.mark.parametrize("moduli", [("0", "0", "1", "0.5"), ("1", "0.5", "0", "0")],
                         ids=["f_absent", "g_absent"])
def test_rates_with_an_absent_function(capsys, moduli):
    # r* ties classical PRS on the other function; that is no dominance failure
    rho, alpha, mu, beta = moduli
    assert main(["rates", "--rho", rho, "--alpha", alpha, "--mu", mu, "--beta", beta]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "r*         = 0.171572875" in out


@pytest.mark.parametrize("method", ["prs_lev", "prs", "drs", "fista1", "fista2"])
@pytest.mark.parametrize("zero", ["A", "B", "both"])
def test_solve_with_an_all_zero_matrix(tmp_path, capsys, zero, method):
    # a zero data term has moduli (0, 0): each method converges or says in one
    # line why it cannot run
    r = np.random.default_rng(5)
    M = r.standard_normal((7, 5))
    A = np.zeros((6, 5)) if zero in ("A", "both") else M
    B = np.zeros((7, 5)) if zero in ("B", "both") else M
    pf = tmp_path / "zero.json"
    pf.write_text(json.dumps({"A": A.tolist(), "a": r.standard_normal(len(A)).tolist(),
                              "B": B.tolist(), "b": r.standard_normal(len(B)).tolist()}))
    code = main(["solve", "--problem-file", str(pf), "--method", method, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    if method == "prs_lev" and zero != "both":
        # the default shift moves off the endpoint where eta = 0 is out of range
        assert code == 0
    if code == 0:
        assert "status: converged" in out and err == ""
    else:
        assert code == 2
        assert err.startswith("prsplit: error: ") and err.count("\n") == 1
        assert "must be nonzero" not in err
        assert "Singular matrix" not in err and "Traceback" not in err
    if zero == "both":
        assert err == ("prsplit: error: A^T A + B^T B is singular, so neither data term "
                       "is strongly convex (rho = mu = 0)\n")


def test_restore_subcommand(tmp_path, capsys):
    code = main(["restore", "--side", "16", "--sigma", "0.5", "--seed", "1",
                 "--methods", "prs_lev", "prs", "--max-iter", "300",
                 "--tol", "1e-8", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "restored_prs_lev.pgm").exists()
    out = capsys.readouterr().out
    assert "moduli" in out
    assert re.search(r"^reference: converged after \d+ iterations$", out, re.M)


RESTORE_BAD_INPUT = [
    ("--side", "0"), ("--side", "-8"), ("--sigma", "0"), ("--sigma", "nan"),
    ("--lambda", "0"), ("--lambda", "inf"), ("--noise-var", "-1"), ("--noise-var", "nan"),
    ("--epsilon", "0"), ("--max-iter", "0"), ("--tol", "0"), ("--level", "0"),
]


@pytest.mark.parametrize("flag, value", RESTORE_BAD_INPUT,
                         ids=[f"{f[2:]}={v}" for f, v in RESTORE_BAD_INPUT])
def test_restore_rejects_bad_input_in_one_line(tmp_path, capsys, flag, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning on the way fails too
        code = main(["restore", flag, value, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err
    assert err.startswith("prsplit: error: ") and err.count("\n") == 1
    assert f" {flag[2:].replace('-', '_')} must be " in err
    assert not (tmp_path / "observed.pgm").exists()


def test_restore_exits_1_when_a_solve_stops_short(tmp_path, capsys):
    code = main(["restore", "--side", "64", "--max-iter", "5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("status=max_iter") == 4
    assert "reference: converged" in out


def test_restore_non_square_pgm(tmp_path, capsys):
    rng = np.random.default_rng(5)
    image = np.clip(0.5 + 0.2 * rng.standard_normal((48, 80)), 0.0, 1.0)
    pgm.write_pgm(tmp_path / "in.pgm", image)
    code = main(["restore", "--image", str(tmp_path / "in.pgm"), "--level", "2",
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"^reference: converged after \d+ iterations$", out, re.M)
    assert out.count("status=converged") == 4
    for name in ("true", "observed", "restored_prs_lev", "restored_fista2"):
        assert pgm.read_pgm(tmp_path / "out" / f"{name}.pgm").shape == (48, 80)


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRSPLIT_OUTDIR", str(tmp_path / "envout"))
    code = main(["bench-academic", "--dims", "4,6,5", "--reps", "1", "--seed", "1",
                 "--tol", "1e-6", "--max-iter", "5000"])
    assert code == 0
    assert (tmp_path / "envout" / "bench_academic.csv").exists()


def _write_problem(path, seed):
    """Write a random 8x5 / 7x5 pair to ``path``; return its normal-equations solution."""
    r = np.random.default_rng(seed)
    A, B = r.standard_normal((8, 5)), r.standard_normal((7, 5))
    a, b = r.standard_normal(8), r.standard_normal(7)
    path.write_text(json.dumps({"A": A.tolist(), "a": a.tolist(), "B": B.tolist(), "b": b.tolist()}))
    return np.linalg.solve(A.T @ A + B.T @ B, A.T @ a + B.T @ b)


def test_repeated_main_calls_share_no_state(tmp_path, monkeypatch, capsys):
    moduli = ["--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1"]
    assert main(["rates", *moduli, "--delta", "-0.5"]) == 0
    assert "(delta*)" not in capsys.readouterr().out
    assert main(["rates", *moduli]) == 0
    assert "(delta*)" in capsys.readouterr().out

    assert main(["tight-check", *moduli, "--steps", "7"]) == 0
    assert "over 7 steps" in capsys.readouterr().out
    assert main(["tight-check", *moduli]) == 0
    assert "over 20 steps" in capsys.readouterr().out

    restore = ["restore", "--side", "16", "--seed", "1", "--max-iter", "300", "--tol", "1e-8"]
    assert main([*restore, "--methods", "prs", "--out", str(tmp_path / "one")]) == 0
    out = capsys.readouterr().out
    assert "  prs " in out and "prs_lev" not in out
    monkeypatch.setenv("PRSPLIT_OUTDIR", str(tmp_path / "env"))
    assert main(restore) == 0
    out = capsys.readouterr().out
    for name in ("prs_lev", "prs", "fista1", "fista2"):
        assert f"  {name} " in out
    assert f"wrote images and error curves to {tmp_path / 'env'}" in out
    assert not (tmp_path / "one" / "restored_prs_lev.pgm").exists()

    # solves on one file, one method after another, leave each other's outputs unchanged
    pf = tmp_path / "problem.json"
    x_first = _write_problem(pf, 1)

    def solve(method, out):
        argv = ["solve", "--problem-file", str(pf), "--method", method,
                "--tol", "1e-9", "--out", str(out)]
        assert main(argv) == 0
        return {name: (out / name).read_bytes() for name in ("solution.csv", "trace.csv")}

    first = [solve(method, tmp_path / "first") for method in ("prs", "fista1")]
    again = [solve(method, tmp_path / "again") for method in ("fista1", "prs")]
    assert first == again[::-1]

    # a rewrite of the same path is a new problem
    x_second = _write_problem(pf, 2)
    assert np.linalg.norm(x_second - x_first) > 0.1 * np.linalg.norm(x_second)
    solve("prs", tmp_path / "rewritten")
    x = np.loadtxt(tmp_path / "rewritten" / "solution.csv", delimiter=",")
    np.testing.assert_allclose(x, x_second, atol=1e-6)

    # a bad file fails alike each time, and leaves the next request unaffected
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": [[1.0]]}))
    capsys.readouterr()
    for _ in range(2):
        assert main(["solve", "--problem-file", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "prsplit: error: problem file needs matrix 'B'\n"
    solve("prs", tmp_path / "after_error")
    x = np.loadtxt(tmp_path / "after_error" / "solution.csv", delimiter=",")
    np.testing.assert_allclose(x, x_second, atol=1e-6)

    assert build_parser() is build_parser()
    assert build_parser().parse_args(["restore"]).methods == ["prs_lev", "prs", "fista1", "fista2"]


_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
from prsplit.cli import main

out = sys.argv[1]
r = np.random.default_rng(0)
with open(out + "/p.json", "w") as fh:
    json.dump({"A": r.standard_normal((8, 5)).tolist(),
               "B": r.standard_normal((7, 5)).tolist()}, fh)
moduli = ["--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1"]
for argv in (["rates", *moduli], ["tight-check", *moduli],
             ["solve", "--problem-file", out + "/p.json", "--out", out],
             ["bench-academic", "--dims", "4,6,5", "--reps", "1", "--out", out],
             ["restore", "--side", "16", "--out", out]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_commands_run_without_scipy(tmp_path):
    # the runtime needs numpy only; scipy is a test-side reference
    env = dict(os.environ)
    src = str(Path(prsplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
