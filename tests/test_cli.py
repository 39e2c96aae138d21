"""Command-line surface: every subcommand runs and writes what it promises."""

import json

import numpy as np
import pytest

from prsplit.cli import build_parser, main
from prsplit.harness import read_trace


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


def test_restore_subcommand(tmp_path, capsys):
    code = main(["restore", "--side", "16", "--sigma", "0.5", "--seed", "1",
                 "--methods", "prs_lev", "prs", "--max-iter", "300",
                 "--tol", "1e-8", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "restored_prs_lev.pgm").exists()
    assert "moduli" in capsys.readouterr().out


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRSPLIT_OUTDIR", str(tmp_path / "envout"))
    code = main(["bench-academic", "--dims", "4,6,5", "--reps", "1", "--seed", "1",
                 "--tol", "1e-6", "--max-iter", "5000"])
    assert code == 0
    assert (tmp_path / "envout" / "bench_academic.csv").exists()


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

    assert build_parser() is build_parser()
    assert build_parser().parse_args(["restore"]).methods == ["prs_lev", "prs", "fista1", "fista2"]
