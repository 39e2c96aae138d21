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
from prsplit import cli, pgm
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


def test_rates_reads_a_negative_delta_in_scientific_notation(capsys):
    # argparse alone takes -1e-05 for an option and exits 2
    assert main(["rates", "--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1",
                 "--delta", "-1e-05"]) == 0
    assert capsys.readouterr().out.startswith("delta      = -1e-05\n")


_FLOAT_FLAGS = [
    *(("rates", flag) for flag in ("--rho", "--alpha", "--mu", "--beta", "--delta")),
    *(("tight-check", flag) for flag in ("--rho", "--beta", "--delta")),
    ("sweep-delta", "--mu"),
    ("bench-academic", "--tol"),
    *(("solve", flag) for flag in ("--delta", "--tau", "--tol")),
    *(("restore", flag) for flag in ("--sigma", "--lambda", "--epsilon", "--noise-var", "--tol")),
]


@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
def test_float_flags_take_negative_scientific_notation(command, flag):
    required = {
        "rates": ["--rho", "1", "--alpha", "1", "--mu", "1", "--beta", "1"],
        "solve": ["--problem-file", "p.json"],
    }
    required["tight-check"] = required["sweep-delta"] = required["rates"]
    args = build_parser().parse_args([command, *required.get(command, []), flag, "-2.5e-07"])
    assert getattr(args, flag[2:].replace("-", "_")) == -2.5e-07


ARGPARSE_ERRORS = [  # (id, argv, the start of the one stderr line)
    ("unknown-choice", ["restore", "--methods", "nope"],
     "prsplit restore: error: argument --methods: invalid choice: 'nope'"),
    ("missing-required-flag", ["solve"],
     "prsplit solve: error: the following arguments are required: --problem-file"),
    ("missing-moduli", ["rates", "--rho", "1"],
     "prsplit rates: error: the following arguments are required: --alpha, --mu, --beta"),
    ("not-a-number", ["tight-check", "--rho", "x"],
     "prsplit tight-check: error: argument --rho: invalid float value: 'x'"),
    ("unknown-subcommand", ["nope"], "prsplit: error: argument command: invalid choice: 'nope'"),
    ("no-subcommand", [], "prsplit: error: the following arguments are required: command"),
    ("unknown-flag", ["sweep-delta", "--rho", "1", "--alpha", "1", "--mu", "1", "--beta", "1",
                      "--steps", "3"],
     "prsplit sweep-delta: error: unrecognized arguments: --steps 3"),
    ("unknown-flag-before-command", ["--bogus", "rates", "--rho", "1", "--alpha", "1", "--mu",
                                     "1", "--beta", "1"],
     "prsplit: error: unrecognized arguments: --bogus\n"),
    # the command's parser runs first, and names only its own unknown flag
    ("unknown-flags-on-both-sides", ["--bogus", "rates", "--rho", "1", "--alpha", "1", "--mu",
                                     "1", "--beta", "1", "--steps", "3"],
     "prsplit rates: error: unrecognized arguments: --steps 3\n"),
]


@pytest.mark.parametrize("argv, start", [c[1:] for c in ARGPARSE_ERRORS],
                         ids=[c[0] for c in ARGPARSE_ERRORS])
def test_a_bad_argument_is_one_line_without_usage(capsys, argv, start):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")


def test_tight_check_subcommand(capsys):
    moduli = ["--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1"]
    assert main(["tight-check", *moduli, "--steps", "15"]) == 0
    assert "max |ratio - r*|" in capsys.readouterr().out
    # the residual rule stops at the float floor, after 175 of the 300 steps
    assert main(["tight-check", *moduli, "--steps", "300"]) == 0
    assert "max |ratio - r*| over 175 steps = 2.776e-17\n" in capsys.readouterr().out


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


def test_bench_academic_marks_a_row_without_strong_convexity_undefined(tmp_path, capsys):
    # 1 x 2 blocks A and B: rho = mu = 0, though A^T A + B^T B is nonsingular,
    # so no method is defined; the row before it is the one it makes alone
    bench = ["bench-academic", "--reps", "2", "--seed", "0"]
    assert main([*bench, "--dims", "20,20,20", "--out", str(tmp_path / "alone")]) == 0
    assert main([*bench, "--dims", "20,20,20;2,1,1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("(m,n,p) = (2, 1, 1)")[1]
    assert out.count(" -\n") == 3
    alone = (tmp_path / "alone" / "bench_academic.csv").read_text()
    text = (tmp_path / "bench_academic.csv").read_text()
    assert text.startswith(alone)
    rows = [line.split(",") for line in text[len(alone):].splitlines()]
    assert [row[:3] + row[7:] for row in rows] == [
        ["2", "1", "1", name, "-", "-", "-", "-"] for name in ("prs_lev", "prs1", "prs2")]
    assert {(row[3], row[5]) for row in rows} == {("0.0", "0.0")}  # avg rho, avg mu


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
    status, *_ = read_trace(tmp_path / "trace.csv")
    assert status == "converged"


def test_solve_reads_a_negative_delta_in_scientific_notation(tmp_path, rng):
    pf = tmp_path / "problem.json"
    pf.write_text(json.dumps({
        "A": rng.standard_normal((8, 5)).tolist(), "a": rng.standard_normal(8).tolist(),
        "B": rng.standard_normal((7, 5)).tolist(), "b": rng.standard_normal(7).tolist(),
    }))
    # 0 or 1 by whether it converges; argparse's rejection would raise SystemExit(2)
    code = main(["solve", "--problem-file", str(pf), "--delta", "-5e-05", "--out", str(tmp_path)])
    assert code in (0, 1)


@pytest.mark.parametrize("method", ["prs", "drs", "fista1"])
def test_solve_other_methods(tmp_path, rng, method):
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((6, 4))
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"A": A.tolist(), "B": B.tolist()}))
    code = main(["solve", "--problem-file", str(pf), "--method", method,
                 "--tol", "1e-8", "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("method", ["prs_lev", "prs", "drs", "fista1", "fista2"])
def test_a_solve_that_overflows_is_named_by_its_status_alone(tmp_path, capsys, method):
    # data near 1e300: the squares in the first step's norms overflow, so the
    # recorded solve stops nonfinite, and no RuntimeWarning reaches stderr
    r = np.random.default_rng(3)
    pf = tmp_path / "huge.json"
    pf.write_text(json.dumps({
        "A": (0.5 * r.random((12, 8))).tolist(), "a": (1e300 * r.standard_normal(12)).tolist(),
        "B": (0.5 * r.random((12, 8))).tolist(), "b": (1e300 * r.standard_normal(12)).tolist(),
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--problem-file", str(pf), "--method", method, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert "status: nonfinite after 1 iterations" in out
    status, residuals, dists, ratios = read_trace(tmp_path / "trace.csv")
    assert status == "nonfinite" and len(residuals) == 1
    assert math.isinf(dists[0]) and math.isnan(ratios[0])


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


TIGHT_MODULI = ["--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1"]

BAD_INPUT = [  # (id, command, flags (a list), JSON (dict, text or bytes) or PGM bytes, message;
    #             {path} the file)
    # json.dumps writes NaN, which strict JSON has no literal for
    ("nan-in-A", "solve", {"A": [[1.0, math.nan]], "B": [[1.0, 0.0]]},
     "problem file: unexpected character: line 1 column 14 (char 13)"),
    ("B-columns", "solve", {"A": [[1.0, 0.0]], "B": [[1.0]]},
     "problem file: matrices 'A' and 'B' need the same column count, got 2 and 1"),
    ("1-D-B", "solve", {"A": [[1.0, 0.0]], "B": [1.0, 0.0]},
     "problem file: matrix 'B' must be a nonempty 2-D array, got shape (2,)"),
    # a misspelt offset key solved with a zero offset
    ("misspelt-offset-key", "solve", {"A": [[1.0, 0.0]], "B": [[0.0, 1.0]], "bb": [1.0]},
     "problem file: unknown key 'bb'; the keys are 'A', 'B', 'a' and 'b'"),
    ("a-length", "solve", {"A": [[1.0, 0.0]], "B": [[0.0, 1.0]], "a": [1.0, 2.0]},
     "problem file: vector 'a' needs one entry per row of matrix 'A' (1), got 2"),
    ("dims-pair", "bench-academic", ["--dims", "20,20"],
     "--dims: '20,20' is not a triple m,n,p of integers"),
    # every repetition of the first row was solved before the last raised
    ("dims-bad-last-triple", "bench-academic", ["--dims", "20,20,20;0,5,5"],
     "dimensions must be positive"),
    ("A-gram-overflow", "solve",
     {"A": [[1e200, 1e200], [1.0, 2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
     "problem file: matrix 'A': its Gram matrix overflows"),
    ("Bb-overflow", "solve", {"A": [[1.0, 0.0], [0.0, 1.0]],
                              "B": [[1e10, 0.0], [0.0, 1.0]], "b": [1e300, 0.0]},
     "problem file: matrix 'B': its product with the offset overflows"),
    ("json-syntax", "solve", '{"A": [[1.0]]\n"B": [[1.0]]}',
     "problem file: unexpected character: line 2 column 1 (char 14)"),
    # a byte that is not UTF-8 is named by its offset, wherever it sits
    ("non-utf-8-first-byte", "solve", b'\xff{"A": [[1.0]], "B": [[1.0]]}',
     "problem file: byte 0 is not UTF-8"),
    ("non-utf-8-in-a-key", "solve", b'{"A": [[1.0]], "B": [[1.0]], "\xff": 0}',
     "problem file: byte 30 is not UTF-8"),
    ("non-utf-8-after-utf-8", "solve", '{"A": [[1.0]], "B": [[1.0]], "é": "'.encode() + b'\xc3("}',
     "problem file: byte 36 is not UTF-8"),
    ("seed-negative", "bench-academic", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("steps-zero", "tight-check", [*TIGHT_MODULI, "--steps", "0"], "steps must be >= 1, got 0"),
    ("steps-negative", "tight-check", [*TIGHT_MODULI, "--steps", "-3"],
     "steps must be >= 1, got -3"),
    ("pgm-comment-to-end", "restore", b"P5 # no newline", "{path}: truncated PGM header"),
    ("pgm-width", "restore", b"P5\nx 4\n255\n",
     "{path}: PGM width, height and maxval must be unsigned integers"),
    # an empty image reached the blur's kernel wrap, which raised IndexError
    ("pgm-zero-width", "restore", b"P2\n0 4\n255\n",
     "{path}: PGM width and height must be positive"),
    ("pgm-zero-height", "restore", b"P5\n4 0\n255\n",
     "{path}: PGM width and height must be positive"),
    ("pgm-P2-body", "restore", b"P2\n2 2\n255\n1 2 a 4\n",
     "{path}: P2 pixel values must be unsigned integers"),
    # float() reads each of these, and every solve then ran on the value
    ("pgm-P2-nan", "restore", b"P2\n4 4\n255\n1 2 3 4\n5 nan 7 8\n9 10 11 12\n13 14 15 16\n",
     "{path}: P2 pixel values must be unsigned integers"),
    ("pgm-P2-negative", "restore", b"P2\n2 2\n255\n1 -7 3 4\n",
     "{path}: P2 pixel values must be unsigned integers"),
    ("pgm-P2-fraction", "restore", b"P2\n2 2\n255\n1 2.5 3 4\n",
     "{path}: P2 pixel values must be unsigned integers"),
    ("pgm-P2-exponent", "restore", b"P2\n2 2\n255\n1 2 3e1 4\n",
     "{path}: P2 pixel values must be unsigned integers"),
    ("pgm-P2-above-maxval", "restore", b"P2\n2 2\n255\n1 2 9999 4\n",
     "{path}: a pixel value is above maxval 255"),
    ("pgm-P2-400-digits", "restore", b"P2\n2 2\n255\n1 2 3 1" + b"0" * 399 + b"\n",
     "{path}: a pixel value is above maxval 255"),
    ("pgm-P5-above-maxval", "restore", b"P5\n2 2\n200\n\x00\x10\xc9\x20",
     "{path}: a pixel value is above maxval 200"),
    ("pgm-P5-16-bit-above-maxval", "restore", b"P5\n2 1\n1000\n\x03\xe8\x03\xe9",
     "{path}: a pixel value is above maxval 1000"),
    # an integer flag out of range is named as the flag, not as the parameter it sets
    ("grid-zero", "sweep-delta", [*TIGHT_MODULI, "--grid", "0"], "--grid must be >= 2, got 0"),
    ("grid-one", "sweep-delta", [*TIGHT_MODULI, "--grid", "1"], "--grid must be >= 2, got 1"),
    ("reps-zero", "bench-academic", ["--reps", "0"], "--reps must be >= 1, got 0"),
    ("bench-max-iter-zero", "bench-academic", ["--max-iter", "0"],
     "--max-iter must be >= 1, got 0"),
    ("solve-max-iter-zero", "solve", ["--max-iter", "0"], "--max-iter must be >= 1, got 0"),
    ("solve-max-iter-negative", "solve", ["--max-iter", "-2"], "--max-iter must be >= 1, got -2"),
    ("restore-max-iter-zero", "restore", ["--max-iter", "0"], "--max-iter must be >= 1, got 0"),
]


@pytest.mark.parametrize("command, given, message", [c[1:] for c in BAD_INPUT],
                         ids=[c[0] for c in BAD_INPUT])
def test_bad_input_is_named_in_one_line(tmp_path, capsys, command, given, message):
    path = tmp_path / "bad"
    if isinstance(given, list):
        argv = [command, *given]
        if command == "solve":  # a valid problem file, so that only the flag is bad
            _write_problem(path, 0)
            argv += ["--problem-file", str(path)]
    else:
        given = json.dumps(given) if isinstance(given, dict) else given
        path.write_bytes(given if isinstance(given, bytes) else given.encode())
        argv = [command, "--problem-file" if command == "solve" else "--image", str(path)]
    if command not in ("tight-check", "sweep-delta"):  # the commands here that write no file
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"prsplit: error: {message.replace('{path}', str(path))}\n"
    assert not (tmp_path / "out").exists()  # bad input creates no output directory


# every numeric flag of every command: a float flag at each value below, an
# int flag at nan; the other arguments are small valid ones, so that the
# commands that run (exit 0 or 1) run fast
NUMERIC_FLAGS = {  # command: (float flags, int flags)
    "rates": (["--rho", "--alpha", "--mu", "--beta", "--delta"], []),
    "tight-check": (["--rho", "--alpha", "--mu", "--beta", "--delta"], ["--steps"]),
    "sweep-delta": (["--rho", "--alpha", "--mu", "--beta"], ["--grid"]),
    "bench-academic": (["--tol"], ["--reps", "--seed", "--max-iter"]),
    "solve": (["--delta", "--tau", "--tol"], ["--max-iter"]),
    "restore": (["--sigma", "--lambda", "--epsilon", "--noise-var", "--tol"],
                ["--side", "--level", "--seed", "--max-iter"]),
}
NUMERIC_FLAG_CASES = [
    (command, flag, value)
    for command, (floats, ints) in NUMERIC_FLAGS.items()
    for flag, values in [*((f, ("nan", "inf", "-inf", "0", "-1")) for f in floats),
                         *((f, ("nan",)) for f in ints)]
    for value in values
]


@pytest.mark.parametrize("command, flag, value", NUMERIC_FLAG_CASES,
                         ids=[f"{c}{f}={v}" for c, f, v in NUMERIC_FLAG_CASES])
def test_a_numeric_flag_at_a_bad_value_runs_or_is_one_line(tmp_path, capsys, command, flag,
                                                          value):
    moduli = ["--rho", "1", "--alpha", "0.25", "--mu", "0.5", "--beta", "1"]
    argv = {
        "rates": moduli, "tight-check": moduli, "sweep-delta": moduli,
        "bench-academic": ["--dims", "6,8,8", "--reps", "2"],
        # --tau is for prs and drs only
        "solve": ["--problem-file", str(tmp_path / "p.json")]
                 + (["--method", "prs"] if flag == "--tau" else []),
        "restore": ["--side", "16"],
    }[command]
    if command == "solve":
        _write_problem(tmp_path / "p.json", 0)
    if command in ("bench-academic", "solve", "restore"):
        argv = argv + ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # raised, and so not caught by main
        try:
            code = main([command, *argv, flag, value])
        except SystemExit as exit_:  # an argparse error
            code = exit_.code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(("prsplit: error: ", f"prsplit {command}: error: "))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "out").exists()
    else:
        assert code in (0, 1) and err == ""


STRICT_JSON_REJECTED = [  # (id, problem-file bytes): each is a parse error
    ("NaN", b'{"A": [[1.0, NaN]], "B": [[1.0, 0.0]]}'),
    ("Infinity", b'{"A": [[1.0, Infinity]], "B": [[1.0, 0.0]]}'),
    ("-Infinity", b'{"A": [[1.0, -Infinity]], "B": [[1.0, 0.0]]}'),
    ("1e400", b'{"A": [[1.0, 1e400]], "B": [[1.0, 0.0]]}'),
    ("-1e400", b'{"A": [[1.0]], "a": [-1e400], "B": [[1.0]]}'),
    ("400-digit-integer", b'{"A": [[1' + b"0" * 399 + b']], "B": [[1.0]]}'),
    ("utf-8-BOM", b'\xef\xbb\xbf{"A": [[1.0]], "B": [[1.0]]}'),
    ("non-utf-8-key", b'{"A": [[1.0]], "B": [[1.0]], "\xff": 0}'),
    ("latin-1-text", '{"A": [[1.0]], "B": [[1.0]], "note": "caf\u00e9"}'.encode("latin-1")),
    ("trailing-comma-object", b'{"A": [[1.0]], "B": [[1.0]],}'),
    ("trailing-comma-array", b'{"A": [[1.0, 2.0,]], "B": [[1.0, 0.0]]}'),
]


@pytest.mark.parametrize("given", [c[1] for c in STRICT_JSON_REJECTED],
                         ids=[c[0] for c in STRICT_JSON_REJECTED])
def test_a_problem_file_that_is_not_strict_json_is_one_line(tmp_path, capsys, given):
    path = tmp_path / "bad.json"
    path.write_bytes(given)
    assert main(["solve", "--problem-file", str(path), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("prsplit: error: problem file: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "solution.csv").exists()


def _valid_files() -> dict[str, tuple[str, bytes]]:
    """A valid file of each kind a command reads, by name: ``(command, bytes)``."""
    r = np.random.default_rng(11)
    A, B = r.standard_normal((8, 5)), r.standard_normal((7, 5))
    a, b = r.standard_normal(8), r.standard_normal(7)
    problem = json.dumps({"A": A.tolist(), "a": a.tolist(), "B": B.tolist(), "b": b.tolist()})
    pixels = r.integers(0, 256, (8, 8))
    p2 = "P2\n# seeded\n8 8\n255\n" + "".join(" ".join(map(str, row)) + "\n" for row in pixels)
    return {"problem": ("solve", problem.encode()), "P2": ("restore", p2.encode()),
            "P5": ("restore", b"P5\n8 8\n255\n" + pixels.astype(np.uint8).tobytes())}


def _cut_cases() -> list[tuple[str, int]]:
    """64 cuts of each valid file: at each of the first 16 bytes, where the
    headers are, and at 48 seeded offsets past them."""
    r = np.random.default_rng(29)
    cases = []
    for name, (_, data) in _valid_files().items():
        later = r.choice(np.arange(16, len(data)), 48, replace=False)
        cases += [(name, int(cut)) for cut in sorted([*range(16), *later])]
    return cases


CUT_CASES = _cut_cases()


@pytest.mark.parametrize("name, cut", CUT_CASES, ids=[f"{n}@{c}" for n, c in CUT_CASES])
def test_a_file_cut_short_runs_or_is_one_line(tmp_path, capsys, name, cut):
    # a cut inside the last P2 pixel leaves a valid image, which restores
    command, data = _valid_files()[name]
    path = tmp_path / "cut"
    path.write_bytes(data[:cut])
    flag = "--problem-file" if command == "solve" else "--image"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # raised, and so not caught by main
        code = main([command, flag, str(path), "--max-iter", "200", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("prsplit: error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code in (0, 1) and err == ""


def _number_tokens(seed):
    """Decimal literals whose rounding to a double a parser can get wrong."""
    r = np.random.default_rng(seed)
    bits = r.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    tokens = [repr(v) for v in bits[np.isfinite(bits)].tolist()]
    # every digit count from 1 to 25, at exponents across +-300
    values = r.uniform(1.0, 10.0, 200) * 10.0 ** r.integers(-300, 301, 200)
    values *= r.choice([-1.0, 1.0], 200)
    tokens += [f"{v:.{d}e}" for v in values.tolist() for d in range(25)]
    tokens += ["5e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
               "1.7976931348623157e308", "-0.0", "0", "-0", "9007199254740993",
               "-9007199254740993", "18446744073709551616", "-9223372036854775809",
               "123456789012345678901234567890", "-987654321098765432109876543210"]
    r.shuffle(tokens)
    return tokens


def _json_rows(tokens, cols=None):
    """The literal tokens as a JSON vector, or as a matrix of ``cols`` columns."""
    if cols is None:
        return "[" + ", ".join(tokens) + "]"
    return "[" + ", ".join(_json_rows(tokens[i:i + cols]) for i in range(0, len(tokens), cols)) + "]"


def test_problem_file_numbers_have_the_bits_json_gives(tmp_path, monkeypatch):
    # the arrays _load_problem_file hands to the problem build, after every check
    monkeypatch.setattr(cli.harness, "make_least_squares_problem", lambda *arrays: arrays)
    cols = 10
    for seed in (0, 1):
        tokens = _number_tokens(seed)
        rows = len(tokens) // (2 * (cols + 1)) + 1
        tokens += tokens[:2 * rows * (cols + 1) - len(tokens)]  # fill the last rows
        k = rows * cols
        text = (f'{{"A": {_json_rows(tokens[:k], cols)}, "a": {_json_rows(tokens[k:k + rows])}, '
                f'"B": {_json_rows(tokens[k + rows:2 * k + rows], cols)}, '
                f'"b": {_json_rows(tokens[2 * k + rows:])}}}')
        path = tmp_path / f"numbers_{seed}.json"
        path.write_text(text)
        A, a, B, b = cli._load_problem_file(path)
        spec = json.loads(text)
        for key, got in zip("AaBb", (A, a, B, b)):
            want = np.asarray(spec[key], dtype=float)
            assert got.shape == want.shape
            differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert differ.size == 0, (key, got.ravel()[differ[:5]], want.ravel()[differ[:5]])


def test_solve_an_exact_quadratic_in_one_step(tmp_path, capsys):
    # B = I makes g an exact quadratic (beta*mu = 1), where r* = 0
    A, a = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]]), np.array([1.0, -2.0, 0.5])
    B, b = np.eye(2), np.array([0.3, -0.7])
    pf = tmp_path / "exact.json"
    pf.write_text(json.dumps({"A": A.tolist(), "a": a.tolist(), "B": B.tolist(), "b": b.tolist()}))
    assert main(["solve", "--problem-file", str(pf), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("status: converged after 1 iterations\n")
    x = np.loadtxt(tmp_path / "solution.csv", delimiter=",")
    x_star = np.linalg.solve(A.T @ A + B.T @ B, A.T @ a + B.T @ b)
    np.testing.assert_allclose(x, x_star, rtol=0.0, atol=1e-8)


DEGENERATE_ENDPOINTS = [  # (argv, without the problem file for solve; message)
    (["rates", "--rho", "1", "--alpha", "1", "--mu", "0", "--beta", "1", "--delta", "-1"],
     "delta=-1.0 makes 1 + alpha*delta = 0 (an exact quadratic's endpoint)"),
    (["solve", "--delta", "1"],
     "delta=1.0 makes 1 - beta*delta = 0 (an exact quadratic's endpoint)"),
]


@pytest.mark.parametrize("argv, message", DEGENERATE_ENDPOINTS, ids=["rates", "solve"])
def test_degenerate_endpoint_delta_is_one_line(tmp_path, capsys, argv, message):
    # the endpoint delta = -rho (alpha*rho = 1) or delta = mu (beta*mu = 1) of an
    # exact quadratic, where the optimal parameters are 0/0
    if argv[0] == "solve":
        pf = tmp_path / "identity.json"
        pf.write_text(json.dumps({"A": [[1.0, 2.0], [3.0, 4.0]], "a": [1.0, -1.0],
                                  "B": [[1.0, 0.0], [0.0, 1.0]], "b": [0.5, 0.5]}))
        argv = [*argv, "--problem-file", str(pf), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"prsplit: error: {message}\n"
    assert not (tmp_path / "out").exists()


UNTAKEN_FLAGS = [(method, "--delta", "0") for method in ("prs", "drs", "fista1", "fista2")]
UNTAKEN_FLAGS += [(method, "--tau", value)
                  for method in ("prs_lev", "fista1", "fista2") for value in ("0", "1")]


@pytest.mark.parametrize("method, flag, value", UNTAKEN_FLAGS,
                         ids=[f"{m}-{f[2:]}={v}" for m, f, v in UNTAKEN_FLAGS])
def test_solve_rejects_a_flag_its_method_does_not_take(tmp_path, capsys, method, flag, value):
    _write_problem(tmp_path / "p.json", 0)
    code = main(["solve", "--problem-file", str(tmp_path / "p.json"), "--method", method,
                 flag, value, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"prsplit: error: method {method!r} takes no {flag[2:]}\n"
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("method, tau", [("prs", "0"), ("drs", "-1")])
def test_solve_rejects_a_step_that_is_not_positive(tmp_path, capsys, method, tau):
    _write_problem(tmp_path / "p.json", 0)
    code = main(["solve", "--problem-file", str(tmp_path / "p.json"), "--method", method,
                 "--tau", tau, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"prsplit: error: tau={float(tau)} must be positive\n"
    assert not (tmp_path / "solution.csv").exists()


def test_solve_missing_file_rejected(tmp_path, capsys):
    code = main(["solve", "--problem-file", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("prsplit: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("moduli, r_star, table", [
    (("1", "1", "0", "1"), "0", ["prs_lev      0", "prs1         0", "fista1       0"]),
    (("0", "1", "1", "1"), "0", ["prs_lev      0", "prs2         0", "fista2       0"]),
    (("1e-33", "1", "0", "1"), "1", ["prs_lev      1", "prs1         1", "drs          1"]),
    # beta*mu = 1 exactly, though the square roots of r*'s factors round:
    # r* is 0, not the 6.2e-17 of (ac - bd)/(ac + bd)
    (("0.3", "2", "0.5", "2"), "0",
     ["prs_lev      0", "prs2         0", "fista2       0"]),
], ids=["f_exact", "g_exact", "rates_round_to_one", "r_star_exact_beside_rounded_roots"])
def test_rates_where_floating_point_ties(capsys, moduli, r_star, table):
    # r* = 0 at an exact quadratic ties the baselines of 0 on that side, and
    # is listed first among them; with rho = 1e-33 every rate rounds to 1, so
    # dominance cannot show strictly
    rho, alpha, mu, beta = moduli
    assert main(["rates", "--rho", rho, "--alpha", alpha, "--mu", mu, "--beta", beta]) == 0
    out, err = capsys.readouterr()
    assert err == "" and f"\nr*         = {r_star}\n" in out
    assert "\n".join(table) in out.split("method       rate\n")[1]


# the full stdout of `rates`, byte for byte, at the moduli of this file's rates
# cases, of the CI's rates runs and of one generic set: "$ prsplit rates <flags>"
# and then the lines that command prints
_RATES_STDOUT = re.split(r"^\$ prsplit rates (.*)\n",
                         (Path(__file__).parent / "rates_stdout.txt").read_text(), flags=re.M)


@pytest.mark.parametrize("flags, stdout", zip(_RATES_STDOUT[1::2], _RATES_STDOUT[2::2]),
                         ids=_RATES_STDOUT[1::2])
def test_rates_prints_its_pinned_table(capsys, flags, stdout):
    assert main(["rates", *flags.split()]) == 0
    assert capsys.readouterr() == (stdout, "")


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
    elif (zero, method) in (("A", "fista1"), ("B", "fista2")):
        # the forward term is all zeros, with moduli (0, 0); fista2 runs fista1
        # on the swapped pair, so the message names neither f nor g
        assert code == 2
        assert err == "prsplit: error: FISTA's forward term needs a positive cocoercivity modulus\n"


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
    ("--seed", "-1"),
]


@pytest.mark.parametrize("flag, value", RESTORE_BAD_INPUT,
                         ids=[f"{f[2:]}={v}" for f, v in RESTORE_BAD_INPUT])
def test_restore_rejects_bad_input_in_one_line(tmp_path, capsys, flag, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning on the way fails too
        code = main(["restore", flag, value, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err
    assert err.startswith("prsplit: error: ") and err.count("\n") == 1
    # the library names its parameter, and the CLI names --max-iter itself
    name = flag if flag == "--max-iter" else flag[2:].replace("-", "_")
    assert f" {name} must be " in err
    assert not (tmp_path / "out").exists()


def test_restore_with_an_identity_blur(tmp_path, capsys):
    # sigma = 0.001 makes the blur the identity, so alpha*rho = 1 and r* = 0
    code = main(["restore", "--side", "16", "--sigma", "0.001", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "moduli: rho=1 alpha=1 " in out
    assert out.count("status=converged") == 4


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


def test_restore_names_a_truncated_pgm(tmp_path, capsys):
    path = tmp_path / "cut.pgm"
    pgm.write_pgm(path, np.full((16, 16), 0.5))
    path.write_bytes(path.read_bytes()[:-10])
    code = main(["restore", "--image", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"prsplit: error: {path}: expected 256 pixels, got 246\n"


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


# every output file of the CLI, by the command that writes it; "{problem}" is a
# solvable problem file
RESTORE_METHODS = prsplit.harness.RESTORE_METHODS
OUTPUTS = {
    "bench-academic": (["bench-academic", "--dims", "4,6,5", "--reps", "2", "--seed", "1"],
                       ["bench_academic.csv"]),
    "solve": (["solve", "--problem-file", "{problem}", "--method", "drs"],
              ["solution.csv", "trace.csv"]),
    "restore": (["restore", "--side", "16", "--seed", "1", "--max-iter", "300", "--tol", "1e-8"],
                ["true.pgm", "observed.pgm"] + [f"restored_{m}.pgm" for m in RESTORE_METHODS]
                + [f"error_{m}.csv" for m in RESTORE_METHODS] + ["plot_errors.py"]),
}


def _write_outputs(tmp_path, command, out) -> int:
    argv, _ = OUTPUTS[command]
    problem = tmp_path / "problem.json"
    if not problem.exists():
        _write_problem(problem, 0)
    return main([arg.replace("{problem}", str(problem)) for arg in argv] + ["--out", str(out)])


@pytest.mark.parametrize("command", OUTPUTS)
def test_a_longer_output_is_rewritten_to_exactly_the_new_bytes(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert _write_outputs(tmp_path, command, out) == 0
    names = OUTPUTS[command][1]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    first = {name: (out / name).read_bytes() for name in names}
    kept = {}
    for name in names:
        path = out / name
        path.write_bytes(b"#" * (len(first[name]) + 4096))
        path.chmod(0o640)
        kept[name] = (path.stat().st_ino, path.stat().st_mode)
    assert _write_outputs(tmp_path, command, out) == 0
    assert {name: (out / name).read_bytes() for name in names} == first
    assert {name: ((out / name).stat().st_ino, (out / name).stat().st_mode)
            for name in names} == kept


def test_solution_csv_has_the_bytes_of_np_savetxt(tmp_path, monkeypatch, capsys):
    x = np.array([1.0 / 3.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1e22,
                  np.inf, -np.inf, np.nan, 123456.789])
    solve = prsplit.harness.solve_method

    def solve_then_swap_x(*args, **kwargs):
        _, z, trace = solve(*args, **kwargs)
        return x, z, trace

    monkeypatch.setattr(prsplit.harness, "solve_method", solve_then_swap_x)
    assert _write_outputs(tmp_path, "solve", tmp_path / "out") == 0
    np.savetxt(tmp_path / "savetxt.csv", x, delimiter=",")
    assert (tmp_path / "out" / "solution.csv").read_bytes() == \
        (tmp_path / "savetxt.csv").read_bytes()


def test_an_output_symlink_is_written_through(tmp_path, capsys):
    assert _write_outputs(tmp_path, "solve", tmp_path / "fresh") == 0
    out = tmp_path / "out"
    out.mkdir()
    targets = {}
    for name in OUTPUTS["solve"][1]:
        target = tmp_path / f"target_{name}"
        target.write_bytes(b"#" * 100_000)
        (out / name).symlink_to(target)
        targets[name] = (target, target.stat().st_ino)
    assert _write_outputs(tmp_path, "solve", out) == 0
    for name, (target, inode) in targets.items():
        assert (out / name).is_symlink() and target.stat().st_ino == inode
        assert target.read_bytes() == (tmp_path / "fresh" / name).read_bytes()


@pytest.mark.parametrize("command", OUTPUTS)
def test_outputs_linked_to_dev_null(tmp_path, capsys, command):
    # /dev/null is no regular file: it takes the bytes and cannot be truncated
    out = tmp_path / "out"
    out.mkdir()
    for name in OUTPUTS[command][1]:
        (out / name).symlink_to(os.devnull)
    assert _write_outputs(tmp_path, command, out) == 0
    assert all(os.readlink(out / name) == os.devnull for name in OUTPUTS[command][1])


@pytest.mark.parametrize("command", OUTPUTS)
def test_an_unwritable_output_is_a_one_line_error(tmp_path, capsys, command):
    # the last file a command writes is a directory, so opening it fails
    out = tmp_path / "out"
    blocked = out / OUTPUTS[command][1][-1]
    blocked.mkdir(parents=True)
    assert _write_outputs(tmp_path, command, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("prsplit: error: ") and err.count("\n") == 1
    assert str(blocked) in err


_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
from prsplit.cli import main

out = sys.argv[1]
r = np.random.default_rng(0)
# nonzero offsets, so that z* is not the starting point 0 and solve takes steps
with open(out + "/p.json", "w") as fh:
    json.dump({"A": r.standard_normal((8, 5)).tolist(), "a": r.standard_normal(8).tolist(),
               "B": r.standard_normal((7, 5)).tolist(), "b": r.standard_normal(7).tolist()}, fh)
moduli = ["--rho", "1", "--alpha", "0.25", "--mu", "0", "--beta", "1"]
for argv in (["rates", *moduli], ["tight-check", *moduli], ["sweep-delta", *moduli],
             ["bench-academic", "--dims", "4,6,5", "--reps", "1", "--out", out],
             ["restore", "--side", "16", "--out", out],
             ["solve", "--problem-file", out + "/p.json", "--out", out]):
    if argv[0] == "bench-academic" and "orjson" in sys.modules:
        sys.exit("a command that writes no CSV and reads no problem file loaded orjson")
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
with open(out + "/trace.csv") as fh:
    steps = len(fh.read().splitlines()) - 2
if steps < 2:
    sys.exit(f"solve stopped after {steps} iterations")
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_commands_run_without_scipy(tmp_path):
    # the runtime needs numpy and orjson, and rates, tight-check and
    # sweep-delta, which write no CSV, load no orjson; scipy is a test-side
    # reference
    env = dict(os.environ)
    src = str(Path(prsplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
