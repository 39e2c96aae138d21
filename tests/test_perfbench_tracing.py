"""The benchmark's span tracer still finds every callable it wraps by name."""

import json
import re
import types
from pathlib import Path

import numpy as np

import prsplit
import prsplit.cli
from prsplit.proxlib import LeastSquaresFn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from its source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls(tmp_path, capsys):
    # install() looks up owner.__dict__[name] for every target, so a moved or
    # renamed callable fails here rather than only in a traced benchmark run
    tracing = _load_tracing()
    original = LeastSquaresFn.__dict__["prox"]
    tracer = tracing.Tracer(prsplit)
    tracer.install()
    try:
        assert LeastSquaresFn.__dict__["prox"] is not original
        code = prsplit.cli.main(["bench-academic", "--dims", "4,6,5", "--reps", "1",
                                 "--tol", "1e-8", "--out", str(tmp_path)])
        assert code == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert LeastSquaresFn.__dict__["prox"] is original
    for layer in ("cli", "harness.run", "harness.build", "solvers", "proxlib.ls_dense"):
        assert tracer.layer_calls(layer) > 0, layer
    assert tracer.iterations > 0


def test_a_traced_restore_has_one_solve_span_per_reported_solve(tmp_path, capsys):
    # the benchmark's cross-check: per request, the reference solve and then one
    # solve per method, with the iteration counts the CLI prints, in that order;
    # the prs_lev run that replays the reference's iterates is one span too
    tracing = _load_tracing()
    tracer = tracing.Tracer(prsplit)
    tracer.install()
    try:
        for request, seed in enumerate((0, 7)):
            tracer.request = request
            code = prsplit.cli.main(["restore", "--side", "16", "--seed", str(seed),
                                     "--out", str(tmp_path)])
            assert code == 0
    finally:
        tracer.uninstall()
    printed = capsys.readouterr().out.split("wrote images")[:-1]
    assert len(printed) == 2
    for request, out in enumerate(printed):
        reference = re.search(r"^reference: (\S+) after (\d+) iterations$", out, re.M)
        runs = re.findall(r"^  (\S+)\s+(\d+) iterations  status=(\S+)", out, re.M)
        assert [name for name, _, _ in runs] == ["prs_lev", "prs", "fista1", "fista2"]
        expected = [(int(reference[2]), reference[1])]
        expected += [(int(iters), status) for _, iters, status in runs]
        assert [(iters, status) for req, iters, status in tracer.solve_log
                if req == request] == expected


def test_a_traced_solve_or_academic_request_has_one_solve_span_per_solve(tmp_path, capsys):
    # every solve that a method name tunes goes through the wrapped solver
    # function, so the cross-check sees it; a record that kept its own
    # reference to prs_lev_solve or fista_solve would drop the span
    r = np.random.default_rng(0)
    problem = {"A": r.standard_normal((8, 5)), "a": r.standard_normal(8),
               "B": r.standard_normal((7, 5)), "b": r.standard_normal(7)}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({k: v.tolist() for k, v in problem.items()}))
    tracing = _load_tracing()
    tracer = tracing.Tracer(prsplit)
    tracer.install()
    try:
        for request, method in enumerate(prsplit.harness.SOLVE_METHODS):
            tracer.request = request
            assert prsplit.cli.main(["solve", "--problem-file", str(path), "--method", method,
                                     "--out", str(tmp_path)]) == 0
        tracer.request = academic = len(prsplit.harness.SOLVE_METHODS)
        assert prsplit.cli.main(["bench-academic", "--dims", "4,6,5", "--reps", "1",
                                 "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    printed = re.findall(r"^status: (\S+) after (\d+) iterations$", out, re.M)
    assert len(printed) == len(prsplit.harness.SOLVE_METHODS)
    for request, (status, iters) in enumerate(printed):
        logged = [(i, s) for req, i, s in tracer.solve_log if req == request]
        assert logged == [(int(iters), status)]
    # one repetition: each method's average is its one solve's count
    rows = re.findall(r"^  (\S+)\s+iter avg\s+(\S+)", out, re.M)
    assert [name for name, _ in rows] == list(prsplit.harness.BENCH_METHODS)
    assert [i for req, i, _ in tracer.solve_log if req == academic] == [
        int(float(avg)) for _, avg in rows]
