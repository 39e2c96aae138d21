"""The benchmark's span tracer still finds every callable it wraps by name."""

import types
from pathlib import Path

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
