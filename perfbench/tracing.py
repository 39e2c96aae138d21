"""In-memory span tracing of prsplit's layers, installed from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``_targets`` with wrappers that record one span per call (layer, start, end,
parent span, request id) and per-layer counters; ``uninstall()`` puts the
originals back.  Every module attribute that refers to a wrapped function is
replaced, so calls through ``from .x import f`` bindings are traced as well.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  A layer's ``calls`` counts spans
whose direct parent belongs to another layer, so a solver that delegates to
another solver (``prs_classic_solve`` -> ``drs_solve``) counts once.
"""

from __future__ import annotations

import functools
import os
import weakref
from array import array
from time import perf_counter

LAYERS = (
    "cli",
    "harness.run",
    "harness.build",
    "harness.write",
    "solvers",
    "rates",
    "proxlib.ls_dense",
    "proxlib.ls_dense.grad",
    "proxlib.ls_op",
    "proxlib.blur",
    "proxlib.huber",
    "proxlib.spectral",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}


def _targets(prsplit):
    """(owner, attribute, layer, kind, path-argument index) for every wrapped callable."""
    cli, harness, pgm, proxlib, rates, solvers = (
        prsplit.cli, prsplit.harness, prsplit.pgm, prsplit.proxlib, prsplit.rates, prsplit.solvers,
    )
    out = [(cli, "main", "cli", None, None)]
    out += [(harness, name, "harness.run", None, None)
            for name in ("run_academic_benchmark", "run_restoration_demo")]
    out += [(harness, name, "harness.build", None, None)
            for name in ("generate_instance", "make_least_squares_problem")]
    out += [
        (harness, "emit_trace", "harness.write", "write", 1),
        (harness.BenchmarkReport, "to_csv", "harness.write", "write", 1),
        (harness, "emit_plot_script", "harness.write", "write", 2),
        (pgm, "write_pgm", "harness.write", "write", 0),
    ]
    # prs_lev_step runs once per iteration inside prs_lev_solve; a span
    # there would only add overhead to the solvers layer's own self time.
    out += [(solvers, name, "solvers", "solve", None)
            for name in ("prs_lev_solve", "prs_classic_solve", "drs_solve", "fista_solve")]
    out += [(rates, name, "rates", None, None)
            for name in rates.__all__ if callable(getattr(rates, name))
            and not isinstance(getattr(rates, name), type)]
    out += [
        (proxlib.LeastSquaresFn, "prox", "proxlib.ls_dense", "dense_prox", None),
        (proxlib.LeastSquaresFn, "gradient", "proxlib.ls_dense.grad", None, None),
        (proxlib.OperatorLeastSquares, "prox", "proxlib.ls_op", None, None),
        (proxlib.BlurOperator, "apply", "proxlib.blur", None, None),
        (proxlib.BlurOperator, "adjoint", "proxlib.blur", None, None),
        (proxlib.HuberFn, "prox", "proxlib.huber", None, None),
        (proxlib.HuberFn, "gradient", "proxlib.huber", None, None),
    ]
    out += [(proxlib, name, "proxlib.spectral", None, None)
            for name in ("gram_norm", "gram_smallest_eigenvalue", "estimate_moduli")]
    return out


class Tracer:
    """Span store and per-layer counters; one instance per traced pass."""

    def __init__(self, prsplit):
        self._prsplit = prsplit
        self._modules = [getattr(prsplit, name) for name in
                         ("cli", "core", "harness", "leverage", "pgm", "proxlib", "rates", "solvers")]
        self._modules.append(prsplit)
        self._patched: list[tuple[object, str, object]] = []
        self.request = -1
        self.span_id = array("q")
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack: list[list] = []  # [span id, layer, child time]
        self._next_id = 0
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.iterations = 0
        self.converged = 0
        self.solve_log: list[tuple[int, int, str]] = []  # (request, iterations, status)
        self.new_step_calls = 0
        self.write_bytes = 0
        self._seen_steps: "weakref.WeakKeyDictionary[object, set]" = weakref.WeakKeyDictionary()

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, kind, path_arg in _targets(self._prsplit):
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, _INDEX[layer], kind, path_arg)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                for module in self._modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # --- recording --------------------------------------------------------------

    def _wrap(self, fn, layer: int, kind, path_arg):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.self_s[layer] += dur - frame[2]
                outermost = parent is None or parent[1] != layer
                if parent is not None:
                    parent[2] += dur
                    pid = parent[0]
                else:
                    pid = -1
                if outermost:
                    self.calls[layer] += 1
                self.span_id.append(sid)
                self.span_layer.append(layer)
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.span_parent.append(pid)
                self.span_request.append(self.request)
            if kind is not None:
                self._count(kind, outermost, args, result, path_arg)
            return result

        return wrapper

    def _count(self, kind, outermost, args, result, path_arg) -> None:
        if kind == "solve":
            if outermost:
                trace = result[-1]
                self.iterations += trace.iterations
                self.converged += trace.status == "converged"
                self.solve_log.append((self.request, trace.iterations, trace.status))
        elif kind == "dense_prox":
            fn, gamma = args[0], float(args[1])
            seen = self._seen_steps.setdefault(fn, set())
            if gamma not in seen:
                seen.add(gamma)
                self.new_step_calls += 1
        elif kind == "write":
            self.write_bytes += os.path.getsize(args[path_arg])

    # --- reporting --------------------------------------------------------------

    def layer_self_s(self, name: str) -> float:
        return self.self_s[_INDEX[name]]

    def layer_calls(self, name: str) -> int:
        return self.calls[_INDEX[name]]

    def write_spans(self, path) -> None:
        """One CSV line per span: id, layer, start, end, parent id, request id."""
        lines = ["id,layer,start_s,end_s,parent,request"]
        lines += [
            f"{sid},{LAYERS[layer]},{t0!r},{t1!r},{pid},{req}"
            for sid, layer, t0, t1, pid, req in zip(
                self.span_id, self.span_layer, self.span_start, self.span_end,
                self.span_parent, self.span_request,
            )
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
