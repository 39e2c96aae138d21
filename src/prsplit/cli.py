"""Command-line interface.

Subcommands: ``rates`` (closed-form rates and dominance for given moduli),
``tight-check``, ``bench-academic``, ``solve`` (JSON problem file),
``restore`` (PGM or synthetic image deblurring), ``sweep-delta`` (flat-rate
verification).  The PRSPLIT_OUTDIR environment variable sets the default
output directory.  Invalid input ends with a one-line ``prsplit: error: ...``
on stderr and exit code 2, and a bad argument with a one-line
``prsplit <command>: error: ...`` and exit code 2.  ``solve`` and
``restore`` exit 1 when a solve stops without converging.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, pgm, rates
from .core import RegularityParams
from .solvers import SolverConfig


def _out_dir(args) -> Path:
    """``--out``, else PRSPLIT_OUTDIR, else the working directory.  Each
    command creates it only once its inputs are checked."""
    return Path(args.out if args.out is not None else os.environ.get("PRSPLIT_OUTDIR", "."))


def _reg_from_args(args) -> RegularityParams:
    return RegularityParams(rho=args.rho, alpha=args.alpha, mu=args.mu, beta=args.beta)


def _add_moduli(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho", type=float, required=True, help="strong convexity of f")
    parser.add_argument("--alpha", type=float, required=True, help="cocoercivity of grad f")
    parser.add_argument("--mu", type=float, required=True, help="strong convexity of g")
    parser.add_argument("--beta", type=float, required=True, help="cocoercivity of grad g")


def cmd_rates(args) -> int:
    reg = _reg_from_args(args)
    delta = rates.delta_star(reg) if args.delta is None else args.delta
    lp = rates.optimal_params(reg, delta)
    bundle = rates.rate_bundle(lp, reg)
    print(f"delta      = {lp.delta:.9g}" + ("  (delta*)" if args.delta is None else ""))
    print(f"eta        = {lp.eta:.9g}")
    print(f"tau        = {lp.tau:.9g}")
    print(f"r1         = {bundle.r1:.9g}")
    print(f"r2         = {bundle.r2:.9g}")
    print(f"r = r1*r2  = {bundle.r:.9g}")
    print(f"r*         = {bundle.r_star:.9g}")
    print("\nmethod       rate")
    for name, rate in rates.dominance_report(reg):
        print(f"{name:<12} {'-' if rate is None else format(rate, '.9g')}")
    return 0


def cmd_tight_check(args) -> int:
    reg = _reg_from_args(args)
    deviation, steps = harness.run_tight_check(reg, steps=args.steps, delta=args.delta)
    print(f"r* = {rates.optimal_rate(reg):.12g}")
    print(f"max |ratio - r*| over {steps} steps = {deviation:.3e}")
    return 0 if deviation <= 1e-10 else 1


def cmd_sweep_delta(args) -> int:
    reg = _reg_from_args(args)
    deviation = rates.rate_constancy_check(reg, grid_size=args.grid)
    print(f"r* = {rates.optimal_rate(reg):.12g}")
    print(f"max |r(delta) - r*| over {args.grid} interior shifts = {deviation:.3e}")
    return 0 if deviation <= 1e-10 else 1


def _parse_dims(text: str) -> list[tuple[int, int, int]]:
    dims = []
    for part in text.split(";"):
        try:
            m, n, p = (int(v) for v in part.split(","))
        except ValueError:
            raise ValueError(f"--dims: {part!r} is not a triple m,n,p of integers") from None
        dims.append((m, n, p))
    return dims


def cmd_bench_academic(args) -> int:
    out = _out_dir(args)
    report = harness.run_academic_benchmark(
        _parse_dims(args.dims),
        repetitions=args.reps,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
        out_path=out / "bench_academic.csv",
    )
    print(f"wrote {out / 'bench_academic.csv'}")
    for row in report.rows:
        reg = row.avg_moduli
        print(f"\n(m,n,p) = {row.dims}   avg moduli: rho={reg.rho:.3g} "
              f"alpha={reg.alpha:.3g} mu={reg.mu:.3g} beta={reg.beta:.3g}")
        for name, stats in row.methods.items():
            if stats is None:
                print(f"  {name:<8} -")
                continue
            print(f"  {name:<8} iter avg {stats.avg_iterations:9.1f}   "
                  f"median {stats.median_iterations:9.1f}   time {stats.avg_time_ms:8.2f} ms")
    return 0


def _problem_array(spec: dict, key: str, ndim: int) -> np.ndarray:
    """``spec[key]`` as a nonempty finite float array of ``ndim`` dimensions."""
    kind = "matrix" if ndim == 2 else "vector"
    try:
        value = np.asarray(spec[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"problem file: {kind} {key!r} is not a numeric array") from None
    if value.ndim != ndim or value.size == 0:
        raise ValueError(f"problem file: {kind} {key!r} must be a nonempty {ndim}-D array, "
                         f"got shape {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"problem file: {kind} {key!r} has a non-finite entry")
    return value


def _load_problem_file(path):
    """The least-squares pair of a JSON problem file, its shapes checked before any solve.

    The file is strict JSON (RFC 8259), read by orjson: its numbers are the
    doubles ``json.loads`` would give, bit for bit, in a fifth of its time.
    NaN, Infinity, a number that overflows a double and bytes that are not
    UTF-8 (named by the offset of the first) are parse errors.  orjson is
    imported here and by the CSV writer, so that the commands that read no
    problem file and write no CSV never load it.
    """
    import orjson

    try:
        spec = orjson.loads(Path(path).read_bytes())
    except ValueError as exc:  # orjson.JSONDecodeError is a ValueError
        # orjson names no offset for a bad byte: read the bytes again to find it
        # (holding them through the build made every oneshot request ~2% slower)
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as bad:
            raise ValueError(f"problem file: byte {bad.start} is not UTF-8") from None
        raise ValueError(f"problem file: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError("problem file must hold a JSON object")
    for key in spec:  # a misspelt offset key would otherwise solve with a zero offset
        if key not in ("A", "B", "a", "b"):
            raise ValueError(f"problem file: unknown key {key!r}; "
                             "the keys are 'A', 'B', 'a' and 'b'")
    for key in ("A", "B"):
        if key not in spec:
            raise ValueError(f"problem file needs matrix {key!r}")
    A, B = _problem_array(spec, "A", 2), _problem_array(spec, "B", 2)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"problem file: matrices 'A' and 'B' need the same column count, "
                         f"got {A.shape[1]} and {B.shape[1]}")
    offsets = {}
    for key, rows in (("a", A.shape[0]), ("b", B.shape[0])):
        if key in spec:
            offsets[key] = _problem_array(spec, key, 1)
            if offsets[key].size != rows:
                raise ValueError(f"problem file: vector {key!r} needs one entry per row of "
                                 f"matrix {key.upper()!r} ({rows}), got {offsets[key].size}")
    try:
        return harness.make_least_squares_problem(A, offsets.get("a"), B, offsets.get("b"))
    except OverflowError as exc:
        raise ValueError(f"problem file: {exc}") from None


def cmd_solve(args) -> int:
    problem = _load_problem_file(args.problem_file)
    config = SolverConfig(max_iter=args.max_iter, tol=args.tol)
    x, _, trace = harness.solve_method(problem, args.method, config, delta=args.delta, tau=args.tau)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    # np.savetxt's bytes for a vector: "%.18e", one value per line
    pgm._write_in_place(out / "solution.csv", "".join(f"{v:.18e}\n" for v in x.tolist()).encode())
    harness.emit_trace(trace, out / "trace.csv")
    print(f"status: {trace.status} after {trace.iterations} iterations")
    print(f"wrote {out / 'solution.csv'} and {out / 'trace.csv'}")
    return 0 if trace.status == "converged" else 1


def cmd_restore(args) -> int:
    out = _out_dir(args)
    report = harness.run_restoration_demo(
        image=args.image,
        side=args.side,
        sigma=args.sigma,
        lam=getattr(args, "lambda"),
        epsilon=args.epsilon,
        level=args.level,
        noise_var=args.noise_var,
        seed=args.seed,
        methods=args.methods,
        tol=args.tol,
        max_iter=args.max_iter,
        out_dir=out,
    )
    reg = report.regularity
    print(f"moduli: rho={reg.rho:.4g} alpha={reg.alpha:.4g} mu={reg.mu:.4g} beta={reg.beta:.4g}")
    print(f"reference: {report.reference_status} after {report.reference_iterations} iterations")
    for name, run in report.runs.items():
        err = float(np.linalg.norm(run.final_x - report.reference))
        print(f"  {name:<8} {run.iterations:5d} iterations  status={run.status}  "
              f"|x - x_ref| = {err:.3e}")
    print(f"wrote images and error curves to {out}")
    statuses = [report.reference_status] + [run.status for run in report.runs.values()]
    return 0 if all(status == "converged" for status in statuses) else 1


def _is_negative_number(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``--delta -5e-05`` as a flag and its value.

    argparse takes a token that starts with ``-`` for an option unless it looks
    like ``-1`` or ``-0.5``, so a negative number in scientific notation after
    a flag would end with "expected one argument".  Each such pair is passed
    on as ``--delta=-5e-05``.  A bad argument ends with one line,
    ``prsplit: error: ...`` before the command and ``prsplit <command>: error:
    ...`` after it, and exit code 2, without argparse's usage text.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            prev = joined[-1] if joined else ""
            after_flag = prev.startswith("--") and len(prev) > 2 and "=" not in prev
            if after_flag and _is_negative_number(token):
                joined[-1] = f"{prev}={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


class _CommandParser(_Parser):
    """A command's parser, which rejects the arguments it does not know.

    argparse would hand them back to the top-level parser, merged with that
    parser's own unknown arguments, and name no command for them.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing does not change the parser, and every command treats ``args`` as
    read-only, so no value can carry over from one ``main`` call to the next.
    """
    parser = _Parser(
        prog="prsplit",
        description="Leveraged Peaceman-Rachford solver and rate-verification benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("rates", help="closed-form rates and dominance for given moduli")
    _add_moduli(p)
    p.add_argument("--delta", type=float, default=None, help="shift (default: delta*)")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("tight-check", help="per-step contraction on the tight 2-D pair")
    _add_moduli(p)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_tight_check)

    p = sub.add_parser("sweep-delta", help="verify the rate is flat across shifts")
    _add_moduli(p)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=cmd_sweep_delta)

    p = sub.add_parser("bench-academic", help="random least-squares benchmark")
    p.add_argument("--dims", type=str, default="20,20,20",
                   help="semicolon-separated m,n,p triples, e.g. '20,10,20;20,20,20'")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=50000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_bench_academic)

    p = sub.add_parser("solve", help="solve a least-squares pair from a JSON file")
    p.add_argument("--problem-file", type=str, required=True,
                   help='JSON with "A", "B" and optional "a", "b"')
    p.add_argument("--method", choices=harness.SOLVE_METHODS, default="prs_lev")
    p.add_argument("--delta", type=float, default=None, help="shift, prs_lev only")
    p.add_argument("--tau", type=float, default=None, help="step, prs and drs only")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("restore", help="desk-scale image deblurring demo")
    p.add_argument("--image", type=str, default=None,
                   help="input PGM (default: seeded synthetic image)")
    p.add_argument("--side", type=int, default=64, help="synthetic image side")
    p.add_argument("--sigma", type=float, default=0.5, help="blur standard deviation")
    p.add_argument("--lambda", type=float, default=0.07, dest="lambda",
                   help="regularization weight")
    p.add_argument("--epsilon", type=float, default=0.01, help="smoothing width")
    p.add_argument("--level", type=int, default=1, help="wavelet levels")
    p.add_argument("--noise-var", type=float, default=0.008)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", nargs="+", default=list(harness.RESTORE_METHODS),
                   choices=harness.RESTORE_METHODS)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_restore)

    return parser


# integer flags checked here, so that the message names the flag, not the
# library parameter it sets (grid_size, repetitions, SolverConfig.max_iter)
_FLAG_MINIMUM = {"grid": 2, "reps": 1, "max_iter": 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, low in _FLAG_MINIMUM.items():
            value = getattr(args, dest, low)
            if value < low:
                raise ValueError(f"--{dest.replace('_', '-')} must be >= {low}, got {value}")
        return args.func(args)
    except (ValueError, OSError) as exc:  # SplittingError is a ValueError
        print(f"prsplit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
