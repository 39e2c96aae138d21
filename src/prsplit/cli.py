"""Command-line interface.

Subcommands: ``rates`` (closed-form rates and dominance for given moduli),
``tight-check``, ``bench-academic``, ``solve`` (JSON problem file),
``restore`` (PGM or synthetic image deblurring), ``sweep-delta`` (flat-rate
verification).  The PRSPLIT_OUTDIR environment variable sets the default
output directory.  Invalid input ends with a one-line ``prsplit: error: ...``
on stderr and exit code 2, as argparse does for bad arguments.  ``solve`` and
``restore`` exit 1 when a solve stops without converging.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, rates
from .core import RegularityParams, validate_leverage
from .solvers import SolverConfig, drs_solve, fista_solve, prs_classic_solve, prs_lev_solve


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else os.environ.get("PRSPLIT_OUTDIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    deviation = harness.run_tight_check(reg, steps=args.steps, delta=args.delta)
    print(f"r* = {rates.optimal_rate(reg):.12g}")
    print(f"max |ratio - r*| over {args.steps} steps = {deviation:.3e}")
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
        print(f"\n(m,n,p) = {row.dims}   avg moduli: rho={row.avg_rho:.3g} "
              f"alpha={row.avg_alpha:.3g} mu={row.avg_mu:.3g} beta={row.avg_beta:.3g}")
        for name, stats in row.methods.items():
            if not stats.defined:
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
    """The least-squares pair of a JSON problem file, its shapes checked before any solve."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("problem file must hold a JSON object")
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
    return harness.make_least_squares_problem(A, offsets.get("a"), B, offsets.get("b"))


def cmd_solve(args) -> int:
    problem = _load_problem_file(args.problem_file)
    reg = problem.regularity
    config = SolverConfig(max_iter=args.max_iter, tol=args.tol)
    if args.method == "prs_lev":
        if args.delta is not None:
            delta = args.delta
        elif reg.alpha == 0.0 or reg.beta == 0.0:
            # delta* sits on an endpoint of [-rho, mu] here, where eta = 0 is
            # out of range; r* is flat on the interval, so take its midpoint
            delta = (reg.mu - reg.rho) / 2.0
        else:
            delta = rates.delta_star(reg)
        lp = validate_leverage(rates.optimal_params(reg, delta), reg)
        x, _, trace = prs_lev_solve(problem, lp, config)
    elif args.method == "prs":
        tau = args.tau if args.tau is not None else rates.classical_prs_optimal(reg)[0]
        x, _, trace = prs_classic_solve(problem, tau, config)
    elif args.method == "drs":
        tau, lam, _ = rates.drs_optimal_rate(reg, args.tau)
        x, _, trace = drs_solve(problem, tau, lam, config)
    elif args.method in ("fista1", "fista2"):
        mode = "forward_on_f" if args.method == "fista1" else "forward_on_g"
        x, trace = fista_solve(problem, mode, config)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.method)
    out = _out_dir(args)
    np.savetxt(out / "solution.csv", x, delimiter=",")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing does not change the parser, and every command treats ``args`` as
    read-only, so no value can carry over from one ``main`` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="prsplit",
        description="Leveraged Peaceman-Rachford solver and rate-verification benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--method", choices=["prs_lev", "prs", "drs", "fista1", "fista2"],
                   default="prs_lev")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
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
    p.add_argument("--methods", nargs="+",
                   default=["prs_lev", "prs", "fista1", "fista2"],
                   choices=["prs_lev", "prs", "fista1", "fista2"])
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_restore)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SplittingError is a ValueError
        print(f"prsplit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
