"""Iterative schemes: one splitting solve, ``prs_lev_solve``, and FISTA.

All solvers share the stopping logic and trace capture of :class:`SolverConfig`.
``prs_lev_solve`` is leveraged PRS: classical PRS on the pair shifted by
``delta`` and ``eta``, written with the rescaled proxes of the original f and
g, so no new oracles are ever required.  At ``delta = eta = 0`` the shifted
pair is the original one, so ``LeverageParams(0, 0, tau)`` is classical PRS,
and with a relaxation ``lam < 1`` relaxed DRS.  Its one loop iterates
``x = f.prox(gamma_f, z/f_scale)``, ``d = g.prox(gamma_g, (c0*x - z)*g_in) - x``,
``z += lam*c0*d``, with ``c0 = 2`` at ``eta = 0``.  When both proxes are
affine (each function has a ``resolvent``), the step is precomposed into one
affine map ``z -> T z + t``.  If nothing reads the intermediate iterates
(trace off, a z*-based stopping rule) and a Cholesky factorization certifies
``||T||_2 < 1``, the loop skips ahead to the step before its stopping step
by repeated squaring of ``T``, and steps the rest.  The paper's contraction
factor at the solve's parameters and declared moduli chooses where: a solve
it predicts to take more than m steps (m the size of z) skips from step 0,
any other one first takes m ordinary steps, which cost about as much as the
skip's own setup.  When the proxes are called step by step, a
:class:`Recording` of an earlier solve from the same inputs supplies the
first steps, and the loop computes, and records, only the steps past them.
FISTA steps forward on f (g-first: on ``problem.swap()``) and folds its step
the same way: when f has a constant ``hessian`` and g a ``resolvent``, its
forward-backward step is one affine map ``y -> P y + p``, built once per solve,
and its momentum ``y = x + beta (x - x_prev)`` one product
``(-beta, 1 + beta) . (x_prev, x)`` of its last two iterates.  With the two
oracles it keeps the elementwise momentum.

A splitting solve that records its trace reads every step, so it cannot skip;
FISTA never skips.  Their affine steps (``T`` when recorded, ``P`` always) run
in blocks of up to ``BLOCK`` iterates instead: the same products, written into
one array, then the block's residuals and distances in one batched norm, and
one array screen, :meth:`_Monitor.update_block`, that records a block in which
no step can stop.  A block that may stop is replayed step by step through
:meth:`_Monitor.update`.  Both judge by :meth:`_Monitor._verdict`, the one
definition of the stop tests, so every count, status and bit is the
step-at-a-time loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    SolveTrace,
    fixed_point_oracle,
    validate_leverage,
)
from .errors import NotSmooth, TauTooSmall
from .rates import _factors

__all__ = [
    "SolverConfig",
    "Recording",
    "prs_lev_solve",
    "prs_classic_solve",
    "drs_solve",
    "fista_solve",
]

# Divergence heuristic: the theory forbids growth under valid hypotheses, so
# sustained growth signals a user-input error rather than a numerical hiccup.
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_STEPS = 50
# ||T||_2 must sit this far below 1 for the skip-ahead, above the rounding of
# the Cholesky test in _contracts
CONTRACTION_MARGIN = 1e-12
# iterates per round of a blocked affine solve
BLOCK = 32

Stopping = Literal["fixed_point_distance", "normalized_error", "residual"]
Affine = tuple[np.ndarray, np.ndarray]  # (A, b): the map v -> A v + b


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, tolerance, stopping metric, and trace switch.

    ``stopping=None`` picks ``fixed_point_distance`` when z* is known (an
    explicit ``z_star``, or a problem with a known minimizer and a gradient on
    f) and ``residual`` (on ``||p_n - x_n||``) otherwise.
    """

    max_iter: int = 1000
    tol: float = 1e-10
    stopping: Optional[Stopping] = None
    record_trace: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.stopping not in (None, "fixed_point_distance", "normalized_error", "residual"):
            raise ValueError(f"unknown stopping rule {self.stopping!r}")


class Recording:
    """A prefix of the steps of one oracle-path splitting solve: the iterates
    ``z_1, z_2, ...``, each with the residual ``||d||`` of the step that made
    it.

    Each solve of :func:`prs_lev_solve` given it reads the steps it holds and
    appends the steps it computes, up to its first ``limit``; a solve from
    any other f, g, parameters, relaxation or z0 than the first one raises
    ``ValueError``.  It holds the loop's own arrays, not copies: ``8 N`` bytes
    per step for z of size N.
    """

    def __init__(self, limit: float = math.inf):
        self.limit = limit
        self.source: Optional[tuple] = None  # f, g, lp, lam and z0 of the recorded solve
        self.residuals: list[float] = []
        self.iterates: list[np.ndarray] = []

    def _bind(self, f, g, lp: LeverageParams, lam: float, z0: np.ndarray) -> None:
        """Tie the recording to a solve's inputs, or check that they are the
        ones it is tied to."""
        source = (f, g, (lp, lam, z0.shape, z0.tobytes()))
        if self.source is None:
            self.source = source
            return
        f_, g_, values = self.source
        if f is not f_ or g is not g_ or source[2] != values:
            raise ValueError("the recording was made by a solve from another f, g, "
                             "LeverageParams, relaxation or z0")


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a real array, bit for bit, at half the cost
    return math.sqrt(np.vdot(v, v))


def _row_norms(V: np.ndarray) -> np.ndarray:
    # _norm of each row, bit for bit: matmul takes a 1 x m by m x 1 product to
    # the same BLAS ddot as np.vdot
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None]).ravel())


class _Monitor:
    """Shared stopping/trace bookkeeping for the fixed-point solvers."""

    def __init__(self, config: SolverConfig, z0: np.ndarray, z_star: Optional[np.ndarray]):
        self.config = config
        self.z_star = z_star
        stopping = config.stopping
        if stopping is None:
            stopping = "fixed_point_distance" if z_star is not None else "residual"
        if stopping in ("fixed_point_distance", "normalized_error") and z_star is None:
            raise ValueError(f"stopping rule {stopping!r} needs a fixed-point oracle")
        self.stopping = stopping
        # the residual is read only by the trace and the residual rule; the
        # z*-based rules still see a non-finite iterate through the distance
        self.needs_residual = config.record_trace or stopping == "residual"
        self.dist0 = None if z_star is None else _norm(z0 - z_star)
        self.trace = SolveTrace()
        if config.record_trace and z_star is not None:
            self.trace.distances.append(self.dist0)
        self._growth_run = 0
        # the growth test's baseline: ||z_0 - z*||, or the first residual
        self._baseline = None if stopping == "residual" else self.dist0

    def _verdict(
        self, residual: float | np.ndarray, distance: float | np.ndarray | None
    ) -> tuple:
        """The stop tests of a step, on floats, or of a block's steps,
        elementwise on arrays: ``(finite, converged, grows)``.

        ``grows`` is a metric above ``DIVERGENCE_FACTOR`` times its baseline.
        A norm is >= 0, so ``< inf`` is False at inf and NaN alike; NaN then
        compares false in the other tests too.
        """
        finite = residual < math.inf
        if distance is not None:
            finite = finite & (distance < math.inf)
        tol, baseline = self.config.tol, self._baseline
        if self.stopping == "residual":
            metric = residual
            converged = residual <= tol
        else:
            metric = distance
            if self.stopping == "fixed_point_distance":
                converged = distance <= tol
            elif baseline == 0.0:
                converged = True
            else:  # normalized_error
                converged = distance / baseline < tol
        grows = baseline > 0.0 and metric > DIVERGENCE_FACTOR * baseline
        return finite, converged, grows

    def update(self, iteration: int, residual: float, z: np.ndarray) -> bool:
        """Record the iteration that produced ``z``; return True when the solve should stop."""
        self.trace.iterations = iteration + 1
        dist_next = None
        if self.z_star is not None:
            v = z - self.z_star
            dist_next = math.sqrt(np.vdot(v, v))
        if self.config.record_trace:
            self.trace.residuals.append(residual)
            if dist_next is not None:
                self.trace.distances.append(dist_next)
        if self._baseline is None:
            self._baseline = residual
        finite, converged, grows = self._verdict(residual, dist_next)
        if not finite:
            self.trace.status = "nonfinite"
            return True
        if converged:
            self.trace.status = "converged"
            return True
        if grows:
            self._growth_run += 1
            if self._growth_run >= DIVERGENCE_STEPS:
                self.trace.status = "diverged"
                return True
        else:
            self._growth_run = 0
        return False

    def update_block(
        self, iteration: int, residuals: np.ndarray, iterates: np.ndarray
    ) -> Optional[int]:
        """Record the steps ``iteration, iteration + 1, ...``, which produced
        the rows of ``iterates``; return the row at which the solve stops, or
        None.

        When :meth:`_verdict` finds every row finite, unconverged and not
        growing, no row can stop and each ends a growth run, so the block is
        recorded at once.  Otherwise the rows are replayed through
        :meth:`update`.
        """
        distances = None if self.z_star is None else _row_norms(iterates - self.z_star)
        if self._baseline is None:
            self._baseline = float(residuals[0])
        finite, converged, grows = self._verdict(residuals, distances)
        if (~finite | converged | grows).any():
            for i, z in enumerate(iterates):
                if self.update(iteration + i, float(residuals[i]), z):
                    return i
            return None
        self.trace.iterations = iteration + len(residuals)
        if self.config.record_trace:
            self.trace.residuals.extend(residuals.tolist())
            if distances is not None:
                self.trace.distances.extend(distances.tolist())
        self._growth_run = 0
        return None


def _step_blocks(
    monitor: _Monitor,
    max_iter: int,
    buffers: tuple[np.ndarray, ...],
    advance: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Affine steps in rounds of up to ``BLOCK``; returns the terminal iterate.

    ``buffers`` are ``(BLOCK + 1, m)`` arrays whose row 0 holds the state
    before a round, the first of them the iterate the monitor judges.  ``advance(k)``
    fills rows ``1 .. k`` of each, one step a row, and returns the k
    residuals.  Steps past the row at which the monitor stops are discarded.

    The rounds run with overflow and invalid ignored: a step that overflows
    stops the solve with the status ``nonfinite``, which names the fault, and
    no RuntimeWarning is raised for it or for the discarded steps after it.
    """
    iterates, n = buffers[0], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_iter:
            k = min(BLOCK, max_iter - n)
            stop = monitor.update_block(n, advance(k), iterates[1 : k + 1])
            if stop is not None:
                return iterates[stop + 1].copy()
            for buf in buffers:
                buf[0] = buf[k]
            n += k
    return iterates[0].copy()


def _forward_backward(
    smooth: ProxFunction, proxed: ProxFunction, gamma: float
) -> Optional[Affine]:
    """``(P, p)`` with ``proxed.prox(gamma, y - gamma smooth.gradient(y)) = P y + p``.

    None unless ``smooth`` has a ``hessian`` and ``proxed`` a ``resolvent``.

    With ``gradient(y) = G y - h`` and ``prox(gamma, v) = M v + c`` the step
    is ``P = M - gamma M G`` and ``p = M (gamma h) + c``.
    """
    if smooth.hessian is None or proxed.resolvent is None:
        return None
    M, c = proxed.resolvent(gamma)
    h = -smooth.gradient(smooth.zero_point())
    return M - gamma * (M @ smooth.hessian), M.dot(gamma * h) + c


def _contracts(T: np.ndarray) -> bool:
    """Whether ``(1 - CONTRACTION_MARGIN)^2 I - T'T`` has a Cholesky factor,
    as it has when every singular value of the finite matrix ``T`` is below
    ``1 - CONTRACTION_MARGIN``.

    Forming ``T'T`` and factoring it round by about ``m eps ||T||_2^2`` for
    ``T`` of size m (Higham, *Accuracy and Stability of Numerical Algorithms*,
    SIAM 2002, sections 3.5 and 10.1), 2e-14 at m = 100 and a norm near 1.
    The margin puts the shifted identity ``2 CONTRACTION_MARGIN = 2e-12``
    below 1, so a success certifies ``||T||_2 < 1`` for m into the thousands,
    and the test agrees with ``svd(T)[0] < 1 - CONTRACTION_MARGIN`` but within
    that rounding of the margin, at about a sixth of the cost.
    """
    if not np.isfinite(T).all():
        return False
    gap = T.T @ T
    np.negative(gap, out=gap)
    gap.flat[:: T.shape[0] + 1] += (1.0 - CONTRACTION_MARGIN) ** 2
    try:
        np.linalg.cholesky(gap)
    except np.linalg.LinAlgError:
        return False
    return True


def _power_descent(
    T: np.ndarray, e: np.ndarray, bound: float, cap: int
) -> tuple[int, np.ndarray]:
    """The largest ``n <= cap`` with ``||T^n e|| > bound`` (0 if none), and ``T^n e``.

    When ``||T||_2 < 1``, ``||T^n e||`` strictly decreases in n, so the n with
    ``||T^n e|| > bound`` form a prefix of 0, 1, 2, ...  Squaring gives the
    powers ``T^(2^k)`` while ``||T^(2^k) e||`` is still above ``bound``, and a
    greedy descent over them, largest first, finds the end of that prefix
    (exponentiation by squaring; Higham, *Functions of Matrices*, SIAM 2008).
    """
    powers, P, jump = [], T, 1
    while jump <= cap and _norm(P.dot(e)) > bound:
        powers.append(P)
        P, jump = P @ P, 2 * jump
    n = 0
    for k in reversed(range(len(powers))):
        if n + (1 << k) <= cap:
            e_next = powers[k].dot(e)
            if _norm(e_next) > bound:
                n, e = n + (1 << k), e_next
    return n, e


def prs_lev_solve(
    problem: CompositeProblem,
    lp: LeverageParams,
    config: SolverConfig = SolverConfig(),
    z0: Optional[np.ndarray] = None,
    z_star: Optional[np.ndarray] = None,
    lam: float = 1.0,
    recording: Optional[Recording] = None,
) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """Run the leveraged recurrence; returns ``(x_final, z_final, trace)``.

    Each step is two rescaled proxes of the original f and g: ``x`` is the
    f-prox at ``(tau+eta)/f_scale`` and the g-prox at ``(tau-eta)/g_scale``
    takes the reflected point ``(2*tau*x - (tau-eta)*z) / (tau+eta)``, and z
    moves by ``lam`` times the full step.  In the loop that is
    ``x = f.prox(gamma_f, z/f_scale)``, ``d = g.prox(gamma_g, (c0*x - z)*g_in) - x``
    and ``z += lam*c0*d``, with ``c0 = 2*tau/(tau-eta)`` and
    ``g_in = (tau-eta)/((tau+eta)*g_scale)``.  ``x_final`` is the f-prox
    output at termination, which converges to a minimizer of the original
    problem.

    ``LeverageParams(0, 0, tau)`` is classical PRS, ``z+ = z + 2*lam*(p - x)``
    with both proxes at ``tau``, or relaxed DRS when ``lam < 1``: every
    rescaling is then by an exact 1.  ``tau > |eta|`` and ``lam`` in ``]0, 1]``
    are checked always, the leveraged hypotheses only for a nonzero ``delta``
    or ``eta``, so classical PRS runs on any moduli.  z* is ``z_star``, else
    the fixed point of the problem's minimizer, if it has one and grad f.

    When f and g both have a ``resolvent`` (``f.prox(gamma_f, v/f_scale) =
    A1 v + b1`` and ``g.prox(gamma_g, g_in v) = A2 v + b2``), a step is the
    affine map ``z -> T z + t`` with ``s = lam*c0``,
    ``T = I + s (c0 A2 A1 - A2 - A1)`` and ``t = s (c0 A2 b1 + b2 - b1)``,
    built once per solve: one product per step in place of two proxes.
    ``||d||`` is read back as ``||z_next - z|| / s``, which it equals in exact
    arithmetic.  A recorded affine solve steps in blocks
    (:func:`_step_blocks`): ``T.dot(z, out=row)`` then ``row += t``, the same
    operations and bits as one step at a time.

    The affine loop skips ahead when the trace is off, the stopping rule is
    ``fixed_point_distance`` or ``normalized_error``, ``z_0`` is finite and not
    z*, and :func:`_contracts` certifies ``||T||_2 < 1``.  The error after n
    steps is then ``T^n (z - z*)`` and its norm strictly decreases, so
    :func:`_power_descent` finds the last step, capped at ``max_iter - 1``,
    that the stopping bound (``tol``, or ``tol * ||z_0 - z*||``) still calls
    unconverged.  The loop resumes from ``z* + T^n (z - z*)`` there and the
    monitor judges the remaining steps as always, so the count and the status
    are the loop's, up to a rounding near-tie at the bound; only the last bits
    of the final iterate move.  The gate and each squaring cost about ``m^3``
    and a step about ``m^2`` for ``z`` of size m.  So, with ``max_iter`` above
    m, the gate runs before the first step when the paper's factor
    ``r = r1*r2`` at ``lp`` and the declared moduli (``(1 - lam) + lam*r``
    relaxed) predicts more than m steps, ``log(bound / ||z_0 - z*||) / log r
    > m``, and after m ordinary steps otherwise, so a solve that stops within
    them runs as if nothing skipped.
    A wrong or undefined ``r`` costs time, never a count or a status.

    ``recording`` is for a pair whose proxes are called step by step (f or g
    without a ``resolvent``; any other pair raises ``ValueError``).  It holds
    a prefix of this solve's steps: step n that the recording holds is read
    from it (its ``z`` and ``||d||``), judged by this solve's ``config`` and
    z* as if it were computed again, and every other step is computed and
    appended while ``n < recording.limit``, at ``8 N`` bytes each for z of
    size N.  So an empty recording records the solve, a filled one is
    replayed and extended, and the result is bit for bit the one a fresh
    solve returns.  A recording made from other f, g, ``lp``, ``lam`` or z0
    raises ``ValueError``.
    """
    tau, eta = lp.tau, lp.eta
    if lp.delta != 0.0 or eta != 0.0:
        validate_leverage(lp, problem.regularity)
    elif not tau > 0.0:
        raise TauTooSmall(f"tau={tau} must be positive")
    if not (0.0 < lam <= 1.0):
        raise ValueError("relaxation must lie in ]0, 1]")
    f, g = problem.f, problem.g
    gamma_f, gamma_g = (tau + eta) / lp.f_scale, (tau - eta) / lp.g_scale
    c0 = 2.0 * tau / (tau - eta)
    s = lam * c0  # positive: lam > 0 and tau > |eta|
    sf, g_in = lp.f_scale, (tau - eta) / ((tau + eta) * lp.g_scale)
    z = f.zero_point() if z0 is None else np.asarray(z0, dtype=float)
    if z_star is not None:
        z_star = np.asarray(z_star, dtype=float)
    elif problem.solution_oracle is not None and f.gradient is not None:
        z_star = fixed_point_oracle(problem, lp)

    T = None
    if f.resolvent is not None and g.resolvent is not None:
        (M_f, b1), (M_g, b2) = f.resolvent(gamma_f), g.resolvent(gamma_g)
        A1, A2 = M_f / sf, g_in * M_g
        T = np.eye(b1.size) + s * (c0 * (A2 @ A1) - A2 - A1)
        t = s * (c0 * A2.dot(b1) + b2 - b1)
    residuals, iterates, limit = (), (), 0  # the recorded prefix, and its bound
    if recording is not None:
        if T is not None:
            raise ValueError("only a solve that calls the proxes step by step can be recorded")
        recording._bind(f, g, lp, lam, z)
        residuals, iterates, limit = recording.residuals, recording.iterates, recording.limit
    monitor = _Monitor(config, z, z_star)
    needs_residual = monitor.needs_residual

    def steps(z: np.ndarray, begin: int, end: int) -> tuple[np.ndarray, bool]:
        """Iterations ``begin .. end-1`` from ``z``; True when the monitor stopped."""
        for n in range(begin, end):
            if T is not None:
                z_prev, z = z, T.dot(z) + t
                residual = _norm(z - z_prev) / s if needs_residual else 0.0
            elif n < len(iterates):
                residual, z = residuals[n], iterates[n]
            else:
                x = f.prox(gamma_f, z / sf)
                d = g.prox(gamma_g, (c0 * x - z) * g_in) - x
                z = z + s * d
                residual = _norm(d) if needs_residual or n < limit else 0.0
                if n < limit:
                    residuals.append(residual)
                    iterates.append(z)
            if monitor.update(n, residual if needs_residual else 0.0, z):
                return z, True
        return z, False

    if T is None:
        z, _ = steps(z, 0, config.max_iter)
    elif config.record_trace:
        Z = np.empty((BLOCK + 1, z.size))
        Z[0] = z
        zs = list(Z)  # views made once: indexing Z in the loop costs about a dot

        def advance(k: int) -> np.ndarray:
            for z_prev, z_next in zip(zs, zs[1 : k + 1]):
                T.dot(z_prev, out=z_next)
                z_next += t
            return _row_norms(Z[1 : k + 1] - Z[:k]) / s

        z = _step_blocks(monitor, config.max_iter, (Z,), advance)
    else:
        taken, d0 = config.max_iter, monitor.dist0
        if monitor.stopping != "residual" and b1.size < taken and 0.0 < d0 < math.inf:
            bound = config.tol * (d0 if monitor.stopping == "normalized_error" else 1.0)
            taken = b1.size
            # the paper's per-step factor, r1*r2 of rates.rate_bundle, relaxed;
            # its denominators are positive for the tau, eta and delta checked
            # above, and an overflow gives inf or NaN, which keeps the head
            r1, r2 = _factors(tau, eta, lp.delta, problem.regularity)
            r = (1.0 - lam) + lam * float(r1 * r2)
            # r^m > bound/d0: the predicted count log(bound/d0)/log(r) is above m
            if 0.0 < r < 1.0 and bound / d0 < r**taken:
                taken = 0
        z, stopped = steps(z, 0, taken)
        if not stopped and taken < config.max_iter and _contracts(T):
            skipped, e = _power_descent(T, z - z_star, bound, config.max_iter - 1 - taken)
            if skipped:
                z, taken = z_star + e, taken + skipped
        if not stopped:
            z, _ = steps(z, taken, config.max_iter)
    # the solution estimate belongs to the terminal z, not the previous one
    if monitor.trace.status != "nonfinite":
        return f.prox(gamma_f, z / sf), z, monitor.trace
    # the status already names the fault, so the prox of that z need not warn
    with np.errstate(invalid="ignore", over="ignore"):
        return f.prox(gamma_f, z / sf), z, monitor.trace


# perfbench/tracing.py wraps these two names; they go once it no longer does
def drs_solve(problem, tau, lam, config=SolverConfig(), z0=None, z_star=None):
    """Relaxed DRS: :func:`prs_lev_solve` at ``LeverageParams(0, 0, tau)``."""
    return prs_lev_solve(problem, LeverageParams(0.0, 0.0, tau), config, z0, z_star, lam)


def prs_classic_solve(problem, tau, config=SolverConfig(), z0=None, z_star=None):
    """Classical PRS: :func:`prs_lev_solve` at ``LeverageParams(0, 0, tau)``."""
    return prs_lev_solve(problem, LeverageParams(0.0, 0.0, tau), config, z0, z_star)


def fista_solve(
    problem: CompositeProblem, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveTrace]:
    """Accelerated proximal gradient with strong-convexity momentum.

    Gradient steps are taken on f and prox steps on g, from the origin; the
    g-first variant is this solve on ``problem.swap()``.  The step is f's
    cocoercivity modulus (1/Lipschitz) and the momentum is the constant
    ``(1 - sqrt(q)) / (1 + sqrt(q))`` with ``q = step * (rho + mu)``.  The
    objective is not monotone along the iterates, so stopping uses the
    prox-gradient residual ``||x_{k+1} - y_k||``, or the distance to
    ``solution_oracle`` for the distance-based rules.

    When f has a ``hessian`` and g a ``resolvent`` (two least-squares terms),
    the step is the affine map ``y -> P y + p`` of :func:`_forward_backward`,
    built once per solve by one m x m product: each step is then one
    matrix-vector product in place of a gradient, a prox and their vector
    work, with the same iterates up to the last bits.  The constant momentum
    makes the next ``y = (1 + beta) x - beta x_prev`` a fixed combination of
    the two newest iterates, so it is one product of the 2 x m rows
    ``(x_prev, x)`` with ``(-beta, 1 + beta)``: a step is ``P.dot``, ``+= p``
    and that product.  It rounds differently from the elementwise
    ``x + beta (x - x_prev)``, by a few ulps of ``(1 + beta)|x| + beta|x_prev|``.
    Otherwise each step calls both oracles and forms the momentum elementwise.
    The affine step runs in blocks (:func:`_step_blocks`), with the same
    operations and bits as one step at a time.

    Like every solver here, it stops at the first iterate whose metric is
    within ``tol``.  The distance tail is not monotone either: it can hover
    around ``tol``, so a change in the last bits of the arithmetic (another
    BLAS thread count, a reordered product) can move the iteration count.
    On perfbench's oneshot ``problem_18`` (seed 2027, m = 100), ``fista1``
    takes 1358 iterations under 1 OpenBLAS thread and 1409 under 2, with the
    affine step as with the two oracles.
    """
    f, g, reg = problem.f, problem.g, problem.regularity
    gamma = reg.alpha
    # the messages name no side: fista2 runs on the swapped pair
    if f.gradient is None:
        raise NotSmooth("FISTA's forward term needs a gradient oracle")
    if gamma <= 0.0:
        raise NotSmooth("FISTA's forward term needs a positive cocoercivity modulus")
    q = min(gamma * (reg.rho + reg.mu), 1.0)
    beta = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))

    x = f.zero_point()
    monitor = _Monitor(config, x, problem.solution_oracle)
    P, p = _forward_backward(f, g, gamma) or (None, None)
    if P is not None:
        X, Y = np.empty((2, BLOCK + 1, x.size))
        X[0] = Y[0] = x
        # views made once; pairs[j] is rows j and j + 1 of X: (x_prev, x_next)
        xs, ys, pairs = list(X), list(Y), [X[j : j + 2] for j in range(BLOCK)]
        coef = np.array([-beta, 1.0 + beta])

        def advance(k: int) -> np.ndarray:
            for y, x_next, pair, y_next in zip(ys, xs[1 : k + 1], pairs, ys[1 : k + 1]):
                P.dot(y, out=x_next)
                x_next += p
                # the momentum y_next = x_next + beta (x_next - x_prev) as one
                # product: (1 + beta) x_next - beta x_prev
                coef.dot(pair, out=y_next)
            return _row_norms(X[1 : k + 1] - Y[:k])

        return _step_blocks(monitor, config.max_iter, (X, Y), advance), monitor.trace
    y = x
    for n in range(config.max_iter):
        x_next = g.prox(gamma, y - gamma * f.gradient(y))
        residual = _norm(x_next - y)
        y = x_next + beta * (x_next - x)
        x = x_next
        if monitor.update(n, residual, x):
            break
    return x, monitor.trace
