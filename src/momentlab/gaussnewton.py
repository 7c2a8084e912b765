"""Damped Gauss-Newton for small nonlinear least-squares problems.

One solver covers the package's three uses: latent-space collision search,
invariant-based recovery, and on-manifold root finding for the codimension
probe. A retraction hook lets callers step on a manifold instead of in
coordinates. All three restart the solver from fresh starting points under
one policy, :func:`multistart`: try in order, stop at the first success.

Steps are Levenberg-Marquardt: the trial step for damping lam is the exact
minimizer of ||J delta + r||^2 + lam ||delta||^2. One thin SVD
J = U diag(s) V^T per outer iteration gives it for every lam as

    delta = -V (s / (s^2 + lam) * U^T r),

so a rejected step costs a vector rescale and one matrix-vector product
rather than a new factorization. The formula holds for tall, square and
wide J alike; for wide J the undamped limit is the minimal-norm step.

The damping starts each solve at LAM0. A trial is accepted exactly when
its objective is below the current one, so the accepted iterates are the
start plus the strict running minima of the residual evaluations, and a
caller can follow them from its own residual.

A solve ends when it stalls: right after an accepted trial that lowers the
objective f by at most F_RTOL * f, the relative-reduction stop of Moré's
Levenberg-Marquardt ("The Levenberg-Marquardt algorithm: implementation
and theory", 1978). A scale-free objective is flat along a ray, where
the accepted steps lower f by rounding-level amounts; without this stop a
solve there keeps sliding along the ray until its step is shorter than
STEP_TOL or its damping passes LAM_MAX.

The normal matrix J^T J is neither formed nor factored: its condition
number is the square of J's, and for the wide codimension-probe systems
(d up to a few hundred columns, a handful of rows) a d x d factorization
costs more than the SVD of the R x d Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GaussNewtonResult", "damped_gauss_newton", "multistart"]

#: A solve starts at damping LAM0. It ends once a step is shorter than
#: STEP_TOL, once the damping, grown tenfold per rejected step, exceeds
#: LAM_MAX, or once an accepted step lowers the objective f by at most
#: F_RTOL * f.
LAM0 = 1e-8
STEP_TOL = 1e-14
LAM_MAX = 1e12
F_RTOL = 1e-12


@dataclass
class GaussNewtonResult:
    x: object
    f: float            # final sum of squared residuals
    iterations: int
    converged: bool


def damped_gauss_newton(
    residual: Callable,
    jacobian: Callable,
    x0,
    retract: Callable | None = None,
    max_iter: int = 500,
    f_tol: float = 1e-28,
) -> GaussNewtonResult:
    """Minimize ||residual(x)||^2 from x0.

    residual(x) -> (m,) array; jacobian(x) -> (m, d) array in the step
    coordinates; retract(x, delta) -> new point (default: x + delta).
    ``residual`` is called at x0 and then once per trial point. A trial is
    accepted exactly when its objective is strictly below the current one,
    which starts as x0's: the accepted points are where the strict running
    minimum of the evaluations fell, and the returned ``x`` is the last of
    them, or x0. The damping starts at ``LAM0``.

    The solve stalls, and ends at the accepted trial, when that trial lowers
    the objective f by at most ``F_RTOL * f``. It also ends when the
    iteration count reaches ``max_iter``, when the objective is at most
    ``f_tol``, or when no trial is accepted before the step is shorter than
    ``STEP_TOL`` or the damping exceeds ``LAM_MAX``.

    ``jacobian(x)`` is only ever called with the very object last passed to
    ``residual``: x0 before any trial, and then an accepted trial right
    after its evaluation. So ``jacobian`` may reuse what ``residual``
    computed at that point instead of evaluating it again.

    Convergence means the final objective dropped below ``f_tol``; a result
    with ``converged=False`` still carries the best iterate found.
    """
    if retract is None:
        retract = lambda x, delta: x + delta

    x = x0
    lam = LAM0
    r = np.asarray(residual(x), dtype=float)
    f = float(r @ r)
    it = 0
    for it in range(1, max_iter + 1):
        if f <= f_tol:
            return GaussNewtonResult(x, f, it - 1, True)
        J = np.asarray(jacobian(x), dtype=float)
        try:
            U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        except np.linalg.LinAlgError:   # a Jacobian that is not finite
            return GaussNewtonResult(x, f, it, False)
        c = U.T @ r
        sv2 = sv * sv
        accepted = False
        while lam <= LAM_MAX:
            step = -((sv / (sv2 + lam) * c) @ Vt)
            if np.sqrt(step @ step) <= STEP_TOL:
                break
            x_new = retract(x, step)
            r_new = np.asarray(residual(x_new), dtype=float)
            f_new = float(r_new @ r_new)
            if f_new < f:
                if f - f_new <= F_RTOL * f:
                    return GaussNewtonResult(x_new, f_new, it, f_new <= f_tol)
                x, r, f = x_new, r_new, f_new
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            return GaussNewtonResult(x, f, it, f <= f_tol)
    return GaussNewtonResult(x, f, it, f <= f_tol)


def multistart(attempt: Callable[[], object], restarts: int, succeeded: Callable) -> list:
    """Call ``attempt()`` up to ``restarts`` times, stopping after a success.

    Returns every attempt's result in order, the first one for which
    ``succeeded`` holds last, so ``len(results)`` is the number of restarts
    used. ``attempt`` draws its own starting point and runs its own solve.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    results = [attempt()]
    while len(results) < restarts and not succeeded(results[-1]):
        results.append(attempt())
    return results
