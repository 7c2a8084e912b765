"""Damped Gauss-Newton for small nonlinear least-squares problems.

One solver covers the package's three uses: latent-space collision search,
invariant-based recovery, and on-manifold root finding for the codimension
probe. A retraction hook lets callers step on a manifold instead of in
coordinates. All three restart the solver from fresh starting points under
one policy, :func:`multistart`: try in order, stop at the first success.

Steps are Levenberg-Marquardt: the trial step for damping lam is the exact
minimizer of ||J delta + r||^2 + lam ||delta||^2. One factorization of the
(m, d) Jacobian per outer iteration gives it for every lam, with s the
singular values of J and c = U^T r:

* tall or square J (m >= d), the thin SVD J = U diag(s) V^T:

      delta = -V (s / (s^2 + lam) * c);

* wide J (m < d), the eigendecomposition of the m x m Gram matrix
  J J^T = U diag(s^2) U^T:

      delta = -J^T U (c / (s^2 + lam)),

  the same step, written in J's row space, which holds it.

So a rejected step costs a vector rescale and one or two matrix-vector
products rather than a new factorization. For wide J the undamped limit is
the minimal-norm step.

The damping starts each solve at LAM0. A trial is accepted exactly when
its objective is below the current one, so the accepted iterates are the
start plus the strict running minima of the residual evaluations, and a
caller can follow them from its own residual. An acceptance divides the
damping by ten. A rejection multiplies it by ten, and raises it at once
to at least LAM_JUMP * s_min^2, s_min the smallest singular value of J:
below that damping every component of the step is within one percent of
the rejected one, so a trial there would only repeat it. A rank-deficient
J (s_min about 0) keeps the plain tenfold growth.

A solve ends when it stalls, right after an accepted trial, by either of
two relative-reduction stops (Moré, "The Levenberg-Marquardt algorithm:
implementation and theory", 1978; the ``ftol`` test of MINPACK's
``lmder``, Moré, Garbow and Hillstrom, "User Guide for MINPACK-1",
ANL-80-74, 1980). With f the objective before the trial and f_new after:

* F_RTOL: the trial lowers f by at most F_RTOL * f. A scale-free
  objective is flat along a ray, where the accepted steps lower f by
  rounding-level amounts, while a Jacobian that freezes the scale (as
  collision search's does) has the linear model still promise most of f;
  without this stop a solve there keeps sliding along the ray until its
  step is shorter than STEP_TOL or its damping passes LAM_MAX.
* FTOL: both the actual reduction f - f_new and the reduction pred that
  the linear model predicts for the step are at most FTOL * f, and the
  actual one is at most twice pred. From either factorization,
  pred = ||c||^2 - ||lam / (s^2 + lam) * c||^2. This ends a
  solve that has reached a nonzero minimum to about half the digits of f,
  MINPACK's default, and it needs the model's agreement, so a solve that
  only crawls across a plateau the model sees past goes on.

A tall J takes the SVD: the d x d normal matrix J^T J is never formed,
since its condition number is the square of J's. A wide J takes the m x m
Gram matrix J J^T, which squares the condition number too, for speed: on
the codimension probe's 9 x 256 and 11 x 190 Jacobians one eigh of it
costs 23-28 us against 85-87 us for the SVD (best of 20, one BLAS thread,
a 2-core Xeon VM). The squaring is safe on that traffic. On the 5 834
Jacobians of the probe benchmark's draws 0-19, every nonzero singular
value was at least 0.0015 times the largest, so each eigenvalue of J J^T
is good to about 1e-10 relative. SO(N)'s one exact null direction u
(energy conservation) adds next to nothing: both J^T u and the residual's
component along u are rounding. No singular value is divided by: the
eigenvalues are clamped at 0 and the step divides by s^2 + lam, so a zero
or rounding-negative eigenvalue still gives a finite step. A Gram matrix
that overflows or is not finite makes eigh raise, and the solve ends
unconverged at its current point, as it does for a Jacobian that the SVD
cannot factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GaussNewtonResult", "damped_gauss_newton", "linearized", "multistart"]

#: A solve starts at damping LAM0, and a rejected step raises the damping
#: tenfold and to at least LAM_JUMP * s_min^2. The solve ends once a step is
#: shorter than STEP_TOL, once the damping exceeds LAM_MAX, or once an
#: accepted step lowers the objective f by at most F_RTOL * f, or by at most
#: FTOL * f where the linear model predicts so too (module docstring).
LAM0 = 1e-8
LAM_JUMP = 1e-2
STEP_TOL = 1e-14
LAM_MAX = 1e12
F_RTOL = 1e-12
FTOL = float(np.sqrt(np.finfo(float).eps))


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
    them, or x0. The damping starts at ``LAM0``; after a rejected trial it
    is at least ``LAM_JUMP`` times the smallest squared singular value of J.

    The solve stalls, and ends at the accepted trial, when that trial lowers
    the objective f by at most ``F_RTOL * f``, or by at most ``FTOL * f``
    while the linear model predicts a reduction of at most ``FTOL * f`` and
    at least half the actual one (MINPACK's ``ftol`` test). It also ends
    when the iteration count reaches ``max_iter``, when the objective is at
    most ``f_tol``, or when no trial is accepted before the step is shorter
    than ``STEP_TOL`` or the damping exceeds ``LAM_MAX``.

    ``jacobian(x)`` is only ever called with the very object last passed to
    ``residual``: x0 before any trial, and then an accepted trial right
    after its evaluation. So ``jacobian`` may reuse what ``residual``
    computed at that point instead of evaluating it again;
    :func:`linearized` builds such a pair from one function.

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
        wide = J.shape[0] < J.shape[1]
        try:
            if wide:
                with np.errstate(all="ignore"):     # eigh raises on an inf or NaN entry
                    gram = J @ J.T
                sv2, U = np.linalg.eigh(gram)
                sv2, U = np.maximum(sv2[::-1], 0.0), U[:, ::-1]
            else:
                U, sv, Vt = np.linalg.svd(J, full_matrices=False)
                sv2 = sv * sv
        except np.linalg.LinAlgError:   # a Jacobian or Gram matrix that is not finite
            return GaussNewtonResult(x, f, it, False)
        c = U.T @ r
        accepted = False
        while lam <= LAM_MAX:
            if wide:
                step = -((U @ (c / (sv2 + lam))) @ J)
            else:
                step = -((sv / (sv2 + lam) * c) @ Vt)
            if np.sqrt(step @ step) <= STEP_TOL:
                break
            x_new = retract(x, step)
            r_new = np.asarray(residual(x_new), dtype=float)
            f_new = float(r_new @ r_new)
            if f_new < f:
                drop = f - f_new
                if drop <= FTOL * f:
                    # the reduction the linear model predicts for this step
                    pred = c @ c - np.square(lam / (sv2 + lam) * c).sum()
                    if drop <= F_RTOL * f or (pred <= FTOL * f and drop <= 2.0 * pred):
                        return GaussNewtonResult(x_new, f_new, it, f_new <= f_tol)
                x, r, f = x_new, r_new, f_new
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam = max(10.0 * lam, LAM_JUMP * float(sv2[-1]))
        if not accepted:
            return GaussNewtonResult(x, f, it, f <= f_tol)
    return GaussNewtonResult(x, f, it, f <= f_tol)


def linearized(evaluate: Callable) -> tuple[Callable, Callable]:
    """The ``(residual, jacobian)`` pair of ``evaluate`` for :func:`damped_gauss_newton`.

    ``evaluate(x)`` returns ``(r, jac)``: the residual at x and a function of
    no argument that builds J at x from what ``evaluate`` computed. The
    solver asks for J only at the point of its last residual, so ``jac`` is
    kept for that one object, and runs only at the points the solver
    linearizes at: a rejected trial builds no Jacobian. Asking at any other
    object raises ``ValueError``.
    """
    x_at, jac = object(), None      # no point yet: jacobian(x) raises for every x

    def residual(x):
        nonlocal x_at, jac
        r, jac = evaluate(x)
        x_at = x
        return r

    def jacobian(x):
        if x is not x_at:
            raise ValueError("jacobian(x) is only defined at the point of the last residual(x)")
        return jac()

    return residual, jacobian


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
