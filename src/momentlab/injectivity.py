"""Empirical injectivity experiments for block second-moment measurements.

Three instruments:

* :func:`collision_search` hunts for a pair of distinct (non-sign-related)
  prior points whose mixed measurements coincide -- a witness against
  injectivity.
* :func:`brute_force_collision_oracle` checks the pairs of a dense latent
  grid (for a cone prior, those with a point on the box boundary),
  independent of the optimizer, for latent dimension <= 2.
* :func:`codimension_probe` finds a mixing that confuses a fixed pair
  (x, y) and estimates the local dimension of the set of such mixings from
  the rank of the constraint Jacobian on the manifold tangent space. On
  SO(N) each Gauss-Newton step moves by the Cayley transform of a skew
  generator K, which stays exactly on SO(N) and agrees with exp(K) to
  first order.

Verdict thresholds are fixed and scale-aware: measurements are quadratic,
so a residual is compared against ``RESIDUAL_TOL * s**2`` and a separation
against ``SEPARATION_TOL * s`` with s the larger signal norm. This keeps
verdicts invariant under rescaling a candidate pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussnewton import damped_gauss_newton, linearized, multistart
from .measurements import BlockStructure, matvec, separable_measurement
from .priors import (
    SparsePrior,
    as_rng,
    chart_stack,
    chart_walk,
    check_prior,
    is_cone,
    latent_parametrizations,
    numerical_rank,
    prior_charts,
    sample_mixing,
    walk_jacobian,
)

__all__ = [
    "CollisionReport",
    "CodimensionEstimate",
    "collision_search",
    "brute_force_collision_oracle",
    "codimension_probe",
    "solution_dim_bound",
    "regime_label",
]

#: Collision verdict thresholds (see module docstring for scaling).
RESIDUAL_TOL = 1e-8
SEPARATION_TOL = 1e-3

#: Weight of the separation penalty residual in the search objective.
PENALTY_WEIGHT = 1e2

#: A codimension probe's solve succeeds once its residual norm is below this,
#: and stops after PROBE_MAX_ITER iterations.
PROBE_RESIDUAL_TARGET = 1e-11
PROBE_MAX_ITER = 200

#: A collision search's solve stops after SEARCH_MAX_ITER iterations (see
#: :func:`collision_search`).
SEARCH_MAX_ITER = 100

#: The grid oracle compares its grid points with the points after them in
#: chunks of rows, each of at most this many point pairs (32 rows of a
#: 41 x 41 grid, whose arrays stay in cache) unless two rows alone hold more.
ORACLE_CELLS = 32 * 41**2

#: The grid oracle evaluates at most this many points P = charts x grid^K
#: (a 200 x 200 grid of one chart), so its ~P^2/2 pairs stay bounded.
ORACLE_POINTS = 200**2


@dataclass
class CollisionReport:
    """Outcome of a collision hunt.

    ``residual`` is the raw measurement gap ||P(x;A) - P(y;A)||_2 and
    ``separation`` is min(||x-y||, ||x+y||); ``scale`` is max(||x||, ||y||)
    against which the verdict thresholds are applied. ``solves_at_budget``
    counts the search's solves that ran to ``SEARCH_MAX_ITER`` iterations.
    """

    x: np.ndarray
    y: np.ndarray
    residual: float
    separation: float
    scale: float
    restarts_used: int
    converged: bool = True
    solves_at_budget: int = 0

    @property
    def verdict(self) -> str:
        """``"collision"`` or ``"no-collision-found"``, from the fixed thresholds."""
        hit = _is_collision(self.residual, self.separation, self.scale)
        return "collision" if hit else "no-collision-found"


@dataclass
class CodimensionEstimate:
    """Rank-based dimension estimate of the mixings confusing a fixed pair.

    ``solution`` is the mixing found on the manifold (None if no restart
    converged).
    """

    ambient_dim: int
    estimated_solution_dim: int | None
    theoretical_bound: int
    converged: bool
    residual: float
    restarts_used: int
    solution: np.ndarray | None = None


def _norm(v):
    """The 2-norm of a 1-d vector, with the bits of ``np.linalg.norm(v)``."""
    return np.sqrt(v @ v)


def _is_collision(residual, separation, scale, residual_tol=RESIDUAL_TOL,
                  separation_tol=SEPARATION_TOL):
    """The collision verdict; only the search's early stop passes other thresholds."""
    return (
        scale > 0
        and residual <= residual_tol * scale**2
        and separation >= separation_tol * scale
    )


class _PairTracker:
    """Keeps the best separated candidate seen across all GN iterates."""

    def __init__(self):
        self.best = None        # (normalized residual, raw, sep, scale, x, y)
        self.fallback = None

    def update(self, x, y, raw_residual, sep, s):
        if s > 0 and sep >= SEPARATION_TOL * s:
            nres = raw_residual / s**2
            if self.best is None or nres < self.best[0]:
                self.best = (nres, raw_residual, sep, s, x.copy(), y.copy())
        if self.fallback is None or raw_residual < self.fallback[1]:
            self.fallback = (np.inf, raw_residual, sep, s, x.copy(), y.copy())

    def result(self):
        return self.best if self.best is not None else self.fallback


def collision_search(
    prior,
    A,
    blocks: BlockStructure,
    restarts: int,
    seed,
) -> CollisionReport:
    """Multi-start search for two prior points with equal mixed measurements.

    Minimizes a scale-free objective: the measurement gap normalized by the
    squared signal scale, plus a hinge penalty that pushes candidates away
    from the trivial x = +-y pairs. Deterministic given the seed. If a
    qualifying collision appears, remaining restarts are skipped.

    The reported pair is the best separated one (least raw / s**2) over the
    accepted iterates of every solve, or, if none is separated, the one with
    the least raw gap.

    Each solve gets ``SEARCH_MAX_ITER`` iterations. A collision is a
    zero-residual basin, where Gauss-Newton converges fast: over the test
    suite, the collide presets, threshold sweeps and biased-prior searches,
    every solve that found a collision ended within 47 iterations. A longer
    solve crawls along the separation hinge (sep / s about
    ``SEPARATION_TOL``) toward a nonzero residual, where Gauss-Newton
    converges only linearly: each accepted step lowers the objective by
    about 1e-5 of itself. So a ``no-collision-found`` report gives the best
    pair of the budgeted solves, and ``solves_at_budget`` counts the solves
    that the budget ended.

    The objective is scale-free: the gap is divided by s**2. On a cone prior
    (:func:`.priors.is_cone`: a network with no bias and positively
    homogeneous activations, or any sparse prior), scaling the latent pair
    scales the signal pair, so the objective is flat along the ray through
    a pair. Before the solver stopped on a stall (``F_RTOL`` in
    :mod:`.gaussnewton`), a solve that found no collision kept accepting
    steps whose rounding-level decreases slid its pair along that ray, and
    ended with a pair shrunk toward zero by about 1e12 (the normalized
    residual unchanged). It now stops where its progress stalls, and its
    pair keeps its scale.

    A solve's latent point u = [z1; z2] is walked as one two-lane stack
    through the stack of its two charts, and its Jacobian reuses what the
    residual computed at the same u (:func:`.gaussnewton.linearized`): the
    walk, the mixed signals, the norms and the separation. The mixing and
    the prior's output length are checked once, so the objective runs the
    unchecked cores of the chart walk and of the measurement.
    """
    A = blocks.check_mixing(A)
    check_prior(prior, blocks.N)
    max_iter = SEARCH_MAX_ITER
    rng = as_rng(seed)
    tracker = _PairTracker()
    spen = np.sqrt(PENALTY_WEIGHT)
    params = latent_parametrizations(prior, rng)

    def attempt():
        z1, net1 = next(params)
        z2, net2 = next(params)
        K = z1.shape[0]
        pair = chart_stack((net1, net2))
        u0 = np.concatenate([z1, z2])
        f_min = None

        def evaluate(u):
            # The solver accepts exactly the points where the strict running
            # minimum of its objective falls, so those are the ones tracked.
            nonlocal f_min
            walk = pair.walk(u.reshape(2, K))
            S = matvec(A, walk.x)
            P = blocks.energies(S)
            x, y = walk.x
            rm = P[0] - P[1]
            s = max(_norm(x), _norm(y))
            d_minus, d_plus = _norm(x - y), _norm(x + y)
            sep = min(d_minus, d_plus)
            if s <= 0.0:
                r = np.concatenate([rm, [spen * SEPARATION_TOL]])
            else:
                r = np.concatenate([rm / s**2, [spen * max(0.0, SEPARATION_TOL - sep / s)]])
            f = float(r @ r)
            if f_min is None or f < f_min:
                f_min = f
                tracker.update(x, y, _norm(rm), sep, s)

            def jac():
                J = np.zeros((blocks.R + 1, 2 * K))
                if s <= 0.0:
                    return J
                G = walk_jacobian(walk)
                JG = blocks.energy_jacobian(S, A) @ G / s**2
                J[:-1, :K] = JG[0]
                J[:-1, K:] = -JG[1]
                if sep > 1e-14 and SEPARATION_TOL - sep / s > 0:
                    sign = 1.0 if d_minus <= d_plus else -1.0
                    diff = (x - sign * y) / sep
                    # scale s frozen within one linearization
                    J[-1, :K] = (-spen / s) * (diff @ G[0])
                    J[-1, K:] = (-spen / s) * (-sign * (diff @ G[1]))
                return J

            return r, jac

        residual, jacobian = linearized(evaluate)
        return damped_gauss_newton(residual, jacobian, u0, max_iter=max_iter, f_tol=1e-30)

    def found(_):
        cand = tracker.best
        return cand is not None and _is_collision(
            cand[1], cand[2], cand[3], 0.01 * RESIDUAL_TOL, 1.05 * SEPARATION_TOL
        )

    solves = multistart(attempt, restarts, found)

    nres, raw, sep, s, x, y = tracker.result()
    return CollisionReport(
        x=x,
        y=y,
        residual=float(raw),
        separation=float(sep),
        scale=float(s),
        restarts_used=len(solves),
        converged=bool(any(gn.converged for gn in solves) or _is_collision(raw, sep, s)),
        solves_at_budget=sum(gn.iterations >= max_iter for gn in solves),
    )


def brute_force_collision_oracle(
    prior,
    A,
    blocks: BlockStructure,
    grid_points_per_axis: int,
) -> CollisionReport:
    """Collision check over the point pairs of a uniform latent grid over [-1, 1]^K.

    Independent of the optimizer: evaluates every chart of the prior (for
    sparse priors, every support) on the grid and scans the point pairs for
    the minimal measurement gap among sufficiently separated pairs. Only
    latent dimension K <= 2 is supported, and at most ``ORACLE_POINTS``
    grid points over all charts, which bounds the time.

    When every chart is a cone (:func:`.priors.is_cone`: no bias and
    positively homogeneous activations, so every sparse prior), scaling
    both points of a pair by t > 0 scales the gap by t**2 and the
    separation and scale by t, so the normalized verdict quantities do not
    change. Every pair in the box is then a positive multiple of a pair
    with a point on the box boundary (||z||_inf = 1), and only pairs with a
    boundary point are scanned: the boundary points of every chart come
    first, in grid order, then the interior points, and the rows stop at
    the boundary count. On a 41 x 41 grid that is 160 rows against 1681
    points, about a fifth of the pairs. Pairs of two interior grid points
    are skipped. Any other prior scans every pair, in grid order.

    The P grid points are scanned in chunks of consecutive rows: a chunk
    pairs its rows i with the points j from its first row on, and a
    triangle mask drops the pairs with j <= i. A chunk has
    ``ORACLE_CELLS // P`` rows but never fewer than two, and never more
    than P, which a small grid would otherwise ask for. So a chunk's Gram
    product has at least two rows and two columns: with one of either it
    goes down BLAS's matrix-vector path and rounds differently. A last
    chunk that would hold one boundary row takes the next row too and
    masks its pairs out. Every chunk works in place in the same seven
    arrays of ``rows * P`` entries (five float, two bool), made once per
    call, so beyond the grid the memory is about five float arrays of one
    chunk. Each pair's gap, separation and scale come from its two Gram
    entries and the two points' norms by the same operations in the same
    order for any chunk size, and the first strict minimum in row-major
    order wins. So the chunk size changes no bit of the report where BLAS
    gives a Gram entry the same bits in chunks of either size. Not every
    OpenBLAS kernel does: on the test instances SkylakeX, Haswell and
    Nehalem give some Gram entries other bits at another chunk size (Sandy
    Bridge gives none), and there a near tie could go to another pair. No
    report changed a bit under any of the four.

    The Gram form only chooses the pair. Its cancellation leaves a floor
    near sqrt(eps) ||m|| on a gap, which can put an exact collision above
    ``RESIDUAL_TOL``, so the report gives the chosen pair's gap
    ||m_i - m_j|| and separation min(||x - y||, ||x + y||) from its own
    vectors.
    """
    K = prior.latent_dim
    if K > 2:
        raise ValueError(f"oracle supports latent dimension <= 2, got {K}")
    # a sparse prior's charts are counted before any is built
    count = math.comb(prior.output_dim, K) if isinstance(prior, SparsePrior) else 1
    P = count * grid_points_per_axis**K
    if P > ORACLE_POINTS:
        raise ValueError(
            f"{count} charts x {grid_points_per_axis}^{K} grid = {P} points, "
            f"above the cap of {ORACLE_POINTS}"
        )
    charts = prior_charts(prior)

    axis = np.linspace(-1.0, 1.0, grid_points_per_axis)
    if K == 1:
        lat = axis[:, None]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        lat = np.column_stack([g1.ravel(), g2.ravel()])
    X = np.concatenate([chart_walk(net, lat).x for net in charts])
    if all(map(is_cone, charts)):
        # the boundary points of every chart, then the interior points
        edge = np.tile(np.abs(lat).max(axis=1) == 1.0, len(charts))
        X = X[np.concatenate([np.flatnonzero(edge), np.flatnonzero(~edge)])]
        stop = int(edge.sum())
    else:
        stop = P
    Meas = separable_measurement(X, A, blocks)

    norms2 = np.einsum("ij,ij->i", X, X)
    norms = np.sqrt(norms2)
    mnorm2 = np.einsum("ij,ij->i", Meas, Meas)
    # one row would round differently (see above); more than P are never used
    rows = max(2, min(P, ORACLE_CELLS // P))
    # a chunk of r rows and c columns works on contiguous (r, c) views of
    # these arrays' first r * c entries
    buffers = [np.empty(rows * P) for _ in range(5)] + [np.empty(rows * P, bool) for _ in range(2)]
    # the pairs j > i of a chunk's first columns: column jj is point i0 + jj,
    # so row ii keeps it iff jj > ii, which every column from the row count on does
    upper = np.triu(np.ones((rows, rows), bool), k=1)

    # (normalized residual, scale, i, j); with no separated pair on the grid
    # (e.g. a constant-zero prior) the first two points are reported
    best = (np.inf, norms.max(), 0, min(1, P - 1))
    for i0 in range(0, min(stop, P - 1), rows):
        # pair rows i0 .. i1-1 with the points j >= i0 only: j <= i repeats a
        # pair or pairs a point with itself
        I, J = slice(i0, min(i0 + rows, max(stop, i0 + 2), P)), slice(i0, P)
        r, c = I.stop - i0, P - i0
        gram, sep, scale, res2, nres, ok, positive = (b[: r * c].reshape(r, c) for b in buffers)
        # min(||x - y||, ||x + y||)^2 = ||x||^2 + ||y||^2 - 2 |<x, y>|, each
        # element by the operations of the plain form, in its order
        np.matmul(X[I], X[J].T, out=gram)
        np.abs(gram, out=gram)
        gram *= 2
        np.add(norms2[I, None], norms2[None, J], out=sep)
        sep -= gram
        np.maximum(sep, 0.0, out=sep)
        np.sqrt(sep, out=sep)
        np.maximum(norms[I, None], norms[None, J], out=scale)
        np.matmul(Meas[I], Meas[J].T, out=gram)
        gram *= 2
        np.add(mnorm2[I, None], mnorm2[None, J], out=res2)
        res2 -= gram
        np.maximum(res2, 0.0, out=res2)
        np.multiply(scale, SEPARATION_TOL, out=gram)
        np.greater_equal(sep, gram, out=ok)
        np.greater(scale, 0, out=positive)
        ok &= positive
        ok[:, :r] &= upper[:r, :r]
        ok[stop - i0:] = False      # a row past the boundary rows, taken for the floor of two
        # sqrt(res2) / scale**2 where ok holds, inf elsewhere
        nres.fill(np.inf)
        np.sqrt(res2, out=nres, where=ok)
        np.square(scale, out=gram)
        np.divide(nres, gram, out=nres, where=ok)
        ii, jj = np.unravel_index(np.argmin(nres), nres.shape)
        if nres[ii, jj] < best[0]:
            pair = (ii, jj)
            best = (nres[pair], scale[pair], i0 + ii, i0 + jj)

    _, s, i, j = best
    return CollisionReport(
        x=X[i],
        y=X[j],
        residual=float(np.linalg.norm(Meas[i] - Meas[j])),
        separation=float(min(np.linalg.norm(X[i] - X[j]), np.linalg.norm(X[i] + X[j]))),
        scale=float(s),
        restarts_used=0,
    )


# ---------------------------------------------------------------------------
# Codimension probe
# ---------------------------------------------------------------------------

def _invariant_count(R: int, kind: str) -> int:
    """The independent invariants r of R blocks under a generic mixing of ``kind``.

    r = R under a general-linear mixing. An orthogonal mixing keeps
    ||A x||^2 = ||x||^2, the sum of the R block energies, so under a
    special-orthogonal one r = R - 1.
    """
    if kind == "general-linear":
        return R
    if kind == "special-orthogonal":
        return R - 1
    raise ValueError(f"unknown mixing kind {kind!r}")


def solution_dim_bound(manifold: str, N: int, R: int) -> int:
    """Upper bound on the dimension of the mixings confusing a generic pair.

    The manifold's dimension less the pair's independent invariants:
    N^2 - R on general-linear, dim SO(N) - (R - 1) on special-orthogonal.
    """
    dim = N * N if manifold == "general-linear" else N * (N - 1) // 2
    return dim - _invariant_count(R, manifold)


@lru_cache(maxsize=None)
def _probe_geometry(manifold: str, blocks: BlockStructure) -> tuple:
    """The index arrays of the probe's constraint Jacobian for one layout.

    Built once per (manifold, blocks) and shared read-only by every probe.
    general-linear: ``(block_of_row, rows)``, where row j of A lies in block
    ``block_of_row[j]`` and ``rows`` is 0..N-1. special-orthogonal:
    ``(ab, ba, at_a, at_b)``. The tangent coordinates are the generators
    e_a e_b^T - e_b e_a^T, a < b, in the order of ``np.triu_indices(N, 1)``;
    ``ab`` and ``ba`` are the flat positions of (a, b) and (b, a) in an
    (N, N) array, and at_a, at_b those of a generator's entries in an (R, T)
    Jacobian, in the rows of the blocks of rows a and b.
    """
    N, R = blocks.N, blocks.R
    block_of_row = np.repeat(np.arange(R), blocks.dims)
    if manifold == "general-linear":
        geometry = (block_of_row, np.arange(N))
    else:
        a_idx, b_idx = np.triu_indices(N, 1)
        cols = np.arange(a_idx.size)
        geometry = (
            a_idx * N + b_idx,
            b_idx * N + a_idx,
            block_of_row[a_idx] * cols.size + cols,
            block_of_row[b_idx] * cols.size + cols,
        )
    for cached in geometry:             # shared by every caller
        cached.flags.writeable = False
    return geometry


def codimension_probe(
    x: np.ndarray,
    y: np.ndarray,
    manifold: str,
    blocks: BlockStructure,
    seed,
    restarts: int,
) -> CodimensionEstimate:
    """Estimate dim{A on manifold : P(x;A) = P(y;A)} at a found solution.

    Runs projected Gauss-Newton to a mixing satisfying the R constraints,
    then subtracts the numerical rank of the constraint Jacobian (restricted
    to the manifold tangent space) from the tangent dimension. Orthogonal
    mixings preserve total energy, so on the special-orthogonal manifold y
    is rescaled to ||x|| first -- without that the constraint set is empty.

    On SO(N) a step's tangent coordinates fill the upper triangle of a skew
    generator K, and the step moves A to the Cayley transform
    (I - K/2)^-1 (I + K/2) A, one linear solve. For skew K the transform is
    exactly orthogonal with determinant +1, and it agrees with exp(K) up to
    a term of order ||K||^3 (Wen & Yin, "A feasible method for optimization
    with orthogonality constraints", 2013), so the Jacobian in the generator
    coordinates is the retraction's own at a zero step. The Jacobian's index
    arrays come from ``_probe_geometry``, built once per layout.
    """
    x = blocks.check_signal(np.asarray(x, dtype=float))
    y = blocks.check_signal(np.asarray(y, dtype=float))
    N, R = blocks.N, blocks.R
    nx, ny = _norm(x), _norm(y)
    if nx == 0 or ny == 0:
        raise ValueError("x and y must be nonzero")
    if manifold == "special-orthogonal":
        y = y * (nx / ny)
        ny = _norm(y)
    if min(_norm(x - y), _norm(x + y)) <= 1e-6 * nx:
        raise ValueError("x and y are equivalent up to sign; probe undefined")

    # joint normalization keeps tolerances meaningful and the set unchanged
    pair = np.stack([x, y]) / max(nx, ny)
    x, y = pair

    bound = solution_dim_bound(manifold, N, R)
    D = x[:, None] * x - y[:, None] * y     # outer(x, x) - outer(y, y)
    rng = as_rng(seed)

    def resid(A):
        # every A is a draw or a retraction of one, so (N, N) floats
        P = blocks.energies(matvec(A, pair))
        return P[0] - P[1]

    if manifold == "general-linear":
        tangent_dim = N * N
        block_of_row, rows = _probe_geometry(manifold, blocks)

        def jac(A):
            G = 2.0 * (A @ D)       # row j: gradient of its block constraint wrt w_j
            J = np.zeros((R, N, N))
            J[block_of_row, rows] = G   # J[k, j] is the slice j*N:(j+1)*N of row k
            return J.reshape(R, tangent_dim)

        retract = lambda A, step: A + step.reshape(N, N)
        draw = lambda: rng.normal(size=(N, N))
    else:       # special-orthogonal: solution_dim_bound rejected any other
        tangent_dim = N * (N - 1) // 2
        ab, ba, at_a, at_b = _probe_geometry(manifold, blocks)
        eye = np.eye(N)

        def jac(A):
            # column of generator (a, b): rows a and b of A move
            H = (2.0 * (A @ D)) @ A.T   # H[j, c] = <grad_j, row c of A>
            J = np.zeros(R * tangent_dim)
            J[at_a] = H.take(ab)
            J[at_b] -= H.take(ba)
            return J.reshape(R, tangent_dim)

        def retract(A, step):
            half = 0.5 * step
            W = np.zeros(N * N)     # K / 2, skew
            W[ab] = half
            W[ba] = -half
            W = W.reshape(N, N)
            return np.linalg.solve(eye - W, A + W @ A)

        draw = lambda: sample_mixing(N, "special-orthogonal", rng)

    def attempt():
        gn = damped_gauss_newton(
            resid, jac, draw(), retract=retract, max_iter=PROBE_MAX_ITER,
            f_tol=PROBE_RESIDUAL_TARGET**2,
        )
        return float(np.sqrt(gn.f)), gn.x

    tries = multistart(attempt, restarts, lambda t: t[0] <= PROBE_RESIDUAL_TARGET)
    res_norm, A = tries[-1]
    converged = res_norm <= PROBE_RESIDUAL_TARGET
    if converged:
        # the same singular values as J's, from the tall orientation, which is cheaper
        dim = tangent_dim - numerical_rank(np.linalg.svd(jac(A).T, compute_uv=False))
    else:
        dim, res_norm, A = None, min(r for r, _ in tries), None
    return CodimensionEstimate(
        ambient_dim=tangent_dim,
        estimated_solution_dim=dim,
        theoretical_bound=bound,
        converged=converged,
        residual=res_norm,
        restarts_used=len(tries),
        solution=A,
    )


# ---------------------------------------------------------------------------
# Injectivity regimes
# ---------------------------------------------------------------------------

def regime_label(R: int, M: int, kind: str) -> str:
    """Which injectivity regime a row with R blocks and prior dimension M is in.

    With r the independent invariants under a generic mixing of ``kind``
    (R on general-linear, R - 1 on special-orthogonal): all signals for
    r >= 2M + 1, generic signals for r >= M + 1. On the power-spectrum
    layout, R = floor(N/2) + 1, these read N >= 4M and N >= 2M on
    general-linear and N >= 4M + 2 and N >= 2M + 2 on special-orthogonal.
    An identity mixing is labeled ``non-generic``; neither that label nor
    ``below-threshold`` carries an expectation.
    """
    if kind == "identity":
        return "non-generic"
    r = _invariant_count(R, kind)
    if r >= 2 * M + 1:
        return "all-signals"
    if r >= M + 1:
        return "generic-signals"
    return "below-threshold"
