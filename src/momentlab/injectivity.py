"""Empirical injectivity experiments for block second-moment measurements.

Three instruments:

* :func:`collision_search` hunts for a pair of distinct (non-sign-related)
  prior points whose mixed measurements coincide -- a witness against
  injectivity.
* :func:`brute_force_collision_oracle` checks all pairs on a dense latent
  grid, independent of the optimizer, for latent dimension <= 2.
* :func:`codimension_probe` finds a mixing that confuses a fixed pair
  (x, y) and estimates the local dimension of the set of such mixings from
  the rank of the constraint Jacobian on the manifold tangent space. On
  SO(N) each Gauss-Newton step moves along the exponential of a skew
  generator K, computed exactly in numpy from the symmetric
  eigendecomposition of K @ K.

Verdict thresholds are scale-aware: measurements are quadratic, so a
residual is compared against ``residual_tol * s**2`` and a separation
against ``separation_tol * s`` with s the larger signal norm. This keeps
verdicts invariant under rescaling a candidate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussnewton import damped_gauss_newton, multistart
from .measurements import (
    BlockStructure,
    block_structure_for_power_spectrum,
    measurement_jacobian,
    separable_measurement,
)
from .priors import (
    as_rng,
    generator_forward,
    generator_jacobian,
    latent_parametrizations,
    numerical_rank,
    prior_charts,
    sample_mixing,
)

__all__ = [
    "CollisionReport",
    "CodimensionEstimate",
    "collision_search",
    "brute_force_collision_oracle",
    "codimension_probe",
    "threshold_sweep",
    "solution_dim_bound",
    "regime_label",
    "SWEEP_CSV_HEADER",
]

#: Collision verdict thresholds (see module docstring for scaling).
RESIDUAL_TOL = 1e-8
SEPARATION_TOL = 1e-3

#: Weight of the separation penalty residual in the search objective.
PENALTY_WEIGHT = 1e2

#: A codimension probe's solve succeeds once its residual norm is below this.
PROBE_RESIDUAL_TARGET = 1e-11

#: The grid oracle compares its grid points with the points after them in
#: chunks of rows, each of at most this many point pairs (512 rows of a
#: 41 x 41 grid) unless one row alone holds more.
_ORACLE_CELLS = 512 * 41**2

#: The grid oracle evaluates at most this many points P = charts x grid^K
#: (a 200 x 200 grid of one chart), so its ~P^2/2 pairs stay bounded.
_ORACLE_POINTS = 200**2

SWEEP_CSV_HEADER = "N,M,regime,kind,seed,verdict,residual,separation"


@dataclass
class CollisionReport:
    """Outcome of a collision hunt.

    ``residual`` is the raw measurement gap ||P(x;A) - P(y;A)||_2 and
    ``separation`` is min(||x-y||, ||x+y||); ``scale`` is max(||x||, ||y||)
    against which the verdict thresholds were applied.
    """

    x: np.ndarray
    y: np.ndarray
    residual: float
    separation: float
    scale: float
    verdict: str                    # "collision" | "no-collision-found"
    restarts_used: int
    converged: bool = True

    def __post_init__(self):
        if self.verdict not in ("collision", "no-collision-found"):
            raise ValueError(f"bad verdict {self.verdict!r}")


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


def _is_collision(residual, separation, scale, residual_tol, separation_tol):
    return (
        scale > 0
        and residual <= residual_tol * scale**2
        and separation >= separation_tol * scale
    )


class _PairTracker:
    """Keeps the best separated candidate seen across all GN iterates."""

    def __init__(self, separation_tol):
        self.separation_tol = separation_tol
        self.best = None        # (normalized residual, raw, sep, scale, x, y)
        self.fallback = None

    def update(self, x, y, raw_residual):
        s = max(np.linalg.norm(x), np.linalg.norm(y))
        sep = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
        if s > 0 and sep >= self.separation_tol * s:
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
    restarts: int = 200,
    seed=0,
    residual_tol: float = RESIDUAL_TOL,
    separation_tol: float = SEPARATION_TOL,
) -> CollisionReport:
    """Multi-start search for two prior points with equal mixed measurements.

    Minimizes a scale-free objective: the measurement gap normalized by the
    squared signal scale, plus a hinge penalty that pushes candidates away
    from the trivial x = +-y pairs. Deterministic given the seed. If a
    qualifying collision appears, remaining restarts are skipped.
    """
    rng = as_rng(seed)
    tracker = _PairTracker(separation_tol)
    spen = np.sqrt(PENALTY_WEIGHT)
    params = latent_parametrizations(prior, rng)

    def attempt():
        z1, net1 = next(params)
        z2, net2 = next(params)
        K = z1.shape[0]
        u0 = np.concatenate([z1, z2])

        # damped_gauss_newton calls on_iterate with the very array whose
        # residual it has just evaluated, so on_iterate reuses that
        # evaluation's signals and measurement gap instead of recomputing them.
        last = None

        def residual(u):
            nonlocal last
            x, y = generator_forward(net1, u[:K]), generator_forward(net2, u[K:])
            s = max(np.linalg.norm(x), np.linalg.norm(y))
            rm = separable_measurement(x, A, blocks) - separable_measurement(y, A, blocks)
            last = (u, x, y, rm)
            if s <= 0.0:
                return np.concatenate([rm, [spen * separation_tol]])
            sep = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
            return np.concatenate([rm / s**2, [spen * max(0.0, separation_tol - sep / s)]])

        def jacobian(u):
            x, G1 = generator_jacobian(net1, u[:K])
            y, G2 = generator_jacobian(net2, u[K:])
            s = max(np.linalg.norm(x), np.linalg.norm(y))
            if s <= 0.0:
                return np.zeros((blocks.R + 1, 2 * K))
            Jx = measurement_jacobian(x, A, blocks) @ G1 / s**2
            Jy = measurement_jacobian(y, A, blocks) @ G2 / s**2
            Jm = np.hstack([Jx, -Jy])
            d_minus = np.linalg.norm(x - y)
            d_plus = np.linalg.norm(x + y)
            sep = min(d_minus, d_plus)
            row = np.zeros(2 * K)
            if sep > 1e-14 and separation_tol - sep / s > 0:
                sign = 1.0 if d_minus <= d_plus else -1.0
                diff = (x - sign * y) / sep
                # scale s frozen within one linearization
                row = (-spen / s) * np.concatenate(
                    [diff @ G1, -sign * (diff @ G2)]
                )
            return np.vstack([Jm, row[None, :]])

        def on_iterate(u, r):
            evaluated_u, x, y, rm = last
            assert evaluated_u is u
            tracker.update(x, y, np.linalg.norm(rm))

        res = damped_gauss_newton(
            residual, jacobian, u0, max_iter=500, f_tol=1e-30, callback=on_iterate
        )
        return res.converged

    def found(_):
        cand = tracker.best
        return cand is not None and _is_collision(
            cand[1], cand[2], cand[3], 0.01 * residual_tol, 1.05 * separation_tol
        )

    converged = multistart(attempt, restarts, found)

    nres, raw, sep, s, x, y = tracker.result()
    hit = _is_collision(raw, sep, s, residual_tol, separation_tol)
    return CollisionReport(
        x=x,
        y=y,
        residual=float(raw),
        separation=float(sep),
        scale=float(s),
        verdict="collision" if hit else "no-collision-found",
        restarts_used=len(converged),
        converged=bool(any(converged) or hit),
    )


def brute_force_collision_oracle(
    prior,
    A,
    blocks: BlockStructure,
    grid_points_per_axis: int = 41,
    residual_tol: float = RESIDUAL_TOL,
    separation_tol: float = SEPARATION_TOL,
) -> CollisionReport:
    """All-pairs collision check on a uniform latent grid over [-1, 1]^K.

    Independent of the optimizer: evaluates every chart of the prior (for
    sparse priors, every support) on the grid and scans all point pairs for
    the minimal measurement gap among sufficiently separated pairs. Only
    latent dimension K <= 2 is supported, and at most ``_ORACLE_POINTS``
    grid points over all charts, which bounds the time. The pairs are
    scanned in chunks of at most ``_ORACLE_CELLS``, which bounds the memory.
    """
    K = prior.latent_dim
    if K > 2:
        raise ValueError(f"oracle supports latent dimension <= 2, got {K}")
    charts = prior_charts(prior)
    P = len(charts) * grid_points_per_axis**K
    if P > _ORACLE_POINTS:
        raise ValueError(
            f"{len(charts)} charts x {grid_points_per_axis}^{K} grid = {P} points, "
            f"above the cap of {_ORACLE_POINTS}"
        )

    axis = np.linspace(-1.0, 1.0, grid_points_per_axis)
    if K == 1:
        lat = axis[:, None]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        lat = np.column_stack([g1.ravel(), g2.ravel()])
    X = np.concatenate([generator_forward(net, lat) for net in charts])
    Meas = separable_measurement(X, A, blocks)

    norms2 = np.einsum("ij,ij->i", X, X)
    mnorm2 = np.einsum("ij,ij->i", Meas, Meas)
    rows = max(1, _ORACLE_CELLS // P)

    # (normalized residual, raw, sep, scale, i, j); with no separated pair on
    # the grid (e.g. a constant-zero prior) the first two points are reported
    best = (np.inf, 0.0, 0.0, np.sqrt(norms2.max()), 0, min(1, P - 1))
    for i0 in range(0, P - 1, rows):
        # pair rows i0 .. i1-1 with the points j > i0 only: j <= i repeats a pair
        I, J = slice(i0, min(i0 + rows, P)), slice(i0 + 1, P)
        # min(||x - y||, ||x + y||)^2 = ||x||^2 + ||y||^2 - 2 |<x, y>|
        sep2 = norms2[I, None] + norms2[None, J] - 2 * np.abs(X[I] @ X[J].T)
        sep = np.sqrt(np.maximum(sep2, 0.0))
        scale = np.sqrt(np.maximum(norms2[I, None], norms2[None, J]))
        res2 = np.maximum(mnorm2[I, None] + mnorm2[None, J] - 2 * (Meas[I] @ Meas[J].T), 0.0)
        ok = (sep >= separation_tol * scale) & (scale > 0)
        ok &= np.arange(i0 + 1, P)[None, :] > np.arange(I.start, I.stop)[:, None]
        nres = np.full_like(res2, np.inf)
        nres[ok] = np.sqrt(res2[ok]) / scale[ok] ** 2
        ii, jj = np.unravel_index(np.argmin(nres), nres.shape)
        if nres[ii, jj] < best[0]:
            pair = (ii, jj)
            best = (nres[pair], np.sqrt(res2[pair]), sep[pair], scale[pair], i0 + ii, i0 + 1 + jj)

    _, raw, sep, s, i, j = best
    hit = _is_collision(raw, sep, s, residual_tol, separation_tol)
    return CollisionReport(
        x=X[i],
        y=X[j],
        residual=float(raw),
        separation=float(sep),
        scale=float(s),
        verdict="collision" if hit else "no-collision-found",
        restarts_used=0,
    )


# ---------------------------------------------------------------------------
# Codimension probe
# ---------------------------------------------------------------------------

def solution_dim_bound(manifold: str, N: int, R: int) -> int:
    """Upper bound on the dimension of the mixings confusing a generic pair.

    general-linear: N^2 - R (for the power-spectrum layout R = floor(N/2)+1,
    so this is N^2 - (N/2 + 1) for even N and N^2 - (N+1)/2 for odd N);
    special-orthogonal: dim SO(N) - (R - 1).
    """
    if manifold == "general-linear":
        return N * N - R
    if manifold == "special-orthogonal":
        return N * (N - 1) // 2 - (R - 1)
    raise ValueError(f"unknown manifold {manifold!r}")


def codimension_probe(
    x: np.ndarray,
    y: np.ndarray,
    manifold: str,
    blocks: BlockStructure,
    seed=0,
    restarts: int = 50,
    max_iter: int = 200,
) -> CodimensionEstimate:
    """Estimate dim{A on manifold : P(x;A) = P(y;A)} at a found solution.

    Runs projected Gauss-Newton to a mixing satisfying the R constraints,
    then subtracts the numerical rank of the constraint Jacobian (restricted
    to the manifold tangent space) from the tangent dimension. Orthogonal
    mixings preserve total energy, so on the special-orthogonal manifold y
    is rescaled to ||x|| first -- without that the constraint set is empty.
    """
    x = blocks.check_signal(np.asarray(x, dtype=float))
    y = blocks.check_signal(np.asarray(y, dtype=float))
    N, R = blocks.N, blocks.R
    if np.linalg.norm(x) == 0 or np.linalg.norm(y) == 0:
        raise ValueError("x and y must be nonzero")
    if manifold == "special-orthogonal":
        y = y * (np.linalg.norm(x) / np.linalg.norm(y))
    if min(np.linalg.norm(x - y), np.linalg.norm(x + y)) <= 1e-6 * np.linalg.norm(x):
        raise ValueError("x and y are equivalent up to sign; probe undefined")

    # joint normalization keeps tolerances meaningful and the set unchanged
    joint = max(np.linalg.norm(x), np.linalg.norm(y))
    x = x / joint
    y = y / joint

    bound = solution_dim_bound(manifold, N, R)
    block_of_row = np.repeat(np.arange(R), blocks.dims)
    D = np.outer(x, x) - np.outer(y, y)
    rng = as_rng(seed)

    def resid(A):
        return separable_measurement(x, A, blocks) - separable_measurement(y, A, blocks)

    if manifold == "general-linear":
        tangent_dim = N * N
        rows = np.arange(N)

        def jac(A):
            G = 2.0 * (A @ D)       # row j: gradient of its block constraint wrt w_j
            J = np.zeros((R, N, N))
            J[block_of_row, rows] = G   # J[k, j] is the slice j*N:(j+1)*N of row k
            return J.reshape(R, tangent_dim)

        retract = lambda A, step: A + step.reshape(N, N)
        draw = lambda: rng.normal(size=(N, N))
    elif manifold == "special-orthogonal":
        iu = np.triu_indices(N, 1)
        tangent_dim = N * (N - 1) // 2
        a_idx, b_idx = iu
        cols = np.arange(tangent_dim)   # column of generator (a, b): rows a and b move
        plus_at = (block_of_row[a_idx], cols)
        minus_at = (block_of_row[b_idx], cols)

        def jac(A):
            G = 2.0 * (A @ D)
            H = G @ A.T             # H[j, c] = <grad_j, row c of A>
            J = np.zeros((R, tangent_dim))
            np.add.at(J, plus_at, H[a_idx, b_idx])
            np.subtract.at(J, minus_at, H[b_idx, a_idx])
            return J

        def retract(A, step):
            S = np.zeros((N, N))
            S[iu] = step
            return _expm_skew(S - S.T) @ A

        draw = lambda: sample_mixing(N, "special-orthogonal", rng)
    else:
        raise ValueError(f"unknown manifold {manifold!r}")

    def attempt():
        gn = damped_gauss_newton(
            resid, jac, draw(), retract=retract, max_iter=max_iter,
            f_tol=PROBE_RESIDUAL_TARGET**2,
        )
        return float(np.sqrt(gn.f)), gn.x

    tries = multistart(attempt, restarts, lambda t: t[0] <= PROBE_RESIDUAL_TARGET)
    res_norm, A = tries[-1]
    if res_norm > PROBE_RESIDUAL_TARGET:
        return CodimensionEstimate(
            ambient_dim=tangent_dim,
            estimated_solution_dim=None,
            theoretical_bound=bound,
            converged=False,
            residual=min(r for r, _ in tries),
            restarts_used=len(tries),
        )
    rank = numerical_rank(np.linalg.svd(jac(A), compute_uv=False))
    return CodimensionEstimate(
        ambient_dim=tangent_dim,
        estimated_solution_dim=tangent_dim - rank,
        theoretical_bound=bound,
        converged=True,
        residual=res_norm,
        restarts_used=len(tries),
        solution=np.asarray(A),
    )


def _expm_skew(K: np.ndarray) -> np.ndarray:
    """exp(K) for a real skew-symmetric K, from one symmetric eigendecomposition.

    K @ K = Q diag(-theta^2) Q^T is real symmetric, and splitting the series
    of exp(K) into even and odd powers gives exactly
    exp(K) = Q diag(cos theta) Q^T + K Q diag(sin(theta) / theta) Q^T.
    The real eigh of K @ K takes less than half the time of the complex eigh
    of iK, which gives the same map.
    """
    t, Q = np.linalg.eigh(K @ K)
    theta = np.sqrt(np.maximum(-t, 0.0))    # rounding can leave t slightly above 0
    return (Q * np.cos(theta) + (K @ Q) * np.sinc(theta / np.pi)) @ Q.T


# ---------------------------------------------------------------------------
# Threshold sweep
# ---------------------------------------------------------------------------

def regime_label(N: int, M: int, kind: str) -> str:
    """Which injectivity regime a cell (N, M) falls in for a mixing kind.

    general-linear: all signals for N >= 4M, generic signals for N >= 2M;
    special-orthogonal: N >= 4M + 2 and N >= 2M + 2 respectively.
    """
    if kind == "general-linear":
        all_thr, gen_thr = 4 * M, 2 * M
    elif kind == "special-orthogonal":
        all_thr, gen_thr = 4 * M + 2, 2 * M + 2
    else:
        raise ValueError(f"unknown mixing kind {kind!r}")
    if N >= all_thr:
        return "all-signals"
    if N >= gen_thr:
        return "generic-signals"
    return "below-threshold"


@dataclass
class SweepResult:
    rows: list[dict]            # per-seed detail, CSV-ready
    cells: list[dict]           # N, M, regime, collisions_found_fraction


def threshold_sweep(
    prior_family,
    N_range,
    M_range,
    kind: str,
    seeds,
    restarts: int = 50,
) -> SweepResult:
    """Tabulate collision fractions across an (N, M) grid.

    ``prior_family(N, M, seed)`` builds the prior for a cell;
    per (N, M, seed) a fresh mixing is drawn and a collision search run.
    Regimes are labeled from the mixing kind's thresholds; below-threshold
    cells are reported without any expectation attached.
    """
    seeds = list(seeds)
    rows = []
    cells = []
    for N in N_range:
        for M in M_range:
            if M > N:
                continue
            regime = regime_label(N, M, kind)
            hits = 0
            for seed in seeds:
                prior = prior_family(N, M, seed)
                A = _cell_mixing(N, kind, seed)
                report = collision_search(
                    prior,
                    A,
                    block_structure_for_power_spectrum(N),
                    restarts=restarts,
                    seed=seed,
                )
                hits += report.verdict == "collision"
                rows.append(
                    {
                        "N": N,
                        "M": M,
                        "regime": regime,
                        "kind": kind,
                        "seed": seed,
                        "verdict": report.verdict,
                        "residual": report.residual,
                        "separation": report.separation,
                    }
                )
            cells.append(
                {
                    "N": N,
                    "M": M,
                    "regime": regime,
                    "collisions_found_fraction": hits / max(len(seeds), 1),
                }
            )
    return SweepResult(rows, cells)


def _cell_mixing(N, kind, seed):
    # derive an independent stream so the mixing is decoupled from the search
    return sample_mixing(N, kind, np.random.SeedSequence((int(seed), 0xA)))
