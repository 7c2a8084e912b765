"""Multi-reference alignment simulator with second-moment estimation.

Observations are noisy, randomly transformed copies of one signal:
``y_i = g_i . x + eps_i`` with group elements drawn from the uniform (Haar)
distribution and Gaussian noise of known level sigma. Everything lives in
block coordinates, where all three supported actions (cyclic shifts,
dihedral shifts-plus-reflection, 3-D rotations of band-limited spherical
functions) are block-diagonal orthogonal matrices. A finite group acts
through the stack of all its element matrices (``_orbit_matrices``), and
rotations through ``so3.rotate_bandlimited``, which applies the real
factorization Z(alpha) J Z(beta) J^T Z(gamma) to many rotations at once and
forms no rotation matrix; draws take the group elements in bulk, never one
at a time.

The debiased empirical second moment estimates the population moment,
whose diagonal blocks are scalar matrices carrying exactly one invariant
per block: the signal's block energy. Recovery searches a prior for a
signal reproducing those invariants. For a cone network of latent
dimension 2, the prior of every MRA preset, the search is global: the
network is linear on finitely many angular sectors of its latent plane, so
``recover`` finds the best point from the sectors and polishes it with one
solve. Every other prior takes random restarts.

Callers that need only the invariants (``sample_complexity_sweep`` and the
runner's ``recover`` and bare-simulation paths) draw them from their exact
law with ``simulate_invariants``, in O(R) whatever n is. The streamed
simulator ``simulate_second_moment`` is the one path that draws
observations: the runner's block-scalar check reads the whole moment, and
the fast path is tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussnewton import damped_gauss_newton, linearized, multistart
from .measurements import (
    BlockStructure,
    DimensionError,
    block_structure_for_power_spectrum,
    matvec,
    measurement_jacobian,
    mixed_signal,
    real_fourier_matrix,
    second_moment_blocks,
)
from .priors import (
    as_rng,
    chart_walk,
    check_prior,
    cone_sectors,
    has_cone_sectors,
    latent_parametrizations,
    walk_jacobian,
)
from .so3 import band_limit_blocks, haar_euler_angles, rotate_bandlimited, so3_quadrature

__all__ = [
    "GroupAction",
    "RecoveryResult",
    "SampleComplexityResult",
    "simulate_second_moment",
    "simulate_invariants",
    "exact_population_moment",
    "recover",
    "recover_path",
    "sample_complexity_sweep",
    "draw_ground_truth",
    "instance_noise_amplification",
    "select_conditioned_instance",
]

_GROUP_KINDS = ("cyclic", "dihedral", "so3-bandlimited")

#: Observations are drawn this many rows at a time (see ``_observation_chunks``).
#: A chunk's (N, rows) arrays then stay in L2: at L = 4 (N = 25) each is 800 KiB.
#: On a 2-core Xeon VM with one BLAS thread, the block-scalar check's draw of
#: 10^5 noiseless SO(3) observations at L = 4 took a median 54 ms in chunks
#: of 2 048 or 4 096 rows, 63 ms in 8 192 and 82 ms in 16 384.
_CHUNK_ROWS = 1 << 12

#: ``_observation_chunks`` draws all n group elements before its first chunk:
#: 24 bytes of Euler angles per SO(3) observation, 8 of a group index per
#: finite-group one. So configs cap the n of the block-scalar check, which
#: streams observations, at MAX_STREAMED_N (240 MB of angles).
MAX_STREAMED_N = 10**7

#: ``select_conditioned_instance`` scans ground-truth seeds 0 .. _MAX_SCAN - 1.
_MAX_SCAN = 256

#: Each ``recover`` solve stops after RECOVER_MAX_ITER iterations, as a
#: collision search's does after ``injectivity.SEARCH_MAX_ITER``. The
#: ``cor-sphere-so3`` solves end within 39 iterations.
RECOVER_MAX_ITER = 150


@dataclass(frozen=True)
class GroupAction:
    """A compact group acting block-diagonally on length-N signals."""

    kind: str
    N: int
    L: int | None = None

    def __post_init__(self):
        if self.kind not in _GROUP_KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "so3-bandlimited":
            if self.L is None:
                raise ValueError("so3-bandlimited needs a band limit L")
            if (self.L + 1) ** 2 != self.N:
                raise DimensionError(
                    f"N must equal (L+1)^2 = {(self.L + 1) ** 2}, got {self.N}"
                )
        elif self.N < 1:
            raise DimensionError(f"N must be >= 1, got {self.N}")

    @property
    def blocks(self) -> BlockStructure:
        if self.kind == "so3-bandlimited":
            return band_limit_blocks(self.L)
        return block_structure_for_power_spectrum(self.N)

    @classmethod
    def sphere(cls, L: int) -> "GroupAction":
        return cls("so3-bandlimited", (int(L) + 1) ** 2, int(L))


@lru_cache(maxsize=None)
def _orbit_matrices(kind: str, N: int) -> np.ndarray:
    """All group-element matrices for the finite groups, stacked.

    Element s is the time-domain shift v[t] -> v[t - s], and element N + s
    (dihedral only) that shift after the reversal v[t] -> v[-t], each moved
    to block coordinates by ``real_fourier_matrix``: F P F^T = F (F^T)[perm].
    """
    F = real_fourier_matrix(N)
    t = np.arange(N)
    perms = [(t - s) % N for s in range(N)]
    if kind == "dihedral":
        perms += [(s - t) % N for s in range(N)]
    orbit = F @ F.T[np.stack(perms)]
    orbit.flags.writeable = False       # shared by every caller
    return orbit


def _check_draw(n: int, sigma: float):
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")


def _observation_chunks(x, group: GroupAction, n: int, sigma: float, rng):
    """Yield n observations g_i . x + eps_i, _CHUNK_ROWS rows at a time.

    All n group elements are drawn before any noise, and numpy fills the noise
    in row order, so the rows are those of one-shot draws of the (n, N) array.
    """
    _check_draw(n, sigma)
    finite = group.kind in ("cyclic", "dihedral")
    if finite:
        orbit = _orbit_matrices(group.kind, group.N) @ x
        idx = rng.integers(0, orbit.shape[0], size=n)
    else:
        angles = haar_euler_angles(rng, size=n)
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        rows = orbit[idx[lo:hi]] if finite else rotate_bandlimited(group.L, angles[lo:hi], x)
        if sigma != 0:
            rows = rows + rng.normal(0.0, sigma, size=(hi - lo, group.N))
        yield rows


def simulate_second_moment(
    x: np.ndarray, group: GroupAction, n: int, sigma: float, seed=0
) -> np.ndarray:
    """Debiased empirical second moment of n simulated observations, (N, N).

    Draws y_i = g_i . x + eps_i with Haar g_i and N(0, sigma^2 I) noise,
    _CHUNK_ROWS rows at a time, so the n x N observations are never held at
    once. Each chunk's (1/m) sum y y^T - sigma^2 I, symmetrized, is averaged
    with weight m/n; up to _CHUNK_ROWS rows that is the one-shot estimate to
    the bit.
    """
    x = group.blocks.check_signal(x)
    M = 0.0
    for rows in _observation_chunks(x, group, n, sigma, as_rng(seed)):
        m = rows.shape[0]
        chunk = (rows.T @ rows) / m - sigma**2 * np.eye(group.N)
        M = M + (m / n) * (0.5 * (chunk + chunk.T))
    return M


def simulate_invariants(
    x: np.ndarray, group: GroupAction, n: int, sigma: float, seed=0
) -> np.ndarray:
    """Per-block invariants of n simulated observations, drawn in O(R).

    A draw from the law of the per-block traces of
    ``simulate_second_moment(x, group, n, sigma, seed)`` that forms no
    observation. Block k of y_i = g_i . x + eps_i is x_k moved
    by an orthogonal map plus N(0, sigma^2 I) noise in d_k dimensions, so
    ||y_ik||^2 / sigma^2 is noncentral chi-squared with d_k degrees of
    freedom and noncentrality E_k / sigma^2 (E_k = ||x_k||^2) whatever g_i
    is. Rows are independent, and the blocks of a row are independent given
    g_i with a law free of g_i, so the invariant sigma^2 (Q_k / n - d_k),
    Q_k = sum_i ||y_ik||^2 / sigma^2, has exactly independent
    Q_k ~ chi2'(n d_k, n E_k / sigma^2), for the cyclic, dihedral and SO(3)
    groups alike: mean E_k, variance (4 sigma^2 E_k + 2 sigma^4 d_k) / n.
    With sigma = 0 the result is E. The random stream is not the
    simulator's: the draws agree in law, not in bits.
    """
    blocks = group.blocks
    E = second_moment_blocks(x, blocks)
    _check_draw(n, sigma)
    if sigma == 0:
        return E
    d = np.asarray(blocks.dims, dtype=float)
    Q = as_rng(seed).noncentral_chisquare(n * d, n * E / sigma**2)
    return sigma**2 * (Q / n - d)


def exact_population_moment(x: np.ndarray, group: GroupAction) -> np.ndarray:
    """Noise-free population moment: the orbit average of (g.x)(g.x)^T.

    Finite groups are enumerated exactly; rotations use a product quadrature
    whose order makes the integrand exact for the given band limit.
    """
    x = group.blocks.check_signal(x)
    if group.kind in ("cyclic", "dihedral"):
        orbit = _orbit_matrices(group.kind, group.N) @ x
        return orbit.T @ orbit / orbit.shape[0]
    nodes, weights = so3_quadrature(group.L)
    Y = rotate_bandlimited(group.L, nodes, x)
    return (Y * weights[:, None]).T @ Y


@dataclass
class RecoveryResult:
    x_hat: np.ndarray               # estimate of the observed (mixed) signal
    prior_point: np.ndarray         # pre-mixing prior point realizing it
    residual: float                 # measurement misfit at the optimum
    converged: bool
    restarts_used: int

    def error_fn(self, x_true: np.ndarray) -> float:
        """Sign-aligned relative error; absolute when x_true = 0."""
        x_true = np.asarray(x_true, dtype=float)
        err = min(
            np.linalg.norm(self.x_hat - x_true), np.linalg.norm(self.x_hat + x_true)
        )
        scale = np.linalg.norm(x_true)
        return float(err if scale == 0 else err / scale)


def recover_path(prior) -> str:
    """Which search ``recover`` runs for ``prior``: ``"sectors"`` or ``"multistart"``.

    A cone network of latent dimension 2 (:func:`.priors.has_cone_sectors`)
    takes the search over its sectors; every other prior takes random restarts.
    """
    return "sectors" if has_cone_sectors(prior) else "multistart"


def _ray_fits(P, invariants, A, blocks: BlockStructure) -> tuple[np.ndarray, np.ndarray]:
    """How well the ray through each prior point (row of P) fits the invariants: (score, t).

    Along the ray t p, the energies of A t p are t^2 e and the objective
    ||t^2 e - b||^2 is least at t^2 = max(0, <e, b>) / ||e||^2, where it is
    ||b||^2 minus the score max(0, <e, b>)^2 / ||e||^2 (variable
    projection: Golub & Pereyra, "The differentiation of pseudo-inverses and
    nonlinear least squares problems whose variables separate", 1973). A
    row with e = 0 scores 0 at t = 0.
    """
    e = blocks.energies(P @ A.T)
    eb = np.maximum(e @ invariants, 0.0)
    ee = np.einsum("ij,ij->i", e, e)
    score = np.divide(eb * eb, ee, out=np.zeros_like(ee), where=ee > 0)
    t2 = np.divide(eb, ee, out=np.zeros_like(ee), where=ee > 0)
    return score, np.sqrt(t2)


def _conv(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The products of two stacks of polynomials, coefficients along the last axis."""
    out = np.zeros(X.shape[:-1] + (X.shape[-1] + Y.shape[-1] - 1,), dtype=complex)
    for i in range(X.shape[-1]):
        out[..., i : i + Y.shape[-1]] += X[..., i, None] * Y
    return out


def _critical_angles(W, invariants, A, blocks: BlockStructure) -> np.ndarray:
    """Every angle where the score of :func:`_ray_fits` is stationary on a sector's map.

    Through the map W_s, block k's energy at u(theta) is the quadratic form
    u^T Q_k u = a_k + 2 Re(w_k z), z = e^{i phi}, phi = 2 theta: a
    trigonometric polynomial of degree 1 in phi. So g = <e, b> has degree
    1, h = ||e||^2 degree 2, and where g > 0 the score g^2 / h is
    stationary where F = 2 g' h - g h' = 0 (d/dphi). F's terms of degree 3
    cancel, so z^2 F is a polynomial of degree 4 in z; its roots come from
    one batch of companion matrices. Each root's phi gives the angles
    phi / 2 and phi / 2 + pi; a root off the unit circle gives two more
    angles to try, which costs nothing but their evaluation.
    """
    M = A @ W                                           # (S, N, 2)
    Q = np.add.reduceat(M[..., :, None] * M[..., None, :], blocks.starts, axis=-3)
    a = 0.5 * (Q[..., 0, 0] + Q[..., 1, 1])             # (S, R)
    w = 0.25 * (Q[..., 0, 0] - Q[..., 1, 1]) - 0.5j * Q[..., 0, 1]
    E = np.stack([w.conj(), a, w], axis=-1)             # powers -1, 0, 1 of z
    G = invariants @ E                                  # (S, 3): powers -1 .. 1
    H = _conv(E, E).sum(axis=-2)                        # (S, 5): powers -2 .. 2
    dG = 1j * np.arange(-1, 2) * G
    dH = 1j * np.arange(-2, 3) * H
    C = (2.0 * _conv(dG, H) - _conv(G, dH))[:, 5:0:-1]  # powers 2 .. -2 of z: z^2 F
    # a coefficient this far below its polynomial's largest is rounding
    C[np.abs(C) <= 1e-12 * np.abs(C).max(axis=1, keepdims=True)] = 0.0
    full = C[:, 0] != 0
    companion = np.zeros((full.sum(), 4, 4), dtype=complex)
    companion[:, 0] = -C[full, 1:] / C[full, :1]
    companion[:, 1:, :-1] = np.eye(3)
    roots = [np.linalg.eigvals(companion).ravel()]
    roots += [np.roots(c) for c in C[~full]]        # a lower degree, or F = 0
    half = 0.5 * np.angle(np.concatenate(roots))
    return np.concatenate([half, half + np.pi])


def _sector_start(invariants, net, A, blocks: BlockStructure) -> np.ndarray:
    """The latent point of a 2-D cone network that best fits the invariants.

    On each sector of :func:`.priors.cone_sectors` the network is linear,
    so the best ray's score (:func:`_ray_fits`) is a smooth function of the
    angle there, and its maximum over the circle sits on a sector edge or
    at an angle where the score is stationary on a sector
    (:func:`_critical_angles`). The network is walked at all of them, and
    the best direction is returned at its best scale; where no direction
    scores above 0, the point is 0.
    """
    edges, W = cone_sectors(net)
    theta = np.concatenate([edges[:-1], _critical_angles(W, invariants, A, blocks)])
    U = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    score, t = _ray_fits(net.walk(U).x, invariants, A, blocks)
    i = int(np.argmax(score))
    return t[i] * U[i]


def recover(
    invariants: np.ndarray,
    prior,
    A,
    blocks: BlockStructure,
    seed=0,
    restarts: int = 20,
) -> RecoveryResult:
    """Search the prior for a signal whose mixed measurements match invariants.

    Damped Gauss-Newton over the prior's latent parameters; the returned
    estimate is the mixed signal A @ p(z*). Two searches feed it
    (:func:`recover_path`):

    * ``"sectors"``, for a cone network of latent dimension 2. It is linear
      on each angular sector of its latent plane
      (:func:`.priors.cone_sectors`) and the best scale of a direction has
      a closed form, so the objective is a function of the angle whose
      minimum sits on a sector edge or at an angle where it is stationary
      on one sector. :func:`_sector_start` finds that point, and one solve
      polishes it: ``restarts_used`` is 1, ``seed`` is not read, and
      ``restarts`` only has to be >= 1.
    * ``"multistart"``, for every other prior: up to ``restarts`` solves
      from random latent starts drawn from ``seed``, stopping at the first
      that reaches the (relative) target residual.

    With noisy invariants the optimum sits at the noise floor, so
    ``converged`` only reflects whether some solve reached that target.
    Each solve stops after ``RECOVER_MAX_ITER`` iterations.
    Each Jacobian reuses the chart walk and the mixed signal that the
    residual computed at the same point (:func:`.gaussnewton.linearized`).
    The mixing, the invariants and the prior's output length are checked
    once, so the objective runs the unchecked cores of the chart walk and of
    the measurement.
    """
    invariants = np.asarray(invariants, dtype=float)
    if invariants.shape != (blocks.R,):
        raise DimensionError(f"invariants shape {invariants.shape}, expected ({blocks.R},)")
    A = blocks.check_mixing(A)
    check_prior(prior, blocks.N)
    f_target = (1e-10 * max(1.0, np.linalg.norm(invariants))) ** 2

    def solve(z0, net):
        def evaluate(z):
            walk = net.walk(z)
            S = matvec(A, walk.x)
            return (
                blocks.energies(S) - invariants,
                lambda: blocks.energy_jacobian(S, A) @ walk_jacobian(walk),
            )

        residual, jacobian = linearized(evaluate)
        res = damped_gauss_newton(
            residual, jacobian, z0, max_iter=RECOVER_MAX_ITER, f_tol=f_target
        )
        return res.f, chart_walk(net, res.x).x

    if recover_path(prior) == "sectors":
        starts = iter([(_sector_start(invariants, prior, A, blocks), prior)])
        done = lambda t: True           # one start, so one solve
    else:
        starts = latent_parametrizations(prior, as_rng(seed))
        done = lambda t: t[0] <= f_target
    tries = multistart(lambda: solve(*next(starts)), restarts, done)
    f, p = min(tries, key=lambda t: t[0])      # the first of the best
    return RecoveryResult(
        x_hat=A @ p,
        prior_point=p,
        residual=float(np.sqrt(f)),
        converged=bool(f <= f_target),
        restarts_used=len(tries),
    )


@dataclass
class SampleComplexityResult:
    rows: list[dict]                # sigma, n_star, median_error, seeds_used
    fitted_slope: float | None
    recoveries: int                 # recover() calls the scan made


def draw_ground_truth(prior, A, true_seed, signal_norm: float | None):
    """One fixed draw x* = A p(z*) from the mixed prior, optionally rescaled: (chart, z*, x*).

    The rescaling scales z*, so x* stays in the prior. It reaches
    ``signal_norm`` only for a positively homogeneous chart; otherwise, or
    for a zero draw, it raises ``ValueError``.
    """
    rng = as_rng(true_seed)
    z0, net = next(latent_parametrizations(prior, rng))
    x_star = A @ chart_walk(net, z0).x
    if signal_norm is not None:
        nrm = np.linalg.norm(x_star)
        if nrm == 0:
            raise ValueError("drew a zero ground-truth signal; pick another true_seed")
        z0 = z0 * (signal_norm / nrm)
        x_star = A @ chart_walk(net, z0).x
        reached = np.linalg.norm(x_star)
        if not np.isclose(reached, signal_norm, rtol=1e-8):
            raise ValueError(
                f"rescaling the latent draw gives a signal of norm {reached:.6g}, not "
                f"{signal_norm:g}: the prior is not positively homogeneous there"
            )
    return net, z0, x_star


def instance_noise_amplification(prior, A, blocks, true_seed, signal_norm=None) -> float:
    """Worst-case gain from invariant errors to signal errors at one instance.

    The ratio of the largest singular value of d(signal)/d(latent) to the
    smallest of d(invariants)/d(latent) at the ground-truth latent. Used to
    screen experiment instances: a large value means recovery needs far more
    observations for the same target error, without changing the scaling law.
    """
    net, z0, _ = draw_ground_truth(prior, A, true_seed, signal_norm)
    walk = chart_walk(net, z0)
    J_prior = walk_jacobian(walk)
    J_inv = measurement_jacobian(mixed_signal(walk.x, A, blocks), A, blocks) @ J_prior
    sv_inv = np.linalg.svd(J_inv, compute_uv=False)
    sv_x = np.linalg.svd(A @ J_prior, compute_uv=False)
    if sv_inv[-1] == 0:
        return np.inf
    return float(sv_x[0] / sv_inv[-1])


def select_conditioned_instance(
    prior, A, blocks, signal_norm=None, amp_threshold: float = 6.0
) -> int:
    """First ground-truth seed whose noise amplification is below a threshold.

    Deterministic: scans seeds 0, 1, 2, ... and returns the first acceptable
    one, so configs recording only the policy stay reproducible. A seed whose
    ground truth cannot be drawn (see ``draw_ground_truth``) is skipped. If
    every seed is skipped, a ``ValueError`` gives the last seed's reason; if
    some were screened and none passed, a ``RuntimeError`` is raised.
    """
    skipped = 0
    for seed in range(_MAX_SCAN):
        try:
            amp = instance_noise_amplification(prior, A, blocks, seed, signal_norm)
        except ValueError as e:
            skipped, last = skipped + 1, e
            continue
        if amp <= amp_threshold:
            return seed
    if skipped == _MAX_SCAN:
        raise ValueError(f"no ground truth could be drawn in {_MAX_SCAN} seeds ({last})")
    raise RuntimeError(
        f"no instance with amplification <= {amp_threshold} in {_MAX_SCAN} seeds"
    )


def sample_complexity_sweep(
    prior,
    A,
    group: GroupAction,
    sigma_list,
    target_error: float,
    seeds,
    true_seed=0,
    signal_norm: float | None = None,
    n_min: int = 8,
    n_cap: int = 10_000_000,
    grid_ratio: float = 2.0 ** 0.25,
    recover_restarts: int = 10,
) -> SampleComplexityResult:
    """Smallest observation count reaching a target median recovery error.

    For each sigma, scans an ascending geometric grid of n and records the
    first n whose median sign-aligned relative error over the seeds meets
    the target; cells that never meet it before ``n_cap`` are marked
    saturated (n_star = None). The fitted slope is the least-squares slope
    of log n_star against log sigma over non-saturated cells.

    A cell stops early: once more than ``len(seeds) // 2`` of its errors
    exceed the target, its median cannot meet it, so the remaining seeds
    are skipped and the scan moves to the next n. That changes no result.
    Each seed draws from its own streams (below), so a skipped seed alters
    no other seed's draws; a cell that meets the target evaluates every
    seed, so its ``median_error`` is exact; and ``seeds_used`` is always
    ``len(seeds)``, the sample the median is taken over. ``recoveries``
    counts the ``recover`` calls actually made.

    The ground-truth signal is one fixed draw from the mixed prior
    (optionally rescaled to ``signal_norm``), shared by every cell.

    Seeding is keyed by position: the invariants and the recovery starts of
    one seed in one cell come from ``SeedSequence``s keyed by
    ``(true_seed, i, j, seed)``, with i the index of sigma in ``sigma_list``
    and j the index of n in the grid. The same sigma at another index of
    another list therefore gets other draws, and so may get another n_star.
    """
    sigma_list = [float(s) for s in sigma_list]
    if sorted(sigma_list) != sigma_list:
        raise ValueError("sigma_list must be sorted ascending")
    if not 0.0 < target_error < 1.0:
        raise ValueError("target_error must lie in (0, 1)")
    if not 1 <= n_min <= n_cap or grid_ratio <= 1.0:
        raise ValueError(
            f"need 1 <= n_min <= n_cap and grid_ratio > 1, got {n_min}, {n_cap}, {grid_ratio}"
        )
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    blocks = group.blocks
    _, _, x_star = draw_ground_truth(prior, A, true_seed, signal_norm)

    grid = [int(n_min)]
    while grid[-1] < n_cap:
        grid.append(min(int(np.ceil(grid[-1] * grid_ratio)), int(n_cap)))
    grid = np.unique(np.asarray(grid))

    def cell_error(sigma_idx, n_idx, seed):
        ss = np.random.SeedSequence((int(true_seed), sigma_idx, n_idx, int(seed)))
        inv = simulate_invariants(
            x_star, group, int(grid[n_idx]), sigma_list[sigma_idx], np.random.default_rng(ss)
        )
        rec = recover(
            inv,
            prior,
            A,
            blocks,
            seed=np.random.SeedSequence((int(true_seed), sigma_idx, n_idx, int(seed), 0xC)),
            restarts=recover_restarts,
        )
        return rec.error_fn(x_star)

    rows = []
    recoveries = 0
    for si, sigma in enumerate(sigma_list):
        n_star = None
        median_err = None
        for ni in range(len(grid)):
            errs, misses = [], 0
            for s in seeds:
                errs.append(cell_error(si, ni, s))
                misses += errs[-1] > target_error
                if misses > len(seeds) // 2:    # the median misses too
                    break
            recoveries += len(errs)
            if len(errs) < len(seeds):
                continue
            med = float(np.median(errs))
            if med <= target_error:
                n_star, median_err = int(grid[ni]), med
                break
        rows.append(
            {
                "sigma": sigma,
                "n_star": n_star,
                "median_error": median_err,
                "seeds_used": len(seeds),
            }
        )

    solved = [(r["sigma"], r["n_star"]) for r in rows if r["n_star"] is not None]
    slope = None
    if len(solved) >= 2:
        ls = np.log([s for s, _ in solved])
        ln = np.log([n for _, n in solved])
        slope = float(np.polyfit(ls, ln, 1)[0])
    return SampleComplexityResult(rows, slope, recoveries)
