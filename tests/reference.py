"""Reference forms that the tests compare the library against.

No run of ``momentlab`` calls these. Each is the plain, matrix-at-a-time
form of something the library computes another way, or a writer of the
files the library reads:

* ``dft_block_energy_oracle`` -- block energies from direct DFT sums;
* ``wigner_block`` / ``wigner_degree_block`` -- the rotation matrices whose
  action ``so3.rotate_bandlimited`` applies without forming them;
* ``rotate_bandlimited_reference`` -- the same action in complex arithmetic,
  degree by degree, with three phase tables per degree;
* ``rotation_matrix_3d`` / ``euler_from_rotation_3d`` -- the 3-D rotations
  behind the homomorphism check of the Wigner blocks;
* ``action_matrix`` -- the matrix of one group element in block coordinates,
  for a finite group F P F^T from an explicit permutation matrix P: the form
  behind ``mra._orbit_matrices``' indexed rows of F^T;
* ``extract_invariants`` -- per-block traces of a second moment, the law
  that ``mra.simulate_invariants`` draws from;
* ``network_to_json`` / ``sparse_prior_to_json`` -- fixture writers for the
  formats that ``priors.network_from_json`` and ``sparse_prior_from_json``
  read;
* ``full_sample_complexity_scan`` -- the sample-complexity scan that
  recovers every seed of every cell it visits, with no early stop;
* ``reference_walk`` -- a network's value and Jacobian at one latent point,
  one layer at a time, with its own activation formulas: the form behind
  ``priors.chart_walk`` and ``priors.walk_jacobian``;
* ``pair_collision_objective`` / ``recover_objective`` -- the objectives of
  ``collision_search`` and ``recover`` with each signal walked and measured
  on its own, and each Jacobian from a fresh walk;
* ``critical_angles_reference`` -- the stationary angles of the best ray's
  score on a sector's linear map, as roots of a complex quartic in
  z = e^{2i theta}: the form behind ``mra._stationarity_map`` and
  ``mra._stationary_angles``' real quartic in tan(theta);
* ``brute_force_collision_oracle_reference`` -- the grid oracle's pair
  scan with fresh arrays for every chunk of 512 rows of a 41 x 41 grid, the
  form behind ``injectivity.brute_force_collision_oracle``'s in-place scan,
  over the points, measurements and rows of ``oracle_points``;
* ``so_probe_jacobian_scatter`` -- the SO(N) codimension probe's constraint
  Jacobian scattered into place by ``np.add.at``, the form behind the
  one-hot products of ``injectivity.codimension_probe``;
* ``regime_label_reference`` -- the paper's thresholds in the signal length
  N, for the power-spectrum layout: the form behind
  ``injectivity.regime_label``'s thresholds in the block count R;
* ``lm_step_reference`` -- a Levenberg-Marquardt step and its predicted
  reduction from the thin SVD of J, the form that
  ``gaussnewton.damped_gauss_newton`` keeps for tall and square J and
  replaces for wide J by the eigendecomposition of the Gram matrix J J^T.
"""

import json

import numpy as np

from momentlab.injectivity import PENALTY_WEIGHT, SEPARATION_TOL, CollisionReport
from momentlab.measurements import (
    BlockStructure,
    DimensionError,
    measurement_jacobian,
    real_fourier_matrix,
    separable_measurement,
)
from momentlab.mra import (
    GroupAction,
    draw_ground_truth,
    recover,
    simulate_invariants,
)
from momentlab.priors import (
    GeneratorNetwork,
    SparsePrior,
    chart_walk,
    parse_activation,
    prior_charts,
)
from momentlab.so3 import MAX_BAND_LIMIT, _real_basis_transform, _y_generator_eig, band_limit_blocks


def dft_block_energy_oracle(v):
    """Direct O(N^2) DFT sums grouped by conjugate frequency pair, over N."""
    N = len(v)
    t = np.arange(N)

    def mag2(k):
        re = np.sum(v * np.cos(2 * np.pi * k * t / N))
        im = np.sum(v * np.sin(2 * np.pi * k * t / N))
        return re**2 + im**2

    out = [mag2(0) / N]
    if N % 2 == 0 and N >= 2:
        out.append(mag2(N // 2) / N)
    n_pairs = (N - 1) // 2 if N % 2 == 1 else (N - 2) // 2
    for k in range(1, n_pairs + 1):
        out.append((mag2(k) + mag2(N - k)) / N)
    return np.array(out)


def rotation_matrix_3d(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """ZYZ rotation Rz(alpha) @ Ry(beta) @ Rz(gamma)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    Rz_a = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1.0]])
    Ry_b = np.array([[cb, 0, sb], [0, 1.0, 0], [-sb, 0, cb]])
    Rz_g = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1.0]])
    return Rz_a @ Ry_b @ Rz_g


def euler_from_rotation_3d(R: np.ndarray) -> tuple[float, float, float]:
    """Extract ZYZ angles with beta in [0, pi]; gimbal cases set gamma = 0."""
    R = np.asarray(R, dtype=float)
    beta = float(np.arccos(np.clip(R[2, 2], -1.0, 1.0)))
    if np.sin(beta) > 1e-12:
        alpha = float(np.arctan2(R[1, 2], R[0, 2]))
        gamma = float(np.arctan2(R[2, 1], -R[2, 0]))
    else:
        # beta = 0: R = Rz(alpha+gamma); beta = pi: R = Rz(alpha-gamma) Ry(pi)
        alpha = float(
            np.arctan2(R[1, 0], R[0, 0]) if R[2, 2] > 0 else np.arctan2(-R[1, 0], -R[0, 0])
        )
        gamma = 0.0
    return alpha % (2 * np.pi), beta, gamma % (2 * np.pi)


def wigner_degree_block(l: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Real orthogonal (2l+1) x (2l+1) rotation block for one degree."""
    w, V = _y_generator_eig(l)
    d_beta = V @ (np.exp(-1j * beta * w)[:, None] * V.conj().T)
    m = np.arange(-l, l + 1)
    Dc = np.exp(-1j * m * alpha)[:, None] * d_beta * np.exp(-1j * m * gamma)[None, :]
    U = _real_basis_transform(l)
    D = U @ Dc @ U.conj().T
    imag_max = float(np.max(np.abs(D.imag)))
    if imag_max > 1e-10:
        raise RuntimeError(f"real Wigner block has imaginary residue {imag_max:.3e}")
    return D.real


def wigner_block(L: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Block-diagonal orthogonal matrix acting on an L-band-limited expansion."""
    L = int(L)
    if L < 0 or L > MAX_BAND_LIMIT:
        raise ValueError(f"band limit must lie in [0, {MAX_BAND_LIMIT}], got {L}")
    blocks = band_limit_blocks(L)
    D = np.zeros((blocks.N, blocks.N))
    for l, s in enumerate(blocks.slices()):
        D[s, s] = wigner_degree_block(l, alpha, beta, gamma)
    return D


def rotate_bandlimited_reference(L: int, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply many rotations to one coefficient vector; returns (n, (L+1)^2).

    Row i is the real Wigner matrix of ``angles[i]`` applied to x: per degree,
    U diag(e^{-i m alpha}) V diag(e^{-i beta w}) V^H diag(e^{-i m gamma}) U^H,
    each factor applied to every row at once, never materializing a matrix.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    x = np.asarray(x, dtype=float)
    N = (L + 1) ** 2
    if x.shape != (N,):
        raise DimensionError(f"coefficients have shape {x.shape}, expected ({N},)")
    al, be, ga = angles[:, 0], angles[:, 1], angles[:, 2]
    out = np.empty((angles.shape[0], N))
    start = 0
    for l in range(L + 1):
        d = 2 * l + 1
        w, V = _y_generator_eig(l)
        U = _real_basis_transform(l)
        m = np.arange(-l, l + 1)
        c = U.conj().T @ x[start:start + d]           # complex coefficients
        c = np.exp(-1j * ga[:, None] * m) * c[None, :]
        c = c @ V.conj()                               # apply V^H to each row
        c = np.exp(-1j * be[:, None] * w) * c
        c = c @ V.T
        c = np.exp(-1j * al[:, None] * m) * c
        out[:, start:start + d] = (c @ U.T).real
        start += d
    return out


def action_matrix(g, group: GroupAction) -> np.ndarray:
    """Matrix of one group element in block coordinates.

    A finite group's element is F P F^T, with F the real Fourier basis and P
    the time-domain permutation matrix: the shift v[t] -> v[t - s] for
    cyclic s or dihedral (s, 0), and that shift after the reversal
    v[t] -> v[-t] for dihedral (s, 1), so v[t] -> v[s - t].
    """
    if group.kind == "cyclic":
        s, refl = int(g), 0
        if not 0 <= s < group.N:
            raise ValueError(f"shift must lie in [0, {group.N}), got {g}")
    elif group.kind == "dihedral":
        s, refl = int(g[0]), int(g[1])
        if not 0 <= s < group.N or refl not in (0, 1):
            raise ValueError(f"bad dihedral element {g!r}")
    else:
        alpha, beta, gamma = (float(v) for v in g)
        return wigner_block(group.L, alpha, beta, gamma)
    N = group.N
    P = np.zeros((N, N))
    for t in range(N):
        P[t, (s - t if refl else t - s) % N] = 1.0      # (P v)[t] = v[source]
    F = real_fourier_matrix(N)
    return F @ P @ F.T


def extract_invariants(est, blocks: BlockStructure) -> np.ndarray:
    """Per-block traces of a second-moment matrix: block-energy estimates.

    For the exact population moment each diagonal block is a scalar matrix
    (energy / block size) times the identity, so its trace recovers the
    block energy exactly.
    """
    M = np.asarray(est, dtype=float)
    if M.shape != (blocks.N, blocks.N):
        raise DimensionError(f"moment shape {M.shape}, expected {(blocks.N, blocks.N)}")
    d = np.diag(M)
    return np.add.reduceat(d, blocks.starts)


def network_to_json(net: GeneratorNetwork) -> str:
    """Serialize: {layers: [{rows, cols, data(row-major), activation}], latent_dim}."""
    payload = {
        "layers": [
            {
                "rows": layer.weight.shape[0],
                "cols": layer.weight.shape[1],
                "data": [float(v) for v in layer.weight.ravel()],
                "activation": layer.activation,
                **(
                    {"bias": [float(v) for v in layer.bias]}
                    if layer.bias is not None
                    else {}
                ),
            }
            for layer in net.layers
        ],
        "latent_dim": net.latent_dim,
    }
    return json.dumps(payload)


def sparse_prior_to_json(prior: SparsePrior) -> str:
    """Serialize: {basis(row-major), sparsity, kind}."""
    return json.dumps(
        {
            "n": prior.output_dim,
            "basis": [float(v) for v in prior.basis.ravel()],
            "sparsity": prior.sparsity,
            "kind": prior.kind,
        }
    )


def full_sample_complexity_scan(
    prior,
    A,
    group,
    sigma_list,
    target_error,
    seeds,
    true_seed=0,
    signal_norm=None,
    n_min=8,
    n_cap=10_000_000,
    grid_ratio=2.0 ** 0.25,
    recover_restarts=10,
):
    """``mra.sample_complexity_sweep`` with no early stop: (rows, fitted slope, recoveries).

    Every seed of every cell it visits is recovered, from the same
    ``SeedSequence`` keys as the library's scan, and each cell's median is
    taken over all of them.
    """
    sigma_list = [float(s) for s in sigma_list]
    _, _, x_star = draw_ground_truth(prior, A, true_seed, signal_norm)
    grid = [int(n_min)]
    while grid[-1] < n_cap:
        grid.append(min(int(np.ceil(grid[-1] * grid_ratio)), int(n_cap)))
    grid = np.unique(np.asarray(grid))

    rows, recoveries = [], 0
    for si, sigma in enumerate(sigma_list):
        n_star = median_err = None
        for ni, n in enumerate(grid):
            errs = []
            for s in seeds:
                key = (int(true_seed), si, ni, int(s))
                inv = simulate_invariants(
                    x_star, group, int(n), sigma, np.random.default_rng(np.random.SeedSequence(key))
                )
                rec = recover(
                    inv, prior, A, group.blocks, seed=np.random.SeedSequence(key + (0xC,)),
                    restarts=recover_restarts,
                )
                errs.append(rec.error_fn(x_star))
            recoveries += len(errs)
            if np.median(errs) <= target_error:
                n_star, median_err = int(n), float(np.median(errs))
                break
        rows.append(
            {"sigma": sigma, "n_star": n_star, "median_error": median_err, "seeds_used": len(seeds)}
        )

    solved = [(r["sigma"], r["n_star"]) for r in rows if r["n_star"] is not None]
    slope = None
    if len(solved) >= 2:
        sig, ns = zip(*solved)
        slope = float(np.polyfit(np.log(sig), np.log(ns), 1)[0])
    return rows, slope, recoveries


def reference_activation(tag: str, a):
    """An activation's value and derivative (0 at the kinks) at pre-activations a."""
    name, params = parse_activation(tag)
    if name == "relu":
        return np.maximum(a, 0.0), (a > 0).astype(float)
    if name == "leaky-relu":
        (slope,) = params
        return np.where(a > 0, a, slope * a), np.where(a > 0, 1.0, slope)
    if name == "hardtanh":
        lo, hi = params
        return np.clip(a, lo, hi), ((a > lo) & (a < hi)).astype(float)
    assert name == "identity", name
    return a, np.ones_like(a)


def reference_walk(net: GeneratorNetwork, z):
    """A network's value x and Jacobian dx/dz at one latent point z (K,).

    The first pass maps z one layer at a time, as ``W @ a`` plus the bias and
    then the activation, and keeps each layer's activation derivative d. The
    second pass runs the chain rule J <- d * (W @ J), starting from J = d * W.
    """
    a = np.asarray(z, dtype=float)
    if a.shape != (net.latent_dim,):
        raise DimensionError(f"latent has shape {a.shape}, expected ({net.latent_dim},)")
    slopes = []
    for layer in net.layers:
        a = layer.weight @ a
        if layer.bias is not None:
            a = a + layer.bias
        a, d = reference_activation(layer.activation, a)
        slopes.append(d)
    J = None
    for layer, d in zip(net.layers, slopes):
        J = layer.weight if J is None else layer.weight @ J
        J = d[:, None] * J
    return a, J


def pair_collision_objective(net1, net2, A, blocks, separation_tol):
    """``collision_search``'s (residual, jacobian) at u = [z1; z2], one signal at a time."""
    spen = np.sqrt(PENALTY_WEIGHT)

    def split(u):
        K = u.shape[0] // 2
        return u[:K], u[K:]

    def residual(u):
        z1, z2 = split(u)
        x, y = reference_walk(net1, z1)[0], reference_walk(net2, z2)[0]
        s = max(np.linalg.norm(x), np.linalg.norm(y))
        sep = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
        rm = separable_measurement(x, A, blocks) - separable_measurement(y, A, blocks)
        if s <= 0.0:
            return np.concatenate([rm, [spen * separation_tol]])
        return np.concatenate([rm / s**2, [spen * max(0.0, separation_tol - sep / s)]])

    def jacobian(u):
        z1, z2 = split(u)
        x, G1 = reference_walk(net1, z1)
        y, G2 = reference_walk(net2, z2)
        s = max(np.linalg.norm(x), np.linalg.norm(y))
        if s <= 0.0:
            return np.zeros((blocks.R + 1, u.shape[0]))
        Jx = measurement_jacobian(A @ x, A, blocks) @ G1 / s**2
        Jy = measurement_jacobian(A @ y, A, blocks) @ G2 / s**2
        d_minus = np.linalg.norm(x - y)
        d_plus = np.linalg.norm(x + y)
        sep = min(d_minus, d_plus)
        row = np.zeros(u.shape[0])
        if sep > 1e-14 and separation_tol - sep / s > 0:
            sign = 1.0 if d_minus <= d_plus else -1.0
            diff = (x - sign * y) / sep
            row = (-spen / s) * np.concatenate([diff @ G1, -sign * (diff @ G2)])
        return np.vstack([np.hstack([Jx, -Jy]), row[None, :]])

    return residual, jacobian


def recover_objective(net, A, blocks, invariants):
    """``recover``'s (residual, jacobian) at a latent point z of one chart."""

    def residual(z):
        return separable_measurement(reference_walk(net, z)[0], A, blocks) - invariants

    def jacobian(z):
        x, G = reference_walk(net, z)
        return measurement_jacobian(A @ x, A, blocks) @ G

    return residual, jacobian


#: Point pairs per chunk of ``brute_force_collision_oracle_reference``.
REFERENCE_ORACLE_CELLS = 512 * 41**2


#: The activations that commute with scaling by t > 0.
HOMOGENEOUS_ACTIVATIONS = {"identity", "relu", "leaky-relu"}


def _complex_conv(X, Y):
    """The products of two stacks of polynomials, coefficients along the last axis."""
    out = np.zeros(X.shape[:-1] + (X.shape[-1] + Y.shape[-1] - 1,), dtype=complex)
    for i in range(X.shape[-1]):
        out[..., i : i + Y.shape[-1]] += X[..., i, None] * Y
    return out


def critical_angles_reference(W, invariants, A, blocks: BlockStructure) -> np.ndarray:
    """The roots z of z^2 F, where F is the stationarity condition of the best ray's score.

    Through the map W_s, block k's energy at u(theta) is the quadratic form
    u^T Q_k u = a_k + 2 Re(w_k z), z = e^{i phi}, phi = 2 theta: a
    trigonometric polynomial of degree 1 in phi. So g = <e, b> has degree
    1, h = ||e||^2 degree 2, and where g > 0 the score g^2 / h is
    stationary where F = 2 g' h - g h' = 0 (d/dphi). F's terms of degree 3
    cancel, so z^2 F is a polynomial of degree 4 in z; its roots come from
    one batch of complex companion matrices. A root z on the unit circle is
    a stationary point at theta = arg(z) / 2 and at that angle plus pi.
    """
    M = A @ W                                           # (S, N, 2)
    Q = np.add.reduceat(M[..., :, None] * M[..., None, :], blocks.starts, axis=-3)
    a = 0.5 * (Q[..., 0, 0] + Q[..., 1, 1])             # (S, R)
    w = 0.25 * (Q[..., 0, 0] - Q[..., 1, 1]) - 0.5j * Q[..., 0, 1]
    E = np.stack([w.conj(), a, w], axis=-1)             # powers -1, 0, 1 of z
    G = invariants @ E                                  # (S, 3): powers -1 .. 1
    H = _complex_conv(E, E).sum(axis=-2)                # (S, 5): powers -2 .. 2
    dG = 1j * np.arange(-1, 2) * G
    dH = 1j * np.arange(-2, 3) * H
    C = (2.0 * _complex_conv(dG, H) - _complex_conv(G, dH))[:, 5:0:-1]  # powers 2 .. -2: z^2 F
    # a coefficient this far below its polynomial's largest is rounding
    C[np.abs(C) <= 1e-12 * np.abs(C).max(axis=1, keepdims=True)] = 0.0
    full = C[:, 0] != 0
    companion = np.zeros((full.sum(), 4, 4), dtype=complex)
    companion[:, 0] = -C[full, 1:] / C[full, :1]
    companion[:, 1:, :-1] = np.eye(3)
    roots = [np.linalg.eigvals(companion).ravel()]
    roots += [np.roots(c) for c in C[~full]]        # a lower degree, or F = 0
    return np.concatenate(roots)


def oracle_points(prior, A, blocks, grid_points_per_axis):
    """The grid oracle's P signals (P, N), their measurements, and the number
    of leading points it scans as rows.

    The points are the grid's, chart by chart. When every chart is a cone
    (no bias, homogeneous activations), the points whose latent lies on the
    box boundary come first, in that order, and only they are rows;
    otherwise every point is a row.
    """
    axis = np.linspace(-1.0, 1.0, grid_points_per_axis)
    if prior.latent_dim == 1:
        lat = axis[:, None]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        lat = np.column_stack([g1.ravel(), g2.ravel()])
    charts = prior_charts(prior)
    X = np.concatenate([chart_walk(net, lat).x for net in charts])
    cone = all(
        layer.bias is None and parse_activation(layer.activation)[0] in HOMOGENEOUS_ACTIVATIONS
        for net in charts
        for layer in net.layers
    )
    if not cone:
        return X, separable_measurement(X, A, blocks), len(X)
    interior = np.tile([np.abs(z).max() < 1.0 for z in lat], len(charts))
    X = X[np.argsort(interior, kind="stable")]
    return X, separable_measurement(X, A, blocks), int(np.sum(~interior))


def brute_force_collision_oracle_reference(prior, A, blocks, grid_points_per_axis=41):
    """The grid oracle's report, each chunk's pair arrays built afresh.

    The same points and rows as ``brute_force_collision_oracle``, from
    ``oracle_points``, scanned in chunks of ``REFERENCE_ORACLE_CELLS // P``
    rows (at least one), each pairing its rows with the points from its
    first row on and building its separations, scales, gaps and normalized
    gaps as new arrays. The chosen pair's gap and separation are reported
    from its own vectors.
    """
    X, Meas, stop = oracle_points(prior, A, blocks, grid_points_per_axis)
    P = len(X)
    norms2 = np.einsum("ij,ij->i", X, X)
    mnorm2 = np.einsum("ij,ij->i", Meas, Meas)
    rows = max(1, REFERENCE_ORACLE_CELLS // P)

    best = (np.inf, np.sqrt(norms2.max()), 0, min(1, P - 1))
    for i0 in range(0, min(stop, P - 1), rows):
        I, J = slice(i0, min(i0 + rows, stop)), slice(i0, P)
        sep2 = norms2[I, None] + norms2[None, J] - 2 * np.abs(X[I] @ X[J].T)
        sep = np.sqrt(np.maximum(sep2, 0.0))
        scale = np.sqrt(np.maximum(norms2[I, None], norms2[None, J]))
        res2 = np.maximum(mnorm2[I, None] + mnorm2[None, J] - 2 * (Meas[I] @ Meas[J].T), 0.0)
        ok = (sep >= SEPARATION_TOL * scale) & (scale > 0)
        ok &= np.arange(i0, P)[None, :] > np.arange(I.start, I.stop)[:, None]
        nres = np.full_like(res2, np.inf)
        nres[ok] = np.sqrt(res2[ok]) / scale[ok] ** 2
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


def so_probe_jacobian_scatter(A, x, y, blocks):
    """The SO(N) probe's constraint Jacobian at A, for a pair (x, y) already normalized.

    Column (a, b), a < b in ``np.triu_indices`` order, is the derivative
    along the generator e_a e_b^T - e_b e_a^T: H[a, b] added into the row of
    a's block and H[b, a] subtracted from the row of b's block, where
    H = 2 A (x x^T - y y^T) A^T.
    """
    N, R = blocks.N, blocks.R
    block_of_row = np.repeat(np.arange(R), blocks.dims)
    a_idx, b_idx = np.triu_indices(N, 1)
    cols = np.arange(a_idx.size)
    H = 2.0 * (A @ (np.outer(x, x) - np.outer(y, y))) @ A.T
    J = np.zeros((R, a_idx.size))
    np.add.at(J, (block_of_row[a_idx], cols), H[a_idx, b_idx])
    np.subtract.at(J, (block_of_row[b_idx], cols), H[b_idx, a_idx])
    return J


def regime_label_reference(N: int, M: int, kind: str) -> str:
    """The injectivity regime of the power-spectrum layout of length N, prior dimension M.

    general-linear: all signals for N >= 4M, generic signals for N >= 2M;
    special-orthogonal: N >= 4M + 2 and N >= 2M + 2 respectively. An
    identity mixing is ``non-generic``.
    """
    if kind == "general-linear":
        all_thr, gen_thr = 4 * M, 2 * M
    elif kind == "special-orthogonal":
        all_thr, gen_thr = 4 * M + 2, 2 * M + 2
    elif kind == "identity":
        return "non-generic"
    else:
        raise ValueError(f"unknown mixing kind {kind!r}")
    if N >= all_thr:
        return "all-signals"
    if N >= gen_thr:
        return "generic-signals"
    return "below-threshold"


def lm_step_reference(J, r, lam):
    """The damped step minimizing ||J delta + r||^2 + lam ||delta||^2, and its predicted reduction.

    From the thin SVD J = U diag(s) V^T and c = U^T r: the step is
    -V (s / (s^2 + lam) * c), and the reduction ||r||^2 - ||r + J delta||^2
    that the linear model predicts for it is ||c||^2 - ||lam / (s^2 + lam) * c||^2.
    """
    U, sv, Vt = np.linalg.svd(J, full_matrices=False)
    c = U.T @ r
    sv2 = sv * sv
    step = -((sv / (sv2 + lam) * c) @ Vt)
    pred = c @ c - np.square(lam / (sv2 + lam) * c).sum()
    return step, pred
