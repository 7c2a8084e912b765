"""Reference forms that the tests compare the library against.

No run of ``momentlab`` calls these. Each is the plain, matrix-at-a-time
form of something the library computes another way, or a writer of the
files the library reads:

* ``dft_block_energy_oracle`` -- block energies from direct DFT sums;
* ``wigner_block`` / ``wigner_degree_block`` -- the rotation matrices whose
  action ``so3.rotate_bandlimited`` applies without forming them;
* ``rotation_matrix_3d`` / ``euler_from_rotation_3d`` -- the 3-D rotations
  behind the homomorphism check of the Wigner blocks;
* ``action_matrix`` -- the matrix of one group element in block coordinates;
* ``extract_invariants`` -- per-block traces of a second moment, the law
  that ``mra.simulate_invariants`` draws from;
* ``network_to_json`` / ``sparse_prior_to_json`` -- fixture writers for the
  formats that ``priors.network_from_json`` and ``sparse_prior_from_json``
  read.
"""

import json

import numpy as np

from momentlab.measurements import BlockStructure, DimensionError
from momentlab.mra import GroupAction, _orbit_matrices
from momentlab.priors import GeneratorNetwork, SparsePrior
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


def action_matrix(g, group: GroupAction) -> np.ndarray:
    """Matrix of one group element in block coordinates."""
    if group.kind == "cyclic":
        s = int(g)
        if not 0 <= s < group.N:
            raise ValueError(f"shift must lie in [0, {group.N}), got {g}")
        return _orbit_matrices("cyclic", group.N)[s]
    if group.kind == "dihedral":
        s, refl = int(g[0]), int(g[1])
        if not 0 <= s < group.N or refl not in (0, 1):
            raise ValueError(f"bad dihedral element {g!r}")
        return _orbit_matrices("dihedral", group.N)[refl * group.N + s]
    alpha, beta, gamma = (float(v) for v in g)
    return wigner_block(group.L, alpha, beta, gamma)


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
            "n": prior.N,
            "basis": [float(v) for v in prior.basis.ravel()],
            "sparsity": prior.sparsity,
            "kind": prior.kind,
        }
    )
