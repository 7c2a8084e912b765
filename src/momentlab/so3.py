"""Rotations of band-limited spherical functions in real-harmonic coordinates.

A band limit L gives an N = (L+1)^2 dimensional space splitting into blocks
of sizes (1, 3, ..., 2L+1), one per harmonic degree. Coefficients within a
degree are ordered m = -l..l with sine-type harmonics for m < 0, the zonal
harmonic at m = 0, and cosine-type for m > 0.

Rotations use ZYZ Euler angles (alpha, beta, gamma): the point rotation is
Rz(alpha) Ry(beta) Rz(gamma) and functions transform by composition with its
inverse. The per-degree matrix is the complex Wigner matrix -- built as the
exponential of the y-generator, diagonalized once per degree -- conjugated
into the real-harmonic basis, which makes it real orthogonal. Everything here
is plain numpy: the full matrix places the per-degree blocks on the diagonal
of a zeros array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .measurements import BlockStructure, DimensionError

__all__ = [
    "MAX_BAND_LIMIT",
    "band_limit_blocks",
    "rotation_matrix_3d",
    "euler_from_rotation_3d",
    "wigner_block",
    "wigner_degree_block",
    "rotate_bandlimited",
    "haar_euler_angles",
    "so3_quadrature",
]

MAX_BAND_LIMIT = 16


def band_limit_blocks(L: int) -> BlockStructure:
    """Block layout (1, 3, ..., 2L+1) of an L-band-limited expansion."""
    L = int(L)
    if L < 0:
        raise DimensionError(f"band limit must be >= 0, got {L}")
    return BlockStructure(tuple(2 * l + 1 for l in range(L + 1)))


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


@lru_cache(maxsize=None)
def _y_generator_eig(l: int):
    """Eigendecomposition of the Hermitian y-generator in the m = -l..l basis.

    Raising/lowering entries sqrt(l(l+1) - m(m+-1)); eigenvalues are exactly
    the integers -l..l, so exp(-i beta Jy) follows by phase scaling.
    """
    m = np.arange(-l, l + 1)
    d = 2 * l + 1
    Jp = np.zeros((d, d))
    for i in range(d - 1):
        Jp[i + 1, i] = np.sqrt(l * (l + 1) - m[i] * (m[i] + 1))
    Jy = (Jp - Jp.T) / 2j
    w, V = np.linalg.eigh(Jy)
    w.flags.writeable = False           # cached: shared by every caller
    V.flags.writeable = False
    return w, V


@lru_cache(maxsize=None)
def _real_basis_transform(l: int) -> np.ndarray:
    """Unitary U with real coefficients r = U c (c complex, Condon-Shortley).

    Rows follow the real ordering (sine for m < 0, zonal, cosine for m > 0).
    """
    d = 2 * l + 1
    T = np.zeros((d, d), dtype=complex)
    idx = lambda m: m + l
    T[idx(0), idx(0)] = 1.0
    for m in range(1, l + 1):
        T[idx(m), idx(-m)] = 1 / np.sqrt(2)
        T[idx(m), idx(m)] = (-1) ** m / np.sqrt(2)
        T[idx(-m), idx(-m)] = 1j / np.sqrt(2)
        T[idx(-m), idx(m)] = -1j * (-1) ** m / np.sqrt(2)
    U = np.conj(T)
    U.flags.writeable = False           # cached: shared by every caller
    return U


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


def rotate_bandlimited(L: int, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply many rotations to one coefficient vector; returns (n, (L+1)^2).

    Equivalent to stacking ``wigner_block(L, *g) @ x`` over the rows of
    ``angles`` but batched per degree, never materializing the matrices.
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


def haar_euler_angles(rng, size: int | None = None) -> np.ndarray:
    """Haar-uniform rotations: alpha, gamma uniform, cos(beta) uniform."""
    n = 1 if size is None else int(size)
    al = rng.uniform(0.0, 2 * np.pi, size=n)
    ga = rng.uniform(0.0, 2 * np.pi, size=n)
    be = np.arccos(rng.uniform(-1.0, 1.0, size=n))
    angles = np.column_stack([al, be, ga])
    return angles[0] if size is None else angles


def so3_quadrature(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating degree <= 2L rotation integrands exactly.

    Product rule: uniform grids in alpha and gamma (2L+1 points each, exact
    for trigonometric degree 2L) and Gauss-Legendre in cos(beta) (L+2 nodes;
    after the alpha/gamma averaging the surviving beta dependence is a
    polynomial of degree <= 2L in cos(beta)). Weights sum to one.
    """
    L = int(L)
    n_ag = 2 * L + 1
    ang = 2 * np.pi * np.arange(n_ag) / n_ag
    u, wu = np.polynomial.legendre.leggauss(L + 2)
    beta = np.arccos(u)
    A, B, G = np.meshgrid(ang, beta, ang, indexing="ij")
    nodes = np.column_stack([A.ravel(), B.ravel(), G.ravel()])
    W = np.broadcast_to((wu / 2.0)[None, :, None], A.shape).ravel() / (n_ag * n_ag)
    return nodes, W.copy()
