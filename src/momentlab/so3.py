"""Rotations of band-limited spherical functions in real-harmonic coordinates.

A band limit L gives an N = (L+1)^2 dimensional space splitting into blocks
of sizes (1, 3, ..., 2L+1), one per harmonic degree. Coefficients within a
degree are ordered m = -l..l with sine-type harmonics for m < 0, the zonal
harmonic at m = 0, and cosine-type for m > 0.

Rotations use ZYZ Euler angles (alpha, beta, gamma): the point rotation is
Rz(alpha) Ry(beta) Rz(gamma) and functions transform by composition with its
inverse. Per degree the action is the complex Wigner matrix -- the
exponential of the y-generator, diagonalized once per degree -- conjugated
into the real-harmonic basis, which makes it real orthogonal.
``rotate_bandlimited`` applies it to many rotations at once, factor by factor,
and never forms a matrix. Everything here is plain numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .measurements import BlockStructure, DimensionError

__all__ = [
    "MAX_BAND_LIMIT",
    "band_limit_blocks",
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


def rotate_bandlimited(L: int, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
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


def haar_euler_angles(rng, size: int) -> np.ndarray:
    """Haar-uniform rotations, (size, 3): alpha, gamma uniform, cos(beta) uniform."""
    al = rng.uniform(0.0, 2 * np.pi, size=size)
    ga = rng.uniform(0.0, 2 * np.pi, size=size)
    be = np.arccos(rng.uniform(-1.0, 1.0, size=size))
    return np.column_stack([al, be, ga])


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
