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

``rotate_bandlimited`` applies it to many rotations at once in real
arithmetic, through the factorization D(alpha, beta, gamma) =
Z(alpha) J Z(beta) J^T Z(gamma) (Pinchon & Hoggan, J. Phys. A 40, 1597,
2007). Each Z is a z-rotation, which turns every (m, -m) coefficient pair by
|m| times its angle, and J = D(pi/2, pi/2, -pi/2) is one fixed real matrix
per band limit, built lazily from the Wigner blocks and cached. No rotation
matrix is formed. Everything here is plain numpy.
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


@lru_cache(maxsize=None)
def _rotation_factors(L: int):
    """Coefficient order and fixed factor J of ``rotate_bandlimited`` at band limit L.

    The kernel keeps the coefficients sorted by |m|: the m = 0 entries of
    degrees 0..L, then for k = 1..L the m = +k entries of degrees k..L
    followed by their m = -k partners. ``order`` lists the position in
    (l, m) order of each sorted entry and ``inverse`` undoes it. J is
    D(pi/2, pi/2, -pi/2) in the sorted order: the rotation Rx(-pi/2) that
    takes the z-axis to the y-axis, so that J Z(beta) J^T = D(0, beta, 0).
    """
    order = [l * l + l for l in range(L + 1)]
    for k in range(1, L + 1):
        order += [l * l + l + k for l in range(k, L + 1)]
        order += [l * l + l - k for l in range(k, L + 1)]
    order = np.array(order)
    J = np.zeros((len(order), len(order)))
    for l, s in enumerate(band_limit_blocks(L).slices()):
        w, V = _y_generator_eig(l)
        U = _real_basis_transform(l)
        z = np.exp(-0.5j * np.pi * np.arange(-l, l + 1))     # Z(pi/2), complex basis
        d = V @ (np.exp(-0.5j * np.pi * w)[:, None] * V.conj().T)
        J[s, s] = (U @ (z[:, None] * d / z[None, :]) @ U.conj().T).real
    J = J[np.ix_(order, order)]
    inverse = np.argsort(order)
    for cached in (order, inverse, J):  # shared by every caller
        cached.flags.writeable = False
    return order, inverse, J


def _z_rotate(v: np.ndarray, theta: np.ndarray, L: int) -> None:
    """Apply Z(theta) in place to v, whose rows are |m|-sorted and columns rotations.

    The m = 0 rows stay put. Each m = +k row p and its m = -k partner q turn
    by k theta: p <- cos(k theta) p - sin(k theta) q and
    q <- cos(k theta) q + sin(k theta) p. cos k theta and sin k theta come
    from one cos and sin of theta by angle addition.
    """
    c1, s1 = np.cos(theta), np.sin(theta)
    c, s = c1, s1
    lo = L + 1
    for k in range(1, L + 1):
        if k > 1:
            c, s = c * c1 - s * s1, s * c1 + c * s1
        w = L + 1 - k                   # degrees k..L carry |m| = k
        p, q = v[lo:lo + w], v[lo + w:lo + 2 * w]
        p[...], q[...] = c * p - s * q, c * q + s * p
        lo += 2 * w


def rotate_bandlimited(L: int, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply many rotations to one coefficient vector; returns (n, (L+1)^2).

    Row i is the real Wigner matrix of ``angles[i]`` (alpha, beta, gamma)
    applied to x, as Z(alpha) J Z(beta) J^T Z(gamma) x. The kernel works on
    an (N, n) array with one column per rotation and returns its transpose,
    so the result is column-major.
    """
    if not 0 <= L <= MAX_BAND_LIMIT:
        raise DimensionError(f"band limit must lie in [0, {MAX_BAND_LIMIT}], got {L}")
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.ndim != 2 or angles.shape[1] != 3:
        raise DimensionError(f"angles have shape {angles.shape}, expected (n, 3)")
    x = np.asarray(x, dtype=float)
    N = (L + 1) ** 2
    if x.shape != (N,):
        raise DimensionError(f"coefficients have shape {x.shape}, expected ({N},)")
    order, inverse, J = _rotation_factors(L)
    alpha, beta, gamma = np.ascontiguousarray(angles.T)
    v = np.repeat(x[order, None], angles.shape[0], axis=1)
    _z_rotate(v, gamma, L)
    v = J.T @ v
    _z_rotate(v, beta, L)
    v = J @ v
    _z_rotate(v, alpha, L)
    return v[inverse].T


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
