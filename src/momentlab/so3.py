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
matrix is formed. The first stage J^T Z(gamma) x is one small product of a
(N, 2L+1) matrix, built from x, with the (2L+1, n) table of 1, cos k gamma
and sin k gamma; Z(beta) and Z(alpha) turn the (N, n) columns in place.
Everything here is plain numpy.
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

#: ``rotate_bandlimited`` pads its rotations to a multiple of this many
#: columns. BLAS computes the columns left over from its register blocks in
#: another order, so without the padding a rotation's bits would depend on
#: its call's column count, and a chunked draw would not be the one-shot draw.
_PAD_COLUMNS = 16


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
    """Fixed factors ``(inverse, J, b_at, b_from, b_sign)`` of ``rotate_bandlimited``.

    The kernel keeps the coefficients sorted by |m|: the m = 0 entries of
    degrees 0..L, then for k = 1..L the m = +k entries of degrees k..L
    followed by their m = -k partners. ``order`` lists the position in
    (l, m) order of each sorted entry, and ``inverse`` undoes it. J is
    D(pi/2, pi/2, -pi/2) in the sorted order: the rotation Rx(-pi/2) that
    takes the z-axis to the y-axis, so that J Z(beta) J^T = D(0, beta, 0).

    ``b_at``, ``b_from`` and ``b_sign`` build the kernel's (N, 2L+1) matrix
    B, in sorted rows, from x in (l, m) order: its nonzero entries, at the
    flat positions ``b_at``, are ``b_sign * x[b_from]``. Column 0 holds the
    m = 0 entries; for each k = 1..L column 2k-1 holds the (p, q) pairs of
    |m| = k as they are, and column 2k holds them as (-q, p).
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
    source = np.zeros((len(order), 2 * L + 1), dtype=int)
    sign = np.zeros(source.shape)
    source[: L + 1, 0], sign[: L + 1, 0] = order[: L + 1], 1.0
    lo = L + 1
    for k in range(1, L + 1):
        w = L + 1 - k
        p, q = slice(lo, lo + w), slice(lo + w, lo + 2 * w)
        source[p, 2 * k - 1], source[q, 2 * k - 1] = order[p], order[q]
        source[p, 2 * k], source[q, 2 * k] = order[q], order[p]
        sign[p, 2 * k - 1] = sign[q, 2 * k - 1] = sign[q, 2 * k] = 1.0
        sign[p, 2 * k] = -1.0
        lo += 2 * w
    b_at = np.flatnonzero(sign)
    b_from, b_sign = source.ravel()[b_at], sign.ravel()[b_at]
    for cached in (inverse, J, b_at, b_from, b_sign):   # shared by every caller
        cached.flags.writeable = False
    return inverse, J, b_at, b_from, b_sign


def _trig_table(theta: np.ndarray, L: int, out: np.ndarray) -> None:
    """Fill out, (2L+1, n), with the rows 1, cos k theta, sin k theta for k = 1..L.

    cos k theta and sin k theta come from one cos and sin of theta by angle
    addition, c_k = c_{k-1} c_1 - s_{k-1} s_1 and s_k = s_{k-1} c_1 + c_{k-1} s_1,
    each written into its row.
    """
    out[0] = 1.0
    if L == 0:
        return
    c1, s1 = out[1], out[2]
    np.cos(theta, out=c1)
    np.sin(theta, out=s1)
    for k in range(2, L + 1):
        c, s, ck, sk = out[2 * k - 3 : 2 * k + 1]
        np.multiply(c, c1, out=ck)
        ck -= s * s1
        np.multiply(s, c1, out=sk)
        sk += c * s1


def _z_rotate(v: np.ndarray, table: np.ndarray, L: int) -> None:
    """Apply Z(theta) in place to v, whose rows are |m|-sorted and columns rotations.

    ``table`` is theta's trig table (``_trig_table``). The m = 0 rows stay put.
    Each m = +k row p and its m = -k partner q turn by k theta:
    p <- cos(k theta) p - sin(k theta) q and q <- cos(k theta) q + sin(k theta) p,
    in place, with sin(k theta) q taken before q changes.
    """
    lo = L + 1
    for k in range(1, L + 1):
        c, s = table[2 * k - 1], table[2 * k]
        w = L + 1 - k                   # degrees k..L carry |m| = k
        p, q = v[lo:lo + w], v[lo + w:lo + 2 * w]
        t = s * q
        q *= c
        q += s * p
        p *= c
        p -= t
        lo += 2 * w


def rotate_bandlimited(L: int, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply many rotations to one coefficient vector; returns (n, (L+1)^2).

    Row i is the real Wigner matrix of ``angles[i]`` (alpha, beta, gamma)
    applied to x, as Z(alpha) J Z(beta) J^T Z(gamma) x. The kernel works on
    an (N, n) array with one column per rotation and returns its transpose,
    so the result is column-major.

    The first stage J^T Z(gamma) x is one product. Z(gamma) x is a fixed
    combination of 2L+1 vectors: the m = 0 part of x, and for each k = 1..L
    a cos k gamma vector (x's m = +-k pairs as they are) and a sin k gamma
    vector (each pair (p, q) as (-q, p)). These are the columns of B,
    (N, 2L+1), filled from x by index arrays cached with J, so
    J^T Z(gamma) x = (J^T B) T(gamma), with T(gamma) the
    (2L+1, n) trig table of rows 1, cos k gamma, sin k gamma. The Z(beta) and
    Z(alpha) stages turn the columns in place with the tables of beta and
    alpha, built one after the other in the same buffer. Zero columns pad
    the table to a multiple of ``_PAD_COLUMNS``, so a rotation's row has the
    same bits in a call of any size.
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
    inverse, J, b_at, b_from, b_sign = _rotation_factors(L)
    B = np.zeros(N * (2 * L + 1))
    B[b_at] = b_sign * x[b_from]
    B = B.reshape(N, 2 * L + 1)
    n = angles.shape[0]
    table = np.zeros((2 * L + 1, -(-n // _PAD_COLUMNS) * _PAD_COLUMNS))
    _trig_table(angles[:, 2], L, table[:, :n])
    v = (J.T @ B) @ table
    _trig_table(angles[:, 1], L, table[:, :n])
    _z_rotate(v, table, L)
    v = J @ v
    _trig_table(angles[:, 0], L, table[:, :n])
    _z_rotate(v, table, L)
    return v[inverse, :n].T


def haar_euler_angles(rng, size: int) -> np.ndarray:
    """Haar-uniform rotations, (size, 3): alpha, gamma uniform, cos(beta) uniform.

    alpha, gamma and cos(beta) are drawn in that order, and each draw is
    written into its column of the result before the next, so besides the
    result one draw is held at a time.
    """
    angles = np.empty((size, 3))
    angles[:, 0] = rng.uniform(0.0, 2 * np.pi, size=size)
    angles[:, 2] = rng.uniform(0.0, 2 * np.pi, size=size)
    cos_beta = rng.uniform(-1.0, 1.0, size=size)
    angles[:, 1] = np.arccos(cos_beta, out=cos_beta)
    return angles


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
