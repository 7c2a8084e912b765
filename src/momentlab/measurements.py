"""Block second-moment measurements of real signals.

A signal is a length-N real vector expressed in *block coordinates*: an
orthonormal basis in which the measurement of interest is the vector of
per-block energies. For cyclic/dihedral problems the basis is the real
Fourier basis and the block energies are exactly the power spectrum; for
other compact symmetry groups the blocks are the irreducible summands.

Coordinate ordering convention (fixed once, used everywhere): singleton
blocks first -- DC, then (for even N) the alternating/Nyquist vector --
followed by (cos, sin) pairs in ascending frequency. All transforms are
unitary, so block energies sum to the squared 2-norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlockStructure",
    "block_structure_for_power_spectrum",
    "real_fourier_matrix",
    "to_real_fourier",
    "second_moment_blocks",
    "matvec",
    "mixed_signal",
    "separable_measurement",
    "measurement_jacobian",
]

class DimensionError(ValueError):
    """Raised when vector/matrix/block dimensions do not agree."""


@dataclass(frozen=True)
class BlockStructure:
    """Ordered list of irreducible block dimensions (N_1, ..., N_R)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0 or any(d < 1 for d in self.dims):
            raise DimensionError(f"block dims must be positive, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @cached_property
    def N(self) -> int:
        return int(sum(self.dims))

    @cached_property
    def R(self) -> int:
        return len(self.dims)

    @cached_property
    def starts(self) -> np.ndarray:
        """Start index of each block (for np.add.reduceat and slicing).

        Built once per layout and shared by every caller, hence read-only.
        """
        starts = np.concatenate(([0], np.cumsum(self.dims)[:-1])).astype(np.intp)
        starts.flags.writeable = False
        return starts

    def slices(self) -> list[slice]:
        return [slice(int(s), int(s) + d) for s, d in zip(self.starts, self.dims)]

    def check_signal(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.N:
            raise DimensionError(
                f"signal has shape {x.shape}, expected length {self.N}"
            )
        return x

    def check_signals(self, x: np.ndarray) -> np.ndarray:
        """A signal (N,) or a stack of signals (B, N), as a float array."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.N:
            raise DimensionError(
                f"signal has shape {x.shape}, expected length {self.N} or a stack (B, {self.N})"
            )
        return x

    def check_mixing(self, A) -> np.ndarray:
        """A mixing (N, N), as a float array."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.N, self.N):
            raise DimensionError(f"mixing has shape {A.shape}, expected {(self.N, self.N)}")
        return A

    # The unchecked cores of the module's kernels (with :func:`matvec`). Each
    # public kernel runs the checks above and then its core; a solver's
    # closures check once per call and then run the cores at every trial point.

    def energies(self, x: np.ndarray) -> np.ndarray:
        """Core of :func:`second_moment_blocks`."""
        return np.add.reduceat(x * x, self.starts, axis=-1)

    def energy_jacobian(self, S: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Core of :func:`measurement_jacobian`."""
        return 2.0 * np.add.reduceat(S[..., None] * A, self.starts, axis=-2)


def block_structure_for_power_spectrum(N: int) -> BlockStructure:
    """Block layout of the power spectrum in the real Fourier basis.

    (1, 1, 2, ..., 2) for even N and (1, 2, ..., 2) for odd N, giving
    R = floor(N/2) + 1 blocks. N = 1 and N = 2 degenerate to all-singleton
    layouts.
    """
    N = int(N)
    if N < 1:
        raise DimensionError(f"signal dimension must be >= 1, got {N}")
    if N == 1:
        return BlockStructure((1,))
    if N % 2 == 0:
        return BlockStructure((1, 1) + (2,) * ((N - 2) // 2))
    return BlockStructure((1,) + (2,) * ((N - 1) // 2))


def real_fourier_matrix(N: int) -> np.ndarray:
    """Orthonormal analysis matrix F of the real Fourier basis.

    Row layout matches :func:`block_structure_for_power_spectrum`:
    constant vector, then (even N only) the alternating vector, then
    sqrt(2/N)-scaled cosine and sine rows per ascending frequency.
    ``F @ v`` maps a time-domain vector to block coordinates.
    """
    N = int(N)
    if N < 1:
        raise DimensionError(f"signal dimension must be >= 1, got {N}")
    t = np.arange(N)
    F = np.empty((N, N))
    F[0] = 1.0 / np.sqrt(N)
    row = 1
    if N % 2 == 0 and N >= 2:
        F[1] = ((-1.0) ** t) / np.sqrt(N)
        row = 2
    n_pairs = (N - 1) // 2 if N % 2 == 1 else (N - 2) // 2
    for k in range(1, n_pairs + 1):
        F[row] = np.sqrt(2.0 / N) * np.cos(2.0 * np.pi * k * t / N)
        F[row + 1] = np.sqrt(2.0 / N) * np.sin(2.0 * np.pi * k * t / N)
        row += 2
    return F


def to_real_fourier(v: np.ndarray) -> np.ndarray:
    """Expand a time-domain vector in the real Fourier basis (unitary)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {v.shape}")
    return real_fourier_matrix(v.shape[0]) @ v


def second_moment_blocks(x: np.ndarray, blocks: BlockStructure) -> np.ndarray:
    """Per-block sums of squared coordinates (R,) of a signal (N,), or (B, R) of a stack (B, N).

    With ``blocks = block_structure_for_power_spectrum(N)`` this is the
    power spectrum of the signal in block coordinates.
    """
    return blocks.energies(blocks.check_signals(x))


def matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``W @ x`` for a vector, and ``(W @ x[..., None])[..., 0]`` for a stack, unchecked.

    The stack form gives each row the bits of the vector form. It is the one
    product of :func:`mixed_signal` and of each layer of a chart walk.
    """
    return W @ x if x.ndim == 1 else (W @ x[..., None])[..., 0]


def mixed_signal(x, A, blocks: BlockStructure) -> np.ndarray:
    """The mixed signal S = A x of a signal (N,), or of each row of a stack (B, N).

    A stack is mixed as ``(A @ X[..., None])[..., 0]``, which gives each row
    the bits of the point form ``A @ x``.
    """
    x = blocks.check_signals(x)
    return matvec(blocks.check_mixing(A), x)


def separable_measurement(x, A, blocks: BlockStructure) -> np.ndarray:
    """Block energies of the mixed signal (N,), or of each row of a stack (B, N).

    Entry k is the sum of <x, w_j>^2 over the rows w_j of A belonging to
    block k, which equals ``second_moment_blocks(A @ x, blocks)``.
    """
    return blocks.energies(mixed_signal(x, A, blocks))


def measurement_jacobian(S, A, blocks: BlockStructure) -> np.ndarray:
    """Jacobian (R x N) of :func:`separable_measurement` at x, from its mixed signal S = A x.

    Row k is 2 * sum_j <x, w_j> w_j over the rows w_j of block k, and
    <x, w_j> is entry j of S, so A @ x is not formed again. A stack of mixed
    signals (B, N) gives one Jacobian per row, (B, R, N).
    """
    S = blocks.check_signals(S)
    return blocks.energy_jacobian(S, blocks.check_mixing(A))
