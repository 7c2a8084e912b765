"""Semi-algebraic signal priors and generic mixing samplers.

Two prior families are supported: feed-forward generator networks built
from linear layers and piecewise-linear activations (ReLU, leaky ReLU,
hardtanh, identity), and sparse models with respect to a chosen basis.
Both produce signals in block coordinates, so their outputs feed directly
into :mod:`momentlab.measurements`.

Every prior is a finite union of generator networks, its charts: a network
is its own chart, and a sparse prior is evaluated as one linear network per
support, whose layer holds that support's basis columns. So
:func:`generator_forward` and :func:`generator_jacobian` evaluate every prior.

"Generic" matrices are realized as random draws from continuous
distributions; every sampler threads an explicit seed so experiments can
record it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .measurements import DimensionError, real_fourier_matrix

__all__ = [
    "Layer",
    "GeneratorNetwork",
    "SparsePrior",
    "generator_forward",
    "generator_jacobian",
    "estimate_image_dimension",
    "numerical_rank",
    "prior_charts",
    "latent_parametrizations",
    "parse_activation",
    "sample_mixing",
    "ambient_network",
    "random_relu_network",
    "perturb_final_layer",
    "standard_basis_sparse_prior",
    "generic_orthonormal_sparse_prior",
    "generic_linear_sparse_prior",
    "network_from_json",
    "sparse_prior_from_json",
]

_ACT_RE = re.compile(r"^([a-z-]+)(?:\(([^)]*)\))?$")

#: Maximum attempts when re-drawing a numerically singular Gaussian matrix.
_MIXING_RETRIES = 16


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def parse_activation(tag: str):
    """Split an activation tag like ``leaky-relu(0.01)`` into name + params."""
    m = _ACT_RE.match(tag.strip())
    if not m:
        raise ValueError(f"unparseable activation tag {tag!r}")
    name, args = m.group(1), m.group(2)
    params = tuple(float(a) for a in args.split(",")) if args else ()
    if name == "relu" or name == "identity":
        if params:
            raise ValueError(f"{name} takes no parameters, got {tag!r}")
    elif name == "leaky-relu":
        if len(params) != 1:
            raise ValueError(f"leaky-relu needs one slope parameter, got {tag!r}")
    elif name == "hardtanh":
        if len(params) != 2 or params[0] >= params[1]:
            raise ValueError(f"hardtanh needs (lo, hi) with lo < hi, got {tag!r}")
    else:
        raise ValueError(f"unknown activation {name!r}")
    return name, params


def _apply_activation(act, a: np.ndarray) -> np.ndarray:
    """Apply a parsed activation ``(name, params)`` elementwise."""
    name, params = act
    if name == "identity":
        return a
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "leaky-relu":
        slope = params[0]
        return np.where(a > 0, a, slope * a)
    # hardtanh
    lo, hi = params
    return np.clip(a, lo, hi)


def _activation_derivative(act, a: np.ndarray) -> np.ndarray:
    """Elementwise derivative at pre-activation values a (0 at kinks)."""
    name, params = act
    if name == "identity":
        return np.ones_like(a)
    if name == "relu":
        return (a > 0).astype(float)
    if name == "leaky-relu":
        slope = params[0]
        return np.where(a > 0, 1.0, slope)
    lo, hi = params
    return ((a > lo) & (a < hi)).astype(float)


@dataclass(frozen=True)
class Layer:
    """One affine layer followed by an elementwise activation."""

    weight: np.ndarray
    activation: str = "identity"
    bias: np.ndarray | None = None
    #: ``activation`` parsed once into (name, params).
    _act: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.asarray(self.weight, dtype=float)
        if W.ndim != 2:
            raise DimensionError(f"layer weight must be 2-d, got shape {W.shape}")
        object.__setattr__(self, "weight", W)
        object.__setattr__(self, "_act", parse_activation(self.activation))
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=float)
            if b.shape != (W.shape[0],):
                raise DimensionError(
                    f"bias shape {b.shape} does not match output dim {W.shape[0]}"
                )
            object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class GeneratorNetwork:
    """Composition of layers: x = act_L(W_L ... act_1(W_1 z)).

    Networks carry no bias by default; the final layer is typically linear
    (activation "identity"). Consecutive layer dimensions must chain.
    """

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise DimensionError(
                    f"layer dims do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def latent_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def generator_forward(net: GeneratorNetwork, z: np.ndarray) -> np.ndarray:
    """Evaluate the network at a latent point (K,) or a stack of them (B, K).

    Each layer maps a point as ``W @ z`` and a stack as ``(W @ Z.T).T``.
    """
    a = np.asarray(z, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != net.latent_dim:
        raise DimensionError(f"latent has shape {a.shape}, expected (..., {net.latent_dim})")
    for layer in net.layers:
        a = layer.weight @ a if a.ndim == 1 else (layer.weight @ a.T).T
        if layer.bias is not None:
            a = a + layer.bias
        a = _apply_activation(layer._act, a)
    return a


def generator_jacobian(net: GeneratorNetwork, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value x (the bits of ``generator_forward``) and Jacobian dx/dz, in one layer walk.

    The Jacobian follows the activation-pattern chain rule. Piecewise-linear
    activations have derivative 0 at their kinks, so the Jacobian is the one
    of the active linear piece.
    """
    a = np.asarray(z, dtype=float)
    if a.shape != (net.latent_dim,):
        raise DimensionError(
            f"latent has shape {a.shape}, expected ({net.latent_dim},)"
        )
    J = None
    for layer in net.layers:
        a = layer.weight @ a
        if layer.bias is not None:
            a = a + layer.bias
        J = layer.weight if J is None else layer.weight @ J
        d = _activation_derivative(layer._act, a)
        a = _apply_activation(layer._act, a)
        J = d[:, None] * J
    return a, J


#: Singular values above this multiple of the largest count towards a rank.
RANK_RTOL = 1e-6


def numerical_rank(sv: np.ndarray) -> int:
    """Number of singular values (descending) above RANK_RTOL times the largest."""
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0


def estimate_image_dimension(net: GeneratorNetwork, trials: int = 50, seed=0) -> int:
    """Estimate dim(image) as the max Jacobian rank over sampled latents.

    The image of a piecewise-linear map is a union of strata whose
    dimension is attained on the stratum of maximal Jacobian rank, hence
    the max over standard-Gaussian latent samples.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_rng(seed)
    best_rank = 0
    for _ in range(trials):
        z = rng.normal(size=net.latent_dim)
        sv = np.linalg.svd(generator_jacobian(net, z)[1], compute_uv=False)
        best_rank = max(best_rank, numerical_rank(sv))
    return best_rank


@dataclass(frozen=True)
class SparsePrior:
    """Signals of the form B @ c with c supported on at most M entries."""

    basis: np.ndarray
    sparsity: int
    kind: str = "generic-orthonormal"

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DimensionError(f"basis must be square, got shape {B.shape}")
        object.__setattr__(self, "basis", B)
        N = B.shape[0]
        if not (1 <= self.sparsity <= N):
            raise ValueError(f"sparsity must lie in [1, {N}], got {self.sparsity}")
        if self.kind not in ("standard-basis", "generic-orthonormal", "generic-linear"):
            raise ValueError(f"unknown sparse prior kind {self.kind!r}")
        if self.kind in ("standard-basis", "generic-orthonormal"):
            err = np.max(np.abs(B.T @ B - np.eye(N)))
            if err > 1e-10:
                raise ValueError(f"basis not orthonormal: |B^T B - I|_max = {err:.3e}")

    @property
    def N(self) -> int:
        return self.basis.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.sparsity

    @property
    def output_dim(self) -> int:
        return self.N


def _support_chart(prior: SparsePrior, support) -> GeneratorNetwork:
    """The linear network z -> basis[:, support] @ z of one support."""
    return GeneratorNetwork((Layer(prior.basis[:, support]),))


def prior_charts(prior) -> list[GeneratorNetwork]:
    """The generator networks whose images make up the prior.

    A network is its own chart; a sparse prior has one linear chart per
    support, in ``itertools.combinations`` order.
    """
    if isinstance(prior, SparsePrior):
        supports = combinations(range(prior.N), prior.sparsity)
        return [_support_chart(prior, list(support)) for support in supports]
    return [prior]


def latent_parametrizations(prior, rng):
    """Yield (z0, net) pairs, one per restart branch: a start and its chart.

    Generator networks use Gaussian latent starts in the network itself;
    sparse priors draw a fresh random support per restart and optimize its
    coefficients in that support's linear chart.
    """
    if isinstance(prior, GeneratorNetwork):
        while True:
            yield rng.normal(size=prior.latent_dim), prior
    elif isinstance(prior, SparsePrior):
        M = prior.sparsity
        while True:
            support = np.sort(rng.choice(prior.N, size=M, replace=False))
            yield rng.normal(size=M), _support_chart(prior, support)
    else:
        raise TypeError(f"unsupported prior type {type(prior).__name__}")


def standard_basis_sparse_prior(N: int, M: int) -> SparsePrior:
    """Sparsity in the standard basis of the time domain.

    Time-domain coordinate vectors expand to the columns of the real
    Fourier matrix in block coordinates, so the basis here is that matrix;
    cyclically shifting a support then leaves the power spectrum unchanged.
    """
    return SparsePrior(real_fourier_matrix(N), int(M), "standard-basis")


def generic_orthonormal_sparse_prior(N: int, M: int, seed=0) -> SparsePrior:
    """Sparsity with respect to a Haar-random orthonormal basis."""
    B = sample_mixing(N, "special-orthogonal", seed)
    return SparsePrior(B, int(M), "generic-orthonormal")


def generic_linear_sparse_prior(N: int, M: int, seed=0) -> SparsePrior:
    """Sparsity with respect to a random invertible (non-orthogonal) basis."""
    B = sample_mixing(N, "general-linear", seed)
    return SparsePrior(B, int(M), "generic-linear")


def sample_mixing(N: int, kind: str, seed=0) -> np.ndarray:
    """Draw a generic (N, N) mixing: Gaussian for GL(N), Haar for SO(N).

    A Gaussian draw whose smallest singular value is not above 1e-12 times
    its largest is drawn again, up to _MIXING_RETRIES times. The Haar draw
    orthonormalizes a Gaussian matrix by QR, fixes the sign ambiguity of
    the factorization via the diagonal of R, and flips one row when needed
    so the determinant is +1.
    """
    N = int(N)
    if N < 1:
        raise DimensionError(f"dimension must be >= 1, got {N}")
    rng = as_rng(seed)
    if kind == "general-linear":
        for _ in range(_MIXING_RETRIES):
            A = rng.normal(size=(N, N))
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[-1] > 1e-12 * sv[0]:
                return A
        raise RuntimeError(
            f"failed to draw a well-conditioned Gaussian matrix in {_MIXING_RETRIES} tries"
        )
    if kind == "special-orthogonal":
        G = rng.normal(size=(N, N))
        Q, Rf = np.linalg.qr(G)
        signs = np.sign(np.diag(Rf))
        signs[signs == 0] = 1.0
        Q = Q * signs
        if np.linalg.det(Q) < 0:
            Q[0] *= -1.0
        return Q
    raise ValueError(f"unknown mixing kind {kind!r}")


def ambient_network(N: int) -> GeneratorNetwork:
    """The trivial prior covering all of R^N (single identity layer)."""
    return GeneratorNetwork((Layer(np.eye(int(N)), "identity"),))


def random_relu_network(
    widths: tuple[int, ...],
    seed=0,
    activation: str = "relu",
) -> GeneratorNetwork:
    """Gaussian-weight network with hidden activations and a linear last layer.

    ``widths = (K, h_1, ..., h_{L-1}, N)`` gives latent dimension K and
    output dimension N. With generic weights and all widths >= K the image
    dimension equals K.
    """
    if len(widths) < 2:
        raise DimensionError("need at least (latent, output) widths")
    rng = as_rng(seed)
    layers = []
    for i in range(len(widths) - 1):
        W = rng.normal(size=(widths[i + 1], widths[i]))
        act = activation if i < len(widths) - 2 else "identity"
        layers.append(Layer(W, act))
    return GeneratorNetwork(tuple(layers))


def perturb_final_layer(
    net: GeneratorNetwork, rel_scale: float = 1e-2, seed=0
) -> GeneratorNetwork:
    """Add a small Gaussian perturbation to the last layer's weights.

    Makes the final linear map generic (almost surely) while staying close
    to the original network; the relative scale is a tunable knob.
    """
    rng = as_rng(seed)
    last = net.layers[-1]
    W = last.weight
    scale = rel_scale * np.linalg.norm(W) / np.sqrt(W.size)
    W_new = W + scale * rng.normal(size=W.shape)
    return GeneratorNetwork(net.layers[:-1] + (Layer(W_new, last.activation, last.bias),))


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def network_from_json(text: str) -> GeneratorNetwork:
    """Parse {layers: [{rows, cols, data(row-major), activation, bias?}], latent_dim?}."""
    payload = json.loads(text)
    layers = []
    for spec in payload["layers"]:
        W = np.asarray(spec["data"], dtype=float).reshape(spec["rows"], spec["cols"])
        bias = np.asarray(spec["bias"], dtype=float) if "bias" in spec else None
        layers.append(Layer(W, spec.get("activation", "identity"), bias))
    net = GeneratorNetwork(tuple(layers))
    declared = payload.get("latent_dim")
    if declared is not None and declared != net.latent_dim:
        raise DimensionError(
            f"declared latent_dim {declared} != first layer cols {net.latent_dim}"
        )
    return net


def sparse_prior_from_json(text: str) -> SparsePrior:
    """Parse {n?, basis(row-major), sparsity, kind?}."""
    payload = json.loads(text)
    n = int(payload["n"]) if "n" in payload else int(round(len(payload["basis"]) ** 0.5))
    B = np.asarray(payload["basis"], dtype=float).reshape(n, n)
    return SparsePrior(B, int(payload["sparsity"]), payload.get("kind", "generic-orthonormal"))
