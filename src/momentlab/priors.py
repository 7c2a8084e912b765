"""Semi-algebraic signal priors and generic mixing samplers.

Two prior families are supported: feed-forward generator networks built
from linear layers and piecewise-linear activations (ReLU, leaky ReLU,
hardtanh, identity), and sparse models with respect to a chosen basis.
Both produce signals in block coordinates, so their outputs feed directly
into :mod:`momentlab.measurements`.

Every prior is a finite union of generator networks, its charts: a network
is its own chart, and a sparse prior is evaluated as one linear network per
support, whose layer holds that support's basis columns. So
:func:`chart_walk` evaluates every prior: it walks a network's layers once
at a latent point or a stack of them and keeps each layer's pre-activation,
from which :func:`walk_jacobian` takes the Jacobian without a second pass.
Charts walked together, one per row of a stack, are stacked on a lane axis
by :func:`chart_stack`. :func:`chart_walk` checks the latent and then runs
the unchecked walk ``GeneratorNetwork.walk``, which a solver's objective,
having checked its prior once, calls directly.

"Generic" matrices are realized as random draws from continuous
distributions; every sampler threads an explicit seed so experiments can
record it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .measurements import DimensionError, matvec, real_fourier_matrix

__all__ = [
    "Layer",
    "GeneratorNetwork",
    "SparsePrior",
    "ChartWalk",
    "chart_stack",
    "chart_walk",
    "walk_jacobian",
    "estimate_image_dimension",
    "numerical_rank",
    "prior_charts",
    "is_cone",
    "has_cone_sectors",
    "cone_sectors",
    "check_prior",
    "latent_parametrizations",
    "parse_activation",
    "sample_mixing",
    "ambient_network",
    "random_relu_network",
    "sparse_prior",
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


class _Activation(NamedTuple):
    n_params: int
    value: Callable         # (a, params) -> act(a), elementwise
    derivative: Callable    # (a, params) -> act'(a), elementwise and 0 at the kinks
    homogeneous: bool       # act(t a) = t act(a) for every t > 0, whatever the params


#: Every activation a layer may carry, by name.
_ACTIVATIONS = {
    "identity": _Activation(0, lambda a, p: a, lambda a, p: np.ones_like(a), True),
    "relu": _Activation(
        0, lambda a, p: np.maximum(a, 0.0), lambda a, p: (a > 0).astype(float), True
    ),
    "leaky-relu": _Activation(
        1, lambda a, p: np.where(a > 0, a, p[0] * a), lambda a, p: np.where(a > 0, 1.0, p[0]),
        True,
    ),
    "hardtanh": _Activation(
        2, lambda a, p: np.clip(a, *p), lambda a, p: ((a > p[0]) & (a < p[1])).astype(float),
        False,
    ),
}


def parse_activation(tag: str):
    """Split an activation tag like ``leaky-relu(0.01)`` into name + finite params."""
    m = _ACT_RE.match(tag.strip())
    if not m:
        raise ValueError(f"unparseable activation tag {tag!r}")
    name, args = m.group(1), m.group(2)
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    params = tuple(float(a) for a in args.split(",")) if args else ()
    n_params = _ACTIVATIONS[name].n_params
    if len(params) != n_params or not np.isfinite(params).all():
        raise ValueError(f"{name} takes {n_params} finite parameter(s), got {tag!r}")
    if name == "hardtanh" and params[0] >= params[1]:
        raise ValueError(f"hardtanh needs (lo, hi) with lo < hi, got {tag!r}")
    return name, params


@dataclass(frozen=True)
class Layer:
    """One affine layer followed by an elementwise activation.

    A layer of a chart stack carries a leading lane axis: weight (B, out, in)
    and bias (B, out), whose lane b is the layer of chart b.
    """

    weight: np.ndarray
    activation: str = "identity"
    bias: np.ndarray | None = None
    #: ``activation`` parsed once into (name, params).
    _act: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.asarray(self.weight, dtype=float)
        if W.ndim not in (2, 3):
            raise DimensionError(
                f"layer weight must be 2-d, or 3-d with a lane axis, got shape {W.shape}"
            )
        object.__setattr__(self, "weight", W)
        object.__setattr__(self, "_act", parse_activation(self.activation))
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=float)
            if b.shape != W.shape[:-1]:
                raise DimensionError(
                    f"bias shape {b.shape} does not match the weight's {W.shape[:-1]}"
                )
            object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class GeneratorNetwork:
    """Composition of layers: x = act_L(W_L ... act_1(W_1 z)).

    Networks carry no bias by default; the final layer is typically linear
    (activation "identity"). Consecutive layer dimensions must chain, and
    the layers with a lane axis must agree on its length, ``lanes``.
    """

    layers: tuple[Layer, ...]
    #: Lane count of a chart stack (see :func:`chart_stack`); None for one chart.
    lanes: int | None = field(init=False, compare=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[-1] != prev.weight.shape[-2]:
                raise DimensionError(
                    f"layer dims do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        lanes = {layer.weight.shape[0] for layer in layers if layer.weight.ndim == 3}
        if len(lanes) > 1:
            raise DimensionError(f"layers disagree on the lane count: {sorted(lanes)}")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "lanes", lanes.pop() if lanes else None)

    @property
    def latent_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]

    def walk(self, a: np.ndarray) -> ChartWalk:
        """The unchecked core of :func:`chart_walk`, for a float latent that it accepts.

        Each layer maps a point or a stack by :func:`matvec`, which gives every
        row of a stack the bits of the point.
        """
        pre = []
        for layer in self.layers:
            a = matvec(layer.weight, a)
            if layer.bias is not None:
                a = a + layer.bias
            pre.append(a)
            name, params = layer._act
            a = _ACTIVATIONS[name].value(a, params)
        return ChartWalk(self, a, tuple(pre))


def chart_stack(nets) -> GeneratorNetwork:
    """One network whose lane b is chart ``nets[b]``, to walk a (B, K) stack at once.

    Charts that are all one network (a network prior's) are that network,
    which walks a stack of any length. Other charts must match layer for
    layer in shape, activation and bias; their weights and biases are then
    stacked on a lane axis.
    """
    first = nets[0]
    if all(net is first for net in nets):
        return first
    if any(len(net.layers) != len(first.layers) for net in nets):
        raise DimensionError("charts to stack differ in their number of layers")
    layers = []
    for lane_layers in zip(*(net.layers for net in nets)):
        head = lane_layers[0]
        if any(
            layer.weight.shape != head.weight.shape
            or layer._act != head._act
            or (layer.bias is None) != (head.bias is None)
            for layer in lane_layers
        ):
            raise DimensionError("charts to stack differ in a layer's shape, activation or bias")
        bias = None if head.bias is None else np.stack([layer.bias for layer in lane_layers])
        layers.append(Layer(np.stack([layer.weight for layer in lane_layers]), head.activation, bias))
    return GeneratorNetwork(tuple(layers))


class ChartWalk(NamedTuple):
    """A network walked at a latent point or stack: its value and each layer's pre-activation."""

    net: GeneratorNetwork
    x: np.ndarray
    pre_activations: tuple


def chart_walk(net: GeneratorNetwork, z: np.ndarray) -> ChartWalk:
    """Walk the layers once at a latent point (K,) or stack (B, K).

    Checks the latent, then runs ``net.walk``. A chart stack walks a
    (lanes, K) stack, lane b through chart b.
    """
    a = np.asarray(z, dtype=float)
    K = net.latent_dim
    if net.lanes is None:
        if a.ndim not in (1, 2) or a.shape[-1] != K:
            raise DimensionError(f"latent has shape {a.shape}, expected (..., {K})")
    elif a.shape != (net.lanes, K):
        raise DimensionError(f"latent has shape {a.shape}, expected ({net.lanes}, {K})")
    return net.walk(a)


def walk_jacobian(walk: ChartWalk) -> np.ndarray:
    """Jacobian dx/dz (N, K) at a walk's point, or (B, N, K) at each row of its stack.

    The chain rule runs over the walk's pre-activations, so there is no
    second forward pass. Piecewise-linear activations have derivative 0 at
    their kinks, so the Jacobian is the one of the active linear piece.
    The first layer always multiplies by its derivative, so the Jacobian is
    a fresh array with one row per row of the walk's stack; a later identity
    layer multiplies by nothing, which changes no bit.
    """
    J = None
    for layer, a in zip(walk.net.layers, walk.pre_activations):
        name, params = layer._act
        if J is None:
            J = layer.weight
        else:
            J = layer.weight @ J
            if name == "identity":
                continue
        J = _ACTIVATIONS[name].derivative(a, params)[..., None] * J
    return J


#: Singular values above this multiple of the largest count towards a rank.
RANK_RTOL = 1e-6


def numerical_rank(sv: np.ndarray) -> int:
    """Number of singular values (descending) above RANK_RTOL times the largest."""
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0


#: Standard-Gaussian latent draws, from seed 0, behind :func:`estimate_image_dimension`.
IMAGE_DIMENSION_TRIALS = 32


def estimate_image_dimension(net: GeneratorNetwork) -> int:
    """Estimate dim(image) as the max Jacobian rank over sampled latents.

    The image of a piecewise-linear map is a union of strata whose
    dimension is attained on the stratum of maximal Jacobian rank, hence
    the max over ``IMAGE_DIMENSION_TRIALS`` standard-Gaussian latent samples.
    They are walked as one stack and their Jacobians decomposed by one SVD.
    """
    Z = as_rng(0).normal(size=(IMAGE_DIMENSION_TRIALS, net.latent_dim))
    sv = np.linalg.svd(walk_jacobian(chart_walk(net, Z)), compute_uv=False)
    return max(numerical_rank(row) for row in sv)


#: Each sparse prior kind, and the sample_mixing kind of its basis (None: real Fourier).
_SPARSE_BASES = {
    "standard-basis": None,
    "generic-orthonormal": "special-orthogonal",
    "generic-linear": "general-linear",
}


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
        if self.kind not in _SPARSE_BASES:
            raise ValueError(f"unknown sparse prior kind {self.kind!r}")
        if self.kind != "generic-linear":
            err = np.max(np.abs(B.T @ B - np.eye(N)))
            if err > 1e-10:
                raise ValueError(f"basis not orthonormal: |B^T B - I|_max = {err:.3e}")

    @property
    def latent_dim(self) -> int:
        return self.sparsity

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]


def _support_chart(prior: SparsePrior, support) -> GeneratorNetwork:
    """The linear network z -> basis[:, support] @ z of one support."""
    return GeneratorNetwork((Layer(prior.basis[:, support]),))


def prior_charts(prior) -> list[GeneratorNetwork]:
    """The generator networks whose images make up the prior.

    A network is its own chart; a sparse prior has one linear chart per
    support, in ``itertools.combinations`` order.
    """
    if isinstance(prior, SparsePrior):
        supports = combinations(range(prior.output_dim), prior.sparsity)
        return [_support_chart(prior, list(support)) for support in supports]
    return [prior]


def is_cone(net: GeneratorNetwork) -> bool:
    """Whether the network counts as a cone: net(t z) = t net(z) for every t > 0.

    It does when no layer has a bias and every activation is positively
    homogeneous (identity, ReLU and leaky ReLU are; hardtanh is not). A
    sparse prior's charts are single identity layers with no bias, so each
    is a cone.
    """
    return all(
        layer.bias is None and _ACTIVATIONS[layer._act[0]].homogeneous for layer in net.layers
    )


def has_cone_sectors(prior) -> bool:
    """Whether ``prior`` is one cone network of latent dimension 2 (:func:`cone_sectors`)."""
    return (
        isinstance(prior, GeneratorNetwork)
        and prior.lanes is None
        and prior.latent_dim == 2
        and is_cone(prior)
    )


def cone_sectors(net: GeneratorNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The angular sectors on which a cone network of latent dimension 2 is linear.

    Returns ``(edges, W)``: the S + 1 ascending angles from -pi to pi and the
    (S, N, 2) maps, read-only, with net(t u(theta)) = t W[s] u(theta) for
    every t >= 0 and theta in [edges[s], edges[s + 1]], u = (cos, sin).
    The layers are walked with exact cuts: inside a sector each unit's
    pre-activation r . u is linear in u, so its zeros are at
    arctan2(-r0, r1) and that angle plus pi, and each piece between the cuts
    takes its activation pattern from the derivative at its midpoint.
    Montufar et al., "On the number of linear regions of deep neural
    networks" (2014), bound the number of sectors.
    """
    if not has_cone_sectors(net):
        raise ValueError("cone_sectors needs one cone network of latent dimension 2")
    sectors = [(-np.pi, np.pi, np.eye(2))]      # (lo, hi, the map of the layer's input)
    for layer in net.layers:
        name, params = layer._act
        derivative = _ACTIVATIONS[name].derivative
        cut = []
        for lo, hi, M in sectors:
            pre = layer.weight @ M
            if name == "identity":          # no kink, so no cut
                cut.append((lo, hi, pre))
                continue
            rows = pre[np.any(pre != 0.0, axis=1)]
            zero = np.arctan2(-rows[:, 0], rows[:, 1])
            angles = np.concatenate([zero, zero + np.pi, zero - np.pi])
            inner = np.unique(angles[(angles > lo) & (angles < hi)])
            bounds = np.concatenate([[lo], inner, [hi]])
            for a, b in zip(bounds[:-1], bounds[1:]):
                mid = 0.5 * (a + b)
                slope = derivative(pre @ np.array([np.cos(mid), np.sin(mid)]), params)
                cut.append((a, b, slope[:, None] * pre))
        sectors = cut
    edges = np.array([lo for lo, _, _ in sectors] + [np.pi])
    W = np.stack([M for _, _, M in sectors])
    edges.flags.writeable = False
    W.flags.writeable = False
    return edges, W


def check_prior(prior, N: int) -> None:
    """Check that ``prior`` is a network or a sparse prior whose signals have length N.

    A solver checks its prior once, so its objective can walk the charts unchecked.
    """
    if not isinstance(prior, (GeneratorNetwork, SparsePrior)):
        raise TypeError(f"unsupported prior type {type(prior).__name__}")
    if prior.output_dim != N:
        raise DimensionError(f"prior signals have length {prior.output_dim}, expected {N}")


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
            support = np.sort(rng.choice(prior.output_dim, size=M, replace=False))
            yield rng.normal(size=M), _support_chart(prior, support)
    else:
        raise TypeError(f"unsupported prior type {type(prior).__name__}")


def sparse_prior(N: int, M: int, kind: str = "generic-orthonormal", seed=0) -> SparsePrior:
    """Signals of R^N that are M-sparse in a Haar-random orthonormal basis, a random
    invertible one (``generic-linear``), or the time domain's (``standard-basis``).

    Time-domain coordinate vectors are the columns of the real Fourier matrix in
    block coordinates, so shifting a support keeps its power spectrum; no seed is read.
    """
    mixing = _SPARSE_BASES.get(kind)        # SparsePrior rejects an unknown kind
    B = real_fourier_matrix(N) if mixing is None else sample_mixing(N, mixing, seed)
    return SparsePrior(B, int(M), kind)


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


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def _finite_array(values, where: str) -> np.ndarray:
    """``values`` as a float array; a NaN or infinite entry raises ValueError naming ``where``."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{where} has a non-finite entry")
    return a


def network_from_json(text: str) -> GeneratorNetwork:
    """Parse {layers: [{rows, cols, data(row-major), activation, bias?}], latent_dim?}."""
    payload = json.loads(text)
    layers = []
    for i, spec in enumerate(payload["layers"]):
        W = _finite_array(spec["data"], f"layers[{i}].data").reshape(spec["rows"], spec["cols"])
        bias = _finite_array(spec["bias"], f"layers[{i}].bias") if "bias" in spec else None
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
    B = _finite_array(payload["basis"], "basis").reshape(n, n)
    return SparsePrior(B, int(payload["sparsity"]), payload.get("kind", "generic-orthonormal"))
