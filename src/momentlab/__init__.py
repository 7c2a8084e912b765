"""Block second-moment measurements, signal priors, and injectivity experiments.

The package is organized around a single measurement primitive: the energies of
a signal's coordinates grouped into irreducible blocks (for circulant problems
this is the classical power spectrum in a real Fourier basis). On top of it sit

* ``measurements`` -- the block-energy map, its mixed/separable form, Jacobians;
* ``priors``       -- ReLU-style generator networks, sparse models, and generic
                      mixing samplers;
* ``injectivity``  -- collision search, brute-force oracles, and numerical
                      codimension probes for the sets of mixings that confuse
                      two signals;
* ``mra``          -- a multi-reference alignment simulator (cyclic, dihedral,
                      and band-limited spherical signals under 3-D rotations)
                      with second-moment estimation and prior-based recovery;
* ``cli``          -- a config-driven batch runner with preset experiments.
"""

from .measurements import (
    BlockStructure,
    block_structure_for_power_spectrum,
    measurement_jacobian,
    real_fourier_matrix,
    second_moment_blocks,
    separable_measurement,
    to_real_fourier,
)
from .priors import (
    GeneratorNetwork,
    Layer,
    SparsePrior,
    chart_walk,
    estimate_image_dimension,
    sample_mixing,
    walk_jacobian,
)

__all__ = [
    "BlockStructure",
    "block_structure_for_power_spectrum",
    "measurement_jacobian",
    "real_fourier_matrix",
    "second_moment_blocks",
    "separable_measurement",
    "to_real_fourier",
    "GeneratorNetwork",
    "Layer",
    "SparsePrior",
    "chart_walk",
    "estimate_image_dimension",
    "sample_mixing",
    "walk_jacobian",
]

__version__ = "0.1.0"
