"""Numerical laboratory for spectral projector kernels on model surfaces.

Explicit eigenbases on flat tori and the round 2-sphere feed exact window
projector kernels; around them sit the universal rescaling limit, Weyl
main-term remainders, Gaussian random waves, and geodesic loop statistics.
"""

from .models import SphereModel, SpectralWindow, TorusModel, counting_function
from .kernels import (
    DerivOrder,
    ball_kernel,
    ball_kernel_quadrature,
    default_quad_degree,
    limit_kernel,
    limit_kernel_batch,
    limit_kernel_closed_form,
    multi_indices,
    projector_kernel,
    torus_pair_deriv_batch,
)
from .remainder import (
    ProbeGrid,
    cluster_lambda,
    remainder_sweep,
    scaling_exponent_fit,
)
from .randomwave import empirical_covariance, sample_ensemble
from .loopset import SurfaceSpec, loopset_fraction

__version__ = "0.1.0"

__all__ = [
    "DerivOrder",
    "ProbeGrid",
    "SphereModel",
    "SpectralWindow",
    "SurfaceSpec",
    "TorusModel",
    "__version__",
    "ball_kernel",
    "ball_kernel_quadrature",
    "cluster_lambda",
    "counting_function",
    "default_quad_degree",
    "empirical_covariance",
    "limit_kernel",
    "limit_kernel_batch",
    "limit_kernel_closed_form",
    "loopset_fraction",
    "multi_indices",
    "projector_kernel",
    "remainder_sweep",
    "sample_ensemble",
    "scaling_exponent_fit",
    "torus_pair_deriv_batch",
]
