"""Certified image inpainting and denoising with a linear-growth regularizer.

The energy couples a smooth, strictly convex density of linear growth on the
image gradient with an L^zeta data-fitting term on the known pixels.  A
quadratic viscosity makes each subproblem smooth and uniquely solvable; the
solver drives the viscosity to zero with warm starts and certifies the final
iterate through a computable duality gap.
"""

from .density import DensityParams, phi, phi_conjugate, phi_prime
from .dual import DualCertificate, certify, dual_from_primal, dual_value
from .energy import ModelParams, euler_residual, fidelity, primal_energy
from .grid import clamp_to_ball, divergence, gradient
from .solver import (
    ConvergenceRecord,
    SolverConfig,
    check_max_principle,
    continuation,
    minimize_smooth,
)

__all__ = [
    "DensityParams",
    "ModelParams",
    "SolverConfig",
    "ConvergenceRecord",
    "DualCertificate",
    "phi",
    "phi_prime",
    "phi_conjugate",
    "gradient",
    "divergence",
    "clamp_to_ball",
    "fidelity",
    "primal_energy",
    "euler_residual",
    "dual_from_primal",
    "dual_value",
    "certify",
    "minimize_smooth",
    "continuation",
    "check_max_principle",
]

__version__ = "0.1.0"
