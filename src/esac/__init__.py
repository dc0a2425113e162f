"""Certification and simulation toolkit for event-triggered sequence-based
anytime control (E-SAC).

Builds the buffer-content Markov chains of the buffered schemes, certifies
stochastic stability analytically (a positive witness vector, the closed-form
Schur-complement index, geometric expectation bounds) and validates the certificates by closed-loop
Monte Carlo simulation of the actual control algorithms.
"""

from .channel import ChannelModel, effective_availability
from .chain import min_buffer_size, transition_matrix
from .schemes import Buffer, ControlLaw
from .simulate import (
    MonteCarloResult,
    PlantModel,
    SchemeConfig,
    Trajectory,
    example_system,
    monte_carlo,
    simulate_trajectory,
)
from .stability import (
    CertificationReport,
    ContractionSpec,
    CriticalAlpha,
    block_schur_g1,
    certification_matrix,
    certify,
    critical_alpha,
    gain_diagonal,
    solve_certificate,
    spectral_radius,
    theorem1_bounds,
)
from .sweep import BoundaryPoint, SweepSpec, boundary_curve

__all__ = [
    "Buffer",
    "BoundaryPoint",
    "CertificationReport",
    "ChannelModel",
    "ContractionSpec",
    "ControlLaw",
    "CriticalAlpha",
    "MonteCarloResult",
    "PlantModel",
    "SchemeConfig",
    "SweepSpec",
    "Trajectory",
    "block_schur_g1",
    "boundary_curve",
    "certification_matrix",
    "certify",
    "critical_alpha",
    "effective_availability",
    "example_system",
    "gain_diagonal",
    "min_buffer_size",
    "monte_carlo",
    "simulate_trajectory",
    "solve_certificate",
    "spectral_radius",
    "theorem1_bounds",
    "transition_matrix",
]

__version__ = "0.1.0"
