"""Two-backend laboratory for nonlocal Dirichlet problems.

An exact finite-state energy-form engine and a one-dimensional
fractional-Laplacian continuum solver, with Monte Carlo oracles (killed jump
chains, stable-ball exit walks) cross-checking every deterministic quantity.
"""

from .forms import DiscreteForm, NonTransientError, energy, generator, is_transient
from .potential import dynkin_defect, exit_second_moment, green_apply, green_operator, is_excessive
from .projection import harmonic_boundary, harmonic_extension, poisson_kernel, project
from .semilinear import (LadderConfig, Nonlinearity, ProblemSpec, Solution, apriori_report,
                         compare, exp_nonlinearity, power_nonlinearity, residual_probabilistic,
                         solve, stability_gap, table_nonlinearity, vd_check, verify_projective,
                         very_weak_defect, zero_nonlinearity)

__version__ = "0.1.0"

__all__ = [
    "DiscreteForm",
    "LadderConfig",
    "NonTransientError",
    "Nonlinearity",
    "ProblemSpec",
    "Solution",
    "apriori_report",
    "compare",
    "dynkin_defect",
    "energy",
    "exit_second_moment",
    "exp_nonlinearity",
    "generator",
    "green_apply",
    "green_operator",
    "harmonic_boundary",
    "harmonic_extension",
    "is_excessive",
    "is_transient",
    "poisson_kernel",
    "power_nonlinearity",
    "project",
    "residual_probabilistic",
    "solve",
    "stability_gap",
    "table_nonlinearity",
    "vd_check",
    "verify_projective",
    "very_weak_defect",
    "zero_nonlinearity",
]
