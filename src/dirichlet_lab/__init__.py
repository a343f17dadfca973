"""Two-backend laboratory for nonlocal Dirichlet problems.

An exact finite-state energy-form engine and a one-dimensional
fractional-Laplacian continuum solver, with Monte Carlo oracles (killed jump
chains, stable-ball exit walks) cross-checking every deterministic quantity.
"""

from .forms import DiscreteForm, NonTransientError, is_transient
from .potential import exit_second_moment, green_apply, green_operator
from .projection import harmonic_extension, poisson_kernel, project
from .semilinear import (Nonlinearity, ProblemSpec, Solution, apriori_report, exp_nonlinearity,
                         power_nonlinearity, residual_probabilistic, solve, table_nonlinearity,
                         vd_check, verify_projective, very_weak_defect, zero_nonlinearity)

__version__ = "0.1.0"

__all__ = [
    "DiscreteForm",
    "NonTransientError",
    "Nonlinearity",
    "ProblemSpec",
    "Solution",
    "apriori_report",
    "exit_second_moment",
    "exp_nonlinearity",
    "green_apply",
    "green_operator",
    "harmonic_extension",
    "is_transient",
    "poisson_kernel",
    "power_nonlinearity",
    "project",
    "residual_probabilistic",
    "solve",
    "table_nonlinearity",
    "vd_check",
    "verify_projective",
    "very_weak_defect",
    "zero_nonlinearity",
]
