"""Reproducible random instances for the randomized verification suites."""

from __future__ import annotations

import numpy as np

from .forms import DiscreteForm, as_subset, is_transient
from .semilinear import (Nonlinearity, ProblemSpec, exp_nonlinearity,
                         power_nonlinearity, zero_nonlinearity)

__all__ = [
    "random_form",
    "random_nonlinearity",
    "random_problem",
    "random_ordered_pair",
]


def random_form(rng: np.random.Generator, n_min: int = 5, n_max: int = 50,
                kappa_free: bool = False) -> DiscreteForm:
    """Random connected jump form; killing on a sprinkling of states."""
    n = int(rng.integers(n_min, n_max + 1))
    J = np.zeros((n, n))
    perm = rng.permutation(n)
    for k in range(1, n):  # random spanning tree keeps the graph connected
        a, b = perm[k], perm[int(rng.integers(0, k))]
        J[a, b] = J[b, a] = rng.uniform(0.2, 1.0)
    extra = max(1, n // 3)
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            w = rng.uniform(0.2, 1.0)
            J[a, b] = J[b, a] = w
    kappa = np.zeros(n)
    if not kappa_free:
        hot = rng.random(n) < 0.4
        if not hot.any():
            hot[int(rng.integers(0, n))] = True
        kappa[hot] = rng.uniform(0.3, 1.2, size=int(hot.sum()))
    m = rng.uniform(0.5, 2.0, size=n)
    return DiscreteForm(m=m, J=J, kappa=kappa)


def random_domain(rng: np.random.Generator, form: DiscreteForm) -> np.ndarray:
    """Random proper transient subset of the state space."""
    n = form.n
    for _ in range(64):
        size = int(rng.integers(max(1, n // 3), n))
        D = np.sort(rng.choice(n, size=size, replace=False))
        if is_transient(form, D):
            return D
    raise RuntimeError("failed to draw a transient domain")


def random_nonlinearity(rng: np.random.Generator, n: int) -> Nonlinearity:
    kind = rng.integers(0, 4)
    b = rng.uniform(0.0, 1.0, size=n)
    if kind == 0:
        return zero_nonlinearity()
    if kind == 1:
        return power_nonlinearity(b, 1.0)
    if kind == 2:
        return power_nonlinearity(b, float(rng.choice([2.0, 3.0])))
    return exp_nonlinearity(0.5 * b)


def random_problem(rng: np.random.Generator, form: DiscreteForm | None = None,
                   D=None, f: Nonlinearity | None = None,
                   kappa_free: bool = False) -> ProblemSpec:
    form = form if form is not None else random_form(rng, kappa_free=kappa_free)
    D = random_domain(rng, form) if D is None else as_subset(form.n, D)
    g = rng.uniform(-1.0, 1.0, size=form.n)
    mu = np.zeros(form.n)
    mu[D] = rng.uniform(-0.5, 0.5, size=D.size) * (rng.random(D.size) < 0.7)
    f = f if f is not None else random_nonlinearity(rng, form.n)
    return ProblemSpec(form=form, D=D, g=g, mu=mu, f=f)


def random_ordered_pair(rng: np.random.Generator) -> tuple[ProblemSpec, ProblemSpec]:
    """Pair with mu1 <= mu2 and g1 <= g2 (same form, domain, absorption)."""
    s1 = random_problem(rng)
    form, D = s1.form, s1.D
    mu2 = s1.mu.copy()
    bump = np.zeros(form.n)
    bump[D] = rng.uniform(0.0, 0.5, size=D.size) * (rng.random(D.size) < 0.5)
    mu2 += bump
    g2 = s1.g + rng.uniform(0.0, 0.5, size=form.n) * (rng.random(form.n) < 0.5)
    s2 = ProblemSpec(form=form, D=D, g=g2, mu=mu2, f=s1.f, nest=s1.nest)
    return s1, s2
