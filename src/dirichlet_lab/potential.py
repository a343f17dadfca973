"""Green operators on subsets and the second moment of the exit functional.

Measures are stored as atom-weight vectors; the density of a measure with
respect to the reference measure is atoms / m.  The Green operator of a
transient subset V inverts the restricted negative generator, so applying it
to a measure solves E(R u, eta) = <mu, eta> for every eta supported on V.
"""

from __future__ import annotations

import numpy as np

from .forms import DiscreteForm, as_subset
from .projection import _solve

__all__ = [
    "exit_second_moment",
    "green_apply",
    "green_operator",
]


def green_operator(form: DiscreteForm, V) -> np.ndarray:
    """Inverse G of the restricted negative generator on a subset V.

    ``G @ f`` maps nodal density values f on V to the potential of the
    measure f * m; the column G[:, k] / m[V[k]] is the potential of a unit
    atom at V[k].  The kernel G[i, k] / m[V[k]] is symmetric.
    """
    idx = as_subset(form.n, V)
    if idx.size == 0:
        return np.zeros((0, 0))
    return _solve(form, idx, np.diag(form.m[idx]))


def green_apply(form: DiscreteForm, V, mu) -> np.ndarray:
    """Potential of the atom-weight vector ``mu`` on the subset V.

    The result vanishes outside V and satisfies the variational identity
    E(result, e_z) = mu[z] for every z in V.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (form.n,):
        raise ValueError("mu has wrong length")
    idx = as_subset(form.n, V)
    out = np.zeros(form.n)
    if idx.size == 0:
        return out
    out[idx] = _solve(form, idx, mu[idx])
    return out


def exit_second_moment(form: DiscreteForm, D, mu) -> tuple[np.ndarray, float]:
    """Exact second moment of the exit-time additive functional and its bound.

    For a nonnegative measure the exact moment is 2 R_D(rho_mu * R_D mu * m)
    where rho_mu = atoms / m; the returned bound 2 * max(R_D mu)^2 dominates
    it at every state.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (form.n,):
        raise ValueError("mu has wrong length")
    if np.any(mu < 0):
        raise ValueError("signed measures are rejected: mu must be nonnegative")
    idx = as_subset(form.n, D)
    pot = green_apply(form, idx, mu)
    exact = 2.0 * green_apply(form, idx, mu * pot)
    mx = float(np.max(pot[idx], initial=0.0))
    return exact, 2.0 * mx * mx
