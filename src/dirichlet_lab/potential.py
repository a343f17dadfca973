"""Green operators on subsets, composition identities, excessive functions.

Measures are stored as atom-weight vectors; the density of a measure with
respect to the reference measure is atoms / m.  The Green operator of a
transient subset V inverts the restricted negative generator, so applying it
to a measure solves E(R u, eta) = <mu, eta> for every eta supported on V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .forms import DiscreteForm, as_subset
from .projection import _restricted_cho, project

__all__ = [
    "GreenOperator",
    "dynkin_defect",
    "exit_second_moment",
    "green_apply",
    "green_operator",
    "is_excessive",
]


@dataclass(frozen=True)
class GreenOperator:
    """Inverse of the restricted negative generator on a subset V.

    ``G @ f`` maps nodal density values f on V to the potential of the
    measure f * m; the column G[:, k] / m[V[k]] is the potential of a unit
    atom at V[k].  The kernel G[i, k] / m[V[k]] is symmetric.
    """

    V: np.ndarray
    G: np.ndarray


def green_operator(form: DiscreteForm, V) -> GreenOperator:
    idx = as_subset(form.n, V)
    if idx.size == 0:
        return GreenOperator(V=idx, G=np.zeros((0, 0)))
    cho = _restricted_cho(form, idx)
    G = cho_solve(cho, np.diag(form.m[idx]))
    return GreenOperator(V=idx, G=G)


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
    cho = _restricted_cho(form, idx)
    out[idx] = cho_solve(cho, mu[idx])
    return out


def dynkin_defect(form: DiscreteForm, V, W, mu) -> float:
    """Max-norm gap between project_V(R_W mu) and R_V mu for nested V in W."""
    idxV = as_subset(form.n, V)
    idxW = as_subset(form.n, W)
    if not np.isin(idxV, idxW).all():
        raise ValueError("V must be contained in W")
    rw = green_apply(form, idxW, mu)
    rv = green_apply(form, idxV, mu)
    return float(np.max(np.abs(project(form, idxV, rw) - rv), initial=0.0))


def is_excessive(form: DiscreteForm, V, rho, tol: float = 1e-12) -> bool:
    """Whether rho is excessive for the semigroup killed outside V.

    Finite-state criterion: rho >= 0 on V and the restricted negative
    generator applied to rho on V is nonnegative up to ``tol``.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (form.n,):
        raise ValueError("rho has wrong length")
    idx = as_subset(form.n, V)
    if idx.size == 0:
        return True
    if np.min(rho[idx]) < -tol:
        return False
    A = form.energy_matrix()[np.ix_(idx, idx)]
    neg_gen = (A @ rho[idx]) / form.m[idx]
    return bool(np.min(neg_gen) >= -tol)


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
