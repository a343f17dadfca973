"""Orthogonal projection onto subsets, harmonic extension, Poisson kernels.

For a node subset V, F(V) is the subspace of vectors vanishing outside V.
``project`` returns the energy-orthogonal projection onto F(V);
``harmonic_extension`` is its complement g - project(g), which matches g
outside V and is energy-orthogonal to F(V).  The Poisson kernel assembles
the harmonic extension as a sub-stochastic matrix acting on boundary data.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .forms import DiscreteForm, NonTransientError, as_subset, complement, is_transient

__all__ = [
    "PoissonKernel",
    "harmonic_boundary",
    "harmonic_extension",
    "poisson_kernel",
    "project",
]


def _factor(form: DiscreteForm, idx: np.ndarray):
    """Transience check and read-only Cholesky factor of A[idx, idx].

    Returns the ``cho_factor`` pair, or the message of the error to raise.
    """
    if not is_transient(form, idx):
        return f"subset of size {idx.size} is not transient: restricted system singular"
    try:
        c, lower = cho_factor(form.energy_matrix()[np.ix_(idx, idx)])
    except LinAlgError as exc:  # numerically singular despite graph escape
        return f"restricted system numerically singular: {exc}"
    c.setflags(write=False)
    return c, lower


def _restricted_cho(form: DiscreteForm, idx: np.ndarray):
    """Cholesky factor of the energy matrix block on idx, or raise.

    ``idx`` is a sorted index array from ``as_subset``.  The factor is
    computed once per (form, subset) and cached on the form; concurrent
    callers asking for the same subset wait for the one factorization.
    """
    with form._cho_lock:
        slot = form._cho.setdefault(idx.tobytes(), [threading.Lock(), None])
    with slot[0]:
        if slot[1] is None:
            slot[1] = _factor(form, idx)
    if isinstance(slot[1], str):
        raise NonTransientError(slot[1])
    return slot[1]


def project(form: DiscreteForm, V, u) -> np.ndarray:
    """Energy-orthogonal projection of ``u`` onto F(V).

    Solves for w supported on V with E(u - w, eta) = 0 for every eta in F(V).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (form.n,):
        raise ValueError("u has wrong length")
    idx = as_subset(form.n, V)
    w = np.zeros(form.n)
    if idx.size == 0:
        return w
    cho = _restricted_cho(form, idx)
    rhs = form.energy_matrix()[idx] @ u
    w[idx] = cho_solve(cho, rhs)
    return w


def harmonic_extension(form: DiscreteForm, V, g) -> np.ndarray:
    """g - project(g): equals g outside V, energy-orthogonal to F(V)."""
    g = np.asarray(g, dtype=float)
    return g - project(form, V, g)


@dataclass(frozen=True)
class PoissonKernel:
    """Sub-stochastic exit kernel for a subset V.

    Rows are indexed by all states; columns are supported on the complement
    of V, and rows at states outside V are unit point masses.  The row defect
    1 - sum_y P[x, y] is the probability of dying inside V.
    """

    V: np.ndarray
    P: np.ndarray

    def apply(self, g) -> np.ndarray:
        return self.P @ np.asarray(g, dtype=float)


def poisson_kernel(form: DiscreteForm, V) -> PoissonKernel:
    """Assemble the exit kernel column-by-column as harmonic extensions."""
    idx = as_subset(form.n, V)
    comp = complement(form.n, idx)
    P = np.zeros((form.n, form.n))
    P[comp, comp] = 1.0
    if idx.size and comp.size:
        cho = _restricted_cho(form, idx)
        block = form.energy_matrix()[np.ix_(idx, comp)]
        P[np.ix_(idx, comp)] = -cho_solve(cho, block)
    elif idx.size:
        # no exterior states: kernel vanishes, all mass dies inside
        _restricted_cho(form, idx)
    return PoissonKernel(V=idx, P=P)


def harmonic_boundary(form: DiscreteForm, D, weights=None, guard: float = 1e-14) -> np.ndarray:
    """States outside D carrying positive aggregated exit-kernel mass.

    The aggregated measure gives state y the mass sum_{x in D} w[x] P_D[x, y]
    with w defaulting to the reference measure.  Strict positivity up to a
    small rounding guard selects the minimal atomically-supported carrier.
    Since A_DD is symmetric, w @ P_D[D, Dc] = -(A_DD^{-1} w) @ A[D, Dc]:
    one solve, and the kernel itself is never formed.
    """
    idx = as_subset(form.n, D)
    if idx.size == 0:
        return np.array([], dtype=int)
    cho = _restricted_cho(form, idx)
    comp = complement(form.n, idx)
    w = form.m[idx] if weights is None else np.asarray(weights, dtype=float)[idx]
    mass = -(cho_solve(cho, w) @ form.energy_matrix()[np.ix_(idx, comp)])
    return comp[mass > guard]
