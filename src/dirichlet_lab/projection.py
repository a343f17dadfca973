"""Orthogonal projection onto subsets, harmonic extension, Poisson kernels.

For a node subset V, F(V) is the subspace of vectors vanishing outside V.
``harmonic_extension`` (P_V g) matches g outside V and is
energy-orthogonal to F(V); ``project`` returns its complement u - P_V u,
the energy-orthogonal projection onto F(V).  The Poisson kernel assembles
the harmonic extension as a sub-stochastic matrix acting on boundary data.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.linalg import LinAlgError

from .forms import DiscreteForm, NonTransientError, as_subset, complement, is_transient

__all__ = [
    "harmonic_boundary",
    "harmonic_extension",
    "poisson_kernel",
    "project",
]


_BLOCK = 64


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, or a ValueError if it has a NaN or an infinity."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def cho_factor(a):
    """Blocked left-looking Cholesky factor of the SPD matrix ``a``.

    Returns ``(L, inv)``: the lower factor, ``a = L @ L.T``, and the inverse
    of each of its 64-wide diagonal blocks.  Each diagonal block is factored
    by ``np.linalg.cholesky`` after the columns to its left are subtracted
    and inverted once by ``np.linalg.inv``; the panel below it is a product
    with that inverse.  Raises ValueError on a non-finite entry and
    LinAlgError when a block is not positive definite.
    """
    L = _finite(np.array(a, dtype=float))
    n = L.shape[0]
    inv = []
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        panel = L[j0:, j0:j1]
        if j0:
            panel -= L[j0:, :j0] @ L[j0:j1, :j0].T
        diag = np.linalg.cholesky(panel[:j1 - j0])
        inv.append(np.linalg.inv(diag))
        panel[:j1 - j0] = diag
        panel[j1 - j0:] = panel[j1 - j0:] @ inv[-1].T
        L[j0:j1, j1:] = 0.0
    return L, tuple(inv)


def cho_solve(factor, b) -> np.ndarray:
    """a^-1 b from ``cho_factor(a)``, for a vector or a matrix b: forward and
    backward sweeps over the blocks, matrix products only."""
    L, inv = factor
    x = _finite(np.array(b, dtype=float))
    bounds = [(j0, min(j0 + _BLOCK, L.shape[0])) for j0 in range(0, L.shape[0], _BLOCK)]
    for (j0, j1), di in zip(bounds, inv):
        x[j0:j1] = di @ (x[j0:j1] - L[j0:j1, :j0] @ x[:j0])
    for (j0, j1), di in zip(bounds[::-1], inv[::-1]):
        x[j0:j1] = di.T @ (x[j0:j1] - L[j1:, j0:j1].T @ x[j1:])
    return x


def _factor(form: DiscreteForm, idx: np.ndarray):
    """Transience check and read-only Cholesky factor of A[idx, idx].

    Returns the ``cho_factor`` pair, or the message of the error to raise.
    """
    if not is_transient(form, idx):
        return f"subset of size {idx.size} is not transient: restricted system singular"
    try:
        factor = cho_factor(form.energy_matrix()[np.ix_(idx, idx)])
    except LinAlgError as exc:  # numerically singular despite graph escape
        return f"restricted system numerically singular: {exc}"
    for arr in (factor[0], *factor[1]):
        arr.setflags(write=False)
    return factor


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


def _solve(form: DiscreteForm, idx: np.ndarray, rhs) -> np.ndarray:
    """A[idx, idx]^-1 rhs from the cached Cholesky factor of the block;
    a non-finite rhs is a ValueError."""
    return cho_solve(_restricted_cho(form, idx), rhs)


def project(form: DiscreteForm, V, u) -> np.ndarray:
    """Energy-orthogonal projection of ``u`` onto F(V): u - P_V u, the w
    supported on V with E(u - w, eta) = 0 for every eta in F(V)."""
    u = np.asarray(u, dtype=float)
    return u - harmonic_extension(form, V, u)


def harmonic_extension(form: DiscreteForm, V, g) -> np.ndarray:
    """P_V g: g outside V and -A_VV^{-1} A[V, Vc] g[Vc] on V, energy-orthogonal
    to F(V).  The one P_V formula of the graph: ``project`` is its complement,
    ``poisson_kernel`` and ``harmonic_boundary`` its matrix and adjoint forms.
    The flux is the full product A @ g_out, g_out being g with its V entries
    zeroed, read on V: a row gather A[V] would copy |V| x n of A per call.
    It never reads g on V, yet a wrong length or a non-finite entry anywhere
    in g is a ValueError."""
    out = _finite(np.array(g, dtype=float))
    if out.shape != (form.n,):
        raise ValueError("g has wrong length")
    idx = as_subset(form.n, V)
    if idx.size:
        out[idx] = 0.0
        # 0.0 - x, not -x: a zero flux gives +0.0, as the kernel product does
        out[idx] = 0.0 - _solve(form, idx, (form.energy_matrix() @ out)[idx])
    return out


def poisson_kernel(form: DiscreteForm, V) -> np.ndarray:
    """Sub-stochastic exit kernel P of a subset V, assembled column by column
    as harmonic extensions.

    Rows are indexed by all states; columns are supported on the complement
    of V, and rows at states outside V are unit point masses.  The row defect
    1 - sum_y P[x, y] is the probability of dying inside V.
    """
    idx = as_subset(form.n, V)
    comp = complement(form.n, idx)
    P = np.zeros((form.n, form.n))
    P[comp, comp] = 1.0
    if idx.size and comp.size:
        P[np.ix_(idx, comp)] = -_solve(form, idx, form.energy_matrix()[np.ix_(idx, comp)])
    elif idx.size:
        # no exterior states: kernel vanishes, all mass dies inside
        _restricted_cho(form, idx)
    return P


def harmonic_boundary(form: DiscreteForm, D) -> np.ndarray:
    """States outside D carrying positive aggregated exit-kernel mass.

    The aggregated measure gives state y the mass sum_{x in D} m[x] P_D[x, y],
    with m the reference measure.  Strict positivity up to a
    rounding guard of 1e-14 selects the minimal atomically-supported carrier.
    Since A_DD is symmetric, m @ P_D[D, Dc] = -(A_DD^{-1} m) @ A[D, Dc]:
    one solve, and the kernel itself is never formed.
    """
    idx = as_subset(form.n, D)
    if idx.size == 0:
        return np.array([], dtype=int)
    comp = complement(form.n, idx)
    mass = -(_solve(form, idx, form.m[idx]) @ form.energy_matrix()[np.ix_(idx, comp)])
    return comp[mass > 1e-14]
