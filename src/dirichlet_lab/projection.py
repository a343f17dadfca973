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
    "factor_nest",
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


def _blocks(n: int, ends=()) -> list:
    """Column blocks of an n x n factor: at most 64 wide, and each of ``ends``
    ends a block."""
    cuts = sorted({0, n, *ends})
    return [(j0, min(j0 + _BLOCK, hi)) for lo, hi in zip(cuts, cuts[1:])
            for j0 in range(lo, hi, _BLOCK)]


def cho_factor(a, ends=()):
    """Blocked left-looking Cholesky factor of the SPD matrix ``a``.

    Returns ``(L, inv)``: the lower factor, ``a = L @ L.T``, and the inverse
    of each of its diagonal blocks, 64 wide but cut at each of ``ends``, so
    the leading k x k block of the factor with the inverses of the blocks
    ending by k is the factor of ``a[:k, :k]`` when k is one of ``ends``.
    Each diagonal block is factored by ``np.linalg.cholesky`` after the
    columns to its left are subtracted and inverted once by
    ``np.linalg.inv``; the panel below it is a product with that inverse.
    Raises ValueError on a non-finite entry and LinAlgError when a block is
    not positive definite.
    """
    L = _finite(np.array(a, dtype=float))
    inv = []
    for j0, j1 in _blocks(L.shape[0], ends):
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
    ends = np.cumsum([di.shape[0] for di in inv]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    for (j0, j1), di in zip(bounds, inv):
        x[j0:j1] = di @ (x[j0:j1] - L[j0:j1, :j0] @ x[:j0])
    for (j0, j1), di in zip(bounds[::-1], inv[::-1]):
        x[j0:j1] = di.T @ (x[j0:j1] - L[j1:, j0:j1].T @ x[j1:])
    return x


def _factor(form: DiscreteForm, order: np.ndarray, ends=()):
    """Transience check and read-only Cholesky factor of A[order, order].

    Returns the ``cho_factor`` pair, or the message of the error to raise.
    """
    if not is_transient(form, order):
        return f"subset of size {order.size} is not transient: restricted system singular"
    try:
        factor = cho_factor(form.energy_matrix()[np.ix_(order, order)], ends)
    except LinAlgError as exc:  # numerically singular despite graph escape
        return f"restricted system numerically singular: {exc}"
    for arr in (factor[0], *factor[1]):
        arr.setflags(write=False)
    return factor


def _slots(form: DiscreteForm, subsets) -> list:
    """The cache slots ``[lock, entry]`` of the subsets, made empty if new."""
    with form._cho_lock:
        return [form._cho.setdefault(idx.tobytes(), [threading.Lock(), None])
                for idx in subsets]


def _restricted_cho(form: DiscreteForm, idx: np.ndarray):
    """Cholesky factor of the energy matrix block on idx, with its order, or raise.

    ``idx`` is a sorted index array from ``as_subset``.  Returns
    ``(factor, order)``: ``factor`` is that of A[idx[order], idx[order]],
    ``order`` None when it is the sorted order itself.  The factor is
    computed once per (form, subset) and cached on the form, unless
    ``factor_nest`` served it from the factor of a larger subset; concurrent
    callers asking for the same subset wait for the one factorization.
    """
    return factor_nest(form, (idx,))


def factor_nest(form: DiscreteForm, nest):
    """Factor A on the last level of ``nest`` once, in nest order, for every level.

    ``nest`` is an increasing tuple of sorted index arrays whose last level
    is not empty, as ``ProblemSpec`` makes it.  The order is the first
    level, then the states each later level adds, and the factor's blocks
    end at every level's size, so the leading block of the one factor is the
    factor of each level in that order.  Each level whose cache slot is
    still empty gets that block; a subset factored before keeps its factor,
    and when the last level is cached already nothing is factored.  Returns
    the last level's ``(factor, order)``, as ``_restricted_cho`` does, and
    raises NonTransientError, on every call, when it has no factor.
    """
    levels = list(nest)
    slots = _slots(form, levels)
    entries = []
    with slots[-1][0]:
        if slots[-1][1] is None:
            order = np.concatenate([levels[0]] + [np.setdiff1d(V, prev, assume_unique=True)
                                                  for prev, V in zip(levels, levels[1:])])
            sizes = [V.size for V in levels]
            factor = _factor(form, order, sizes)
            if isinstance(factor, str):
                slots[-1][1] = factor
            else:
                L, inv = factor
                ends = [j1 for _, j1 in _blocks(order.size, sizes)]
                for V, k in zip(levels, sizes):
                    pos = np.searchsorted(V, order[:k])
                    pos.setflags(write=False)
                    entries.append(((L[:k, :k], inv[:sum(j1 <= k for j1 in ends)]),
                                    None if np.array_equal(pos, np.arange(k)) else pos))
                slots[-1][1] = entries[-1]
    for slot, entry in zip(slots[:-1], entries[:-1]):
        with slot[0]:
            if slot[1] is None:
                slot[1] = entry
    if isinstance(slots[-1][1], str):
        raise NonTransientError(slots[-1][1])
    return slots[-1][1]


def _solve(form: DiscreteForm, idx: np.ndarray, rhs) -> np.ndarray:
    """A[idx, idx]^-1 rhs from the cached Cholesky factor of the block;
    a non-finite rhs is a ValueError."""
    return _cho_apply(_restricted_cho(form, idx), rhs)


def _cho_apply(entry, rhs) -> np.ndarray:
    """A_VV^-1 rhs from an entry ``(factor, order)`` of ``_restricted_cho``."""
    factor, order = entry
    if order is None:
        return cho_solve(factor, rhs)
    rhs = np.asarray(rhs, dtype=float)
    out = np.empty_like(rhs)
    out[order] = cho_solve(factor, rhs[order])
    return out


def project(form: DiscreteForm, V, u) -> np.ndarray:
    """Energy-orthogonal projection of ``u`` onto F(V): u - P_V u, the w
    supported on V with E(u - w, eta) = 0 for every eta in F(V)."""
    u = np.asarray(u, dtype=float)
    return u - harmonic_extension(form, V, u)


def harmonic_extension(form: DiscreteForm, V, g) -> np.ndarray:
    """P_V g: g outside V and -A_VV^{-1} A[V, Vc] g[Vc] on V, energy-orthogonal
    to F(V).  The one P_V formula of the graph: ``project`` is its complement
    and ``poisson_kernel`` its matrix form.
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
