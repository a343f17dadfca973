"""Finite-state symmetric pure-jump energy forms with killing.

A form is determined by a positive reference measure ``m``, a symmetric
nonnegative jump matrix ``J`` with zero diagonal, and a nonnegative killing
vector ``kappa``.  The bilinear energy is

    E(u, v) = sum_{x,y} (u[x]-u[y]) (v[x]-v[y]) J[x,y] + sum_x u[x] v[x] kappa[x],

where the double sum runs over ordered pairs, so each unordered pair is
counted twice.  All downstream operators (generator, projections, Green
operators, chain rates) are fixed by this convention.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiscreteForm",
    "NonTransientError",
    "as_subset",
    "complement",
    "energy",
    "form_from_dict",
    "form_to_dict",
    "generator",
    "is_transient",
    "read_form",
    "write_form",
]


class NonTransientError(ValueError):
    """The restricted problem has no escape route; its system is singular."""


def _as_1d(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class DiscreteForm:
    """Finite-state energy form (reference measure, jumps, killing).

    Instances are immutable after construction and safe to share across
    threads; the backing arrays are marked read-only.  ``_cho`` caches one
    Cholesky factor per subset (``projection._restricted_cho``).
    """

    m: np.ndarray
    J: np.ndarray
    kappa: np.ndarray
    _amat: list = field(default_factory=list, repr=False, compare=False)
    _cho: dict = field(default_factory=dict, repr=False, compare=False)
    _cho_lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                      compare=False)

    def __post_init__(self):
        m = _as_1d(self.m, "m")
        kappa = _as_1d(self.kappa, "kappa")
        J = np.asarray(self.J, dtype=float)
        n = m.size
        if J.shape != (n, n):
            raise ValueError(f"J must be {n}x{n}, got {J.shape}")
        if not np.all(np.isfinite(J)):
            raise ValueError("J has non-finite entries")
        if np.any(m <= 0):
            raise ValueError("m must be strictly positive")
        if np.any(kappa < 0):
            raise ValueError("kappa must be nonnegative")
        if np.any(J < 0):
            raise ValueError("J must be nonnegative")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diag(J) != 0):
            raise ValueError("J must have zero diagonal")
        for arr in (m, J, kappa):
            arr.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self) -> int:
        return self.m.size

    def energy_matrix(self) -> np.ndarray:
        """Symmetric matrix A with E(u, v) = u @ A @ v (cached)."""
        if not self._amat:
            A = 2.0 * (np.diag(self.J.sum(axis=1)) - self.J) + np.diag(self.kappa)
            A.setflags(write=False)
            self._amat.append(A)
        return self._amat[0]


def as_subset(n: int, V) -> np.ndarray:
    """Normalize a node subset to a sorted unique index array."""
    idx = np.unique(np.asarray(list(V), dtype=int)) if not isinstance(V, np.ndarray) else np.unique(V.astype(int))
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"subset indices out of range [0, {n})")
    return idx


def complement(n: int, V) -> np.ndarray:
    idx = as_subset(n, V)
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    return np.nonzero(mask)[0]


def energy(form: DiscreteForm, u, v) -> float:
    """Bilinear energy E(u, v); symmetric in its arguments."""
    u = _as_1d(u, "u")
    v = _as_1d(v, "v")
    if u.size != form.n or v.size != form.n:
        raise ValueError("dimension mismatch between form and vectors")
    return float(u @ form.energy_matrix() @ v)


def generator(form: DiscreteForm) -> np.ndarray:
    """Matrix L with E(u, v) = sum_x (-L u)(x) v(x) m[x].

    Off-diagonal entries are the jump rates 2 J[x,y] / m[x]; the diagonal
    absorbs total jump and killing rates, so every row sum is -kappa[x]/m[x].
    """
    return -(form.energy_matrix() / form.m[:, None])


def is_transient(form: DiscreteForm, V) -> bool:
    """Whether the restricted negative generator on ``V`` is nonsingular.

    Graph criterion: every state of ``V`` must reach, through jumps inside
    ``V``, a state that is killed or jumps out of ``V``.  Checked exactly on
    the sparsity pattern, so conservative forms are usable on proper subsets.
    """
    idx = as_subset(form.n, V)
    if idx.size == 0:
        return True
    in_V = np.zeros(form.n, dtype=bool)
    in_V[idx] = True
    J = form.J
    escape = np.zeros(form.n, dtype=bool)
    out_mass = J[:, ~in_V].sum(axis=1) if (~in_V).any() else np.zeros(form.n)
    escape[idx] = (form.kappa[idx] > 0) | (out_mass[idx] > 0)
    # breadth-first sweep backwards along edges inside V
    reached = escape & in_V
    frontier = np.nonzero(reached)[0]
    while frontier.size:
        nxt = (J[:, frontier].sum(axis=1) > 0) & in_V & ~reached
        frontier = np.nonzero(nxt)[0]
        reached |= nxt
    return bool(np.all(reached[idx]))


def form_to_dict(form: DiscreteForm) -> dict:
    return {
        "m": form.m.tolist(),
        "J": form.J.tolist(),
        "kappa": form.kappa.tolist(),
    }


def form_from_dict(obj: dict) -> DiscreteForm:
    """Build a form from the JSON object layout, with strict validation."""
    missing = {"m", "J", "kappa"} - set(obj)
    if missing:
        raise ValueError(f"graph form object missing keys: {sorted(missing)}")
    return DiscreteForm(m=np.asarray(obj["m"], dtype=float),
                        J=np.asarray(obj["J"], dtype=float),
                        kappa=np.asarray(obj["kappa"], dtype=float))


def read_form(path) -> DiscreteForm:
    with open(path) as fh:
        return form_from_dict(json.load(fh))


def write_form(form: DiscreteForm, path) -> None:
    with open(path, "w") as fh:
        json.dump(form_to_dict(form), fh, sort_keys=True)
