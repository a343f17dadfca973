"""Monte Carlo oracle for the graph backend.

Simulates the continuous-time killed jump chain whose rates match the
generator exactly: jump rate 2 J[x,y] / m[x] from x to y and death rate
kappa[x] / m[x].  The jump chain is sampled exactly, one uniform per step.
No holding time is drawn: each visit to a state contributes its conditional
mean 1/q to the occupation times, q being the state's total rate.  Given the
jump chain, the occupation functionals are then their conditional means, so
every estimator below stays unbiased and its variance cannot rise
(conditional Monte Carlo).  Paths are split into chunks of ``rng.CHUNK``,
each drawing from its own counter-based substream, so every path's draws
depend only on (seed, chunk) and not on how the paths are stepped.  One loop
steps the live paths of all chunks together, and the estimators' linear
functionals of the occupation times are summed visit by visit, so no
path-by-state matrix is ever formed.  ``mc_estimate`` reads every check
from one walk.

The kinds that read the exit state take an exact zero-mean martingale as a
control variate (Henderson and Glynn, "Approximating martingales for
variance reduction in Markov process simulation", Math. Oper. Res. 27,
2002).  With phi = g off D and 0 on D and at death, optional stopping gives
E[g(X_tau) - sum_{k<tau} h(X_k)] = 0 for h(s) = sum_{z not in D} P(s, z) g(z),
P being the jump chain's kernel.  Its sum is one more functional row, the
exterior flux of g over m (``forms.exterior_flux``), since the walk folds
1/q into every row; the row reads only J, m, kappa and g.
"""

from __future__ import annotations

import numpy as np

from .forms import DiscreteForm, as_subset, exterior_flux, is_transient
from .rng import (CHUNK, check_estimate_args, control_variate, live_segments, mean_and_stderr,
                  substream)

__all__ = ["mc_estimate", "simulate_batch"]

# arguments each estimator kind reads, checked before any path is simulated
_NEEDS = {"PDg": ("g",), "RDf": ("h",), "RDmu": ("mu",), "second_moment": ("mu",),
          "FK_residual": ("g", "mu", "u", "f")}
# functional rows of the walk each kind reads: h, the atoms' weights mu/m, their
# squares over the rates, the FK integrand f(u) + mu/m, and the exterior flux of
# g over m, whose sum is the compensator of the martingale control variate
_ROWS = {"PDg": ("flux",), "RDf": ("h",), "RDmu": ("mu",), "second_moment": ("mu", "mu2"),
         "FK_residual": ("fk", "flux")}


def _rates(form: DiscreteForm, idx: np.ndarray):
    """Per-D-state total rates and cumulative transition categories.

    Categories 0..n-1 are target states, category n is death.
    """
    n = form.n
    jump = 2.0 * form.J[idx] / form.m[idx, None]
    death = form.kappa[idx] / form.m[idx]
    total = jump.sum(axis=1) + death
    if np.any(total <= 0):
        raise ValueError("a state of D has no outgoing rate; D is not transient")
    probs = np.concatenate([jump, death[:, None]], axis=1) / total[:, None]
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    return total, cum


def _rise_table(cum: np.ndarray):
    """Search table of the rises of each row of ``cum``, with their categories.

    Row r keeps position 0 and every position i where cum[r, i] > cum[r, i - 1],
    padded with 2.0 (category ``cum.shape[1]``) to a power-of-two width W greater
    than the longest kept row; returns (table, cats, W) with table and cats flattened.
    The first entry of a row that is >= u is always kept, so the category found
    in the table is the dense count of entries below u.
    """
    rows, n_cat = cum.shape
    rises = np.ones(cum.shape, dtype=bool)
    rises[:, 1:] = cum[:, 1:] > cum[:, :-1]
    width = 1 << int(rises.sum(axis=1).max()).bit_length()
    r, c = np.nonzero(rises)
    slot = r * width + np.cumsum(rises, axis=1)[r, c] - 1
    table = np.full(rows * width, 2.0)
    cats = np.full(rows * width, n_cat)
    table[slot] = cum[r, c]
    cats[slot] = c
    return table, cats, width


def _category(table: np.ndarray, cats: np.ndarray, width: int, state: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """Category of each draw: ``(u[:, None] > cum[state]).sum(1)``.

    A branchless lower bound of log2(width) halving steps finds the first entry
    of row ``state`` that is >= u; the kept entries of a row are strictly
    increasing, and ties count exactly as in the dense comparison.
    """
    lo = state * width
    step = width // 2
    while step:
        lo += step * (table[lo + (step - 1)] < u)
        step //= 2
    return cats[lo]


def simulate_batch(form: DiscreteForm, D, x: int, n_paths: int, seed: int,
                   max_steps: int = 10 ** 6, functionals=()):
    """Exit states (-1 for death) and occupation functionals for n_paths paths.

    ``functionals`` is a (k, |D|) array V (or k vectors of length |D|), columns
    ordered like the sorted D index array; returns (exits, F) with F of shape
    (k, n_paths) and ``F[j, p] = sum over the steps of path p of
    V[j, state] / q[state]``, summed visit by visit, q being the total rate:
    the conditional mean, given the jump chain, of the functional of the
    holding times.  ``np.eye(|D|)`` gives the expected occupation times per
    state, each a visit count times 1/q.
    """
    idx = as_subset(form.n, D)
    if x not in idx:
        raise ValueError("start state must lie in D")
    if not is_transient(form, idx):
        raise ValueError("D must be transient")
    V = np.asarray(functionals, dtype=float)
    if V.size == 0:
        V = V.reshape(0, idx.size)
    if V.ndim != 2 or V.shape[1] != idx.size:
        raise ValueError(f"each functional must be a vector of length |D| = {idx.size}")
    total, cum = _rates(form, idx)
    table, cats, width = _rise_table(cum)
    Vq = V * (1.0 / total)  # the mean holding time 1/q folded into the functionals
    local = -np.ones(form.n + 1, dtype=int)  # per category; -1 outside D and for death
    local[idx] = np.arange(idx.size)
    exits = np.empty(n_paths, dtype=int)
    F = np.zeros((V.shape[0], n_paths))
    starts = np.arange(0, n_paths, CHUNK)
    rngs = [substream(seed, c) for c in range(starts.size)]
    unif = np.empty(n_paths)
    active = np.arange(n_paths)
    state = np.full(n_paths, local[x], dtype=int)
    for _ in range(max_steps):
        for c, seg in live_segments(active, starts):
            rngs[c].random(out=unif[seg])
        # F[:, active] += Vq[:, state] row by row: 1-D indexing is ~3x faster at k = 2
        for Fj, vj in zip(F, Vq):
            Fj[active] += vj[state]  # each path occurs once per step
        cat = _category(table, cats, width, state, unif[:active.size])
        exits[active] = cat  # final for the paths that leave D at this step
        nxt = local[cat]
        keep = np.flatnonzero(nxt >= 0)
        active, state = active[keep], nxt[keep]
        if active.size == 0:
            break
    else:
        raise RuntimeError(f"batch exceeded {max_steps} steps without absorbing")
    exits[exits == form.n] = -1  # category n is death
    return exits, F


def mc_estimate(kinds: tuple, form: DiscreteForm, D, x: int, *, n_paths: int = 100_000,
                seed: int = 0, g=None, h=None, mu=None, u=None,
                f=None) -> list[tuple[float, float]]:
    """One result per requested kind, in the order of ``kinds``, all read
    from one ``simulate_batch`` walk.

    Kinds: ``PDg`` (value of g at the exit, 0 on death), ``RDf`` (time
    integral of the density h), ``RDmu`` (additive functional of atoms mu),
    ``second_moment`` (its square), ``FK_residual`` (full path functional
    minus u at the start point; needs g, mu, u and the absorption f) give
    ``(estimate, stderr)``.  The walk carries the union of the functional
    rows the kinds read, and its exits do not depend on the rows, so each
    result has the bits of a one-kind call at the same seed; estimates of
    one call are correlated, each at its own standard error.

    ``PDg`` and ``FK_residual`` are regressed on the martingale
    c = g(X_tau) - sum_{k<tau} h(X_k), of mean exactly 0
    (``rng.control_variate``): where c's own mean misses 0 by more than
    ``rng.BAND_Z`` standard errors, as on a walk whose exits do not follow
    the chain's kernel, the plain estimate is kept.

    The time integrals are read at their conditional means given the jump
    chain (``simulate_batch``), which are unbiased for every kind but the
    square.  Given the chain the holding times H_k are independent
    exponentials of rates q_k, so for weights w_k
    E[(sum H_k w_k)^2 | chain] = (sum w_k / q_k)^2 + sum w_k^2 / q_k^2;
    ``second_moment`` carries the last sum as a second functional.
    """
    check_estimate_args(kinds, n_paths, _NEEDS, {"g": g, "h": h, "mu": mu, "u": u, "f": f})
    idx = as_subset(form.n, D)
    names = list(dict.fromkeys(row for kind in kinds for row in _ROWS[kind]))
    weights = None if mu is None else np.asarray(mu, dtype=float)[idx] / form.m[idx]
    make = {"h": lambda: np.asarray(h, dtype=float)[idx],
            "mu": lambda: weights,
            "mu2": lambda: weights * weights / _rates(form, idx)[0],
            "fk": lambda: f(idx, np.asarray(u, dtype=float)[idx]) + weights,
            "flux": lambda: exterior_flux(form, idx, g) / form.m[idx]}
    exits, F = simulate_batch(form, D, x, n_paths, seed,
                              functionals=[make[name]() for name in names])
    occ = dict(zip(names, F))
    if "flux" in occ:
        at_exit = np.append(np.asarray(g, dtype=float), 0.0)[exits]  # g = 0 on death
        martingale = at_exit - occ["flux"]
    out = []
    for kind in kinds:
        if kind == "RDf":
            out.append(mean_and_stderr(occ["h"]))
        elif kind == "RDmu":
            out.append(mean_and_stderr(occ["mu"]))
        elif kind == "second_moment":
            out.append(mean_and_stderr(occ["mu"] * occ["mu"] + occ["mu2"]))
        else:
            vals = at_exit
            if kind == "FK_residual":
                vals = vals + occ["fk"] - np.asarray(u, dtype=float)[x]
            out.append(control_variate(vals, martingale, 0.0))
    return out
