"""Monte Carlo oracle for the graph backend.

Simulates the continuous-time killed jump chain whose rates match the
generator exactly: jump rate 2 J[x,y] / m[x] from x to y and death rate
kappa[x] / m[x].  Holding times are sampled by exponential inversion, so the
simulated law is exact and every estimator below is unbiased.  Paths are
split across counter-based substream chunks; the chunk merge order is fixed,
which makes estimates reproducible regardless of parallel scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DiscreteForm, as_subset, is_transient
from .rng import chisquare, substream

__all__ = [
    "PathSample",
    "exit_law_counts",
    "exit_law_chi2",
    "mc_estimate",
    "sample_path",
    "simulate_batch",
]

_CHUNK = 4096


@dataclass
class PathSample:
    """One trajectory up to the exit from D.

    ``exit_state`` is None when the path dies inside D; ``occupation`` is the
    total holding time spent at each state before the exit.
    """

    states: list
    holdings: np.ndarray
    exit_cause: str
    exit_state: int | None
    occupation: np.ndarray


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


def sample_path(form: DiscreteForm, D, x: int, rng_seed: int,
                max_steps: int = 10 ** 9) -> PathSample:
    """Simulate one path from x until it leaves D (deterministic per seed)."""
    idx = as_subset(form.n, D)
    if x not in idx:
        raise ValueError("start state must lie in D")
    if not is_transient(form, idx):
        raise ValueError("D must be transient")
    pos_of = {int(s): k for k, s in enumerate(idx)}
    total, cum = _rates(form, idx)
    rng = substream(rng_seed, 0)
    states: list[int] = []
    holdings: list[float] = []
    occupation = np.zeros(form.n)
    cur = int(x)
    for _ in range(max_steps):
        k = pos_of[cur]
        hold = rng.exponential(1.0 / total[k])
        states.append(cur)
        holdings.append(hold)
        occupation[cur] += hold
        cat = int(np.searchsorted(cum[k], rng.random(), side="right"))
        if cat >= form.n:
            return PathSample(states, np.asarray(holdings), "death", None, occupation)
        if cat not in pos_of:
            return PathSample(states, np.asarray(holdings), "jump", cat, occupation)
        cur = cat
    raise RuntimeError(f"path exceeded {max_steps} steps without leaving D")


def simulate_batch(form: DiscreteForm, D, x: int, n_paths: int, seed: int,
                   max_steps: int = 10 ** 6):
    """Exit states (-1 for death) and occupation times for n_paths paths.

    Returns (exits, occupations) with occupations of shape (n_paths, |D|),
    columns ordered like the sorted D index array.
    """
    idx = as_subset(form.n, D)
    if x not in idx:
        raise ValueError("start state must lie in D")
    if not is_transient(form, idx):
        raise ValueError("D must be transient")
    total, cum = _rates(form, idx)
    local = -np.ones(form.n, dtype=int)
    local[idx] = np.arange(idx.size)
    exits = np.empty(n_paths, dtype=int)
    occ = np.zeros((n_paths, idx.size))
    for c0 in range(0, n_paths, _CHUNK):
        c1 = min(c0 + _CHUNK, n_paths)
        rng = substream(seed, c0 // _CHUNK)
        active = np.arange(c0, c1)
        state = np.full(active.size, local[x], dtype=int)
        for _ in range(max_steps):
            if active.size == 0:
                break
            hold = rng.exponential(1.0, size=active.size) / total[state]
            np.add.at(occ, (active, state), hold)
            u = rng.random(active.size)
            cat = (u[:, None] > cum[state]).sum(axis=1)
            died = cat >= form.n
            jumped = ~died & (local[np.minimum(cat, form.n - 1)] < 0)
            gone = died | jumped
            exits[active[died]] = -1
            exits[active[jumped]] = cat[jumped]
            active = active[~gone]
            state = local[cat[~gone]]
        else:
            raise RuntimeError(f"batch exceeded {max_steps} steps without absorbing")
    return exits, occ


def mc_estimate(kind: str, form: DiscreteForm, D, x: int, *, n_paths: int = 100_000,
                seed: int = 0, g=None, h=None, mu=None, u=None, f=None) -> tuple[float, float]:
    """Sample mean and standard error of the requested exit functional.

    Kinds: ``PDg`` (value of g at the exit, 0 on death), ``RDf`` (time
    integral of the density h), ``RDmu`` (additive functional of atoms mu),
    ``second_moment`` (its square), ``FK_residual`` (full path functional
    minus u at the start point; needs g, mu, u and the absorption f).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    idx = as_subset(form.n, D)
    exits, occ = simulate_batch(form, D, x, n_paths, seed)
    if kind == "PDg":
        gext = np.append(np.asarray(g, dtype=float), 0.0)
        vals = gext[exits]
    elif kind == "RDf":
        vals = occ @ np.asarray(h, dtype=float)[idx]
    elif kind == "RDmu":
        vals = occ @ (np.asarray(mu, dtype=float)[idx] / form.m[idx])
    elif kind == "second_moment":
        a = occ @ (np.asarray(mu, dtype=float)[idx] / form.m[idx])
        vals = a * a
    elif kind == "FK_residual":
        gext = np.append(np.asarray(g, dtype=float), 0.0)
        uvec = np.asarray(u, dtype=float)
        fvals = f(idx, uvec[idx])
        vals = gext[exits] + occ @ fvals + occ @ (np.asarray(mu, dtype=float)[idx] / form.m[idx]) \
            - uvec[x]
    else:
        raise ValueError(f"unknown estimator kind: {kind!r}")
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return est, stderr


def exit_law_counts(form: DiscreteForm, D, x: int, n_paths: int, seed: int):
    """Observed exit counts per category (states outside D, then death)."""
    exits, _ = simulate_batch(form, D, x, n_paths, seed)
    comp = np.setdiff1d(np.arange(form.n), as_subset(form.n, D))
    counts = np.array([(exits == s).sum() for s in comp] + [(exits == -1).sum()], dtype=float)
    return comp, counts


def exit_law_chi2(form: DiscreteForm, D, x: int, n_paths: int = 100_000,
                  seed: int = 0, min_expected: float = 5.0):
    """Chi-square test of the empirical exit distribution against the kernel.

    Cells with tiny expected counts are pooled into one before testing.
    """
    from .projection import poisson_kernel

    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    idx = as_subset(form.n, D)
    comp, counts = exit_law_counts(form, idx, x, n_paths, seed)
    P = poisson_kernel(form, idx).P
    expected = np.append(P[x, comp], max(1.0 - P[x, comp].sum(), 0.0)) * n_paths
    keep = expected >= min_expected
    if (~keep).any():
        counts = np.append(counts[keep], counts[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        if expected[-1] == 0:
            counts, expected = counts[:-1], expected[:-1]
    expected *= counts.sum() / expected.sum()
    return chisquare(counts, expected)
