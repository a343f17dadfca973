"""Monte Carlo oracle for the graph backend.

Simulates the continuous-time killed jump chain whose rates match the
generator exactly: jump rate 2 J[x,y] / m[x] from x to y and death rate
kappa[x] / m[x].  Holding times are sampled by exponential inversion, so the
simulated law is exact and every estimator below is unbiased.  Paths are
split across counter-based substream chunks; the chunk merge order is fixed,
which makes estimates reproducible regardless of parallel scheduling.
"""

from __future__ import annotations

import numpy as np

from .forms import DiscreteForm, as_subset, is_transient
from .rng import chisquare, substream

__all__ = [
    "exit_law_counts",
    "exit_law_chi2",
    "mc_estimate",
    "simulate_batch",
]

_CHUNK = 4096
# arguments each estimator kind reads, checked before any path is simulated
_NEEDS = {"PDg": ("g",), "RDf": ("h",), "RDmu": ("mu",), "second_moment": ("mu",),
          "FK_residual": ("g", "mu", "u", "f")}


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


def _padded_table(cum: np.ndarray):
    """Rows of ``cum`` padded with 2.0 to a power-of-two width W > cum.shape[1], flattened.

    The padding exceeds every uniform draw, so it never counts as below one.
    """
    width = 1 << cum.shape[1].bit_length()
    table = np.full((cum.shape[0], width), 2.0)
    table[:, :cum.shape[1]] = cum
    return table.ravel(), width


def _category(table: np.ndarray, width: int, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of entries of row ``state`` below ``u``: ``(u[:, None] > cum[state]).sum(1)``.

    Rows must be non-decreasing.  A branchless lower bound of log2(width)
    halving steps; ties and repeated entries count exactly as in the dense
    comparison.
    """
    base = state * width
    lo = base.copy()
    step = width // 2
    while step:
        lo += step * (table[lo + (step - 1)] < u)
        step //= 2
    return lo - base


def simulate_batch(form: DiscreteForm, D, x: int, n_paths: int, seed: int,
                   max_steps: int = 10 ** 6, functionals=None):
    """Exit states (-1 for death) and occupation times for n_paths paths.

    Without ``functionals``, returns (exits, occupations) with occupations of
    shape (n_paths, |D|), columns ordered like the sorted D index array.
    With ``functionals``, a sequence of |D|-vectors v_j in that order, returns
    (exits, F) with ``F[j] = occupations @ v_j`` of shape (len(functionals),
    n_paths); occupation is then kept for one chunk of paths at a time only.
    """
    idx = as_subset(form.n, D)
    if x not in idx:
        raise ValueError("start state must lie in D")
    if not is_transient(form, idx):
        raise ValueError("D must be transient")
    if functionals is not None:
        functionals = [np.asarray(v, dtype=float) for v in functionals]
        if any(v.shape != (idx.size,) for v in functionals):
            raise ValueError(f"each functional must be a vector of length |D| = {idx.size}")
    total, cum = _rates(form, idx)
    table, width = _padded_table(cum)
    local = -np.ones(form.n + 1, dtype=int)  # per category; -1 outside D and for death
    local[idx] = np.arange(idx.size)
    exits = np.empty(n_paths, dtype=int)
    if functionals is None:
        occ = np.zeros((n_paths, idx.size))
    else:
        F = np.empty((len(functionals), n_paths))
        occ = np.empty((min(_CHUNK, n_paths), idx.size))  # reused by every chunk
    for c0 in range(0, n_paths, _CHUNK):
        c1 = min(c0 + _CHUNK, n_paths)
        rng = substream(seed, c0 // _CHUNK)
        if functionals is None:
            buf = occ[c0:c1]
        else:
            buf = occ[:c1 - c0]
            buf.fill(0.0)
        out = exits[c0:c1]
        active = np.arange(c1 - c0)
        state = np.full(active.size, local[x], dtype=int)
        for _ in range(max_steps):
            hold = rng.exponential(1.0, size=active.size) / total[state]
            buf[active, state] += hold  # each (path, state) pair occurs once per step
            u = rng.random(active.size)
            cat = _category(table, width, state, u)
            nxt = local[cat]
            gone = nxt < 0
            out[active[gone]] = cat[gone]
            stay = ~gone
            active, state = active[stay], nxt[stay]
            if active.size == 0:
                break
        else:
            raise RuntimeError(f"batch exceeded {max_steps} steps without absorbing")
        if functionals is not None:
            # one product per vector: a stacked buf @ V sums in another order than occ @ v
            for j, v in enumerate(functionals):
                F[j, c0:c1] = buf @ v
    exits[exits == form.n] = -1  # category n is death
    if functionals is None:
        return exits, occ
    return exits, F


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
    if kind not in _NEEDS:
        raise ValueError(f"unknown estimator kind: {kind!r}")
    given = {"g": g, "h": h, "mu": mu, "u": u, "f": f}
    missing = [name for name in _NEEDS[kind] if given[name] is None]
    if missing:
        raise ValueError(f"estimator {kind} needs {', '.join(missing)}")
    idx = as_subset(form.n, D)
    if kind == "PDg":
        functionals = ()
    elif kind == "RDf":
        functionals = (np.asarray(h, dtype=float)[idx],)
    else:
        weights = np.asarray(mu, dtype=float)[idx] / form.m[idx]
        if kind == "FK_residual":
            uvec = np.asarray(u, dtype=float)
            functionals = (f(idx, uvec[idx]), weights)
        else:
            functionals = (weights,)
    exits, F = simulate_batch(form, D, x, n_paths, seed, functionals=functionals)
    if kind in ("RDf", "RDmu"):
        vals = F[0]
    elif kind == "second_moment":
        vals = F[0] * F[0]
    else:
        vals = np.append(np.asarray(g, dtype=float), 0.0)[exits]  # g = 0 on death
        if kind == "FK_residual":
            vals = vals + F[0] + F[1] - uvec[x]
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return est, stderr


def exit_law_counts(form: DiscreteForm, D, x: int, n_paths: int, seed: int):
    """Observed exit counts per category (states outside D, then death)."""
    exits, _ = simulate_batch(form, D, x, n_paths, seed, functionals=())
    comp = np.setdiff1d(np.arange(form.n), as_subset(form.n, D))
    per_state = np.bincount(exits + 1, minlength=form.n + 1)  # slot 0 is death
    counts = np.append(per_state[comp + 1], per_state[0]).astype(float)
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
