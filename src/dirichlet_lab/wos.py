"""Exit sampling for the stable process on the interval by maximal balls.

Each step draws the exact exit position of the process from the largest
centered subinterval around the current point; the chain of such jumps
reaches the exterior of (-1, 1) after a geometrically bounded number of
steps, and the final position has exactly the law of the exit point.  The
per-step exit law from a centered ball has an explicit regularized
incomplete-beta distribution function, so sampling is by direct inversion;
mean-exit and occupation estimators accumulate closed-form per-ball masses
instead of discretizing time, so they stay unbiased up to quadrature error.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import betainc, betaincinv

from .frac1d import FracKernels, _graded_panels, _split_rule
from .rng import chisquare, substream, worker_count

__all__ = [
    "ball_green_rule",
    "exit_cdf_ball",
    "wos_estimate",
    "wos_exit_batch",
    "wos_exit_chi2",
]

_CHUNK = 4096
# Balls per block of the source quadrature: 64 rows of 1,104 points stay in
# cache, where a whole chunk's block is a memory-bound array of tens of MB.
_SOURCE_ROWS = 64


def exit_cdf_ball(alpha: float, t) -> np.ndarray:
    """P(|exit position| <= t) for the unit centered ball, started at 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    ok = t > 1.0
    out[ok] = betainc(1.0 - alpha / 2.0, alpha / 2.0, 1.0 - 1.0 / t[ok] ** 2)
    return out


def _sample_exit_positions(alpha: float, rng, size: int) -> np.ndarray:
    """Exact inverse-CDF draw of the unit-ball exit position from the center."""
    u = rng.random(size)
    s = np.minimum(betaincinv(1.0 - alpha / 2.0, alpha / 2.0, rng.random(size)),
                   1.0 - 1e-16)
    mag = 1.0 / np.sqrt(1.0 - s)
    return np.where(u < 0.5, -mag, mag)


def ball_green_rule(kernels: FracKernels, order: int = 12, levels: int = 22):
    """Nodes w_i in (-1, 1) and masses v_i with sum v_i h(w_i) ~ expected
    occupation of h under the unit-ball walk started at the center."""
    a = kernels.alpha
    diag_gamma = a - 1.0 if a < 1.0 else 0.0
    (y0, w0), (y1, w1) = _split_rule(-1.0, 0.0, 1.0, order, levels, a / 2.0, diag_gamma)
    y = np.concatenate([y0, y1])
    return y, np.concatenate([w0, w1]) * kernels.green(0.0, y)


def _ball_source(h, rule, xs: np.ndarray, r: np.ndarray, alpha: float) -> np.ndarray:
    """r^alpha times the per-ball Green mass of y -> h(x + r * y), one value
    per ball with center x and radius r.

    Each row is reduced by einsum, which sums it in one fixed order; a BLAS
    matrix-vector product sums some rows in another order depending on how
    many rows share the call.  So a ball's value does not depend on the block,
    chunk or thread it is evaluated in.
    """
    gy, gw = rule
    out = np.empty(xs.size)
    for b0 in range(0, xs.size, _SOURCE_ROWS):
        b = slice(b0, b0 + _SOURCE_ROWS)
        out[b] = np.einsum("ij,j->i", h(xs[b, None] + r[b, None] * gy[None, :]), gw)
    return (r ** alpha) * out


def wos_exit_batch(kernels: FracKernels, x: float, n_paths: int, seed: int,
                   h=None, max_steps: int = 10 ** 6):
    """Exit points and (optionally) per-path occupation functionals.

    With ``h`` given, the third return value accumulates the expected
    occupation of h ball-by-ball: radius^alpha times the per-ball Green mass
    of y -> h(center + radius * y).  Every path starts at x, so the first
    ball is shared: its source term is evaluated once per call, with the
    same expression as the later balls.

    Chunks of 4,096 paths run on up to ``worker_count`` threads; each chunk
    draws from its own substream and writes only its own paths, so the
    results do not depend on the number of threads.
    """
    if not abs(x) < 1.0:
        raise ValueError("start point must be interior")
    alpha = kernels.alpha
    exits = np.empty(n_paths)
    occ = None
    mean_exit = np.zeros(n_paths)
    if h is not None:
        rule = ball_green_rule(kernels)
        x0 = np.array([float(x)])
        occ = np.full(n_paths, _ball_source(h, rule, x0, 1.0 - np.abs(x0), alpha)[0])

    def walk(c0: int) -> None:
        rng = substream(seed, c0 // _CHUNK)
        active = np.arange(c0, min(c0 + _CHUNK, n_paths))
        xs = np.full(active.size, float(x))
        for step in range(max_steps):
            if active.size == 0:
                break
            r = 1.0 - np.abs(xs)
            mean_exit[active] += kernels.mean_exit_ball(1.0) * r ** alpha
            if h is not None and step > 0:
                occ[active] += _ball_source(h, rule, xs, r, alpha)
            xs = xs + r * _sample_exit_positions(alpha, rng, active.size)
            done = np.abs(xs) >= 1.0
            exits[active[done]] = xs[done]
            active = active[~done]
            xs = xs[~done]
        else:
            raise RuntimeError(f"batch exceeded {max_steps} steps without exiting")

    starts = range(0, n_paths, _CHUNK)
    with ThreadPoolExecutor(max_workers=worker_count(len(starts))) as pool:
        list(pool.map(walk, starts))
    return exits, mean_exit, occ


def wos_estimate(kind: str, kernels: FracKernels, x: float, *, n_paths: int = 100_000,
                 seed: int = 0, g=None, u_fn=None, f=None, mu_atoms=()) -> tuple[float, float]:
    """Sample mean and standard error of an exit functional of the walk.

    Kinds: ``PDg`` (exterior datum at the exit point), ``mean_exit_time``
    (sum of per-ball expected exit times), ``FK_residual`` (exterior value
    plus occupation of the absorption along the solved function, minus the
    solved value at the start; measure atoms are not supported here).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    if kind == "PDg":
        exits, _, _ = wos_exit_batch(kernels, x, n_paths, seed)
        vals = np.asarray(g(exits), dtype=float)
    elif kind == "mean_exit_time":
        _, mean_exit, _ = wos_exit_batch(kernels, x, n_paths, seed)
        vals = mean_exit
    elif kind == "FK_residual":
        if mu_atoms:
            raise ValueError("FK_residual via ball walks supports only absolutely "
                             "continuous forcing")

        def h(pts):
            return f(pts, u_fn(pts))

        exits, _, occ = wos_exit_batch(kernels, x, n_paths, seed, h=h)
        vals = np.asarray(g(exits), dtype=float) + occ - float(u_fn(np.asarray([x]))[0])
    else:
        raise ValueError(f"unknown estimator kind: {kind!r}")
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return est, stderr


def wos_exit_chi2(kernels: FracKernels, x: float, n_paths: int = 100_000,
                  seed: int = 0, edges=(1.0, 1.05, 1.15, 1.3, 1.6, 2.5, 6.0)):
    """Chi-square comparison of sampled exit points with the exit density.

    Bin masses come from quadrature of the exit density over each cell (the
    overflow cells use the indicator route through the same machinery).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    exits, _, _ = wos_exit_batch(kernels, x, n_paths, seed)
    edges = np.asarray(edges, dtype=float)
    cells = []
    for s in (1.0, -1.0):
        for k in range(len(edges) - 1):
            cells.append((s * edges[k], s * edges[k + 1]))
        cells.append((s * edges[-1], s * np.inf))
    counts = []
    expect = []
    for (a, b) in cells:
        lo, hi = min(a, b), max(a, b)
        counts.append(np.sum((exits >= lo) & (exits < hi)))
        if np.isinf(hi):
            mass = _tail_mass(kernels, x, lo)
        elif np.isinf(lo):
            mass = _tail_mass(kernels, x, abs(hi), negative=True)
        else:
            mass = _bin_mass(kernels, x, lo, hi)
        expect.append(mass * n_paths)
    counts = np.asarray(counts, dtype=float)
    expect = np.asarray(expect, dtype=float)
    expect *= counts.sum() / expect.sum()
    return chisquare(counts, expect)


def _bin_mass(kernels: FracKernels, x: float, lo: float, hi: float) -> float:
    """Exit mass of one finite cell [lo, hi) on either side of the boundary."""
    edge = -kernels.alpha / 2.0
    y, w = _graded_panels(lo, hi, 14, 28, left=edge if lo == 1.0 else None,
                          right=edge if hi == -1.0 else None)
    return float(np.sum(w * kernels.poisson(x, y)))


def _tail_mass(kernels: FracKernels, x: float, cut: float, negative: bool = False) -> float:
    """Exit mass beyond |y| >= cut > 1 on one side of the boundary."""
    alpha = kernels.alpha
    top = cut * 2.0 ** 24
    y, w = _graded_panels(cut, top, 12, 70, left=0.0)
    sign = -1.0 if negative else 1.0
    main = float(np.sum(w * kernels.poisson(x, sign * y)))
    remainder = kernels.poisson_coef * (1.0 - x * x) ** (alpha / 2.0) * top ** (-alpha) / alpha
    return main + remainder
