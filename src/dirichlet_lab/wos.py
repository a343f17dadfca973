"""Exit sampling for the stable process on the interval by maximal balls.

Each step draws the exact exit position of the process from the largest
centered subinterval around the current point; the chain of such jumps
reaches the exterior of (-1, 1) after a geometrically bounded number of
steps, and the final position has exactly the law of the exit point.  From
the center of a ball, S = 1 - 1/|Y|^2 is Beta(1 - alpha/2, alpha/2), so the
exit magnitude is drawn from a ratio of two gamma variates.  The mean exit
time adds the closed-form per-ball mass.  The occupation of a source adds,
per ball, its Green-weighted mass: by quadrature on the first ball, which
every path shares, and by one node of the same rule drawn in proportion to
its weight on every later ball, so the estimate keeps the expectation of the
quadrature.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import betainc

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
# Floor of 1 - S = 1/|Y|^2, so |Y| <= 2^26.5 (about 9.5e7).
_EXIT_FLOOR = 2.0 ** -53


def exit_cdf_ball(alpha: float, t) -> np.ndarray:
    """P(|exit position| <= t) for the unit centered ball, started at 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    ok = t > 1.0
    out[ok] = betainc(1.0 - alpha / 2.0, alpha / 2.0, 1.0 - 1.0 / t[ok] ** 2)
    return out


def _sample_exit_positions(alpha: float, rng, size: int) -> np.ndarray:
    """Exact draw of the unit-ball exit position from the center.

    1 - S = 1/|Y|^2 is Beta(alpha/2, 1 - alpha/2), drawn as G_b / (G_a + G_b)
    with G_a ~ Gamma(1 - alpha/2) and G_b ~ Gamma(alpha/2); the ratio has no
    cancellation however close S is to 1.
    """
    u = rng.random(size)
    ga = rng.standard_gamma(1.0 - alpha / 2.0, size)
    gb = rng.standard_gamma(alpha / 2.0, size)
    mag = 1.0 / np.sqrt(np.maximum(gb / (ga + gb), _EXIT_FLOOR))
    return np.where(u < 0.5, -mag, mag)


def ball_green_rule(kernels: FracKernels):
    """Nodes w_i in (-1, 1) and masses v_i with sum v_i h(w_i) ~ expected
    occupation of h under the unit-ball walk started at the center."""
    a = kernels.alpha
    diag_gamma = a - 1.0 if a < 1.0 else 0.0
    (y0, w0), (y1, w1) = _split_rule(-1.0, 0.0, 1.0, 12, 22, a / 2.0, diag_gamma)
    y = np.concatenate([y0, y1])
    return y, np.concatenate([w0, w1]) * kernels.green(0.0, y)


def _ball_source(h, rule, x: float, alpha: float) -> float:
    """r^alpha times the Green mass of y -> h(x + r * y) on the ball with
    center x and radius r = 1 - |x|, by the full ball rule.

    The first axis of every array passed to h runs over balls, so h gets one
    row here; einsum sums the row in one fixed order, on any BLAS.
    """
    gy, gw = rule
    r = 1.0 - abs(x)
    return r ** alpha * float(np.einsum("ij,j->", h(x + r * gy[None, :]), gw))


def _node_sampler(rule):
    """``(draw, M)`` for the ball rule (y, w), M = sum w: ``draw(u)`` maps
    uniforms on [0, 1) to nodes, y_j with probability w_j / M (every w_j is
    positive), so M * h(y_J) has the mean sum_j w_j h(y_j)."""
    gy, gw = rule
    cum = np.cumsum(gw)
    cdf = cum / cum[-1]  # ends at exactly 1.0, above every uniform

    def draw(u: np.ndarray) -> np.ndarray:
        return gy[np.searchsorted(cdf, u, side="right")]

    return draw, cum[-1]


def wos_exit_batch(kernels: FracKernels, x: float, n_paths: int, seed: int,
                   h=None, max_steps: int = 10 ** 6):
    """Exit points and (optionally) per-path occupation functionals.

    With ``h`` given, the third return value accumulates the occupation of h
    ball by ball, with the expectation radius^alpha times the per-ball Green
    mass of y -> h(center + radius * y) under ``ball_green_rule``.  Every
    path starts at x, so the first ball is shared: its mass is the full rule,
    evaluated once per call.  On every later ball the path draws one node
    y_j of the rule with probability w_j / M, M = sum w, and adds
    radius^alpha * M * h(center + radius * y_j).

    Chunks of 4,096 paths run on up to ``worker_count`` threads; chunk c
    draws its walk from ``substream(seed, c)`` and its nodes from
    ``substream(seed, ~c)``, and writes only its own paths, so the results
    do not depend on the number of threads, and the exits and mean exit
    times do not depend on ``h``.
    """
    if not abs(x) < 1.0:
        raise ValueError("start point must be interior")
    alpha = kernels.alpha
    exits = np.empty(n_paths)
    occ = None
    mean_exit = np.zeros(n_paths)
    if h is not None:
        rule = ball_green_rule(kernels)
        occ = np.full(n_paths, _ball_source(h, rule, float(x), alpha))
        draw_node, mass = _node_sampler(rule)

    def walk(c: int) -> None:
        rng = substream(seed, c)
        pick = substream(seed, ~c)
        active = np.arange(c * _CHUNK, min((c + 1) * _CHUNK, n_paths))
        xs = np.full(active.size, float(x))
        for step in range(max_steps):
            if active.size == 0:
                break
            r = 1.0 - np.abs(xs)
            mean_exit[active] += kernels.mean_exit_ball(1.0) * r ** alpha
            if h is not None and step > 0:
                node = draw_node(pick.random(active.size))
                occ[active] += mass * r ** alpha * h(xs + r * node)
            xs = xs + r * _sample_exit_positions(alpha, rng, active.size)
            done = np.abs(xs) >= 1.0
            exits[active[done]] = xs[done]
            active = active[~done]
            xs = xs[~done]
        else:
            raise RuntimeError(f"batch exceeded {max_steps} steps without exiting")

    chunks = range(-(-n_paths // _CHUNK))
    with ThreadPoolExecutor(max_workers=worker_count(len(chunks))) as pool:
        list(pool.map(walk, chunks))
    return exits, mean_exit, occ


def wos_estimate(kind: str, kernels: FracKernels, x: float, *, n_paths: int = 100_000,
                 seed: int = 0, g=None, u_fn=None, f=None) -> tuple[float, float]:
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
        def h(pts):
            return f(pts, u_fn(pts))

        exits, _, occ = wos_exit_batch(kernels, x, n_paths, seed, h=h)
        vals = np.asarray(g(exits), dtype=float) + occ - float(u_fn(np.asarray([x]))[0])
    else:
        raise ValueError(f"unknown estimator kind: {kind!r}")
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return est, stderr


def wos_exit_chi2(kernels: FracKernels, x: float, n_paths: int = 100_000, seed: int = 0):
    """Chi-square comparison of sampled exit points with the exit density.

    Bin masses come from quadrature of the exit density over each cell (the
    overflow cells use the indicator route through the same machinery).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    exits, _, _ = wos_exit_batch(kernels, x, n_paths, seed)
    edges = np.array([1.0, 1.05, 1.15, 1.3, 1.6, 2.5, 6.0])
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
