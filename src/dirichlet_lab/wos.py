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

import numpy as np

from .frac1d import (ExteriorData, FracKernels, _exit_average, _exterior_rule, _graded_breaks,
                     _green_rule)
from .rng import CHUNK, check_estimate_args, chisquare, live_segments, mean_and_stderr, substream

__all__ = [
    "ball_green_rule",
    "wos_estimate",
    "wos_exit_batch",
    "wos_exit_chi2",
]

# arguments each estimator kind reads, checked before any path is walked
_NEEDS = {"PDg": ("g",), "mean_exit_time": (), "FK_residual": ("g", "u_fn", "f"),
          "exit_chi2": ()}
# edges of the exit-law chi-square's cells on |y| > 1, mirrored to y < -1
_CELL_EDGES = (1.0, 1.05, 1.15, 1.3, 1.6, 2.5, 6.0)
# Floor of 1 - S = 1/|Y|^2, so |Y| <= 2^26.5 (about 9.5e7).
_EXIT_FLOOR = 2.0 ** -53


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
    occupation of h under the unit-ball walk started at the center: the two
    halves of ``frac1d._green_rule`` at 0 (order 12, 22 levels), joined."""
    return tuple(np.concatenate(part) for part in zip(*_green_rule(kernels, 0.0, 12, 22)))


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

    Paths are split into chunks of ``rng.CHUNK``; chunk c draws its walk from
    ``substream(seed, c)`` and its nodes from ``substream(seed, ~c)``.  One
    loop steps the live paths of all chunks together, each chunk filling its
    own segment of the step's draws (``rng.live_segments``), so every path's
    bits are those of a chunk-by-chunk walk, and the exits and mean exit
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
    starts = np.arange(0, n_paths, CHUNK)
    walks = [substream(seed, c) for c in range(starts.size)]
    picks = [substream(seed, ~c) for c in range(starts.size)]
    jump = np.empty(n_paths)
    unif = np.empty(n_paths)
    active = np.arange(n_paths)
    xs = np.full(n_paths, float(x))
    for step in range(max_steps):
        sample = h is not None and step > 0
        for c, seg in live_segments(active, starts):
            if sample:
                picks[c].random(out=unif[seg])
            jump[seg] = _sample_exit_positions(alpha, walks[c], seg.stop - seg.start)
        r = 1.0 - np.abs(xs)
        ra = r ** alpha
        mean_exit[active] += kernels.mean_exit_ball(1.0) * ra
        if sample:
            occ[active] += mass * ra * h(xs + r * draw_node(unif[:active.size]))
        xs = xs + r * jump[:active.size]
        done = np.abs(xs) >= 1.0
        exits[active[done]] = xs[done]
        active, xs = active[~done], xs[~done]
        if active.size == 0:
            break
    else:
        raise RuntimeError(f"batch exceeded {max_steps} steps without exiting")
    return exits, mean_exit, occ


def wos_estimate(kinds: tuple, kernels: FracKernels, x: float, *, n_paths: int = 100_000,
                 seed: int = 0, g=None, u_fn=None, f=None) -> list[tuple[float, float]]:
    """One result per requested kind, in the order of ``kinds``, all read
    from one ``wos_exit_batch`` walk.

    Kinds: ``PDg`` (exterior datum at the exit point), ``mean_exit_time``
    (sum of per-ball expected exit times), ``FK_residual`` (exterior value
    plus occupation of the absorption along the solved function, minus the
    solved value at the start; measure atoms are not supported here) give
    ``(estimate, stderr)``; ``exit_chi2`` gives ``(statistic, p)`` of the
    walk's exit points against the exit density.  The walk carries the
    source only when ``FK_residual`` is asked for, and its exits and mean
    exit times do not depend on it, so each result has the bits of a
    one-kind call at the same seed.
    """
    check_estimate_args(kinds, n_paths, _NEEDS, {"g": g, "u_fn": u_fn, "f": f})
    h = None
    if "FK_residual" in kinds:
        def h(pts):
            return f(pts, u_fn(pts))

    exits, mean_exit, occ = wos_exit_batch(kernels, x, n_paths, seed, h=h)
    out = []
    for kind in kinds:
        if kind == "exit_chi2":
            out.append(_exit_chi2(kernels, x, exits))
            continue
        if kind == "PDg":
            vals = np.asarray(g(exits), dtype=float)
        elif kind == "mean_exit_time":
            vals = mean_exit
        else:
            vals = np.asarray(g(exits), dtype=float) + occ - float(u_fn(np.asarray([x]))[0])
        out.append(mean_and_stderr(vals))
    return out


def wos_exit_chi2(kernels: FracKernels, x: float, n_paths: int = 100_000, seed: int = 0):
    """``(statistic, p)`` of one walk's exit points against the exit density."""
    return wos_estimate(("exit_chi2",), kernels, x, n_paths=n_paths, seed=seed)[0]


def _in_cell(y, lo: float, hi: float) -> np.ndarray:
    """y in the cell ``(lo, hi)``: ``[lo, hi)`` right of the interval, and its
    mirror image ``(lo, hi]`` left of it, so y = -1.0 counts as y = +1.0 does."""
    if lo >= 1.0:
        return (y >= lo) & (y < hi)
    return (y > lo) & (y <= hi)


def _exit_cells(kernels: FracKernels, x: float):
    """The chi-square's 14 cells ``(lo, hi)``, each on one side of the boundary
    with the sides of ``_in_cell``, and the exit mass of each from x.

    A mass is the exit average (``frac1d._exit_average``) of the cell's
    indicator, all on one exterior rule whose breaks include every cell edge,
    so each panel lies in one cell.  The indicator of a finite cell is 0 at
    the rule's end, so it has no tail; that of an outer cell is one-sided,
    with tail exponent 0, so its tail is the analytic one.
    """
    right = list(zip(_CELL_EDGES, _CELL_EDGES[1:] + (np.inf,)))
    cells = right + [(-hi, -lo) for lo, hi in right]
    # graded toward 1 inside the first cell, one panel per finite cell, then
    # doubling from 8 to 2^11
    breaks = np.concatenate([_graded_breaks(1.0, _CELL_EDGES[1], 28, True)[:-1],
                             _CELL_EDGES[1:], 2.0 ** np.arange(3, 12)])
    rule = _exterior_rule(breaks, 14, -kernels.alpha / 2.0)

    def indicator(lo, hi):
        return ExteriorData(fn=lambda y: _in_cell(y, lo, hi).astype(float))

    xs = np.array([float(x)])
    masses = [_exit_average(kernels, 1.0, indicator(lo, hi), xs, rule)[0] for lo, hi in cells]
    return cells, np.asarray(masses)


def _exit_chi2(kernels: FracKernels, x: float, exits: np.ndarray):
    """Chi-square comparison of sampled exit points with the exit density,
    on the cells of ``_exit_cells``."""
    cells, masses = _exit_cells(kernels, x)
    counts = np.asarray([np.sum(_in_cell(exits, lo, hi)) for lo, hi in cells], dtype=float)
    expect = masses * exits.size
    expect *= counts.sum() / expect.sum()
    return chisquare(counts, expect)
