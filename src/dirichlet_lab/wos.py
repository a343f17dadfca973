"""Exit sampling for the stable process on the interval by maximal balls.

Each step draws the exact exit position of the process from the largest
centered subinterval around the current point; the chain of such jumps
reaches the exterior of (-1, 1) after a geometrically bounded number of
steps, and the final position has exactly the law of the exit point.  From
the center of a ball, 1 - S = 1/|Y|^2 is Beta(alpha/2, 1 - alpha/2), so one
uniform per ball gives the jump: its side of 1/2 is the sign, and |Y| is the
Beta quantile at the folded level, read from a per-alpha table of
logit(1 - S) against the level's logit, built on first use from the
incomplete beta integral by Gauss-Jacobi rules and Newton.  The mean exit
time adds the closed-form per-ball mass.  The occupation of a source adds,
per ball, its Green-weighted mass: by quadrature on the first ball, which
every path shares, and by one node of the same rule drawn in proportion to
its weight on every later ball, so the estimate keeps the expectation of the
quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .frac1d import (ExteriorData, FracKernels, _exit_average, _exterior_rule, _gj, _graded_breaks,
                     _green_rule, _TABLE_FIT, _table_eval, _table_fit)
from .rng import (CHUNK, check_estimate_args, chisquare, control_variate, live_segments,
                  mean_and_stderr, substream)

__all__ = [
    "ball_green_rule",
    "wos_estimate",
    "wos_exit_batch",
    "wos_exit_chi2",
]

# arguments each estimator kind reads, checked before any path is walked
_NEEDS = {"PDg": ("g",), "mean_exit_time": (), "FK_residual": ("g", "source", "u_x"),
          "exit_chi2": ()}
# edges of the exit-law chi-square's cells on |y| > 1, mirrored to y < -1
_CELL_EDGES = (1.0, 1.05, 1.15, 1.3, 1.6, 2.5, 6.0)
# Floor of 1 - S = 1/|Y|^2, so |Y| <= 2^26.5 (about 9.5e7).
_EXIT_FLOOR = 2.0 ** -53
_EXIT_CAP = 1.0 / math.sqrt(_EXIT_FLOOR)

# ---------------------------------------------------------------------------
# exit table
#
# With a = alpha/2 and b = 1 - a, the exit from the center of the unit ball
# has 1 - S = x, x ~ Beta(a, b), drawn by inversion of the regularized
# incomplete beta integral I_x(a, b) at a uniform level v.  In logits,
# L = logit(x) against t = logit(v) is smooth, with slopes 1/a and 1/b at the
# two ends, so it is tabulated per alpha as one polynomial per piece of a
# window in t, fitted to Newton solutions of I_x(a, b) = v.  The window ends
# where x = e^-18 and 1 - x = e^-12; beyond them the two-term expansions of
# the integral at each end give |Y| = sqrt(1 + e^-L) exact to rounding.

_EXIT_PIECES = 128
_EXIT_GAUSS = 12  # Gauss-Jacobi nodes per incomplete beta integral
_EXIT_LOG_ENDS = (-18.0, -12.0)  # log x at the window's left end, log(1 - x) at its right
_EXIT_NEWTON = 20  # Newton steps allowed per fit node
_EXIT_GAP = 1e-12  # largest relative gap of |Y| the table may leave
# L below logit(_EXIT_FLOOR) = -36.7 is floored anyway; at -40, e^-L does not overflow
_EXIT_LOGIT_MIN = -40.0


def _log_pb(p: float) -> float:
    """log(p B(p, 1 - p)) = log(pi p / sin(pi p)), at least 0; the sine is
    taken at the nearer of p and 1 - p, so it keeps its digits near 0 and 1."""
    return math.log(math.pi * p / math.sin(math.pi * min(p, 1.0 - p)))


def _beta_logit(alpha: float, L: np.ndarray):
    """t = logit I_x(a, b) at x = 1 / (1 + e^-L), and dt/dL (new arrays).

    With y the smaller of x and 1 - x and p its exponent (a for x, b for
    1 - x), the integral below y is T = y^p J / (p B), where
    J = p int_0^1 u^(p-1) (1 - y u)^(-p) du is smooth in u for y <= 1/2 and
    J - 1 is summed by a Gauss-Jacobi rule for the u^(p-1) end.  log T is a
    sum of terms that vanish with p and y, and 1 - T = -expm1(log T), so T,
    1 - T and t keep their digits in both tails and at small p.
    dt/dL = p (1 - y)^(1-p) / (J (1 - T)).
    """
    t, slope = np.empty_like(L), np.empty_like(L)
    for sign, side, p in ((1.0, L <= 0.0, 0.5 * alpha), (-1.0, L > 0.0, 1.0 - 0.5 * alpha)):
        lam = -np.abs(L[side])
        log_y = lam - np.log1p(np.exp(lam))
        y = np.exp(log_y)
        node, weight = _gj(_EXIT_GAUSS, 0.0, p - 1.0)
        terms = np.expm1(-p * np.log1p(-y[:, None] * (0.5 + 0.5 * node)))
        J1 = np.einsum("ij,j->i", terms, weight) * (p * 2.0 ** -p)
        log_tail = p * log_y + np.log1p(J1) - _log_pb(p)
        rest = -np.expm1(log_tail)
        t[side] = sign * (log_tail - np.log(rest))
        slope[side] = p * np.exp((1.0 - p) * np.log1p(-y)) / ((1.0 + J1) * rest)
    return t, slope


def _tail_logit(p: float, t: np.ndarray) -> np.ndarray:
    """logit(x) where I_x(p, 1 - p) = 1 / (1 + e^-t), from the two-term
    expansion log I = p log x - log(p B) + p^2 x / (p + 1) + O(x^2)."""
    log_x = (_log_pb(p) - np.log1p(np.exp(-t))) / p
    log_x -= p / (p + 1.0) * np.exp(log_x)
    return log_x - np.log1p(-np.exp(log_x))


def _exit_window(alpha: float):
    """Ends of the table's window in t, where log x and log(1 - x) reach
    ``_EXIT_LOG_ENDS`` by the leading term of each end's expansion,
    I_x = x^a / (a B) and 1 - I_x = (1 - x)^b / (b B); a B and b B are at
    least 1, so both terms lie in (0, 1)."""
    ends = []
    for p, log_end in zip((0.5 * alpha, 1.0 - 0.5 * alpha), _EXIT_LOG_ENDS):
        tail = math.exp(p * log_end - _log_pb(p))
        ends.append(math.log(tail) - math.log1p(-tail))
    return ends[0], -ends[1]


def _exit_points(alpha: float, frac):
    """``(t, s)``: the points frac in [0, 1] of every piece of the window,
    piece by piece, as level logits t and as s, counted in pieces."""
    lo, hi = _exit_window(alpha)
    s = (np.arange(_EXIT_PIECES)[:, None] + frac).ravel()
    return lo + (hi - lo) / _EXIT_PIECES * s, s


def _exit_logit(alpha: float, t: np.ndarray) -> np.ndarray:
    """L = logit(1 - S) at the level logits t (a new array): the exit table
    inside its window, each end's expansion beyond it, and never below
    ``_EXIT_LOGIT_MIN``."""
    coef = _exit_table(alpha)
    lo, hi = _exit_window(alpha)
    s = np.clip(t, lo, hi)
    s -= lo
    s *= _EXIT_PIECES / (hi - lo)
    out = _table_eval(coef, s)
    low = t < lo
    if low.any():
        out[low] = np.maximum(_tail_logit(0.5 * alpha, t[low]), _EXIT_LOGIT_MIN)
    high = t > hi
    if high.any():
        out[high] = -_tail_logit(1.0 - 0.5 * alpha, -t[high])
    return out


def _exit_table_gap(alpha: float, coef) -> float:
    """Largest relative gap of |Y| between the table and the defining
    integral at the midpoints between fit nodes: the Newton correction to L
    there, times |d log|Y| / dL| = 1 / (2 (1 + e^L))."""
    mids, s = _exit_points(alpha, 0.5 * (_TABLE_FIT[:-1] + _TABLE_FIT[1:]))
    L = _table_eval(coef, s)
    t, slope = _beta_logit(alpha, L)
    return float(np.max(np.abs(mids - t) / slope * 0.5 * np.exp(-np.logaddexp(0.0, L))))


@lru_cache(maxsize=16)
def _exit_table(alpha: float) -> np.ndarray:
    """Read-only ``_table_fit`` of L(t) on the pieces of the window, from
    Newton on ``_beta_logit`` started at the expansion of the end on the
    same side of x = 1/2.  A gap above ``_EXIT_GAP`` at the midpoints is a
    ValueError naming alpha."""
    t, _ = _exit_points(alpha, _TABLE_FIT)
    left = t < _beta_logit(alpha, np.zeros(1))[0][0]
    L = np.empty_like(t)
    L[left] = _tail_logit(0.5 * alpha, t[left])
    L[~left] = -_tail_logit(1.0 - 0.5 * alpha, -t[~left])
    for _ in range(_EXIT_NEWTON):
        tL, slope = _beta_logit(alpha, L)
        step = np.clip((t - tL) / slope, -4.0, 4.0)  # no overshoot from a poor start
        L += step
        if np.max(np.abs(step)) <= 1e-12:  # quadratic convergence: exact to rounding now
            break
    coef = _table_fit(L.reshape(_EXIT_PIECES, -1))
    gap = _exit_table_gap(alpha, coef)
    if not gap <= _EXIT_GAP:
        raise ValueError(f"exit table at alpha = {alpha} off its integral by {gap:.3g} "
                         f"relative in |Y|")
    return coef


def _exit_jumps(alpha: float, w: np.ndarray) -> np.ndarray:
    """Exit positions Y of the unit ball from its center, one per uniform w
    in [0, 1): negative for w < 1/2, and |Y| the quantile at the level
    v = 2 min(w, 1 - w), read from the exit table, with 1 - S floored at
    ``_EXIT_FLOOR``."""
    m = np.minimum(w, 1.0 - w)
    with np.errstate(divide="ignore"):  # v = 0 and v = 1 are the logits -inf and +inf
        t = np.log(m / (0.5 - m))
    e = _exit_logit(alpha, t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    mag = np.sqrt(e, out=e)
    np.minimum(mag, _EXIT_CAP, out=mag)
    return np.copysign(mag, w - 0.5)


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

    Paths are split into chunks of ``rng.CHUNK``; chunk c draws one uniform
    per ball from ``substream(seed, c)`` and, with ``h``, its nodes from
    ``substream(seed, ~c)``.  One loop steps the live paths of all chunks
    together, each chunk filling its own segment of the step's uniforms
    (``rng.live_segments``), and one ``_exit_jumps`` call turns them all into
    jumps, so every path's bits are those of a chunk-by-chunk walk, and the
    exits and mean exit times do not depend on ``h``.
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
    if h is not None:
        picks = [substream(seed, ~c) for c in range(starts.size)]
        pick = np.empty(n_paths)
    unif = np.empty(n_paths)
    active = np.arange(n_paths)
    xs = np.full(n_paths, float(x))
    r = 1.0 - np.abs(xs[:1])  # radius of each live ball; at first the one shared ball
    for step in range(max_steps):
        sample = h is not None and step > 0
        for c, seg in live_segments(active, starts):
            walks[c].random(out=unif[seg])
            if sample:
                picks[c].random(out=pick[seg])
        ra = r ** alpha
        mean_exit[active] += kernels.mean_exit_ball(1.0) * ra
        if sample:
            occ[active] += mass * ra * h(xs + r * draw_node(pick[:active.size]))
        xs = xs + r * _exit_jumps(alpha, unif[:active.size])
        # index arrays rather than masks: a random mask indexes about 6x slower
        done = np.abs(xs) >= 1.0
        gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
        exits[active[gone]] = xs[gone]
        active, xs = active[keep], xs[keep]
        if active.size == 0:
            break
        r = 1.0 - np.abs(xs)
    else:
        raise RuntimeError(f"batch exceeded {max_steps} steps without exiting")
    return exits, mean_exit, occ


def wos_estimate(kinds: tuple, kernels: FracKernels, x: float, *, n_paths: int = 100_000,
                 seed: int = 0, g=None, source=None, u_x=None) -> list[tuple[float, float]]:
    """One result per requested kind, in the order of ``kinds``, all read
    from one ``wos_exit_batch`` walk.

    Kinds: ``PDg`` (exterior datum at the exit point), ``mean_exit_time``
    (sum of per-ball expected exit times), ``FK_residual`` (exterior value
    plus occupation of the density ``source``, minus ``u_x``, the solved
    value at the start; measure atoms are not supported here) give
    ``(estimate, stderr)``; ``exit_chi2`` gives ``(statistic, p)`` of the
    walk's exit points against the exit density.  ``FK_residual`` takes the
    mean exit times as a control variate (``rng.control_variate``), against
    ``FracKernels.mean_exit``: a walk whose mean exit time misses it by more
    than ``rng.BAND_Z`` standard errors, the band of the mean exit check, keeps
    the plain estimate.  The walk carries the source only when
    ``FK_residual`` is asked for, and its exits and mean exit times do not
    depend on it, so each result has the bits of a one-kind call at the
    same seed.
    """
    check_estimate_args(kinds, n_paths, _NEEDS, {"g": g, "source": source, "u_x": u_x})
    h = source if "FK_residual" in kinds else None
    exits, mean_exit, occ = wos_exit_batch(kernels, x, n_paths, seed, h=h)
    out = []
    for kind in kinds:
        if kind == "exit_chi2":
            out.append(_exit_chi2(kernels, x, exits))
        elif kind == "PDg":
            out.append(mean_and_stderr(np.asarray(g(exits), dtype=float)))
        elif kind == "mean_exit_time":
            out.append(mean_and_stderr(mean_exit))
        else:
            vals = np.asarray(g(exits), dtype=float) + occ - float(u_x)
            out.append(control_variate(vals, mean_exit, kernels.mean_exit(float(x))))
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
    xs = np.array([float(x)])
    masses = np.array([_exit_average(kernels, 1.0, ExteriorData(
        fn=lambda y, lo=lo, hi=hi: _in_cell(y, lo, hi).astype(float)), xs, rule)[0]
        for lo, hi in cells])
    return cells, masses


def _cell_counts(exits: np.ndarray) -> np.ndarray:
    """Exits per cell of ``_exit_cells``: on each side, the count beyond a
    cell's inner edge less the count beyond its outer edge (every exit has
    |y| >= 1, so each falls in one cell)."""
    beyond = np.array([[np.count_nonzero(exits >= e), np.count_nonzero(exits <= -e)]
                       for e in _CELL_EDGES + (np.inf,)])
    return (beyond[:-1] - beyond[1:]).T.ravel()


def _exit_chi2(kernels: FracKernels, x: float, exits: np.ndarray):
    """Chi-square comparison of sampled exit points with the exit density,
    on the cells of ``_exit_cells``."""
    _, masses = _exit_cells(kernels, x)
    counts = _cell_counts(exits).astype(float)
    expect = masses * exits.size
    expect *= counts.sum() / expect.sum()
    return chisquare(counts, expect)
