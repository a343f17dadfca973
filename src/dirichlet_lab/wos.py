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

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv

from .frac1d import FracKernels, _graded_panels
from .rng import chisquare, substream

__all__ = [
    "WosPath",
    "ball_green_rule",
    "exit_cdf_ball",
    "wos_estimate",
    "wos_exit",
    "wos_exit_batch",
    "wos_exit_chi2",
]

_CHUNK = 4096
# The shared first-ball quadrature runs on this many identical rows, not one:
# numpy hands a one-row product to a dot kernel, which sums in another order
# than the blocked matrix-vector kernel that a whole chunk of paths goes through.
_SHARED_ROWS = 4


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


@dataclass
class WosPath:
    """Ball chain of one walk: centers, radii, exit point, occupation weights.

    ``occupation_scale[k]`` is radius_k^alpha, the factor multiplying any
    per-ball Green mass accumulated at step k.
    """

    centers: np.ndarray
    radii: np.ndarray
    exit_point: float
    steps: int
    occupation_scale: np.ndarray


def wos_exit(kernels: FracKernels, x: float, seed: int, max_steps: int = 10 ** 6) -> WosPath:
    """One walk from x until it leaves (-1, 1); deterministic per seed."""
    if not abs(x) < 1.0:
        raise ValueError("start point must be interior")
    rng = substream(seed, 0)
    centers, radii = [], []
    cur = float(x)
    for step in range(max_steps):
        r = 1.0 - abs(cur)
        centers.append(cur)
        radii.append(r)
        cur = cur + r * float(_sample_exit_positions(kernels.alpha, rng, 1)[0])
        if abs(cur) >= 1.0:
            rad = np.asarray(radii)
            return WosPath(centers=np.asarray(centers), radii=rad, exit_point=cur,
                           steps=step + 1, occupation_scale=rad ** kernels.alpha)
    raise RuntimeError(f"walk exceeded {max_steps} steps without exiting")


def ball_green_rule(kernels: FracKernels, order: int = 12, levels: int = 22):
    """Nodes w_i in (-1, 1) and masses v_i with sum v_i h(w_i) ~ expected
    occupation of h under the unit-ball walk started at the center."""
    a = kernels.alpha
    diag_gamma = a - 1.0 if a < 1.0 else 0.0
    xs, ws = [], []
    for (lo, hi, gl_, gr_) in ((-1.0, 0.0, True, True), (0.0, 1.0, True, True)):
        y, w = _graded_panels(lo, hi, order=order, levels=levels,
                              grade_left=gl_, grade_right=gr_,
                              jacobi_left=(a / 2.0) if lo == -1.0 else diag_gamma,
                              jacobi_right=diag_gamma if hi == 0.0 else (a / 2.0))
        xs.append(y)
        ws.append(w)
    y = np.concatenate(xs)
    return y, np.concatenate(ws) * kernels.green(0.0, y)


def wos_exit_batch(kernels: FracKernels, x: float, n_paths: int, seed: int,
                   h=None, max_steps: int = 10 ** 6):
    """Exit points and (optionally) per-path occupation functionals.

    With ``h`` given, the third return value accumulates the expected
    occupation of h ball-by-ball: radius^alpha times the per-ball Green mass
    of y -> h(center + radius * y).  Every path starts at x, so the first
    ball is shared: its source term is evaluated once per call, with the
    same expression as the later balls.
    """
    alpha = kernels.alpha
    exits = np.empty(n_paths)
    occ = None
    mean_exit = np.zeros(n_paths)
    if h is not None:
        gy, gw = ball_green_rule(kernels)
        x0 = np.full(_SHARED_ROWS, float(x))
        r0 = 1.0 - np.abs(x0)
        pts = x0[:, None] + r0[:, None] * gy[None, :]
        occ = np.full(n_paths, ((r0 ** alpha) * (h(pts) @ gw))[0])
    for c0 in range(0, n_paths, _CHUNK):
        c1 = min(c0 + _CHUNK, n_paths)
        rng = substream(seed, c0 // _CHUNK)
        active = np.arange(c0, c1)
        xs = np.full(active.size, float(x))
        for step in range(max_steps):
            if active.size == 0:
                break
            r = 1.0 - np.abs(xs)
            mean_exit[active] += kernels.mean_exit_ball(1.0) * r ** alpha
            if h is not None and step > 0:
                pts = xs[:, None] + r[:, None] * gy[None, :]
                occ[active] += (r ** alpha) * (h(pts) @ gw)
            xs = xs + r * _sample_exit_positions(alpha, rng, active.size)
            done = np.abs(xs) >= 1.0
            exits[active[done]] = xs[done]
            active = active[~done]
            xs = xs[~done]
        else:
            raise RuntimeError(f"batch exceeded {max_steps} steps without exiting")
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
    alpha = kernels.alpha
    if lo < 0:  # negative-side cell: boundary singularity sits at -1, i.e. at hi
        grade = hi == -1.0
        y, w = _graded_panels(lo, hi, order=14, levels=28, grade_left=False,
                              grade_right=grade, jacobi_right=(-alpha / 2.0) if grade else 0.0)
    else:
        grade = lo == 1.0
        y, w = _graded_panels(lo, hi, order=14, levels=28, grade_left=grade,
                              grade_right=False, jacobi_left=(-alpha / 2.0) if grade else 0.0)
    return float(np.sum(w * kernels.poisson(x, y)))


def _tail_mass(kernels: FracKernels, x: float, cut: float, negative: bool = False) -> float:
    """Exit mass beyond |y| >= cut > 1 on one side of the boundary."""
    alpha = kernels.alpha
    top = cut * 2.0 ** 24
    y, w = _graded_panels(cut, top, order=12, levels=70,
                          grade_left=True, grade_right=False)
    sign = -1.0 if negative else 1.0
    main = float(np.sum(w * kernels.poisson(x, sign * y)))
    remainder = kernels.poisson_coef * (1.0 - x * x) ** (alpha / 2.0) * top ** (-alpha) / alpha
    return main + remainder
