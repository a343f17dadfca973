"""One-dimensional fractional-Laplacian backend on the interval (-1, 1).

Closed-form jump density, Green function and exit (Poisson) density of the
symmetric stable process on the unit interval, together with the graded
quadrature machinery needed to apply them: composite Gauss panels refined
geometrically toward the endpoints and kernel diagonals, with product
weights on the innermost panels that integrate the known power singularities
exactly.  The kernel constants are taken from standard closed forms but are
treated as untrusted: construction re-validates symmetry, positivity, the
exit-density normalization, and the symbol identity for the jump density,
and the Monte Carlo walk cross-checks them again at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .semilinear import Nonlinearity, Solution, _newton_fixed_point

__all__ = [
    "ContinuumProblem",
    "ExteriorData",
    "FracKernels",
    "QuadGrid",
    "apply_PD",
    "apply_PV_interval",
    "apply_RD",
    "build_grid",
    "build_kernels",
    "const_exterior",
    "continuum_callable",
    "default_nest",
    "example77_report",
    "fixed_point_residual",
    "green_matrix",
    "indicator_exterior",
    "levy_symbol",
    "martin_kernel",
    "power_singular_exterior",
    "projective_exhaustion_defects",
    "solve_continuum",
    "source_density",
    "zero_exterior",
]


# ---------------------------------------------------------------------------
# quadrature primitives

def _frozen(*arrays):
    """The arrays, made read-only: cached rules are shared by every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _gl(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    return _gj(order, 0.0, 0.0)


def _jacobi_coefficients(order: int, a: float, b: float):
    """Diagonal and squared off-diagonal of the monic three-term recurrence
    for the weight (1-x)^a (1+x)^b; off[k] couples degrees k-1 and k, and
    off[0] = 0."""
    k = np.arange(order, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(order)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off = np.zeros(order)
    if order > 1:  # k = 1 with the factor k + a + b cancelled, which a + b = -1 zeroes
        off[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
        k, s = k[2:], s[2:]
        off[2:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    return diag, off


def _monic(diag: np.ndarray, off: np.ndarray, x: np.ndarray):
    """The monic polynomial of the recurrence, of degree len(diag), and its
    derivative at x."""
    p0, p1 = np.zeros_like(x), np.ones_like(x)
    d0, d1 = np.zeros_like(x), np.zeros_like(x)
    for c, e in zip(diag, off):
        p0, p1, d0, d1 = p1, (x - c) * p1 - e * p0, d1, p1 + (x - c) * d1 - e * d0
    return p1, d1


@lru_cache(maxsize=256)
def _gj(order: int, a: float, b: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    (1-x)^a (1+x)^b, read-only (Golub and Welsch, Math. Comp. 23, 1969).

    The nodes are the eigenvalues of the Jacobi matrix, polished by one
    Newton step on the recurrence.  The weights are proportional to
    1 / ((1-x)(1+x) p'(x)^2) and scaled to the weight's total mass; both
    are symmetrized when a == b.
    """
    diag, off = _jacobi_coefficients(order, a, b)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off[1:]), -1))
    p, dp = _monic(diag, off, x)
    x = x - p / dp
    dp = _monic(diag, off, x)[1]
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    if a == b:
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    mass = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return _frozen(x, w * (mass / w.sum()))


def _exprel(z):
    """(e^z - 1) / z elementwise, exactly 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)


def _panel_rule(a: float, b: float, order: int, left=None, right=None):
    """Nodes/weights on [a, b]; optional product weights for end powers.

    With ``left`` = gamma the returned weights integrate
    (y - a)^gamma * smooth(y) exactly when applied to values of the full
    integrand; likewise ``right`` with (b - y)^gamma, and both together.
    None or 0.0 at both ends gives the plain Gauss rule.
    """
    h = b - a
    if not (left or right):
        t, w = _gl(order)
        y = a + 0.5 * h * (t + 1.0)
        return y, 0.5 * h * w
    left, right = left or 0.0, right or 0.0
    t, w = _gj(order, right, left)
    y = a + 0.5 * h * (t + 1.0) if left else b - 0.5 * h * (1.0 - t)
    return y, ((0.5 * h) ** (left + right + 1.0) * w
               * (y - a) ** (-left) * (b - y) ** (-right))


def _composite(breaks, order: int, left=None, right=None):
    """One panel rule per pair of breaks; ``left`` goes to the first panel
    and ``right`` to the last.  Plain panels are one broadcast of the plain
    ``_panel_rule``; an end panel that carries a power is its own call."""
    breaks = np.asarray(breaks, dtype=float)
    t, w = _gl(order)
    a = breaks[:-1, None]
    h = breaks[1:, None] - a
    y, wy = a + 0.5 * h * (t + 1.0), 0.5 * h * w
    last = len(breaks) - 2
    ends = {0: (left, None), last: (None, right)} if last else {0: (left, right)}
    for k, powers in ends.items():
        if any(powers):
            y[k], wy[k] = _panel_rule(breaks[k], breaks[k + 1], order, *powers)
    return y.ravel(), wy.ravel()


def _graded_breaks(a: float, b: float, levels: int, toward_left: bool):
    h = b - a
    steps = h * 2.0 ** (-np.arange(levels, 0, -1, dtype=float))
    return np.concatenate([[a], a + steps, [b]]) if toward_left \
        else np.concatenate([[a], b - steps[::-1], [b]])


def _graded_panels(a: float, b: float, order: int, levels: int, left=None, right=None):
    """Composite rule on [a, b] graded geometrically toward each end that
    carries a power (0.0: graded, no power; None: not graded; four panels if neither)."""
    if left is not None and right is not None:
        mid = 0.5 * (a + b)
        breaks = np.concatenate([_graded_breaks(a, mid, levels, True)[:-1],
                                 _graded_breaks(mid, b, levels, False)])
    elif left is not None or right is not None:
        breaks = _graded_breaks(a, b, levels, left is not None)
    else:
        breaks = np.linspace(a, b, 5)
    return _composite(breaks, order, left, right)


def _split_rule(lo: float, x: float, hi: float, order: int, levels: int,
                edge: float, diag: float):
    """The two halves [lo, x] and [x, hi] of a rule with the power ``edge``
    at lo and hi and the power ``diag`` at the interior point x."""
    return (_graded_panels(lo, x, order, levels, left=edge, right=diag),
            _graded_panels(x, hi, order, levels, left=diag, right=edge))


# ---------------------------------------------------------------------------
# piecewise-polynomial tables
#
# A table holds one polynomial of degree _TABLE_DEGREE per piece of a window,
# fitted at the Chebyshev-Lobatto points of the piece.  The radial table of
# the Green function below and the exit table of ``wos`` are built this way.

_TABLE_DEGREE = 7
# fit nodes of a piece: Chebyshev-Lobatto points of s in [0, 1]
_TABLE_FIT = _frozen(0.5 - 0.5 * np.cos(np.pi * np.arange(_TABLE_DEGREE + 1) / _TABLE_DEGREE))[0]


def _table_fit(values: np.ndarray, nodes: np.ndarray = _TABLE_FIT) -> np.ndarray:
    """Read-only coefficients of the table through values[k, i], the value at
    fit node ``nodes[i]`` (in [0, 1]) of piece k: coef[j, k] is the
    coefficient of s^j on piece k, s in [0, 1) from its left end."""
    return _frozen(np.ascontiguousarray(
        np.linalg.solve(np.vander(nodes, increasing=True), values.T)))[0]


def _table_eval(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The table at s, counted in pieces from the window's left end (a new
    array; s is overwritten).  Points off the window take the polynomial of
    the end piece."""
    k = s.clip(0.0, coef.shape[1] - 1).astype(np.intp)  # the floor: clipped s is >= 0
    s -= k
    out = np.asarray(coef[-1].take(k))
    for j in range(coef.shape[0] - 2, -1, -1):
        out *= s
        out += coef[j].take(k)
    return out


# ---------------------------------------------------------------------------
# radial table of the Green function
#
# The interval Green function is green_coef * d^(alpha-1) * B(r), with
# B(r) = int_0^r s^(alpha/2-1) (1+s)^(-1/2) ds.  In x = log r the function
# phi(x) = B(e^x) e^(-alpha x/2) is smooth and bounded, so it is tabulated as
# one polynomial per piece of the window below, fitted to the defining
# integral.  The grids see log r in [-47.6, 48.1]; beyond the window the
# two-term expansions at each end are exact to rounding.

_RADIAL_LO, _RADIAL_HI = -50.0, 50.0
_RADIAL_PIECES = 512
_RADIAL_GAUSS = 8  # Gauss-Legendre nodes per integral in x
_RADIAL_KNOTS = _frozen(np.linspace(_RADIAL_LO, _RADIAL_HI, _RADIAL_PIECES + 1))[0]
_RADIAL_SCALE = _RADIAL_PIECES / (_RADIAL_HI - _RADIAL_LO)  # pieces per unit of x


def _radial_steps(alpha: float, x0, x1):
    """Integrals over [x0, x1] (elementwise, one Gauss panel each) of the
    integrand of B in x = log s, e^(alpha x/2) (1 + e^x)^(-1/2)."""
    t, w = _gl(_RADIAL_GAUSS)
    half = 0.5 * (x1 - x0)[..., None]
    x = x0[..., None] + half * (t + 1.0)
    return np.sum(half * w * np.exp(0.5 * alpha * x) / np.sqrt(1.0 + np.exp(x)), axis=-1)


@lru_cache(maxsize=16)
def _radial_knots(alpha: float) -> np.ndarray:
    """B(e^x) at the knots of the window: the head int_0^(e^lo) from a
    product rule for the s^(alpha/2-1) end power, the rest as cumulative
    Gauss sums in x."""
    y, w = _panel_rule(0.0, math.exp(_RADIAL_LO), _RADIAL_GAUSS, left=alpha / 2.0 - 1.0)
    head = float(np.sum(w * y ** (alpha / 2.0 - 1.0) / np.sqrt(1.0 + y)))
    steps = _radial_steps(alpha, _RADIAL_KNOTS[:-1], _RADIAL_KNOTS[1:])
    return _frozen(head + np.concatenate([[0.0], np.cumsum(steps)]))[0]


def _radial_integral(alpha: float, x) -> np.ndarray:
    """B(e^x) for x in the window, by quadrature from the knot at or below x."""
    k = np.clip(np.searchsorted(_RADIAL_KNOTS, x, side="right") - 1, 0, _RADIAL_PIECES - 1)
    return _radial_knots(alpha)[k] + _radial_steps(alpha, _RADIAL_KNOTS[k], x)


def _radial_points(s) -> np.ndarray:
    """The points s in [0, 1] mapped to every piece of the window, one row per piece."""
    return _RADIAL_KNOTS[:-1, None] + (_RADIAL_KNOTS[1] - _RADIAL_KNOTS[0]) * np.asarray(s)


def _radial_table_gap(alpha: float) -> float:
    """Largest relative gap between the table and the defining integral at
    the midpoints between fit nodes."""
    x = _radial_points(0.5 * (_TABLE_FIT[:-1] + _TABLE_FIT[1:])).ravel()
    exact = _radial_integral(alpha, x) * np.exp(-0.5 * alpha * x)
    return float(np.max(np.abs(_radial_phi(alpha, x) / exact - 1.0)))


@lru_cache(maxsize=16)
def _radial_table(alpha: float):
    """Read-only table of phi(x) = B(e^x) e^(-alpha x/2) on the window.

    Returns (coef, tail): coef is the ``_table_fit`` of phi on the pieces
    of the window; tail is the constant K of the large-r expansion
    B(r) = K + log(r) exprel(c log r) + r^(c-1)/(3-alpha), c = (alpha-1)/2,
    whose second term is (r^c - 1)/c, and log r at alpha = 1.
    """
    x = _radial_points(_TABLE_FIT)
    coef = _table_fit(_radial_integral(alpha, x) * np.exp(-0.5 * alpha * x))
    c, hi = 0.5 * (alpha - 1.0), _RADIAL_HI
    tail = (_radial_integral(alpha, np.array([hi]))[0] - hi * _exprel(c * hi)
            - math.exp((c - 1.0) * hi) / (3.0 - alpha))
    return coef, tail


def _radial_phi(alpha: float, x) -> np.ndarray:
    """phi(x) = B(e^x) e^(-alpha x/2) from the table, and from the two-term
    expansions at each end beyond its window (a new array shaped like x)."""
    s = x - _RADIAL_LO
    s *= _RADIAL_SCALE
    return _radial_phi_at(alpha, s)


def _radial_phi_at(alpha: float, s) -> np.ndarray:
    """phi at x = _RADIAL_LO + s / _RADIAL_SCALE, s counted in pieces from
    the window's left end (a new array shaped like s; s is overwritten)."""
    coef, tail = _radial_table(alpha)
    low = high = None
    if s.min(initial=0.0) < 0.0:
        low = s < 0.0
        x = _RADIAL_LO + s[low] / _RADIAL_SCALE
        at_low = 2.0 / alpha - np.exp(x) / (alpha + 2.0)
    if s.max(initial=0.0) > _RADIAL_PIECES:
        high = s > _RADIAL_PIECES
        x, c = _RADIAL_LO + s[high] / _RADIAL_SCALE, 0.5 * (alpha - 1.0)
        at_high = np.exp(-0.5 * alpha * x) * (tail + x * _exprel(c * x)
                                              + np.exp((c - 1.0) * x) / (3.0 - alpha))
    out = _table_eval(coef, s)
    if low is not None:
        out[low] = at_low
    if high is not None:
        out[high] = at_high
    return out


# ---------------------------------------------------------------------------
# kernels

def _edge_factors(alpha: float, x: np.ndarray):
    """(log q, q^(alpha/2)) at each point, q = 1 - x^2; (0, 0) off the interval."""
    q = 1.0 - x * x
    inside = q > 0.0
    log_q = np.log(np.where(inside, q, 1.0))
    return log_q, np.where(inside, np.exp((alpha / 2.0) * log_q), 0.0)


@dataclass(frozen=True)
class FracKernels:
    """Closed-form kernels of the stable process on the unit interval.

    The Green function's radial body B(r) has no elementary form except at
    alpha = 1; it is read from a per-alpha table of phi(log r) =
    B(r) r^(-alpha/2) (``_radial_table``, cached per alpha and built from
    the defining integral on first use), so a directly constructed pack
    works as one from ``build_kernels``.
    """

    alpha: float
    jump_coef: float
    green_coef: float
    poisson_coef: float
    exit_coef: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def j(self, r) -> np.ndarray:
        """Jump density at distance r > 0."""
        r = np.asarray(r, dtype=float)
        return self.jump_coef * r ** (-1.0 - self.alpha)

    def green(self, x, y) -> np.ndarray:
        """Green function of (-1, 1); zero off the interval, +inf allowed on
        the diagonal when alpha <= 1.

        With q = 1 - x^2 and d = |x - y| the function is green_coef
        q_x^(alpha/2) q_y^(alpha/2) phi(log r) / d at r = q_x q_y / d^2
        (d^(alpha-1) B(r), B(r) = phi(log r) r^(alpha/2)).  log q and
        q^(alpha/2) are formed once per input point, before broadcasting; a
        pair costs d, log r = log q_x + log q_y - 2 log d, the table and
        three products.  On the diagonal the value is green_coef
        2 / (alpha - 1) q^(alpha-1) for alpha > 1 and +inf otherwise.
        """
        a = self.alpha
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        log_qx, pow_qx = _edge_factors(a, x)
        log_qy, pow_qy = _edge_factors(a, y)
        d = np.asarray(x - y)
        np.abs(d, out=d)
        on_diag = not d.all()
        if on_diag:
            hit = d == 0.0
            d[hit] = 1.0  # any finite log r; the diagonal is set below
        # s: log r in pieces of the radial table from its window's left end,
        # as -2 _RADIAL_SCALE (log d - (log q_x - _RADIAL_LO) / 2 - log q_y / 2)
        log_qx -= _RADIAL_LO
        log_qx *= 0.5
        log_qy *= 0.5
        s = np.log(d)
        s -= log_qx
        s -= log_qy
        s *= -2.0 * _RADIAL_SCALE
        out = _radial_phi_at(a, s)
        out *= self.green_coef * pow_qx
        out *= pow_qy
        out /= d
        if on_diag:
            q = np.broadcast_to(1.0 - x * x, out.shape)[hit]  # q_y = q_x where y = x
            q = np.where(q > 0.0, q, 0.0)
            if a > 1.0:
                out[hit] = self.green_coef * (2.0 / (a - 1.0)) * q ** (a - 1.0)
            else:
                out[hit] = np.where(q > 0.0, np.inf, 0.0)
        return out if out.shape else float(out)

    def poisson(self, x, y, gap=None) -> np.ndarray:
        """Exit density from (-1, 1) at interior x toward exterior y.

        ``gap`` is |y| - 1: from y (exact for |y| <= 2), unless the
        caller's rule supplies it as it built the node.  y^2 - 1 is formed
        only as gap * (2 + gap): near |y| = 1, where the edge power lives,
        y^2 - 1 itself keeps few digits.
        """
        a = self.alpha
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gap = np.abs(y) - 1.0 if gap is None else gap
        sq = gap * (2.0 + gap)
        x, y, sq = np.broadcast_arrays(x, y, sq)
        ok = (np.abs(x) < 1.0) & (np.abs(y) > 1.0)
        out = np.zeros(x.shape)
        if np.any(ok):
            out[ok] = self.poisson_coef * ((1.0 - x[ok] ** 2) / sq[ok]) ** (a / 2.0) \
                / np.abs(x[ok] - y[ok])
        return out if out.shape else float(out)

    def mean_exit_ball(self, radius: float) -> float:
        """Expected exit time from a centered interval of given radius,
        started at the center."""
        return self.exit_coef * radius ** self.alpha

    def mean_exit(self, x):
        """E_x tau of (-1, 1) in closed form, exit_coef (1 - x^2)^(alpha/2)."""
        return self.exit_coef * (1.0 - x ** 2) ** (self.alpha / 2.0)


def levy_symbol(kernels: FracKernels, xi: float) -> float:
    """Numerical symbol integral of 2*j: must reproduce |xi|^alpha.

    The [0, 1] part is a graded quadrature with the r^(1-alpha) factor baked
    into the innermost panel; the oscillatory tail is reduced twice by parts
    and the remaining rapidly decaying integral truncated with a provable
    remainder below 1e-6 relative.
    """
    a = kernels.alpha
    A = kernels.jump_coef

    def body(r):
        # 1 - cos(r xi) as 2 sin^2(r xi / 2), which keeps its digits for small r xi
        return 2.0 * np.sin(0.5 * r * xi) ** 2 * 2.0 * kernels.j(r)

    y, w = _graded_panels(0.0, 1.0, 12, 40, left=1.0 - a)
    head = float(np.sum(w * body(y)))
    # integral over [1, inf) of cos(r xi) r^(-1-alpha), by parts twice, cut at r = 256
    n_panels = max(8, int(np.ceil(256.0 * xi / np.pi)))
    y, w = _composite(np.linspace(1.0, 256.0, n_panels + 1), 12)
    t_int = float(np.sum(w * np.cos(y * xi) * y ** (-3.0 - a)))
    s_int = np.cos(xi) / xi - (2.0 + a) / xi * t_int
    c_int = -np.sin(xi) / xi + (1.0 + a) / xi * s_int
    return head + 2.0 * A * (1.0 / a - c_int)


def _validate_kernels(k: FracKernels) -> dict:
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.98, 0.98, size=40)
    ys = rng.uniform(-0.98, 0.98, size=40)
    gsym = float(np.max(np.abs(k.green(xs, ys) - k.green(ys, xs))))
    gpos = float(np.min(k.green(xs, ys)))
    rule = _exterior_rule(_exterior_breaks(30, 10), 14, -k.alpha / 2.0)
    totals = _exit_average(k, 1.0, const_exterior(1.0), np.array([0.0, 0.5, -0.5, 0.9]), rule)
    norm_defect = float(np.max(np.abs(totals - 1.0)))
    sym_defect = 0.0
    for xi in (1.0, 2.0, 4.0):
        sym_defect = max(sym_defect, abs(levy_symbol(k, xi) - xi ** k.alpha) / xi ** k.alpha)
    table_gap = _radial_table_gap(k.alpha)
    diag = {"green_symmetry": gsym, "green_min": gpos,
            "poisson_normalization": norm_defect, "symbol_relative": sym_defect,
            "radial_table": table_gap}
    if gsym > 1e-8 or gpos < -1e-14:
        raise ValueError(f"Green-function invariants failed: {diag}")
    if not table_gap <= 1e-12:
        raise ValueError(f"Green-function radial table off its integral: {diag}")
    if norm_defect > 1e-6:
        raise ValueError(f"exit-density normalization failed: {diag}")
    if sym_defect > 1e-4:
        raise ValueError(f"jump-density symbol check failed: {diag}")
    return diag


def build_kernels(alpha: float) -> FracKernels:
    """Kernel pack for the given stability index, re-validated numerically."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    a = alpha
    jump = a * 2.0 ** (a - 1.0) * math.gamma((1.0 + a) / 2.0) / (math.sqrt(math.pi) * math.gamma(1.0 - a / 2.0))
    green = 2.0 ** (-a) / math.gamma(a / 2.0) ** 2
    poisson = math.sin(math.pi * a / 2.0) / math.pi
    exit_c = math.sqrt(math.pi) / (2.0 ** a * math.gamma(1.0 + a / 2.0) * math.gamma((1.0 + a) / 2.0))
    k = FracKernels(alpha=a, jump_coef=jump, green_coef=green,
                    poisson_coef=poisson, exit_coef=exit_c)
    k.diagnostics.update(_validate_kernels(k))
    return k


# ---------------------------------------------------------------------------
# grids and integral operators

@dataclass(frozen=True)
class QuadGrid:
    """Shared quadrature carrier: interior panels and a truncated exterior.

    Interior panels are geometrically graded toward the endpoints, and the
    interior rule is an exact mirror image about 0 (``interior_x[n-1-i] ==
    -interior_x[i]``, the same for the breaks, equal weights); the
    exterior rule is graded toward the boundary (with the exit-density edge
    power baked into the innermost panels) and doubled outward to the
    truncation radius, beyond which tails are handled analytically.
    """

    alpha: float
    order: int
    edge_levels: int
    n_base: int
    out_levels: int
    interior_x: np.ndarray
    interior_w: np.ndarray
    interior_breaks: np.ndarray
    exterior_x: np.ndarray
    exterior_w: np.ndarray
    radius: float

    def refine(self) -> "QuadGrid":
        """Finer grid; halves (at least) the self-reported quadrature error."""
        return build_grid(self.alpha, order=self.order + 2, n_base=2 * self.n_base,
                          edge_levels=self.edge_levels + 4, out_levels=self.out_levels + 1)


def _mirror_points(x: np.ndarray) -> np.ndarray:
    """x with its right half replaced by the negated left half (a middle
    point becomes 0.0), so that x[n-1-i] == -x[i] exactly."""
    h = x.size // 2
    return np.concatenate([x[:h], np.zeros(x.size - 2 * h), -x[:h][::-1]])


def _mirror_weights(w: np.ndarray) -> np.ndarray:
    """w with its right half replaced by the reversed left half."""
    h = w.size // 2
    return np.concatenate([w[:w.size - h], w[:h][::-1]])


def _interior_breaks(n_base: int, edge_levels: int) -> np.ndarray:
    left = -1.0 + 0.5 * 2.0 ** (-np.arange(edge_levels, 0, -1, dtype=float))
    mid = np.linspace(-0.5, 0.5, n_base + 1)
    return _mirror_points(np.concatenate([[-1.0], left, mid[1:-1], -left[::-1], [1.0]]))


def _exterior_breaks(edge_levels: int, out_levels: int) -> np.ndarray:
    """Panel breaks on (1, R): graded toward 1 on (1, 2), then doubling to
    R = 2^(out_levels + 1)."""
    return np.concatenate([_graded_breaks(1.0, 2.0, edge_levels, True)[:-1],
                           2.0 ** np.arange(1, out_levels + 2, dtype=float)])


def _exterior_rule(breaks: np.ndarray, order: int, gamma: float):
    """Rule (nodes, weights, R) on (1, R), R = breaks[-1], mirrored to
    (-R, -1); the innermost panel carries the (|y| - 1)^gamma edge power
    (the exit density's -alpha/2 plus any declared data power)."""
    if gamma <= -1.0:
        raise ValueError("exterior edge power is not integrable")
    x, w = _composite(breaks, order, left=gamma)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w]), float(breaks[-1])


def build_grid(alpha: float, order: int = 10, n_base: int = 8, edge_levels: int = 22,
               out_levels: int = 10) -> QuadGrid:
    breaks = _interior_breaks(n_base, edge_levels)
    xs, ws = _composite(breaks, order)
    xs, ws = _mirror_points(xs), _mirror_weights(ws)
    ext_x, ext_w, radius = _exterior_rule(_exterior_breaks(edge_levels, out_levels), order,
                                          -alpha / 2.0)
    return QuadGrid(alpha=alpha, order=order, edge_levels=edge_levels, n_base=n_base,
                    out_levels=out_levels,
                    interior_x=xs, interior_w=ws,
                    interior_breaks=breaks, exterior_x=ext_x, exterior_w=ext_w,
                    radius=radius)


@dataclass(frozen=True)
class ExteriorData:
    """Exterior datum g on |y| > 1 with declared tail and edge powers.

    ``tail_exponent`` s means g(y) ~ c |y|^s as |y| -> inf (s < alpha needed
    for a finite exit average); ``edge_exponent`` p means g blows up like
    (|y| - 1)^p toward the boundary (p > alpha/2 - 1 needed).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tail_exponent: float = 0.0
    edge_exponent: float = 0.0
    name: str = "custom"

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.asarray(self.fn(y), dtype=float)


def zero_exterior() -> ExteriorData:
    return ExteriorData(fn=lambda y: np.zeros_like(y), name="zero")


def const_exterior(c: float) -> ExteriorData:
    return ExteriorData(fn=lambda y: np.full_like(y, float(c)), name=f"const[{c}]")


def indicator_exterior(a: float, b: float) -> ExteriorData:
    return ExteriorData(fn=lambda y: ((y >= a) & (y <= b)).astype(float),
                        tail_exponent=-4.0, name=f"indicator[{a},{b}]")


def power_singular_exterior(p: float, coef: float = 1.0) -> ExteriorData:
    """g(y) = coef * (|y| - 1)^(-p): singular at the boundary, decaying far out."""
    return ExteriorData(fn=lambda y: coef * (np.abs(y) - 1.0) ** (-p),
                        tail_exponent=-p, edge_exponent=-p, name=f"power_singular[{p}]")


def _poisson_tail(kernels: FracKernels, radius: float, x: np.ndarray, g: ExteriorData,
                  R: float) -> np.ndarray:
    """Analytic tail of the exit average from (-radius, radius) beyond |y| = R.

    Uses the power-law decay of the exit density with three expansion terms
    in the scaled point x / radius and cut-off R / radius; the truncation
    error is O((R / radius)^(s - alpha - 3)).
    """
    a, s = kernels.alpha, g.tail_exponent
    if s >= a:
        raise ValueError("exterior datum grows too fast: exit average diverges")
    x, Rs = x / radius, R / radius
    out = np.zeros_like(x)
    for sign in (1.0, -1.0):
        c = float(g(np.asarray([sign * R]))[0]) * Rs ** (-s)
        if c == 0.0:
            continue
        terms = (Rs ** (s - a) / (a - s)
                 + sign * x * Rs ** (s - a - 1.0) / (a + 1.0 - s)
                 + (x ** 2 + a / 2.0) * Rs ** (s - a - 2.0) / (a + 2.0 - s))
        out += kernels.poisson_coef * (1.0 - x ** 2) ** (a / 2.0) * c * terms
    return out


def _exit_average(kernels: FracKernels, radius: float, g, x: np.ndarray, rule,
                  gap=None) -> np.ndarray:
    """Exit averages over (-radius, radius) of the datum g, one per point of
    x (an array shaped like x): the rule (nodes, weights, R) up to |y| = R,
    and ``_poisson_tail`` beyond.  R = None marks a rule with no end (an
    annulus inside |y| < 1), which has no tail.  ``gap`` is each node's
    |y| - radius as the rule built it.  The only sum of the exit density
    against data.  In the scaled points the density factors as
    c (1 - x^2)^(alpha/2) sq^(-alpha/2) / |x - y|, with sq = y^2 - 1 formed
    as gap * (2 + gap) (``FracKernels.poisson``), so the sum is one product
    of the 1/|x - y| matrix with a vector over the nodes.  Points with
    |x| >= radius get 0 from the rule."""
    y, w, R = rule
    gap = np.abs(y / radius) - 1.0 if gap is None else gap / radius
    weights = w * g(y) * (gap * (2.0 + gap)) ** (-kernels.alpha / 2.0) / radius
    xr = x / radius
    vals = np.zeros(xr.shape)
    ok = np.abs(xr) < 1.0
    xo = xr[ok]
    inv = np.subtract.outer(xo, y / radius)
    np.abs(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    vals[ok] = kernels.poisson_coef * (1.0 - xo ** 2) ** (kernels.alpha / 2.0) * (inv @ weights)
    return vals if R is None else vals + _poisson_tail(kernels, radius, x, g, R)


def apply_PD(kernels: FracKernels, grid: QuadGrid, g: ExteriorData, x=None) -> np.ndarray:
    """P_D g at the points x: the exit average of the exterior datum g inside
    (-1, 1), and g itself at |x| >= 1, as ``continuum_callable`` reads u.

    Divergence of the exit average (the finiteness hypothesis on g failing)
    is detected through the declared tail power and through non-decaying
    outward panel contributions, and reported as an error.
    """
    x = grid.interior_x if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    rule = _exterior_rule(_exterior_breaks(grid.edge_levels, grid.out_levels), grid.order,
                          -kernels.alpha / 2.0 + g.edge_exponent)
    _check_outward_decay(kernels, g, rule[2])
    inside = np.abs(x) < 1.0
    out = np.empty(x.shape)
    out[inside] = _exit_average(kernels, 1.0, g, x[inside], rule)
    out[~inside] = g(x[~inside])
    return out


def _check_outward_decay(kernels: FracKernels, g: ExteriorData, radius: float) -> None:
    mids = radius * 2.0 ** np.arange(-3, 1, dtype=float)
    contrib = np.abs(g(mids)) * mids ** (-kernels.alpha) \
        + np.abs(g(-mids)) * mids ** (-kernels.alpha)
    if contrib[-1] > 1e-12 and np.any(np.diff(contrib) >= 0):
        raise ValueError(
            f"exit average not converging under tail refinement: panel masses {contrib.tolist()}")


def _green_rule(kernels: FracKernels, x: float, order: int, levels: int):
    """The two halves ``(y, w * G(x, y))`` of the Green rule at x: sum w h(y)
    over both is the Green potential of h at x.  Split at x, with the edge
    power alpha/2 at +-1 and, below alpha = 1, the diagonal power alpha - 1."""
    a = kernels.alpha
    halves = _split_rule(-1.0, x, 1.0, order, levels, a / 2.0, a - 1.0 if a < 1.0 else 0.0)
    return [(y, w * kernels.green(x, y)) for y, w in halves]


def apply_RD(kernels: FracKernels, grid: QuadGrid, h, x=None) -> np.ndarray:
    """Green potential of a density h at interior points (atoms: ``atom_part``).

    Direct per-point quadrature: panels graded toward both endpoints and the
    evaluation point, with the known diagonal and edge powers baked into the
    innermost panels, two orders and six edge levels finer than the grid.
    """
    x = grid.interior_x if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for i, xi in enumerate(x):
        out[i] = sum(float(np.sum(w * h(y)))
                     for y, w in _green_rule(kernels, xi, grid.order + 2, grid.edge_levels + 6))
    return out


@lru_cache(maxsize=16)
def _annulus_ref(left: float, right: float):
    """Rule on [0, 1] graded toward both ends, with s^left and (1-s)^right
    baked in; on [lo, hi] it is lo + (hi - lo) * s with weights (hi - lo) * w."""
    return _frozen(*_graded_panels(0.0, 1.0, 12, 24, left=left, right=right))


def apply_PV_interval(kernels: FracKernels, radius: float, fn, x,
                      edge_exponent: float = 0.0) -> np.ndarray:
    """Exit averages over (-radius, radius) of fn restricted to radius < |y| < 1,
    one per start point in x (an array shaped like x).

    The annulus rule is the cached [0, 1] rule scaled to (radius, 1) and
    mirrored to (-1, -radius), a rule with no end; ``_exit_average`` sums
    the exit density against fn over it, from each node's distance beyond
    the radius as the rule built it.
    """
    s, ws = _annulus_ref(-kernels.alpha / 2.0, edge_exponent)
    span = 1.0 - radius
    gap = span * s  # |y| - radius, free of the rounding of y
    rule = np.concatenate([radius + gap, -(radius + gap)]), np.tile(span * ws, 2), None
    return _exit_average(kernels, radius, fn, np.asarray(x, dtype=float), rule, np.tile(gap, 2))


# ---------------------------------------------------------------------------
# product-integration matrix for the Green operator

@lru_cache(maxsize=16)
def _bary_weights(order: int) -> np.ndarray:
    """Barycentric weights of the Gauss-Legendre nodes of the given order."""
    t, _ = _gl(order)
    return _frozen(np.array([1.0 / np.prod(t[i] - np.delete(t, i)) for i in range(order)]))[0]


def _lagrange_matrix(order: int, pts: np.ndarray) -> np.ndarray:
    """Values at pts of the Lagrange basis on the Gauss-Legendre nodes of the
    given order (barycentric form; rows of points on a node are unit rows)."""
    t, _ = _gl(order)
    diff = pts[..., None] - t
    exact = np.isclose(diff, 0.0, atol=1e-15)
    terms = _bary_weights(order) / np.where(exact, 1.0, diff)
    B = terms / terms.sum(axis=-1, keepdims=True)
    hit = exact.any(axis=-1)
    B[hit] = exact[hit]
    return B


@lru_cache(maxsize=16)
def _graded_ref(order: int, gamma: float):
    """Rule on [0, 1] graded toward 0 in 16 levels, with s^gamma baked into
    the innermost panel, whose ``order`` nodes come first.  A piece of length
    H graded toward its end e uses the nodes e +- H * s and the weights H * w."""
    return _frozen(*_graded_panels(0.0, 1.0, order, 16, left=gamma))


@lru_cache(maxsize=16)
def _neighbour_rule(order: int, gamma: float):
    """Near-field rule of a panel [lo, hi] of half-width h for targets outside
    it: a target left of the panel sees the nodes lo + h * off, one right of
    it hi - h * off, both with weights h * w; B_left / B_right are the
    Lagrange matrices of the panel basis at those nodes."""
    s, ws = _graded_ref(order, gamma)
    return _frozen(2.0 * s, 2.0 * ws, _lagrange_matrix(order, 2.0 * s - 1.0),
                   _lagrange_matrix(order, 1.0 - 2.0 * s))


@lru_cache(maxsize=16)
def _own_rule(order: int, gamma: float):
    """Near-field rule of a panel of half-width h for its own k-th node x_k:
    the panel splits at x_k into two pieces graded toward it, with nodes
    x_k + h * off[k], weights h * w[k] and Lagrange matrix B[k].  The first
    2 * order columns are the two innermost panels, which carry the power."""
    s, ws = _graded_ref(order, gamma)
    t, _ = _gl(order)
    left, right = (t + 1.0)[:, None], (1.0 - t)[:, None]
    inner, rest = slice(0, order), slice(order, None)
    off = np.concatenate([-left * s[inner], right * s[inner],
                          -left * s[rest], right * s[rest]], axis=1)
    w = np.concatenate([left * ws[inner], right * ws[inner],
                        left * ws[rest], right * ws[rest]], axis=1)
    return _frozen(off, w, _lagrange_matrix(order, t[:, None] + off))


@lru_cache(maxsize=16)
def _far_rule(order: int):
    """Plain rule with six more nodes than the panel basis, and the weighted
    Lagrange matrix mapping panel values to its integral."""
    t_fine, w_fine = _gl(order + 6)
    return _frozen(t_fine, _lagrange_matrix(order, t_fine) * w_fine[:, None])


# Kernel values per ``FracKernels.green`` call of ``green_matrix``.  On a
# 2-vCPU Xeon (numpy 2.4) 16k-value calls ran at 20-30 ns a value; 2k-value
# calls were about twice as slow from per-call overhead, and 25k-value calls
# 1.3-1.7x as slow, since glibc's default thresholds hand temporaries of
# 128 kB and more back to the system between calls.
_GREEN_BLOCK = 1 << 14


def green_matrix(kernels: FracKernels, grid: QuadGrid) -> np.ndarray:
    """Product-integration matrix W: (W @ f_at_nodes)[j] ~ R_D f at node j.

    Sources are represented panelwise by their Lagrange interpolants on the
    panel quadrature nodes; far panels are integrated with a finer plain
    rule, panels containing or adjacent to the target with a rule graded
    toward the target (diagonal power baked in below alpha = 1).  The grid
    is a mirror image about 0 and the Green function is even under
    (x, y) -> (-x, -y), so only the panels of the left half are assembled
    and the rest is W[n-1-i, n-1-j] = W[i, j].  Those panels are assembled
    together, in calls of ``FracKernels.green`` of at most
    ``_GREEN_BLOCK`` values: blocks of target rows against the fine nodes
    of every panel (which writes the near rows too; they are overwritten
    next), then groups of panels against their left and right neighbours
    and against their own nodes.  Batched matmul with Lagrange matrices
    cached per order maps each block to panel values.  Raises ValueError
    naming the first non-finite entry.
    """
    a = kernels.alpha
    nodes = grid.interior_x
    breaks = grid.interior_breaks
    order = grid.order
    n = nodes.size
    diag_gamma = a - 1.0 if a < 1.0 else 0.0
    t_fine, B_fine = _far_rule(order)
    off, w, B_left, B_right = _neighbour_rule(order, diag_gamma)
    own_off, own_w, own_B = _own_rule(order, diag_gamma)
    inner = slice(0, 2 * order)
    panels = len(breaks) // 2  # left half, with a middle panel when the count is odd
    done = panels * order
    lo, hi = breaks[:panels], breaks[1:panels + 1]
    h = 0.5 * (hi - lo)[:, None, None]  # half-widths
    by_panel = nodes.reshape(-1, order, 1)
    W = np.zeros((n, n))
    blocks = W.reshape(n // order, order, n // order, order)  # blocks[t, :, p, :]: panel t by p

    y_far = lo[:, None, None] + h * (t_fine + 1.0)  # panel by 1 by fine node
    B_far = h * B_fine
    step = max(1, _GREEN_BLOCK // y_far.size)
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        gv = kernels.green(nodes[None, rows, None], y_far)  # panel by row by fine node
        W[rows, :done] = (gv @ B_far).transpose(1, 0, 2).reshape(-1, done)

    # a target in panel p - 1 sees panel p's nodes lo + h * off, one in
    # panel p + 1 the nodes hi - h * off, both with weights h * w
    left, right = np.arange(1, panels), np.arange(panels)
    step = max(1, _GREEN_BLOCK // (order * off.size))
    for src, tgt, y, B in ((left, left - 1, lo[left, None, None] + h[left] * off, B_left),
                           (right, right + 1, hi[:, None, None] - h * off, B_right)):
        for k in range(0, src.size, step):
            p, t = src[k:k + step], tgt[k:k + step]
            gv = kernels.green(by_panel[t], y[k:k + step])
            gv *= h[p] * w
            blocks[t, :, p, :] = gv @ B

    step = max(1, _GREEN_BLOCK // own_off.size)
    for k in range(0, panels, step):
        p = np.arange(k, min(k + step, panels))
        xs = by_panel[p]
        y = xs + h[p] * own_off
        ww = h[p] * own_w
        if diag_gamma:
            # Bake the diagonal power with the distance the kernel sees:
            # near +-1 rounding y moves it off the reference distance.
            d_ref = h[p] * np.abs(own_off[:, inner])
            ww[..., inner] *= (d_ref / np.abs(y[..., inner] - xs)) ** diag_gamma
        gv = kernels.green(xs, y)
        gv *= ww
        # own_B[i] maps the values at node i of any panel: one matmul per node
        blocks[p, :, p, :] = (gv.transpose(1, 0, 2) @ own_B).transpose(1, 0, 2)

    W[:, done:] = W[::-1, :n - done][:, ::-1]
    if not np.isfinite(W).all():
        bad = np.argwhere(~np.isfinite(W))
        j, c = bad[0]
        raise ValueError(f"green_matrix: non-finite entry W[{j}, {c}] = {W[j, c]} "
                         f"at alpha = {a} ({len(bad)} non-finite entries)")
    return W


# ---------------------------------------------------------------------------
# closed forms of the interval

def martin_kernel(kernels: FracKernels, x, endpoint: int) -> np.ndarray:
    """Martin kernel M(x, +-1) = (1 - x^2)^(alpha/2) / |1 -+ x| of (-1, 1),
    normalized to 1 at the base point 0 (Bogdan et al., LNM 1980, 2009), and
    zero for |x| >= 1 as ``FracKernels.green``.  Evaluated as
    (1 +- x)^(alpha/2) (1 -+ x)^(alpha/2 - 1): no 1 - x^2 near an endpoint."""
    if endpoint not in (1, -1):
        raise ValueError("endpoint must be +1 or -1")
    a, x = kernels.alpha, np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    near = np.where(inside, 1.0 - endpoint * x, 1.0)
    out = (2.0 - near) ** (a / 2.0) * near ** (a / 2.0 - 1.0) * inside
    return out if out.shape else float(out)


def default_nest(levels: int = 12) -> tuple:
    """Interval exhaustion radii 1 - 2^-n, n = 1..levels."""
    return tuple(1.0 - 2.0 ** (-n) for n in range(1, levels + 1))


# ---------------------------------------------------------------------------
# continuum problems

@dataclass(frozen=True)
class ContinuumProblem:
    """Fractional-Laplacian problem on (-1, 1) with boundary-measure data.

    ``nu_plus`` / ``nu_minus`` are atom weights of the boundary measure at
    the endpoints, realized through the Martin kernel; ``g`` acts on |y| > 1.
    ``kernels`` and ``grid`` are built for one alpha.
    """

    kernels: FracKernels
    grid: QuadGrid
    g: ExteriorData
    f: Nonlinearity
    mu_atoms: tuple = ()
    nu_plus: float = 0.0
    nu_minus: float = 0.0
    nest: tuple = default_nest()

    def __post_init__(self):
        if self.grid.alpha != self.kernels.alpha:
            raise ValueError(f"grid alpha {self.grid.alpha} differs from kernel alpha "
                             f"{self.kernels.alpha}")
        try:
            radii = tuple(float(r) for r in self.nest)
        except (TypeError, ValueError):
            radii = ()
        if not (radii and all(0.0 < r < 1.0 for r in radii)
                and all(b > a for a, b in zip(radii, radii[1:]))):
            raise ValueError("continuum nest must be at least one strictly increasing radius "
                             f"in (0, 1), got {self.nest!r}")
        object.__setattr__(self, "nest", radii)
        if not all(abs(pos) < 1.0 for pos, _ in self.mu_atoms):  # NaN fails too
            raise ValueError(f"continuum atoms must lie in (-1, 1), got {self.mu_atoms!r}")
        self.f.check_monotone(self.grid.interior_x)

    def martin_part(self, x) -> np.ndarray:
        """The part of the solution carried by the boundary measure,
        nu_plus M(x, +1) + nu_minus M(x, -1), at the points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self.nu_plus * martin_kernel(self.kernels, x, +1)
                + self.nu_minus * martin_kernel(self.kernels, x, -1))

    def atom_part(self, x) -> np.ndarray:
        """The Green potential of the interior atoms, sum w G(x, a), at the points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return sum((w * self.kernels.green(x, float(pos)) for pos, w in self.mu_atoms),
                   np.zeros_like(x))


def _check_absorption_integrable(prob: ContinuumProblem) -> None:
    """Hypothesis check for boundary-measure data, in closed form: f(M nu) must have
    a finite Green potential, where M nu ~ delta^(alpha/2 - 1) and G ~ delta^(alpha/2)
    near an endpoint with mass.  A table f is bounded; an f of no kind has unknown growth."""
    params, a = dict(prob.f.params), prob.kernels.alpha
    kind, absorbing = params.get("kind"), bool(np.any(np.asarray(params.get("b", 0.0)) > 0.0))
    if kind == "power" and absorbing and params["p"] >= (2.0 + a) / (2.0 - a):
        why = f"power p = {params['p']} needs p < (2 + alpha)/(2 - alpha) at alpha = {a}"
    elif kind == "exp" and absorbing and max(prob.nu_plus, prob.nu_minus) > 0.0:
        why = "exp absorption grows like e^(M nu) at an endpoint with positive mass"
    elif kind not in ("power", "exp", "custom-table"):
        why = f"the growth of nonlinearity {prob.f.name!r} along M nu is unknown"
    else:
        return
    raise ValueError(f"absorption along the boundary part has no finite potential ({why})")


def _continuum_base(prob: ContinuumProblem) -> np.ndarray:
    """The base of the fixed point u = base + W f(u) on the grid's interior
    nodes: the exit average of g, the Martin part of the boundary measure
    and the Green potential of the atoms.  Boundary mass with nonzero
    absorption is checked against the hypothesis first."""
    nodes = prob.grid.interior_x
    base = apply_PD(prob.kernels, prob.grid, prob.g, x=nodes)
    if prob.nu_plus or prob.nu_minus:
        base = base + prob.martin_part(nodes)
        if not prob.f.is_zero:
            _check_absorption_integrable(prob)
    if prob.mu_atoms:
        base = base + prob.atom_part(nodes)
    return base


def solve_continuum(prob: ContinuumProblem) -> Solution:
    """Solve u = martin part + exit average of g + Green terms on the grid's
    interior nodes by Newton on the fixed point u = base + W f(u), from the
    base or 0 (``_damped_newton``).  Zero absorption returns the base with
    an empty trace, and forms no Green matrix W."""
    nodes = prob.grid.interior_x
    base = _continuum_base(prob)
    if prob.f.is_zero:
        W, u, trace, met = None, base.copy(), [], True
    else:
        W = green_matrix(prob.kernels, prob.grid)
        u, row, met = _newton_fixed_point(base, base, W, partial(prob.f, nodes),
                                          partial(prob.f.derivative, nodes), np.zeros_like(base))
        trace = [row]
    sol = Solution(u=u, residuals={}, ladder_trace=trace, converged=met,
                   meta={"x": nodes, "problem": prob, "base": base, "green_matrix": W})
    sol.residuals["fixed_point"] = fixed_point_residual(sol)
    return sol


def fixed_point_residual(sol: Solution) -> float:
    """max |u - base - W f(u)| over the nodes for the u that ``sol`` holds now,
    from the base and Green matrix its solve built."""
    meta = sol.meta
    f = meta["problem"].f
    wf = 0.0 if f.is_zero else meta["green_matrix"] @ f(meta["x"], sol.u)
    return float(np.max(np.abs(sol.u - meta["base"] - wf)))


def continuum_callable(prob: ContinuumProblem, sol: Solution):
    """u as a function on the line: interpolated inside, the datum outside."""
    nodes = sol.meta["x"]

    def u_fn(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.interp(y, nodes, sol.u)
        outside = np.abs(y) >= 1.0
        out[outside] = prob.g(y[outside])
        return out

    return u_fn


def source_density(prob: ContinuumProblem, sol: Solution):
    """The absorption density that W integrates, Pi f(u): on each panel the
    polynomial through the node values f(x_j, u_j), the panel's Lagrange
    interpolant of ``green_matrix``.  The returned function evaluates it at
    any array of points in (-1, 1) by ``_table_eval``, at s = k + (y - b_k) /
    (b_(k+1) - b_k) on panel k; points off the interval take the end panels'
    polynomials, which the Green potential never reads."""
    breaks, order = prob.grid.interior_breaks, prob.grid.order
    t, _ = _gl(order)
    values = prob.f(sol.meta["x"], sol.u).reshape(-1, order)
    coef = _table_fit(values, 0.5 * (t + 1.0))
    pieces = np.arange(breaks.size, dtype=float)

    def density(y):
        return _table_eval(coef, np.interp(y, breaks, pieces))

    return density


def projective_exhaustion_defects(prob: ContinuumProblem, sol: Solution,
                                  probes=(0.0, 0.25, -0.25)) -> np.ndarray:
    """Gap |P_V(u) - P_D g - M nu| at probes, one row per nest level: the
    exit averages of u over the nest tend to the exit average of g plus the
    Martin part of the boundary measure."""
    kern, grid = prob.kernels, prob.grid
    u_fn = continuum_callable(prob, sol)
    probes = np.asarray(probes, dtype=float)
    limit = apply_PD(kern, grid, prob.g, x=probes) + prob.martin_part(probes)
    # below radius 1 the exit density is smooth at |y| = 1: the first panel
    # carries only the datum's own edge power
    rule = _exterior_rule(_exterior_breaks(grid.edge_levels, grid.out_levels), grid.order,
                          prob.g.edge_exponent)
    return np.asarray([np.abs(apply_PV_interval(kern, radius, u_fn, probes)
                              + _exit_average(kern, radius, prob.g, probes, rule) - limit)
                       for radius in prob.nest])


def example77_report(prob: ContinuumProblem, sol: Solution) -> dict:
    """Weighted-norm ledger for the interval problem.

    Interior weight is dist-to-boundary^(alpha/2); the exterior datum is
    measured against min(dist^(-alpha/2), dist^(-alpha-1)).  The constant in
    the bound is not asserted, only the observed ratio is reported.
    """
    kern, grid = prob.kernels, prob.grid
    a = kern.alpha
    nodes, w = grid.interior_x, grid.interior_w
    delta = 1.0 - np.abs(nodes)
    wgt = delta ** (a / 2.0)
    fu = prob.f(nodes, sol.u)
    f0 = prob.f(nodes, np.zeros_like(nodes))
    lhs_u = float(np.sum(w * np.abs(sol.u)))
    lhs_f = float(np.sum(w * np.abs(fu) * wgt))
    rhs_f0 = float(np.sum(w * np.abs(f0) * wgt))
    rhs_mu = float(sum(abs(wt) * (1.0 - abs(pos)) ** (a / 2.0) for pos, wt in prob.mu_atoms))
    dist_ext = np.abs(grid.exterior_x) - 1.0
    wgt_ext = np.minimum(dist_ext ** (-a / 2.0), dist_ext ** (-a - 1.0))
    gv = np.abs(prob.g(grid.exterior_x))
    rhs_g = float(np.sum(grid.exterior_w * gv * wgt_ext))
    s = prob.g.tail_exponent
    c_tail = float(np.abs(prob.g(np.asarray([grid.radius]))[0])) * grid.radius ** (-s) \
        + float(np.abs(prob.g(np.asarray([-grid.radius]))[0])) * grid.radius ** (-s)
    # beyond R: c y^s (y - 1)^(-a-1) = c y^(s-a-1) (1 + (a+1)/y + O(y^-2))
    rhs_g += c_tail * (grid.radius ** (s - a) / (a - s)
                       + (a + 1.0) * grid.radius ** (s - a - 1.0) / (a + 1.0 - s))
    rhs = rhs_f0 + rhs_mu + rhs_g + prob.nu_plus + prob.nu_minus
    lhs = lhs_u + lhs_f
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf"))
    return {"lhs_l1": lhs_u, "lhs_weighted_absorption": lhs_f,
            "rhs_absorption_at_zero": rhs_f0, "rhs_measure": rhs_mu,
            "rhs_exterior": rhs_g, "ratio": ratio}
