import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from dirichlet_lab import frac1d as f1
from dirichlet_lab.semilinear import (Nonlinearity, exp_nonlinearity, power_nonlinearity,
                                      zero_nonlinearity)
from paper_checks import solve_by_ladder

ALPHAS = (0.5, 1.0, 1.5)


@pytest.fixture(scope="module")
def packs():
    return {a: (f1.build_kernels(a), f1.build_grid(a)) for a in ALPHAS}


def test_build_kernels_validates(packs):
    for a in ALPHAS:
        k, _ = packs[a]
        d = k.diagnostics
        assert d["green_symmetry"] < 1e-8
        assert d["poisson_normalization"] < 1e-6
        assert d["symbol_relative"] < 1e-4
        assert d["green_min"] >= 0.0
        assert d["radial_table"] < 1e-12
    with pytest.raises(ValueError):
        f1.build_kernels(2.5)


def test_green_alpha1_log_closed_form(packs):
    # independent closed form for the Cauchy case
    k, _ = packs[1.0]
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, y = rng.uniform(-0.95, 0.95, size=2)
        if abs(x - y) < 1e-3:
            continue
        r = (1 - x * x) * (1 - y * y) / (x - y) ** 2
        exact = math.log(math.sqrt(r) + math.sqrt(1 + r)) / math.pi
        assert k.green(x, y) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 1.99])
def test_radial_table_matches_hypergeometric_form(alpha):
    # B(r) = (2/alpha) r^(alpha/2) 2F1(1/2, alpha/2; alpha/2 + 1; -r), in
    # 40-digit arithmetic, read from the table as ``FracKernels.green`` reads
    # it.  The table's window is log r in [-50, 50]; 17 points at each end
    # lie beyond it, on the two-term expansions
    mpmath = pytest.importorskip("mpmath")
    rs = np.logspace(-30.0, 30.0, 121)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        exact = np.array([float(2 / a * mpmath.mpf(r) ** (a / 2)
                                * mpmath.hyp2f1(0.5, a / 2, a / 2 + 1, -mpmath.mpf(r)))
                          for r in rs])
    body = f1._radial_phi(alpha, np.log(rs)) * rs ** (alpha / 2)
    assert np.max(np.abs(body / exact - 1.0)) < 1e-13


@pytest.mark.parametrize("alpha", [1.6, 1.7, 1.8, 1.9, 1.95])
def test_build_kernels_accepts_alpha_near_two(alpha):
    # 1 - cos(r xi) rounds to 0 for r xi below about 1e-8, where the graded
    # panels of the symbol integral carry most of the mass as alpha nears 2
    k = f1.build_kernels(alpha)
    assert k.diagnostics["symbol_relative"] < 1e-6


def test_green_matrix_continuous_across_alpha_one():
    # W moves with alpha at a rate of order one, so the steps to 1 -+ 1e-9
    # are about 2e-9 of W and must match to second order
    grid = f1.build_grid(1.0)
    W = {a: f1.green_matrix(f1.build_kernels(a), grid) for a in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)}
    mid, scale = W[1.0], np.max(np.abs(W[1.0]))
    for a in (1.0 - 1e-9, 1.0 + 1e-9):
        assert np.max(np.abs(W[a] - mid)) / scale < 1e-8
    second = W[1.0 - 1e-9] - 2.0 * mid + W[1.0 + 1e-9]
    assert np.max(np.abs(second)) / scale < 1e-12


def test_cauchy_exit_time_constant(packs):
    # the expected exit time from the unit interval at the center is one
    k, _ = packs[1.0]
    assert k.exit_coef == pytest.approx(1.0, abs=1e-14)


def test_poisson_normalization_interior_points(packs):
    for a in ALPHAS:
        k, grid = packs[a]
        vals = f1.apply_PD(k, grid, f1.const_exterior(1.0), x=[0.0, 0.55, -0.9])
        assert np.max(np.abs(vals - 1.0)) < 1e-6


def test_poisson_just_outside_the_boundary_keeps_its_digits(packs):
    # y^2 - 1 by cancellation kept few digits at y = 1 + delta (3.1e-9 relative)
    mpmath = pytest.importorskip("mpmath")
    deltas = 10.0 ** np.random.default_rng(12).uniform(-12.0, -3.0, size=12)
    for a in ALPHAS:
        k, _ = packs[a]
        for x in (0.0, 0.5, -0.9):
            got = k.poisson(x, 1.0 + deltas)
            with mpmath.workdps(40):
                X, A = mpmath.mpf(x), mpmath.mpf(a)
                exact = np.array([float(mpmath.mpf(k.poisson_coef)
                                        * ((1 - X ** 2) / (mpmath.mpf(y) ** 2 - 1)) ** (A / 2)
                                        / abs(X - mpmath.mpf(y))) for y in 1.0 + deltas])
            assert np.max(np.abs(got / exact - 1.0)) <= 1e-13


def test_levy_symbol_scaling(packs):
    for a in ALPHAS:
        k, _ = packs[a]
        for xi in (1.0, 2.0, 4.0):
            assert f1.levy_symbol(k, xi) == pytest.approx(xi ** a, rel=1e-4)


def test_exit_time_boundary_slope(packs):
    deltas = 2.0 ** -np.arange(3, 10, dtype=float)
    for a in ALPHAS:
        k, grid = packs[a]
        vals = f1.apply_RD(k, grid, h=lambda y: np.ones_like(y), x=1.0 - deltas)
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(a / 2.0, abs=0.05)


def test_poisson_density_x_exponent(packs):
    deltas = 2.0 ** -np.arange(5, 13, dtype=float)
    for a in ALPHAS:
        k, _ = packs[a]
        vals = k.poisson(1.0 - deltas, 3.0)
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(a / 2.0, abs=0.05)


def test_apply_pd_singular_data_exponent(packs):
    # g blowing up like (|y| - 1)^(-p): the exit average stays finite and
    # blows up like dist^(-p) toward the boundary (edge-kernel scaling:
    # dist^(a/2) from the kernel times dist^(-p - a/2) from the integral)
    k, grid = packs[1.0]
    p = 0.3
    g = f1.power_singular_exterior(p)
    deltas = 2.0 ** -np.arange(4, 11, dtype=float)
    vals = f1.apply_PD(k, grid, g, x=1.0 - deltas)
    assert np.all(np.isfinite(vals))
    fit = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
    assert fit == pytest.approx(-p, abs=0.05)


def _tail_sum(k, x, g, R):
    """Three-term tail of the exit average from (-1, 1) beyond |y| = R,
    written out as before ``_exit_average``."""
    a, s = k.alpha, g.tail_exponent
    out = np.zeros_like(x)
    for sign in (1.0, -1.0):
        c = float(g(np.asarray([sign * R]))[0]) * R ** (-s)
        if c == 0.0:
            continue
        terms = (R ** (s - a) / (a - s)
                 + sign * x * R ** (s - a - 1.0) / (a + 1.0 - s)
                 + (x ** 2 + a / 2.0) * R ** (s - a - 2.0) / (a + 2.0 - s))
        out += k.poisson_coef * (1.0 - x ** 2) ** (a / 2.0) * c * terms
    return out


def test_apply_pd_is_the_inline_exterior_sum(packs):
    # the sum apply_PD made before _exit_average, at the nodes to 1e-14
    # relative: the exit density is summed in separable form since, so the
    # bits differ; the singular datum gets the rule with its edge power added
    for a in ALPHAS:
        k, grid = packs[a]
        x = grid.interior_x
        for g in (f1.const_exterior(1.5), f1.power_singular_exterior(0.2)):
            if g.edge_exponent:
                breaks = np.concatenate([f1._graded_breaks(1.0, 2.0, grid.edge_levels, True)[:-1],
                                         2.0 ** np.arange(1, grid.out_levels + 2, dtype=float)])
                y, w = f1._composite(breaks, grid.order, left=-a / 2.0 + g.edge_exponent)
                ext_x, ext_w, R = (np.concatenate([-y[::-1], y]), np.concatenate([w[::-1], w]),
                                   float(breaks[-1]))
            else:
                ext_x, ext_w, R = grid.exterior_x, grid.exterior_w, grid.radius
            vals = (k.poisson(x[:, None], ext_x[None, :]) * (ext_w * g(ext_x))[None, :]).sum(axis=1)
            ref = vals + _tail_sum(k, x, g, R)
            assert np.max(np.abs(f1.apply_PD(k, grid, g) / ref - 1.0)) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_average_is_the_pointwise_poisson_sum(packs):
    # one matrix-vector product of 1/|x - y| with per-node factors against
    # FracKernels.poisson pair by pair, without the tail: the exterior rules
    # of const and singular data, and the annulus rule (nodes from their gap)
    # over the nest's radii; points at or beyond the radius get 0
    probes = np.array([0.0, 0.3, -0.6, 0.9])
    for a in ALPHAS:
        k, grid = packs[a]
        x = grid.interior_x
        for g in (f1.const_exterior(1.5), f1.power_singular_exterior(0.2)):
            y, w, _ = f1._exterior_rule(f1._exterior_breaks(grid.edge_levels, grid.out_levels),
                                        grid.order, -a / 2.0 + g.edge_exponent)
            ref = (k.poisson(x[:, None], y) * (w * g(y))).sum(axis=1)
            got = f1._exit_average(k, 1.0, g, x, (y, w, None))
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-14
            edge = f1._exit_average(k, 1.0, g, np.array([1.0, -1.0, 1.5, -1.5]), (y, w, None))
            assert np.array_equal(edge, np.zeros(4))
        s, ws = f1._annulus_ref(-a / 2.0, 0.0)
        for radius in (0.5, 0.9, 1.0 - 2.0 ** -12):
            gap = (1.0 - radius) * s
            y, w = np.concatenate([radius + gap, -(radius + gap)]), np.tile((1.0 - radius) * ws, 2)
            gaps = np.tile(gap, 2)
            ref = (k.poisson(probes[:, None] / radius, y / radius, gaps / radius)
                   * (w * np.cos(y) / radius)).sum(axis=1)
            got = f1.apply_PV_interval(k, radius, np.cos, probes)
            inside = np.abs(probes) < radius
            assert np.max(np.abs(got[inside] / ref[inside] - 1.0)) <= 1e-14
            assert np.array_equal(got[~inside], np.zeros(np.sum(~inside)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_pd_is_the_datum_outside_the_interval(packs):
    # P_D g is g at |x| >= 1, as the solution's callable reads it; the exit
    # average there read NaN (1 - x^2 < 0 to the power alpha/2) or 0
    x = np.array([1.0, -1.0, 1.5, -2.0])
    for a in ALPHAS:
        k, grid = packs[a]
        for g in (f1.const_exterior(2.5), f1.indicator_exterior(1.2, 2.0)):
            got = f1.apply_PD(k, grid, g, x=np.concatenate([[0.3], x]))
            assert np.array_equal(got[1:], g(x))
            assert got[0] == f1.apply_PD(k, grid, g, x=[0.3])[0]


def test_apply_pd_divergent_edge_rejected(packs):
    k, grid = packs[1.5]
    with pytest.raises(ValueError):
        f1.apply_PD(k, grid, f1.power_singular_exterior(0.4), x=[0.0])


def test_apply_pd_divergent_tail_rejected(packs):
    k, grid = packs[0.5]
    grow = f1.ExteriorData(fn=lambda y: np.abs(y) ** 0.8, tail_exponent=0.8)
    with pytest.raises(ValueError):
        f1.apply_PD(k, grid, grow, x=[0.0])


def test_apply_pd_declared_tail_too_steep_rejected(packs):
    # a datum that is zero up to the rule's end passes the outward-decay
    # probe, so only its declared tail exponent (0.8 >= alpha) shows the divergence
    k, grid = packs[0.5]
    late = f1.ExteriorData(fn=lambda y: np.where(np.abs(y) > grid.radius, np.abs(y) ** 0.8, 0.0),
                           tail_exponent=0.8)
    with pytest.raises(ValueError, match="grows too fast"):
        f1.apply_PD(k, grid, late, x=[0.0])


def test_grid_weights_positive(packs):
    for a in ALPHAS:
        _, grid = packs[a]
        assert np.all(grid.interior_w > 0)
        assert np.all(grid.exterior_w > 0)
        assert grid.radius > 1.0


def test_grid_refinement_halves_error(packs):
    k, _ = packs[1.0]
    g0 = f1.build_grid(1.0, order=4, n_base=2, edge_levels=8, out_levels=6)
    g1 = g0.refine()
    g2 = g1.refine()
    gg = f1.power_singular_exterior(0.3)
    v0, v1, v2 = (float(f1.apply_PD(k, g, gg, x=[0.2])[0]) for g in (g0, g1, g2))
    assert abs(v1 - v2) <= 0.5 * abs(v0 - v1)


def test_green_matrix_reproduces_exit_time(packs):
    for a in ALPHAS:
        k, grid = packs[a]
        W = f1.green_matrix(k, grid)
        rows = W @ np.ones(grid.interior_x.size)
        exact = k.exit_coef * (1.0 - grid.interior_x ** 2) ** (a / 2.0)
        assert np.max(np.abs(rows / exact - 1.0)) < 1e-5


def test_green_matrix_matches_direct_quadrature(packs):
    # W applies R_D through panel interpolants; apply_RD integrates the
    # smooth density directly on rules graded toward each target
    def h(y):
        return np.cos(2.0 * y) + y ** 3

    for a in ALPHAS:
        k, grid = packs[a]
        nodes = grid.interior_x
        pick = np.nonzero(np.abs(nodes) < 0.999)[0][::9]
        via_w = (f1.green_matrix(k, grid) @ h(nodes))[pick]
        direct = f1.apply_RD(k, grid, h=h, x=nodes[pick])
        assert np.max(np.abs(via_w / direct - 1.0)) < 1e-6


def test_grid_mirrors_and_green_matrix_is_centrosymmetric(packs):
    for a in ALPHAS:
        k, grid = packs[a]
        assert np.array_equal(grid.interior_x[::-1], -grid.interior_x)
        assert np.array_equal(grid.interior_w[::-1], grid.interior_w)
        assert np.array_equal(grid.interior_breaks[::-1], -grid.interior_breaks)
        W = f1.green_matrix(k, grid)
        assert np.array_equal(W, W[::-1, ::-1])


@pytest.mark.parametrize("alpha", [1.2, 1.5])
def test_green_matrix_on_refined_grid_is_finite_without_warnings(alpha):
    # above alpha = 1 no diagonal power is baked in, so a source node that
    # rounds onto its target must not divide by a zero distance
    W = f1.green_matrix(f1.build_kernels(alpha), f1.build_grid(alpha).refine())
    assert np.all(np.isfinite(W))


def _green_matrix_by_panel(kernels, grid):
    """Reference W: one source panel (column block) at a time over every
    panel, no mirror, in four kernel calls per panel: far targets, left and
    right neighbours, own nodes."""
    a, nodes, breaks, order = kernels.alpha, grid.interior_x, grid.interior_breaks, grid.order
    n = nodes.size
    diag_gamma = a - 1.0 if a < 1.0 else 0.0
    t_fine, B_fine = f1._far_rule(order)
    off, w, B_left, B_right = f1._neighbour_rule(order, diag_gamma)
    own_off, own_w, own_B = f1._own_rule(order, diag_gamma)
    inner = slice(0, 2 * order)
    W = np.zeros((n, n))
    for p in range(len(breaks) - 1):
        lo, hi = breaks[p], breaks[p + 1]
        half = 0.5 * (hi - lo)
        c0, c1 = p * order, (p + 1) * order
        cols = slice(c0, c1)
        near_lo, near_hi = max(c0 - order, 0), min(c1 + order, n)
        far = np.r_[0:near_lo, near_hi:n]
        gv = kernels.green(nodes[far, None], lo + half * (t_fine + 1.0))
        W[far, cols] = gv @ (half * B_fine)
        if near_lo < c0:
            gv = kernels.green(nodes[near_lo:c0, None], lo + half * off)
            W[near_lo:c0, cols] = (gv * (half * w)) @ B_left
        if c1 < near_hi:
            gv = kernels.green(nodes[c1:near_hi, None], hi - half * off)
            W[c1:near_hi, cols] = (gv * (half * w)) @ B_right
        xs = nodes[cols, None]
        y = xs + half * own_off
        ww = half * own_w
        if diag_gamma:
            d_ref = half * np.abs(own_off[:, inner])
            ww[:, inner] *= (d_ref / np.abs(y[:, inner] - xs)) ** diag_gamma
        W[cols, cols] = np.einsum("km,kmn->kn", kernels.green(xs, y) * ww, own_B)
    return W


@pytest.mark.parametrize("alpha, refine, n_base", [
    (0.3, False, 8), (0.5, False, 8), (1.0, False, 8), (1.5, False, 8), (1.9, False, 8),
    (1.2, True, 8), (1.5, True, 8), (0.7, False, 7), (1.5, False, 7)])
def test_green_matrix_is_the_per_panel_assembly(alpha, refine, n_base):
    # the blocked, mirrored assembly against one panel at a time; an odd
    # n_base gives an odd panel count, whose middle panel is assembled too
    grid = f1.build_grid(alpha, n_base=n_base)
    grid = grid.refine() if refine else grid
    assert (grid.interior_breaks.size - 1) % 2 == n_base % 2
    k = f1.build_kernels(alpha)
    W, ref = f1.green_matrix(k, grid), _green_matrix_by_panel(k, grid)
    assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(np.abs(ref))


def _green_by_pair(k, x, y):
    """Reference Green function with every factor formed per pair:
    p = (1 - x^2)(1 - y^2), phi(log(p / d^2)) p^(alpha/2) / d."""
    a = k.alpha
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    qx, qy = 1.0 - x * x, 1.0 - y * y
    d = np.abs(x - y)
    inside = (qx > 0.0) & (qy > 0.0)
    off = inside & (d > 0.0)
    dv = np.where(off, d, 1.0)
    p = np.where(off, qx * qy, 1.0)
    out = np.array(f1._radial_phi(a, np.log(p / (dv * dv))) * p ** (a / 2.0) / dv
                   * k.green_coef * off)
    on_diag = inside ^ off
    if a > 1.0:
        q = np.broadcast_to(qx, d.shape)[on_diag] ** (a - 1.0)
        out[on_diag] = k.green_coef * (2.0 / (a - 1.0)) * q
    else:
        out[on_diag] = np.inf
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.9])
def test_green_is_the_per_pair_formula(alpha):
    k = f1.build_kernels(alpha)
    gaps = np.geomspace(1e-12, 0.5, 23)
    pts = np.concatenate([-1.0 + gaps, [-0.3, 0.0, 0.2, 0.4, 0.7], 1.0 - gaps[::-1],
                          [-2.0, -1.0, 1.0, 1.5]])  # the last four are off the interval
    near = 0.4 + np.array([1e-14, 1e-12, -1e-10])  # r beyond the window's upper end
    x, y = pts[:, None], np.concatenate([pts, near])
    got, want = k.green(x, y), _green_by_pair(k, x, y)
    off = (np.abs(x) >= 1.0) | (np.abs(y) >= 1.0)
    pair = ~off & (x != y)
    log_r = np.log(np.where(pair, (1.0 - x * x) * (1.0 - y * y), 1.0)
                   / np.where(pair, x - y, 1.0) ** 2)
    assert log_r.min() < f1._RADIAL_LO and log_r.max() > f1._RADIAL_HI
    assert np.all(got[np.broadcast_to(off, got.shape)] == 0.0)
    diag = np.broadcast_to(x == y, got.shape) & ~off
    assert np.all(got[diag] == want[diag])
    assert np.all(np.isinf(got[diag])) == (alpha <= 1.0)
    rest = ~off & ~diag
    assert np.max(np.abs(got[rest] / want[rest] - 1.0)) <= 1e-13
    for a, b in ((0.3, -0.45), (0.3, 0.3), (1.0 - 1e-12, 0.2), (1.5, 0.2)):
        value = k.green(a, b)
        assert type(value) is float
        assert value == pytest.approx(float(_green_by_pair(k, a, b)), rel=1e-13)


def test_lagrange_matrix_reproduces_polynomials():
    rng = np.random.default_rng(4)
    for order in (4, 10, 16):
        t, _ = f1._gl(order)
        pts = np.concatenate([rng.uniform(-1.0, 1.0, 50), t[::3], [-1.0, 1.0]])
        B = f1._lagrange_matrix(order, pts)
        for deg in range(order):
            coef = rng.normal(size=deg + 1)
            assert np.max(np.abs(B @ np.polyval(coef, t) - np.polyval(coef, pts))) < 1e-12
        assert np.array_equal(B[50:50 + t[::3].size], np.eye(order)[::3])


@pytest.mark.parametrize("gamma", [-0.5, 0.3])
def test_rule_builder_integrates_end_powers(gamma):
    # (y - a)^l (b - y)^r p(y), p a cubic in y - a, against its Beta-function
    # closed form: graded composite rules and a single panel with both powers
    a, b = 0.3, 1.7
    coef = [0.7, -1.2, 0.5, 2.0]
    for left, right in ((gamma, None), (None, gamma), (gamma, gamma)):
        lp, rp = left or 0.0, right or 0.0
        exact = sum(c * (b - a) ** (k + lp + rp + 1.0) * beta_fn(k + lp + 1.0, rp + 1.0)
                    for k, c in enumerate(coef))
        for y, w in (f1._graded_panels(a, b, 12, 20, left=left, right=right),
                     f1._panel_rule(a, b, 12, left, right)):
            p = sum(c * (y - a) ** k for k, c in enumerate(coef))
            quad = float(np.sum(w * (y - a) ** lp * (b - y) ** rp * p))
            assert quad == pytest.approx(exact, rel=1e-13, abs=0.0)


# end powers the rules use, as (right, left) Jacobi parameters: a/2 - 1,
# 1 - a, 0 and +-0.5 for a in {0.5, 1, 1.5}
_RULE_POWERS = sorted({p for a in (0.5, 1.0, 1.5) for p in (a / 2 - 1, 1 - a, 0.0, 0.5, -0.5)})


def test_gauss_jacobi_nodes_match_scipy():
    special = pytest.importorskip("scipy.special")
    for a in _RULE_POWERS:
        for b in _RULE_POWERS:
            for order in range(1, 23):
                x, _ = f1._gj(order, a, b)
                with np.errstate(invalid="ignore"):  # scipy's recurrence at a + b = -1
                    expected, _ = special.roots_jacobi(order, a, b)
                assert np.max(np.abs(x - expected)) < 1e-14


def _mp_gauss_jacobi_weights(order, a, b, x0):
    """Gauss-Jacobi weights in 40-digit arithmetic: each node refined by
    Newton on the explicit sum of P_n^(a,b), then the closed-form weight
    2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n! (1-x^2) P_n'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def jacobi(n, p, q):
            c = [mpmath.binomial(n + p, n - s) * mpmath.binomial(n + q, s) for s in range(n + 1)]
            return lambda t: mpmath.fsum(c[s] * ((t - 1) / 2) ** s * ((t + 1) / 2) ** (n - s)
                                         for s in range(n + 1))

        p, dp_low = jacobi(order, a, b), jacobi(order - 1, a + 1, b + 1)

        def dp(t):
            return (order + a + b + 1) / 2 * dp_low(t)

        const = (2 ** (a + b + 1) * mpmath.gamma(order + a + 1) * mpmath.gamma(order + b + 1)
                 / (mpmath.gamma(order + a + b + 1) * mpmath.factorial(order)))
        weights = []
        for t in x0:
            t = mpmath.mpf(float(t))
            for _ in range(3):
                t -= p(t) / dp(t)
            weights.append(float(const / ((1 - t) * (1 + t) * dp(t) ** 2)))
    return np.array(weights)


def test_gauss_jacobi_weights_match_40_digits():
    # scipy's own weights are off by 1.2e-11 at (0.6, -0.95), order 22, so
    # the reference is computed here
    pairs = [(0.6, -0.95)] + [(a, b) for a in _RULE_POWERS for b in _RULE_POWERS]
    for a, b in pairs:
        for order in (1, 2, 3, 5, 8, 13, 22):
            x, w = f1._gj(order, a, b)
            exact = _mp_gauss_jacobi_weights(order, a, b, x)
            assert np.max(np.abs(w / exact - 1.0)) < 1e-13, (order, a, b)


def test_gauss_rules_are_read_only_and_legendre_is_symmetric():
    assert f1._gl(11) is f1._gj(11, 0.0, 0.0)
    x, w = f1._gl(11)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]) and x[5] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


def test_exprel_matches_scipy_and_is_one_at_zero():
    special = pytest.importorskip("scipy.special")
    z = np.concatenate([-np.geomspace(1e-300, 30.0, 200), [0.0], np.geomspace(1e-300, 30.0, 200)])
    assert np.max(np.abs(f1._exprel(z) / special.exprel(z) - 1.0)) < 4e-16
    assert f1._exprel(0.0) == 1.0 and f1._exprel(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("left, right", [(None, None), (0.0, 0.0), (-0.5, None), (None, 0.3),
                                         (-0.5, 0.3)])
def test_composite_matches_panel_loop(left, right):
    # the broadcast panels carry the same bits as one _panel_rule per panel
    for breaks in (np.array([0.3, 1.7]), np.linspace(1.0, 256.0, 327),
                   f1._graded_breaks(-1.0, 0.2, 20, True)):
        last = len(breaks) - 2
        rules = [f1._panel_rule(breaks[k], breaks[k + 1], 12, left if k == 0 else None,
                                right if k == last else None) for k in range(last + 1)]
        y, w = f1._composite(breaks, 12, left, right)
        assert np.array_equal(y, np.concatenate([r[0] for r in rules]))
        assert np.array_equal(w, np.concatenate([r[1] for r in rules]))


@pytest.mark.parametrize("gamma", [-0.5, 0.3])
def test_split_rule_integrates_interior_power(gamma):
    lo, x, hi = -1.0, 0.35, 1.0
    halves = f1._split_rule(lo, x, hi, 12, 20, 0.0, gamma)
    for (y, w), length in zip(halves, (x - lo, hi - x)):
        quad = float(np.sum(w * np.abs(y - x) ** gamma))
        assert quad == pytest.approx(length ** (gamma + 1.0) / (gamma + 1.0), rel=1e-13, abs=0.0)


@dataclass(frozen=True)
class _NaNGreen(f1.FracKernels):
    """Kernel pack whose Green function is NaN between one target and the
    sources of one panel."""

    target: float = 0.0
    panel: tuple = (0.0, 0.0)

    def green(self, x, y):
        out = super().green(x, y)
        x, y = np.broadcast_arrays(x, y)
        out[(x == self.target) & (y > self.panel[0]) & (y < self.panel[1])] = np.nan
        return out


def test_green_matrix_reports_nonfinite_entry(packs):
    # W is assembled from the left-half panels and mirrored, so the NaN goes
    # into the mirror image (target n-1-j, panel P-1-p) of the entry reported
    k, grid = packs[0.5]
    j, p = 100, 40
    n, P = grid.interior_x.size, grid.interior_breaks.size - 1
    bad = _NaNGreen(alpha=k.alpha, jump_coef=k.jump_coef, green_coef=k.green_coef,
                    poisson_coef=k.poisson_coef, exit_coef=k.exit_coef,
                    target=float(grid.interior_x[n - 1 - j]),
                    panel=(grid.interior_breaks[P - 1 - p], grid.interior_breaks[P - p]))
    with pytest.raises(ValueError, match=rf"W\[{j}, {p * grid.order}\].*alpha = 0\.5"):
        f1.green_matrix(bad, grid)


def test_interval_dynkin_identity(packs):
    # projecting the big-interval potential onto a subinterval reproduces
    # the subinterval potential
    for a in ALPHAS:
        k, _ = packs[a]
        radius, pos = 0.6, 0.1
        xs = np.array([0.0, 0.3, -0.45])
        rd = lambda y: k.green(np.asarray(y), pos)
        # the Green function of (-radius, radius) by stable scaling
        rv = radius ** (k.alpha - 1.0) * k.green(xs / radius, pos / radius)
        pv = f1.apply_PV_interval(k, radius, rd, xs)
        assert np.max(np.abs(rd(xs) - pv - rv)) < 1e-8


def test_apply_pv_interval_accurate_near_the_boundary():
    # at radius 1 - 2^-16 the innermost annulus nodes lie a few ulps beyond
    # the radius; the exit density must see their distance as the rule
    # built it, not as y^2 - radius^2 of the rounded node
    mpmath = pytest.importorskip("mpmath")
    a, radius = 1.3, 1.0 - 2.0 ** -16
    xs = np.array([0.0, -0.9])
    got = f1.apply_PV_interval(f1.build_kernels(a), radius, lambda y: 1.0 + y * y, xs)
    exact = []
    with mpmath.workdps(20):
        R, A = mpmath.mpf(radius), mpmath.mpf(a)
        c = mpmath.sin(mpmath.pi * A / 2) / mpmath.pi
        splits = [0, (1 - R) * mpmath.mpf(2) ** -30, (1 - R) * mpmath.mpf(2) ** -10, 1 - R]
        for x in xs:
            total = 0
            for side in (1, -1):
                def density(t):  # toward y = side * (R + t)
                    y = side * (R + t)
                    return (c * ((R * R - x * x) / (t * (2 * R + t))) ** (A / 2)
                            / abs(x - y) * (1 + y * y))
                total += mpmath.quad(density, splits)
            exact.append(float(total))
    assert np.max(np.abs(got / np.array(exact) - 1.0)) < 1e-10


def _green_ratio_limit(k, xs, endpoint):
    """The Martin kernel as the boundary limit of G(x, y) / G(0, y), y -> endpoint:
    a geometric approach sequence y = endpoint (1 - 2^-j), j = 6..18, and one
    Richardson step on its last two terms."""
    ys = endpoint * (1.0 - 2.0 ** -np.arange(6.0, 19.0))
    ratios = k.green(np.asarray(xs)[:, None], ys) / k.green(0.0, ys)
    return 2.0 * ratios[:, -1] - ratios[:, -2]


def _martin_closed_form(a, x, endpoint):
    """(1 - x^2)^(alpha/2) / |1 - endpoint x|, with 1 - x^2 as (1 - x)(1 + x)."""
    return ((1.0 - x) * (1.0 + x)) ** (a / 2.0) / np.abs(1.0 - endpoint * x)


def test_martin_kernel_basic(packs):
    for a in ALPHAS:
        k, _ = packs[a]
        assert f1.martin_kernel(k, 0.0, +1) == 1.0
        assert f1.martin_kernel(k, 0.0, -1) == 1.0
        # zero off the interval, as the Green function
        assert np.all(f1.martin_kernel(k, np.array([-1.5, -1.0, 1.0, 2.0]), +1) == 0.0)
        xs = np.array([0.5, -0.5, 0.9, -1.0 + 2.0 ** -30])
        m_plus, m_minus = f1.martin_kernel(k, xs, +1), f1.martin_kernel(k, -xs, -1)
        # reflection symmetry of the interval, bit for bit
        assert np.array_equal(m_plus, m_minus)
        assert np.max(np.abs(m_plus / _martin_closed_form(a, xs, +1) - 1.0)) < 1e-14
    with pytest.raises(ValueError):
        f1.martin_kernel(packs[1.0][0], 0.0, 0)


def test_martin_kernel_is_the_green_ratio_limit(packs):
    # cross-check of the Green table against the Martin closed form
    xs = np.array([0.0, 0.25, -0.25, 0.5, -0.5])
    for a in ALPHAS:
        k, _ = packs[a]
        for endpoint in (+1, -1):
            ratio = _green_ratio_limit(k, xs, endpoint)
            assert np.max(np.abs(ratio - f1.martin_kernel(k, xs, endpoint))) < 1e-8


def test_solve_continuum_zero_data(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity())
    sol = f1.solve_continuum(prob)
    assert np.max(np.abs(sol.u)) == 0.0


def test_solve_continuum_pure_martin(packs):
    # boundary-measure data only: the solution is nu+ M(., +1) + nu- M(., -1)
    for a in ALPHAS:
        k, grid = packs[a]
        prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                                   f=zero_nonlinearity(), nu_plus=0.7, nu_minus=0.3)
        sol = f1.solve_continuum(prob)
        x = sol.meta["x"]
        exact = 0.7 * _martin_closed_form(a, x, +1) + 0.3 * _martin_closed_form(a, x, -1)
        assert np.max(np.abs(sol.u / exact - 1.0)) < 1e-12


def test_solve_continuum_cubic(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(1.0, 3.0))
    sol = f1.solve_continuum(prob)
    assert sol.converged
    assert sol.residuals["fixed_point"] < 1e-6
    assert np.all(sol.u > 0.0) and np.all(sol.u < 1.0)
    # symmetric data give a symmetric solution on the symmetric grid
    assert np.max(np.abs(sol.u - sol.u[::-1])) < 1e-9


@pytest.mark.parametrize("f, g", [
    (power_nonlinearity(1.0, 3.0), 30.0),
    (power_nonlinearity(1.0, 3.0), 100.0),
    (exp_nonlinearity(1.0), 100.0),
], ids=["cubic-g30", "cubic-g100", "exp-g100"])
def test_solve_continuum_at_large_exterior_data(f, g):
    # alpha = 1.2, where a ladder capped at the envelope 2**15 ended
    # unconverged, at fixed-point defects of 1.4e-14, 88 and 3.8e36; 1e-6 is
    # the run's contract
    prob = f1.ContinuumProblem(kernels=f1.build_kernels(1.2), grid=f1.build_grid(1.2),
                               g=f1.const_exterior(g), f=f)
    sol = f1.solve_continuum(prob)
    assert sol.converged and sol.residuals["fixed_point"] < 1e-6


def _exp_at_large_data():
    return f1.ContinuumProblem(kernels=f1.build_kernels(1.5), grid=f1.build_grid(1.5),
                               g=f1.const_exterior(1e4), f=exp_nonlinearity(1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_starts_from_zero_where_the_absorption_overflows():
    # e^y overflows at the base, so the default Newton solve starts from 0;
    # trial steps that overflow are rejected, and no such value is used
    prob = _exp_at_large_data()
    sol = f1.solve_continuum(prob)
    with np.errstate(over="ignore"):
        assert np.isinf(prob.f(sol.meta["x"], sol.meta["base"])).all()
    assert sol.converged and sol.residuals["fixed_point"] < 1e-6
    assert len(sol.ladder_trace) == 1 and sol.ladder_trace[0]["inner_iterations"] <= 20


@pytest.mark.parametrize("g", [300.0, 600.0])
def test_newton_starts_from_the_smaller_residual(g):
    # e^g is finite at the base but far from the solution, where damped steps
    # move u by about 2 each: from the base, Newton ran out of steps at
    # g = 300 and stalled after one step at g = 600; from 0 it takes 10
    prob = f1.ContinuumProblem(kernels=f1.build_kernels(1.2), grid=f1.build_grid(1.2),
                               g=f1.const_exterior(g), f=exp_nonlinearity(1.0))
    sol = f1.solve_continuum(prob)
    assert sol.converged and sol.ladder_trace[0]["inner_iterations"] <= 20
    ladder = solve_by_ladder(prob)
    assert np.max(np.abs(sol.u - ladder.u)) <= 1e-10 * np.max(np.abs(ladder.u))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ladder_clips_an_overflowing_absorption_without_warnings():
    # e^y overflows where the envelopes clip it, and its central-difference
    # slope reads inf - inf where they mask it; neither value is used
    prob = _exp_at_large_data()
    sol = solve_by_ladder(prob)
    assert sol.converged and sol.residuals["fixed_point"] < 1e-6
    newton = f1.solve_continuum(prob)
    assert np.max(np.abs(newton.u - sol.u)) <= 1e-10 * np.max(np.abs(sol.u))


def test_continuum_problem_refuses_kernels_of_another_alpha(packs):
    # the grid's exterior rule carries its own alpha's edge power: alpha = 1
    # kernels on an alpha = 1.5 grid would read a wrong exit average of g
    with pytest.raises(ValueError, match="alpha"):
        f1.ContinuumProblem(kernels=packs[1.0][0], grid=packs[1.5][1],
                            g=f1.const_exterior(1.0), f=zero_nonlinearity())


def test_solve_continuum_with_atom(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity(), mu_atoms=((0.0, 1.0),))
    sol = f1.solve_continuum(prob)
    xs = sol.meta["x"]
    assert np.max(np.abs(sol.u - k.green(xs, 0.0))) < 1e-12


def test_martin_absorption_hypothesis_check(packs):
    # cubic absorption along the boundary profile has a finite potential
    # for the strong-index kernel; the check must accept it
    k, grid = packs[1.5]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=power_nonlinearity(1.0, 3.0),
                               nu_plus=0.2)
    sol = f1.solve_continuum(prob)
    assert sol.residuals["fixed_point"] < 1e-6


def test_projective_exhaustion_defects_decrease(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(1.0, 3.0),
                               nest=f1.default_nest(8))
    sol = f1.solve_continuum(prob)
    defects = f1.projective_exhaustion_defects(prob, sol, probes=(0.0, 0.25))
    worst = defects.max(axis=1)
    assert worst[-1] < worst[0]
    assert worst[-1] < 5e-3


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_projective_exhaustion_integrates_g_with_its_own_edge_power(packs, alpha):
    # inside radius 1 the exit density is smooth at |y| = 1, so the exterior
    # rule carries g's edge power alone; the grid's -alpha/2 power missed a
    # refined rule by 8.9e-7 (alpha 1) and 7.4e-6 (alpha 1.5) on singular data
    k, grid = packs[alpha]
    probes = np.array([0.0, 0.25, -0.25])
    for g, bound in ((f1.power_singular_exterior(0.2), 1e-8), (f1.const_exterior(1.0), 1e-11)):
        prob = f1.ContinuumProblem(kernels=k, grid=grid, g=g, f=zero_nonlinearity(),
                                   nest=f1.default_nest(12))
        sol = f1.solve_continuum(prob)
        got = f1.projective_exhaustion_defects(prob, sol, probes)
        u_fn = f1.continuum_callable(prob, sol)
        limit = f1.apply_PD(k, grid, g, x=probes)
        fine = f1._exterior_rule(f1._exterior_breaks(40, 14), 20, g.edge_exponent)
        ref = [np.abs(f1.apply_PV_interval(k, r, u_fn, probes)
                      + f1._exit_average(k, r, g, probes, fine) - limit) for r in prob.nest]
        assert np.max(np.abs(got - np.asarray(ref))) <= bound, g.name


def test_projective_exhaustion_is_the_per_probe_sum(packs):
    # the exterior part summed one probe at a time through the exit density of
    # (-radius, radius) by stable scaling, as before _exit_average, with the
    # tail of the datum scaled to the level; cubic absorption with nu needs
    # alpha > 1 (p < (2 + alpha)/(2 - alpha))
    k, grid = packs[1.5]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.5),
                               f=power_nonlinearity(1.0, 3.0),
                               nu_plus=0.1, nest=f1.default_nest(8))
    sol = f1.solve_continuum(prob)
    probes = np.array([0.0, 0.25, -0.25])
    got = f1.projective_exhaustion_defects(prob, sol, probes)
    u_fn = f1.continuum_callable(prob, sol)
    limit = f1.apply_PD(k, grid, prob.g, x=probes) + prob.martin_part(probes)
    # below radius 1 the exterior rule carries only the datum's edge power
    ys, ws, R = f1._exterior_rule(f1._exterior_breaks(grid.edge_levels, grid.out_levels),
                                  grid.order, prob.g.edge_exponent)
    gv = prob.g(ys)
    for i, radius in enumerate(prob.nest):
        pv = f1.apply_PV_interval(k, radius, u_fn, probes)
        scaled = f1.ExteriorData(fn=lambda y: prob.g(radius * y))
        for j, x in enumerate(probes):
            dens = k.poisson(x / radius, ys / radius) / radius
            ext = float(np.sum(ws * dens * gv))
            ext += _tail_sum(k, np.asarray([x / radius]), scaled, R / radius)[0]
            assert abs(got[i, j] - abs(pv[j] + ext - limit[j])) <= 1e-15


def test_example77_report_zero_and_atom(packs):
    k, grid = packs[1.0]
    prob0 = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                                f=zero_nonlinearity())
    rep0 = f1.example77_report(prob0, f1.solve_continuum(prob0))
    assert rep0["ratio"] == 0.0
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity(), mu_atoms=((0.0, 1.0),))
    rep = f1.example77_report(prob, f1.solve_continuum(prob))
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_example77_exterior_weight_matches_closed_form(packs, alpha):
    # g = 1 against min(t^(-a/2), t^(-a-1)), t = |y| - 1, on both sides:
    # 2 [1 / (1 - a/2) + 1 / a], the analytic tail beyond R included
    k, grid = packs[alpha]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=zero_nonlinearity())
    rep = f1.example77_report(prob, f1.solve_continuum(prob))
    exact = 2.0 * (1.0 / (1.0 - alpha / 2.0) + 1.0 / alpha)
    assert abs(rep["rhs_exterior"] / exact - 1.0) < 1e-8


def test_example77_ratio_stable_under_refinement(packs):
    k, _ = packs[1.0]
    vals = []
    for grid in (f1.build_grid(1.0, order=8, n_base=6, edge_levels=16, out_levels=8),
                 f1.build_grid(1.0, order=10, n_base=12, edge_levels=22, out_levels=10)):
        prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(0.5),
                                   f=power_nonlinearity(1.0, 3.0),
                                   mu_atoms=((0.2, 0.7),))
        rep = f1.example77_report(prob, f1.solve_continuum(prob))
        vals.append(rep["ratio"])
    assert abs(vals[1] - vals[0]) / vals[1] < 0.1


def test_example77_batch_max_ratio_stable(packs):
    # the observed constant over a batch of random admissible data moves by
    # less than 10% under grid refinement
    k, _ = packs[1.0]
    rng = np.random.default_rng(77)
    data = [(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(0.1, 1.0)),
             float(rng.uniform(0.0, 1.0))) for _ in range(20)]
    maxima = []
    for grid in (f1.build_grid(1.0, order=8, n_base=6, edge_levels=16, out_levels=8),
                 f1.build_grid(1.0, order=10, n_base=12, edge_levels=22, out_levels=10)):
        ratios = []
        for pos, wt, gval in data:
            prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(gval),
                                       f=zero_nonlinearity(), mu_atoms=((pos, wt),))
            ratios.append(f1.example77_report(prob, f1.solve_continuum(prob))["ratio"])
        maxima.append(max(ratios))
    assert abs(maxima[1] - maxima[0]) / maxima[1] < 0.1


def test_custom_absorption_with_boundary_measure_is_refused_by_name(packs):
    # an f built from a function alone has no kind: its growth along M nu is
    # unknown, so a solve with nu refuses it and names it; without nu it runs
    k, grid = packs[1.5]
    f = Nonlinearity(fn=lambda pts, y: -np.arctan(y), name="arctan")
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0), f=f,
                               nu_plus=0.1)
    with pytest.raises(ValueError, match="no finite potential.*'arctan'"):
        f1.solve_continuum(prob)
    assert f1.solve_continuum(replace(prob, nu_plus=0.0)).converged


def test_atoms_lie_inside_the_interval(packs):
    # the atoms' potential is a Green potential: sum w G(x, a), a in (-1, 1)
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity(), mu_atoms=((0.2, 0.7), (-0.5, 0.3)))
    x = np.array([-0.3, 0.0, 0.6])
    want = 0.7 * k.green(x, 0.2) + 0.3 * k.green(x, -0.5)
    assert np.allclose(prob.atom_part(x), want, rtol=1e-15, atol=0.0)
    for pos in (1.0, -1.5, float("nan")):
        with pytest.raises(ValueError, match="atoms must lie in"):
            replace(prob, mu_atoms=((pos, 1.0),))
