import math
from dataclasses import dataclass

import numpy as np
import pytest

from dirichlet_lab import frac1d as f1
from dirichlet_lab.semilinear import power_nonlinearity, zero_nonlinearity

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


def test_cauchy_exit_time_constant(packs):
    # the expected exit time from the unit interval at the center is one
    k, _ = packs[1.0]
    assert k.exit_coef == pytest.approx(1.0, abs=1e-14)


def test_poisson_normalization_interior_points(packs):
    for a in ALPHAS:
        k, grid = packs[a]
        vals = f1.apply_PD(k, grid, f1.const_exterior(1.0), x=[0.0, 0.55, -0.9])
        assert np.max(np.abs(vals - 1.0)) < 1e-6


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


def test_apply_pd_divergent_edge_rejected(packs):
    k, grid = packs[1.5]
    with pytest.raises(ValueError):
        f1.apply_PD(k, grid, f1.power_singular_exterior(0.4), x=[0.0])


def test_apply_pd_divergent_tail_rejected(packs):
    k, grid = packs[0.5]
    grow = f1.ExteriorData(fn=lambda y: np.abs(y) ** 0.8, tail_exponent=0.8)
    with pytest.raises(ValueError):
        f1.apply_PD(k, grid, grow, x=[0.0])


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
    k, grid = packs[0.5]
    j, p = 100, 40
    bad = _NaNGreen(alpha=k.alpha, jump_coef=k.jump_coef, green_coef=k.green_coef,
                    poisson_coef=k.poisson_coef, exit_coef=k.exit_coef,
                    target=float(grid.interior_x[j]),
                    panel=(grid.interior_breaks[p], grid.interior_breaks[p + 1]))
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
        rv = k.green_interval(radius, xs, pos)
        pv = np.array([f1.apply_PV_interval(k, radius, rd, x, y_hi=1.0) for x in xs])
        assert np.max(np.abs(rd(xs) - pv - rv)) < 1e-8


def test_martin_kernel_basic(packs):
    for a in ALPHAS:
        k, _ = packs[a]
        assert f1.martin_kernel(k, 0.0, +1) == pytest.approx(1.0, abs=1e-10)
        m_plus, tail = f1.martin_vector(k, [0.5, -0.5], +1)
        m_minus, _ = f1.martin_vector(k, [-0.5, 0.5], -1)
        assert np.max(tail) < 1e-4
        # reflection symmetry of the interval
        assert m_plus[0] / m_plus[1] == pytest.approx(m_minus[0] / m_minus[1], abs=1e-6)


def test_martin_two_approach_sequences(packs):
    k, _ = packs[1.0]
    v1, _ = f1.martin_vector(k, [0.5], +1, k_lo=6, k_hi=18)
    v2, _ = f1.martin_vector(k, [0.5], +1, k_lo=8, k_hi=20)
    assert abs(v1[0] - v2[0]) < 1e-4


def test_martin_calibrated_shape(packs):
    for a in ALPHAS:
        k, _ = packs[a]
        fn, spread = f1.martin_boundary_fn(k, +1)
        assert spread < 1e-8
        assert fn(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-8)


def test_solve_continuum_zero_data(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity())
    sol = f1.solve_continuum(prob)
    assert np.max(np.abs(sol.u)) == 0.0


def test_solve_continuum_pure_martin(packs):
    k, grid = packs[1.5]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity(), nu_plus=1.0)
    sol = f1.solve_continuum(prob)
    vals, _ = f1.martin_vector(k, sol.meta["x"][::40], +1)
    assert np.max(np.abs(sol.u[::40] - vals)) < 1e-8


def test_solve_continuum_cubic(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(lambda y: np.ones_like(y), 3.0))
    sol = f1.solve_continuum(prob)
    assert sol.converged
    assert sol.residuals["fixed_point"] < 1e-6
    assert np.all(sol.u > 0.0) and np.all(sol.u < 1.0)
    # symmetric data give a symmetric solution on the symmetric grid
    assert np.max(np.abs(sol.u - sol.u[::-1])) < 1e-9


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
                               f=power_nonlinearity(lambda y: np.ones_like(y), 3.0),
                               nu_plus=0.2)
    sol = f1.solve_continuum(prob)
    assert sol.residuals["fixed_point"] < 1e-6


def test_projective_exhaustion_defects_decrease(packs):
    k, grid = packs[1.0]
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(lambda y: np.ones_like(y), 3.0),
                               nest=f1.default_nest(8))
    sol = f1.solve_continuum(prob)
    defects = f1.projective_exhaustion_defects(prob, sol, probes=(0.0, 0.25))
    worst = defects.max(axis=1)
    assert worst[-1] < worst[0]
    assert worst[-1] < 5e-3


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


def test_example77_ratio_stable_under_refinement(packs):
    k, _ = packs[1.0]
    vals = []
    for grid in (f1.build_grid(1.0, order=8, n_base=6, edge_levels=16, out_levels=8),
                 f1.build_grid(1.0, order=10, n_base=12, edge_levels=22, out_levels=10)):
        prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(0.5),
                                   f=power_nonlinearity(lambda y: np.ones_like(y), 3.0),
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


def test_nest_from_potential(packs):
    k, grid = packs[1.0]
    radii = f1.nest_from_potential(k, grid, levels=6)
    assert all(0.0 < r < 1.0 for r in radii)
    assert all(b > a for a, b in zip(radii, radii[1:]))
