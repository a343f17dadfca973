import numpy as np
import pytest

from dirichlet_lab import frac1d as f1
from dirichlet_lab.potential import green_apply
from dirichlet_lab.semilinear import ProblemSpec, power_nonlinearity, solve
from dirichlet_lab.suite import random_form, random_problem
from dirichlet_lab.trace import (aitken, killing_part, killing_part_frac,
                                 trace_sequence_frac, trace_sequence_graph)
from paper_checks import random_nested_subsets


def test_killing_part_k3(k3):
    kd = killing_part(k3, [1, 2])
    assert kd.tolist() == [0.0, 1.0, 0.0]


def test_killing_part_state_without_exit():
    # interior state with no edge out of D and no killing contributes nothing
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = 0.5
    J[1, 2] = J[2, 1] = 0.5
    form_loc = __import__("dirichlet_lab").DiscreteForm(m=np.ones(3), J=J,
                                                        kappa=np.array([1.0, 0.0, 0.0]))
    kd = killing_part(form_loc, [1, 2])
    assert kd[2] == 0.0 and kd[1] == 1.0


def test_killing_potential_is_one_on_domain():
    # fixes the pair-counting factor: the potential of the killing part is
    # the probability of leaving by an interior jump or death, which is one
    rng = np.random.default_rng(24)
    for _ in range(50):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        pot = green_apply(form, V, killing_part(form, V))
        assert np.max(np.abs(pot[V] - 1.0)) < 1e-10


def test_graph_trace_terminal_level_exactly_zero(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.zeros(3), f=power_nonlinearity(np.ones(3), 3.0),
                       nest=([1], [1, 2]))
    sol = solve(spec)
    seq = trace_sequence_graph(sol.u, k3, spec.D, spec.nest)
    assert np.max(np.abs(seq.values[-1])) == 0.0



def test_frac_trace_probes_outside_a_level_read_u():
    # a probe that has not entered a level reads |u| at itself: one call of
    # u_fn on all such probes gives each probe's own value bit for bit
    k = f1.build_kernels(1.2)
    probes = np.array([0.0, 0.5, -0.5, 0.9, -0.9])
    u_fn = lambda y: np.cos(3.0 * np.asarray(y)) - 0.5  # noqa: E731
    # each probe but the centre is outside a level, and enters three or more
    radii = (0.3, 0.7, 0.92, 0.95, 0.97)
    seq = trace_sequence_frac(k, u_fn, radii, probes=probes)
    for level, a in enumerate(radii):
        for j in np.flatnonzero(np.abs(probes) >= a):
            assert seq.values[level, j] == abs(u_fn(probes[j:j + 1])[0])


def test_frac_trace_refuses_a_probe_with_fewer_than_three_levels():
    # Aitken needs a tail of three levels: at (0.3, 0.7, 0.95) the default
    # probes +-0.5 enter two and +-0.9 one, refused before u is read
    def u_fn(y):
        raise AssertionError("u_fn called on a refused nest")

    with pytest.raises(ValueError, match="fewer than three levels") as err:
        trace_sequence_frac(f1.build_kernels(1.2), u_fn, (0.3, 0.7, 0.95))
    assert "0.95" in str(err.value) and "0.9: 1" in str(err.value) and "0.5: 2" in str(err.value)


def test_graph_trace_reports_terminal_level_as_limit():
    # a finite nest ending at D has no tail to extrapolate: its limit is the
    # last level (exactly 0 at D), not an Aitken value of the three levels
    rng = np.random.default_rng(4)
    spec = random_problem(rng)
    order = rng.permutation(spec.D)
    nest = tuple(np.sort(order[:k]) for k in (spec.D.size // 3, 2 * spec.D.size // 3))
    spec = ProblemSpec(form=spec.form, D=spec.D, g=spec.g, mu=spec.mu, f=spec.f,
                       nest=nest + (spec.D,))
    seq = trace_sequence_graph(solve(spec).u, spec.form, spec.D, spec.nest)
    assert seq.values.shape[0] == 3
    assert np.array_equal(seq.extrapolated, seq.values[-1])


def test_graph_trace_needs_nest(k3):
    with pytest.raises(ValueError):
        trace_sequence_graph(np.zeros(3), k3, [1, 2], [])


def test_aitken_geometric_sequence():
    seq = [1.0 * 0.5 ** k for k in range(6)]
    assert abs(aitken(seq)) < 1e-14
    assert aitken([3.0, 3.0]) == 3.0


def test_frac_killing_part_two_routes():
    # quadrature of the jump density over the exterior vs the closed tail form
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha)
        for x in (0.0, 0.4, -0.7):
            closed = killing_part_frac(k, np.array([x]))[0]
            total = 0.0
            for (lo, hi) in ((1.0 - x, 1e9), (1.0 + x, 1e9)):
                y, w = f1._graded_panels(lo, hi, 14, 64, left=0.0)
                total += float(np.sum(w * k.j(y)))
                total += k.jump_coef * 1e9 ** (-alpha) / alpha
            assert total == pytest.approx(closed, rel=1e-8)


def test_frac_trace_decreases_for_solution():
    alpha = 1.0
    k = f1.build_kernels(alpha)
    grid = f1.build_grid(alpha)
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(1.0, 3.0))
    sol = f1.solve_continuum(prob)
    u_fn = f1.continuum_callable(prob, sol)
    seq = trace_sequence_frac(k, u_fn, f1.default_nest(16))
    tail = seq.values[-6:, 0]
    assert np.all(np.diff(tail) < 0)
    assert np.max(np.abs(seq.extrapolated)) < 1e-3


def test_frac_trace_martin_recovers_mass():
    for alpha in (0.5, 1.5):
        k = f1.build_kernels(alpha)
        def u_fn(y):
            return f1.martin_kernel(k, y, +1)

        seq = trace_sequence_frac(k, u_fn, f1.default_nest(12), probes=(0.0,),
                                  edge_exponent=alpha / 2.0 - 1.0)
        assert seq.extrapolated[0] == pytest.approx(1.0, abs=0.05)


def test_frac_trace_solved_boundary_measure_input():
    # solving with a unit boundary atom and no other data, then tracing the
    # solved output (grid interpolation included), still recovers the mass
    from dirichlet_lab.semilinear import zero_nonlinearity

    alpha = 1.5
    k = f1.build_kernels(alpha)
    grid = f1.build_grid(alpha)
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.zero_exterior(),
                               f=zero_nonlinearity(), nu_plus=1.0)
    sol = f1.solve_continuum(prob)
    u_fn = f1.continuum_callable(prob, sol)
    seq = trace_sequence_frac(k, u_fn, f1.default_nest(12), probes=(0.0,),
                              edge_exponent=alpha / 2.0 - 1.0)
    assert seq.extrapolated[0] == pytest.approx(1.0, abs=0.05)


def eta_measure(kernels, u_fn, a: float) -> float:
    """Total mass of the exit-flux measure of u across (-a, a) inside (-1, 1).

    Double integral of G_V(0, z) j(|z - y|) u(y) over z in V and y in the
    annulus a < |y| < 1; equals the exit average of u restricted to D started
    at 0, which the tests cross-check through the interval kernel route.
    """
    alpha = kernels.alpha
    # outer rule in z: graded toward +-a, where the Green factor vanishes
    # like dist^(alpha/2) but the inner y-integral blows up like
    # dist^(-alpha), and toward the base point, where the Green factor has
    # its diagonal singularity
    diag_gamma = alpha - 1.0 if alpha < 1.0 else 0.0
    (z0, w0), (z1, w1) = f1._split_rule(-a, 0.0, a, 12, 22, -alpha / 2.0, diag_gamma)
    zx = np.concatenate([z0, z1])
    zw = np.concatenate([w0, w1])
    # inner rule in y: graded toward +-a, where j(|z - y|) peaks as z nears +-a
    annulus = (f1._graded_panels(a, 1.0, 12, 36, left=0.0),
               f1._graded_panels(-1.0, -a, 12, 36, right=0.0))
    total = 0.0
    for z, wz in zip(zx, zw):
        # the Green function of (-a, a) by stable scaling
        gv = a ** (alpha - 1.0) * kernels.green(0.0, z / a)
        inner = 0.0
        for yx, yw in annulus:
            inner += float(np.sum(yw * kernels.j(np.abs(z - yx)) * u_fn(yx)))
        total += wz * gv * inner
    return float(total)


def test_eta_measure_zero_and_constant():
    alpha = 1.0
    k = f1.build_kernels(alpha)
    a = 0.5
    assert eta_measure(k, lambda y: np.zeros_like(y), a) == 0.0
    # two-route check: total flux of 1 equals the exit probability into the annulus
    mass = eta_measure(k, lambda y: np.ones_like(y), a)
    kernel_route = f1.apply_PV_interval(k, a, lambda y: np.ones_like(y), 0.0)
    assert mass == pytest.approx(kernel_route, abs=2e-4)
    assert 0.0 < mass < 1.0


def test_eta_measure_cross_route_solution():
    alpha = 1.0
    k = f1.build_kernels(alpha)
    grid = f1.build_grid(alpha)
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(1.0, 3.0))
    sol = f1.solve_continuum(prob)
    u_fn = f1.continuum_callable(prob, sol)
    def u_abs(y):
        return np.abs(u_fn(y))
    masses = []
    for a in (0.5, 0.75, 0.9375, 0.996094):
        m = eta_measure(k, u_abs, a)
        route = f1.apply_PV_interval(k, a, u_abs, 0.0)
        assert m == pytest.approx(route, abs=3e-4)
        masses.append(m)
    assert masses[-1] < masses[0]  # flux dies off for solutions
