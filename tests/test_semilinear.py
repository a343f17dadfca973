import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dirichlet_lab import (DiscreteForm, Nonlinearity, ProblemSpec,
                           apriori_report, exp_nonlinearity, harmonic_extension,
                           power_nonlinearity, project, residual_probabilistic, solve,
                           table_nonlinearity, vd_check, verify_projective,
                           very_weak_defect, zero_nonlinearity)
from dirichlet_lab import frac1d, semilinear
from dirichlet_lab.potential import green_apply, green_operator
from dirichlet_lab.suite import random_form, random_ordered_pair, random_problem
import paper_checks
from paper_checks import LadderConfig, compare, is_excessive, solve_by_ladder, stability_gap

# independent 50-digit root of the 2-unknown cubic system on the killed chain
# (u1 = 1 - u1^3 - u2^3, u2 = 1 - u1^3 - 2 u2^3), recomputed below at test time
CUBIC_U1 = 0.62724902379495162006
CUBIC_U2 = 0.50128374267797422222


def _cubic_spec(k3):
    return ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.zeros(3), f=power_nonlinearity(np.ones(3), 3.0))


def test_linear_case_gives_harmonic_extension(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.zeros(3), f=zero_nonlinearity())
    sol = solve(spec)
    assert np.max(np.abs(sol.u - harmonic_extension(k3, [1, 2], spec.g))) < 1e-12
    assert sol.converged


def test_linear_absorption_matches_direct_solve(k3):
    # f(x, y) = -y turns the fixed point into (I + G) u = G-potential of mu
    D = np.array([1, 2])
    mu = np.array([0.0, 1.0, 0.0])
    spec = ProblemSpec(form=k3, D=D, g=np.zeros(3), mu=mu,
                       f=power_nonlinearity(np.ones(3), 1.0))
    sol = solve(spec)
    G = green_operator(k3, D)
    direct = np.linalg.solve(np.eye(2) + G, green_apply(k3, D, mu)[D])
    assert np.max(np.abs(sol.u[D] - direct)) < 1e-10


def test_cubic_against_high_precision_root(k3):
    spec = _cubic_spec(k3)
    sol = solve(spec)
    # brute-force oracle: damped Newton on the explicit 2-unknown system
    from mpmath import mp, findroot, mpf
    mp.dps = 40
    r = findroot(lambda u1, u2: (u1 - 1 + u1 ** 3 + u2 ** 3,
                                 u2 - 1 + u1 ** 3 + 2 * u2 ** 3),
                 (mpf("0.6"), mpf("0.5")))
    assert abs(float(r[0]) - CUBIC_U1) < 1e-15
    assert abs(float(r[1]) - CUBIC_U2) < 1e-15
    assert sol.u[1] == pytest.approx(CUBIC_U1, abs=1e-10)
    assert sol.u[2] == pytest.approx(CUBIC_U2, abs=1e-10)
    assert sol.u[0] == 1.0  # exterior condition imposed exactly
    assert sol.residuals["fixed_point"] < 1e-8


def test_monotonicity_rejected_up_front(k3):
    bad = power_nonlinearity(np.ones(3), 3.0)
    increasing = type(bad)(fn=lambda pts, y: np.asarray(y) ** 3, name="bad")
    with pytest.raises(ValueError):
        ProblemSpec(form=k3, D=[1, 2], g=np.zeros(3), mu=np.zeros(3), f=increasing)
    grid = frac1d.build_grid(1.0, order=6, n_base=4, edge_levels=10, out_levels=6)
    with pytest.raises(ValueError, match="nonincreasing"):
        frac1d.ContinuumProblem(kernels=frac1d.build_kernels(1.0), grid=grid,
                                g=frac1d.const_exterior(1.0), f=increasing)


def test_residual_probabilistic_detects_perturbation(k3):
    spec = _cubic_spec(k3)
    sol = solve(spec)
    assert residual_probabilistic(sol.u, spec) < 1e-8
    eps = 1e-3
    u_bad = sol.u.copy()
    u_bad[1] += eps
    # the defect is at least eps minus the Lipschitz feedback of the map
    assert residual_probabilistic(u_bad, spec) > 0.5 * eps


def test_residual_linear_case_zero(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([2.0, 0.0, 0.0]),
                       mu=np.array([0.0, -0.3, 0.8]), f=zero_nonlinearity())
    sol = solve(spec)
    assert residual_probabilistic(sol.u, spec) < 1e-12


def test_verify_projective_solution_and_violator(k3):
    spec = _cubic_spec(k3)
    sol = solve(spec)
    rep = verify_projective(sol.u, spec)
    assert max(rep.values()) < 1e-8
    u_bad = sol.u + np.array([0.0, 0.05, 0.0])
    rep_bad = verify_projective(u_bad, spec)
    assert rep_bad["variational"] > 1e-3
    assert residual_probabilistic(u_bad, spec) > 1e-3


def test_verify_projective_nontrivial_nest(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.array([0.0, 0.2, 0.1]),
                       f=power_nonlinearity(np.ones(3), 2.0), nest=([1], [1, 2]))
    sol = solve(spec)
    rep = verify_projective(sol.u, spec)
    assert max(rep.values()) < 1e-8


def test_equivalence_both_directions_random():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = random_problem(rng)
        sol = solve(spec)
        rep = verify_projective(sol.u, spec)
        res = residual_probabilistic(sol.u, spec)
        assert res < 1e-8 and max(rep.values()) < 1e-8
        z = spec.D[0]
        u_bad = sol.u.copy()
        u_bad[z] += 0.2
        assert residual_probabilistic(u_bad, spec) > 1e-6
        assert verify_projective(u_bad, spec)["variational"] > 1e-6


def test_compare_identical(k3):
    spec = _cubic_spec(k3)
    rep = compare(spec, spec)
    assert rep["checked"] and rep["ordered"]
    assert rep["max_violation"] < 1e-12


def test_compare_extra_atom(k3):
    s1 = _cubic_spec(k3)
    mu2 = s1.mu.copy()
    mu2[2] += 0.4
    s2 = ProblemSpec(form=k3, D=s1.D, g=s1.g, mu=mu2, f=s1.f)
    rep = compare(s1, s2)
    assert rep["checked"] and rep["ordered"]


def test_compare_precondition_violation(k3):
    s1 = _cubic_spec(k3)
    mu2 = s1.mu.copy()
    mu2[2] -= 0.4
    s2 = ProblemSpec(form=k3, D=s1.D, g=s1.g, mu=mu2, f=s1.f)
    rep = compare(s1, s2)
    assert not rep["checked"] and "mu" in rep["precondition"]


@pytest.mark.parametrize("change, precondition", [
    ("form", "forms differ"),
    ("D", "domains differ"),
    ("g", "g ordering violated on harmonic boundary"),
    ("f", "absorption ordering violated"),
])
def test_compare_reports_each_precondition(k3, change, precondition):
    # spec 2 breaks one hypothesis of the comparison theorem: another form
    # or domain, smaller data on the harmonic boundary {0} of D = {1, 2}, or
    # stronger absorption, -2 u^3 < -u^3 along both solutions (u > 0 on D)
    s1 = _cubic_spec(k3)
    form2 = DiscreteForm(m=k3.m, J=2.0 * k3.J, kappa=k3.kappa)
    s2 = ProblemSpec(form=form2 if change == "form" else k3,
                     D=[1] if change == "D" else s1.D,
                     g=np.zeros(3) if change == "g" else s1.g, mu=s1.mu,
                     f=power_nonlinearity(np.full(3, 2.0), 3.0) if change == "f" else s1.f)
    rep = compare(s1, s2)
    assert not rep["checked"] and not rep["ordered"]
    assert rep["precondition"] == precondition


def test_compare_random_ordered_pairs():
    rng = np.random.default_rng(18)
    for _ in range(30):
        s1, s2 = random_ordered_pair(rng)
        rep = compare(s1, s2)
        assert rep["checked"]
        assert rep["ordered"], rep
        assert rep["max_violation"] <= 1e-9


def test_apriori_linear_reduces_to_kernel_bound(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([-1.5, 0.0, 0.0]),
                       mu=np.zeros(3), f=zero_nonlinearity())
    sol = solve(spec)
    rep = apriori_report(sol.u, spec)
    assert max(rep.values()) < 1e-9


def test_apriori_cubic(k3):
    spec = _cubic_spec(k3)
    sol = solve(spec)
    rep = apriori_report(sol.u, spec)
    assert max(rep.values()) < 1e-9


def test_apriori_pure_absorption_identity(k3):
    # g = 0 and f = -y: the shifted bound reads |u| + R|u| <= R|mu|
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.zeros(3), mu=np.array([0.0, 0.7, 0.2]),
                       f=power_nonlinearity(np.ones(3), 1.0))
    sol = solve(spec)
    rep = apriori_report(sol.u, spec)
    assert max(rep.values()) < 1e-9
    lhs = np.abs(sol.u) + green_apply(k3, spec.D, np.abs(sol.u) * k3.m)
    rhs = green_apply(k3, spec.D, np.abs(spec.mu))
    assert np.max((lhs - rhs)[spec.D]) < 1e-9


def test_apriori_random():
    rng = np.random.default_rng(19)
    for _ in range(25):
        spec = random_problem(rng)
        sol = solve(spec)
        rep = apriori_report(sol.u, spec)
        assert max(rep.values()) < 1e-9


def test_apriori_weight_is_one_on_large_jump_weights():
    # 40-state cycles with jumps near 1e4 and no killing: A_DD 1 >= 0 holds
    # exactly, but its rounding dips below is_excessive's cut on most of them;
    # the weighted bound must still use the constant one
    rounded_away = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 40
        J = np.zeros((n, n))
        for i, w in enumerate(rng.uniform(0.5, 1.5, n) * 1e4):
            J[i, (i + 1) % n] = J[(i + 1) % n, i] = w
        form = DiscreteForm(m=rng.uniform(0.5, 2.0, n), J=J, kappa=np.zeros(n))
        D = np.arange(1, n)
        mu = np.zeros(n)
        mu[D] = rng.uniform(-0.5, 0.5, n - 1)
        spec = ProblemSpec(form=form, D=D, g=rng.uniform(-1.0, 1.0, n), mu=mu,
                           f=power_nonlinearity(np.ones(n), 3.0))
        rounded_away += not is_excessive(form, D, np.ones(n))
        u = solve(spec).u
        rep = apriori_report(u, spec)
        fu, fpdg = np.abs(spec.f(D, u[D])), np.abs(spec.f(D, spec.pdg[D]))
        ones_bound = (np.sum(fu * form.m[D]) - 2.0 * np.sum(fpdg * form.m[D])
                      - np.sum(np.abs(mu[D])))
        assert rep["weighted_norm"] == pytest.approx(ones_bound, rel=1e-12, abs=1e-12)
        assert max(rep.values()) < 1e-9
    assert rounded_away > 0


def test_stability_strong_needs_the_same_absorption(k3):
    # power[3.0] names both absorptions; with different b the strong bound
    # does not apply, and evaluating it with spec1.f at both solutions
    # reports a violation that is not there
    s1 = _cubic_spec(k3)
    s2 = ProblemSpec(form=k3, D=s1.D, g=s1.g, mu=s1.mu,
                     f=power_nonlinearity(np.array([1.0, 5.0, 5.0]), 3.0))
    assert s1.f.name == s2.f.name
    rep = stability_gap(s1, s2)
    assert set(rep) == {"stability"} and rep["stability"] < 1e-9
    # equal parameters in separate objects are the same absorption
    s3 = ProblemSpec(form=k3, D=s1.D, g=s1.g, mu=s1.mu + np.array([0.0, 0.3, 0.0]),
                     f=power_nonlinearity(np.ones(3), 3.0))
    rep = stability_gap(s1, s3)
    assert set(rep) == {"stability", "stability_strong"} and max(rep.values()) < 1e-9


def test_stability_identical_and_perturbed(k3):
    s1 = _cubic_spec(k3)
    rep = stability_gap(s1, s1)
    assert rep["stability"] < 1e-9 and rep["stability_strong"] < 1e-9
    mu2 = s1.mu.copy()
    mu2[1] += 0.3
    s2 = ProblemSpec(form=k3, D=s1.D, g=s1.g, mu=mu2, f=s1.f)
    rep = stability_gap(s1, s2)
    assert rep["stability"] < 1e-9
    # explicit route: |u1 - u2| <= 0.3 * Green column at state 1
    u1, u2 = solve(s1).u, solve(s2).u
    col = green_apply(k3, s1.D, np.array([0.0, 1.0, 0.0]))
    assert np.max(np.abs(u1 - u2) - 0.3 * col) < 1e-9


def test_stability_exterior_perturbation(k3):
    s1 = _cubic_spec(k3)
    g2 = s1.g.copy()
    g2[0] += 0.5
    s2 = ProblemSpec(form=k3, D=s1.D, g=g2, mu=s1.mu, f=s1.f)
    rep = stability_gap(s1, s2)
    assert rep["stability"] < 1e-9
    u1, u2 = solve(s1).u, solve(s2).u
    hcol = harmonic_extension(k3, s1.D, np.array([0.5, 0.0, 0.0]))
    assert np.max((np.abs(u1 - u2) - hcol)[s1.D]) < 1e-9


def test_very_weak_solution_and_violator(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.array([0.0, 0.4, 0.0]), f=zero_nonlinearity())
    sol = solve(spec)
    rep = very_weak_defect(sol.u, spec)
    assert rep["identity"] < 1e-9
    assert rep["harmonic_pairing"] < 1e-9
    bad = sol.u + np.array([0.0, 0.0, 0.1])
    assert very_weak_defect(bad, spec)["identity"] > 1e-3


def test_very_weak_random_solved():
    rng = np.random.default_rng(20)
    for _ in range(25):
        spec = random_problem(rng)
        sol = solve(spec)
        rep = very_weak_defect(sol.u, spec, probe=rng.normal(size=spec.form.n))
        assert rep["identity"] < 1e-9
        assert rep["harmonic_pairing"] < 1e-9


def test_vd_check_requires_pure_jump(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.zeros(3), mu=np.zeros(3),
                       f=zero_nonlinearity())
    with pytest.raises(ValueError):
        vd_check(np.zeros(3), spec)


def test_vd_check_bounds_random():
    rng = np.random.default_rng(21)
    done = 0
    while done < 25:
        spec = random_problem(rng, kappa_free=True, f=zero_nonlinearity())
        if spec.D.size == spec.form.n:
            continue
        sol = solve(spec)
        rep = vd_check(sol.u, spec)
        assert rep["identity"] < 1e-9
        assert rep["norm_bound"] < 1e-9
        assert rep["kernel_contraction"] < 1e-9
        done += 1


def test_vd_check_zero_measure_trivial():
    rng = np.random.default_rng(22)
    spec = random_problem(rng, kappa_free=True, f=zero_nonlinearity())
    spec = ProblemSpec(form=spec.form, D=spec.D, g=spec.g,
                       mu=np.zeros(spec.form.n), f=spec.f)
    sol = solve(spec)
    rep = vd_check(sol.u, spec)
    assert rep["identity"] < 1e-10


def test_vd_check_forms_no_n_by_n_temporary():
    def dense_energy(J, D, u, v):  # the double sum over pairs touching D, as n x n arrays
        in_D = np.zeros(J.shape[0], dtype=bool)
        in_D[D] = True
        mask = in_D[:, None] | in_D[None, :]
        return float(np.sum((u[:, None] - u[None, :]) * (v[:, None] - v[None, :]) * J * mask))

    rng = np.random.default_rng(5)
    n = 800
    w = rng.uniform(0.2, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.1)
    J = np.triu(w, 1)
    form = DiscreteForm(m=rng.uniform(0.5, 2.0, size=n), J=J + J.T, kappa=np.zeros(n))
    D = np.sort(rng.choice(n, size=480, replace=False))
    mu = np.zeros(n)
    mu[D] = rng.uniform(0.0, 1.0, size=D.size)
    spec = ProblemSpec(form=form, D=D, g=rng.uniform(-1.0, 1.0, size=n), mu=mu,
                       f=zero_nonlinearity())
    sol = solve(spec)
    form.energy_matrix(), spec.pdg, spec.rdm  # prime the caches
    tracemalloc.start()
    try:
        rep = vd_check(sol.u, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    assert rep["identity"] < 1e-9
    for u in (sol.u, spec.pdg, spec.g):
        ref = dense_energy(form.J, spec.D, u, u)
        assert semilinear._vd_energy(form, spec.D, u, u) == pytest.approx(ref, rel=1e-12)


def test_uniqueness_shuffled_ladders_and_clamp(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.array([0.0, 0.0, 0.5]),
                       f=exp_nonlinearity(np.full(3, 0.8)))
    u1 = solve_by_ladder(spec, base=2).u
    u2 = solve_by_ladder(spec, base=3).u
    assert np.max(np.abs(u1 - u2)) < 1e-8
    diff = project(k3, spec.D, u1 - u2)
    cert = diff @ k3.energy_matrix() @ np.clip(diff, -1.0, 1.0)
    assert cert <= 1e-10


def test_ladder_monotone_ordering():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = random_problem(rng)
        sol = solve_by_ladder(spec)
        assert sol.meta["monotone_up_slack"] >= -1e-10
        assert sol.meta["monotone_down_slack"] >= -1e-10
        assert bool(sol.ladder_trace) == (not spec.f.is_zero)  # per-level counts recorded


def test_zero_absorption_forms_no_green_matrix(monkeypatch):
    # f = 0: the solve and the ladder return their base on either backend
    # without the Green matrix; the counters see the one matrix the cubic
    # graph ladder and the cubic continuum solve each build, and none for the
    # graph's Newton solve
    calls = []

    def counted(build):
        def wrapper(*args):
            calls.append(build.__name__)
            return build(*args)
        return wrapper

    monkeypatch.setattr(paper_checks, "green_operator", counted(green_operator))
    monkeypatch.setattr(frac1d, "green_matrix", counted(frac1d.green_matrix))
    spec = random_problem(np.random.default_rng(5), f=zero_nonlinearity())
    sol = solve(spec)
    expected = spec.g.copy()
    expected[spec.D] = spec.pdg[spec.D] + spec.rdm[spec.D]
    assert sol.u.tobytes() == expected.tobytes()
    assert sol.ladder_trace == [] and sol.converged
    grid = frac1d.build_grid(1.0, order=6, n_base=4, edge_levels=10, out_levels=6)
    prob = frac1d.ContinuumProblem(kernels=frac1d.build_kernels(1.0), grid=grid,
                                   g=frac1d.const_exterior(1.0), f=zero_nonlinearity())
    csol = solve(prob)
    assert csol.u.tobytes() == csol.meta["base"].tobytes() and csol.ladder_trace == []
    assert calls == []
    cubic = power_nonlinearity(1.0, 3.0)
    assert solve(replace(spec, f=cubic)).converged and calls == []
    solve_by_ladder(replace(spec, f=cubic))
    solve(replace(prob, f=cubic))
    assert calls == ["green_operator", "green_matrix"]


def test_nonconvergence_returns_best_iterate(k3, monkeypatch):
    # a one-level ladder (largest envelope 1) cannot certify stabilization:
    # the solver must come back with its best iterate and a cleared flag
    monkeypatch.setattr(paper_checks, "_MAX_ENVELOPE", 1)
    spec = _cubic_spec(k3)
    sol = solve_by_ladder(spec)
    assert not sol.converged
    assert np.all(np.isfinite(sol.u))
    assert sol.ladder_trace


def test_ladder_schedule_runs_to_the_largest_finite_envelope():
    # base**k while the envelope m**2 / (1 + m) is a finite float; base is
    # the only setting, and a base below 2 would never grow
    for base, last in ((2, 2 ** 511), (3, 3 ** 323)):
        schedule = LadderConfig(base).schedule()
        assert schedule == [base ** k for k in range(len(schedule))] and schedule[-1] == last
        assert np.isfinite(last * last / (1.0 + last))
    for base in (1, 0, True, 2.0):
        with pytest.raises(ValueError, match="ladder base must be an integer >= 2"):
            LadderConfig(base)


def test_table_nonlinearity_solves(k3):
    ys = np.linspace(-5.0, 5.0, 41)
    f = table_nonlinearity(ys, -np.tanh(ys))
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.zeros(3), f=f)
    sol = solve(spec)
    assert sol.residuals["fixed_point"] < 1e-8
    with pytest.raises(ValueError):
        table_nonlinearity(ys, np.tanh(ys))  # increasing table rejected


def test_nest_validation(k3):
    with pytest.raises(ValueError):
        ProblemSpec(form=k3, D=[1, 2], g=np.zeros(3), mu=np.zeros(3),
                    f=zero_nonlinearity(), nest=([1, 2], [1]))
    with pytest.raises(ValueError):
        ProblemSpec(form=k3, D=[1], g=np.zeros(3), mu=np.zeros(3),
                    f=zero_nonlinearity(), nest=([1, 2],))


def test_mu_support_validation(k3):
    with pytest.raises(ValueError):
        ProblemSpec(form=k3, D=[1], g=np.zeros(3), mu=np.array([0.0, 0.0, 1.0]),
                    f=zero_nonlinearity())


def test_absorption_named_zero_is_still_solved(k3):
    # zero-ness comes from zero_nonlinearity's params, not from the name: a
    # linear absorption named "zero" must not be dropped from the solve
    u = {}
    for name in ("zero", "linear"):
        f = Nonlinearity(fn=lambda pts, y: -y, name=name)
        spec = ProblemSpec(form=k3, D=[1], g=np.array([1.0, 0.0, 0.0]), mu=np.zeros(3), f=f)
        assert not f.is_zero
        sol = solve(spec)
        assert residual_probabilistic(sol.u, spec) < 1e-10
        u[name] = sol.u[1]
    # E(u, e_1) = 2 u1 - g0 = f(u1) = -u1 on the chain, so u1 = 1/3 (1/2 without f)
    assert u["zero"] == u["linear"] and abs(u["linear"] - 1.0 / 3.0) < 1e-12
    assert zero_nonlinearity().is_zero


@pytest.mark.parametrize("make, message", [
    (lambda: power_nonlinearity(1.0, 0.5), "power exponent must be >= 1"),
    (lambda: table_nonlinearity([0.0, 1.0], [1.0, 0.0, -1.0]), "1-d and matching"),
    (lambda: table_nonlinearity([[0.0, 1.0]], [[1.0, 0.0]]), "1-d and matching"),
    (lambda: table_nonlinearity([0.0, 0.0, 1.0], [1.0, 0.0, -1.0]), "strictly increasing"),
], ids=["power-p", "table-lengths", "table-2d", "table-breakpoints"])
def test_nonlinearity_refuses(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("change, message", [
    ({"g": np.zeros(2)}, "g and mu must have one entry per state"),
    ({"mu": np.zeros(4)}, "g and mu must have one entry per state"),
    ({"nest": ([1],)}, "nest must exhaust D"),
], ids=["g-length", "mu-length", "nest-short-of-D"])
def test_problem_spec_refuses(k3, change, message):
    data = dict(form=k3, D=[1, 2], g=np.zeros(3), mu=np.zeros(3), f=zero_nonlinearity())
    with pytest.raises(ValueError, match=message):
        ProblemSpec(**{**data, **change})


@pytest.mark.parametrize("g", [1e2, 1e4, 1e6])
def test_newton_converges_at_large_exterior_data(g):
    # the ladder settles here too, on envelopes up to 2**60 at g = 1e6; a cap
    # at 2**15 left g = 1e4 and 1e6 unconverged, at defects of 9.3e8 and 1.8e18
    form = random_form(np.random.default_rng(0), 40, 40)
    spec = ProblemSpec(form=form, D=np.arange(20), g=np.full(form.n, g), mu=np.zeros(form.n),
                       f=power_nonlinearity(1.0, 3.0))
    sol, ref = solve(spec), solve_by_ladder(spec)
    assert sol.converged and ref.converged
    assert sol.residuals["fixed_point"] <= 1e-10 * np.max(np.abs(sol.u))
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))


def test_newton_agrees_with_the_ladder():
    # the ladder is the reference on both backends: same u to 1e-10
    # relative, for each kind of f, and on the continuum with measure data
    rng = np.random.default_rng(29)
    table = table_nonlinearity([-2.0, -0.5, 0.0, 1.0], [3.0, 1.0, 0.0, -4.0])
    specs = []
    for _ in range(4):
        form = random_form(rng)
        b = rng.uniform(0.0, 2.0, size=form.n)
        specs += [random_problem(rng, form=form, f=f) for f in (
            power_nonlinearity(b, 3.0), power_nonlinearity(b, 1.0), exp_nonlinearity(b), table)]
    for alpha in (0.6, 1.0, 1.4):
        kernels, grid = frac1d.build_kernels(alpha), frac1d.build_grid(alpha)
        specs += [frac1d.ContinuumProblem(kernels=kernels, grid=grid, g=frac1d.const_exterior(1.0),
                                          f=f)
                  for f in (power_nonlinearity(1.0, 3.0), exp_nonlinearity(1.0), table)]
    specs.append(replace(specs[-3], mu_atoms=((0.1, 0.5),), nu_plus=0.1, nu_minus=0.05))
    for spec in specs:
        sol, ref = solve(spec), solve_by_ladder(spec)
        assert sol.converged and ref.converged
        assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))
        assert all(row["residual"] >= 0 and row["inner_iterations"] >= 1
                   for row in sol.ladder_trace)


def test_newton_replaces_its_preconditioner_when_cg_stalls(monkeypatch):
    # |D| = 80 > the CG cap, and b y^3 at y ~ 1e4 dwarfs A_DD: CG preconditioned
    # by A_DD misses, so a step factors the Newton matrix and goes on
    form = random_form(np.random.default_rng(1), 120, 120)
    spec = ProblemSpec(form=form, D=np.arange(80), g=np.full(form.n, 1e4), mu=np.zeros(form.n),
                       f=power_nonlinearity(1.0, 3.0))
    spec.pdg, spec.rdm
    factors, real = [], semilinear.cho_factor
    monkeypatch.setattr(semilinear, "cho_factor", lambda a: factors.append(1) or real(a))
    sol = solve(spec)
    assert sol.converged
    assert len(factors) == sum(row["factored"] for row in sol.ladder_trace) >= 1
    assert sol.residuals["fixed_point"] <= 1e-10 * np.max(np.abs(sol.u))


@pytest.mark.parametrize("g", [1e2, 1e4])
def test_newton_converges_for_exponential_absorption_far_from_the_solution(g):
    # a full step moves u by about one where e^u dominates: from u ~ 1e2 it
    # takes the step doubling to converge within the step cap; at 1e4 e^u
    # overflows at P_D g, and Newton starts from 0
    form = random_form(np.random.default_rng(1), 120, 120)
    spec = ProblemSpec(form=form, D=np.arange(80), g=np.full(form.n, g), mu=np.zeros(form.n),
                       f=exp_nonlinearity(1.0))
    sol = solve(spec)
    assert sol.converged
    assert sol.residuals["fixed_point"] <= 1e-10 * np.max(np.abs(sol.u))


@pytest.mark.parametrize("g", [100.0, 200.0, 300.0, 500.0, 700.0])
def test_graph_newton_starts_from_the_smaller_residual(g):
    # from the base, e^u moves u by about one per step: g = 100 took 55
    # steps, g = 200 and 300 ran out of steps or stalled, and from g = 500 on
    # ||r(base)||_2 overflowed while every entry was finite, so no step ran
    form = random_form(np.random.default_rng(1), 120, 120)
    spec = ProblemSpec(form=form, D=np.arange(80), g=np.full(form.n, g), mu=np.zeros(form.n),
                       f=exp_nonlinearity(1.0))
    sol, ref = solve(spec), solve_by_ladder(spec)
    assert sol.converged and ref.converged
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))
    if g == 100.0:
        assert len(sol.ladder_trace) <= 12


def test_norm2_is_numpys_norm_until_that_overflows():
    rng = np.random.default_rng(5)
    for scale in (0.0, 1e-300, 1.0, 1e150):
        r = scale * rng.standard_normal(50)
        assert np.isfinite(np.linalg.norm(r)) and semilinear._norm2(r) == np.linalg.norm(r)
    r = np.array([1e200, -1e200, 3.0])
    with localcontext() as ctx:
        ctx.prec = 50
        exact = float((2 * Decimal(1e200) ** 2 + 9).sqrt())
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(r))
    assert abs(semilinear._norm2(r) / exact - 1.0) <= 1e-15
    assert semilinear._norm2(np.array([np.inf, 1.0])) == np.inf
    assert semilinear._norm2(np.array([np.nan, 1.0])) == np.inf


def test_analytic_slope_of_power_and_exp():
    # -p b |y|^(p-1) and -b e^y from params; above |y| ~ 1e9 the old central
    # difference (step 1e-6) read 0.96x, 1.88x and 0 of the cubic's slope
    y = np.array([1e9, 1e10, 1e12, -1e12, -2.5, 0.0, 0.7])
    cubic = power_nonlinearity(1.0, 3.0)
    exact = -3.0 * y * y
    np.testing.assert_allclose(cubic.derivative(0.0, y), exact, rtol=1e-15, atol=0.0)
    central = Nonlinearity(fn=cubic.fn).derivative(0.0, y[:3])
    assert abs(central[1] / exact[1] - 1.0) > 0.5 and central[2] == 0.0
    b = np.array([0.5, 2.0, 0.0, 1.5])
    pts = np.array([3, 1, 0])
    yy = np.array([-4.0, 0.3, 9.0])
    np.testing.assert_allclose(power_nonlinearity(b, 1.5).derivative(pts, yy),
                               -1.5 * b[pts] * np.sqrt(np.abs(yy)), rtol=1e-15)
    np.testing.assert_allclose(exp_nonlinearity(b).derivative(pts, yy),
                               -b[pts] * np.exp(yy), rtol=1e-15)
    np.testing.assert_array_equal(power_nonlinearity(2.0, 1.0).derivative(0.0, y), -2.0)
    # a table keeps the central difference: its slope between breakpoints
    table = table_nonlinearity([-1.0, 0.0, 2.0], [1.0, 0.0, -4.0])
    np.testing.assert_allclose(table.derivative(0, np.array([-0.5, 1.0])), [-1.0, -2.0],
                               rtol=1e-6)


def test_gmres_meets_its_tolerance_on_identity_plus_compact():
    # I + K with K of rapidly decaying singular values: GMRES converges
    # superlinearly, well inside the 15 iterations a Newton step may take
    rng = np.random.default_rng(3)
    n = 200
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    P, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = np.eye(n) + (Q * 2.0 ** -np.arange(n)) @ P.T
    b = rng.standard_normal(n)
    for tol in (1e-6, 1e-10, 1e-13):
        x, its, met = semilinear._gmres(lambda p: A @ p, b, tol * np.linalg.norm(b), 40)
        assert met and its <= 10
        assert np.linalg.norm(b - A @ x) <= 1.01 * tol * np.linalg.norm(b)
    x, its, met = semilinear._gmres(lambda p: A @ p, b, 1e-13 * np.linalg.norm(b), 3)
    assert its == 3 and not met
    x, its, met = semilinear._gmres(lambda p: A @ p, np.zeros(n), 0.0, 5)
    assert met and its == 0 and not x.any()


def _continuum_cubic(alpha, g=1.0, b=1.0):
    return frac1d.ContinuumProblem(kernels=frac1d.build_kernels(alpha),
                                   grid=frac1d.build_grid(alpha),
                                   g=frac1d.const_exterior(g), f=power_nonlinearity(b, 3.0))


def test_ladder_without_inner_convergence_is_not_converged(monkeypatch):
    # level solves that stall above their tolerance leave the iterates equal,
    # which the settle rule alone took for convergence
    prob = _continuum_cubic(1.2)
    assert solve_by_ladder(prob).converged
    monkeypatch.setattr(semilinear, "_newton_fixed_point", lambda u, *args: (u, {
        "inner_iterations": 0, "residual": 1.0, "krylov_iterations": 0, "dense_steps": 0},
        False))
    sol = solve_by_ladder(prob)
    assert not sol.converged and sol.residuals["fixed_point"] > 0.1


@pytest.mark.parametrize("alpha", [0.6, 1.2, 1.4])
def test_ladder_newton_steps_by_gmres_match_dense_steps(alpha, monkeypatch):
    # every Newton step of the cubic ladder meets its GMRES tolerance, and the
    # ladder matches the one whose every step is a dense LU solve; g and b at
    # the top of the benchmark's ranges
    prob = _continuum_cubic(alpha, g=1.5, b=2.0)
    sol = solve_by_ladder(prob)
    assert sol.converged
    assert sum(row["krylov_iterations"] for row in sol.ladder_trace) > 0
    assert sum(row["dense_steps"] for row in sol.ladder_trace) == 0
    for row in sol.ladder_trace:
        assert all(type(v) in (int, float) for v in row.values()), row
    monkeypatch.setattr(semilinear, "_gmres", lambda matvec, b, tol, cap: (b, 0, False))
    ref = solve_by_ladder(prob)
    assert ref.converged and sum(row["dense_steps"] for row in ref.ladder_trace) > 0
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-12 * np.max(np.abs(ref.u))


def test_a_missed_krylov_step_makes_the_inner_solve_dense(monkeypatch):
    # with the cap at 1 no step meets the GMRES tolerance: each Newton step
    # is an LU solve, the rest of its solve stays dense, and the solve lands
    # where GMRES steps take it.  This is the default solve from the base:
    # the cubic's Jacobian at 0, and a ladder level's where f is clipped at
    # every node, is the identity, which one GMRES iteration solves exactly
    prob = _continuum_cubic(1.2, g=0.5, b=2.0)
    sol = frac1d.solve_continuum(prob)
    calls, real = [], semilinear._gmres

    def counted(*args):
        out = real(*args)
        calls.append(out[2])
        return out

    monkeypatch.setattr(semilinear, "_MAX_KRYLOV", 1)
    monkeypatch.setattr(semilinear, "_gmres", counted)
    dense = frac1d.solve_continuum(prob)
    assert dense.converged and calls and not any(calls)
    newton_levels = [row for row in dense.ladder_trace if row["dense_steps"]]
    assert len(calls) == len(newton_levels) == sum(row["krylov_iterations"]
                                                    for row in dense.ladder_trace)
    assert sum(row["dense_steps"] for row in dense.ladder_trace) > len(calls)
    assert np.max(np.abs(sol.u - dense.u)) <= 1e-12 * np.max(np.abs(sol.u))
