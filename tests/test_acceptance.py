"""Acceptance suite: one test per shipped guarantee, printed as a ledger.

Every criterion pins its tolerance here; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -s`` to see the
one-line verdicts.
"""

import time

import numpy as np

from dirichlet_lab import (LadderConfig, apriori_report, exit_second_moment, exp_nonlinearity,
                           harmonic_extension, poisson_kernel, power_nonlinearity, project,
                           residual_probabilistic, solve, vd_check, verify_projective,
                           very_weak_defect, zero_nonlinearity)
from dirichlet_lab import frac1d as f1
from dirichlet_lab import wos
from dirichlet_lab.chain_sim import mc_estimate
from dirichlet_lab.potential import green_apply
from dirichlet_lab.suite import random_form, random_ordered_pair, random_problem
from dirichlet_lab.trace import trace_sequence_frac, trace_sequence_graph
from paper_checks import compare, dynkin_defect, random_nested_subsets, stability_gap


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        form = random_form(rng, 5, 50)
        V, W = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[W] = rng.normal(size=W.size)
        worst = max(worst, dynkin_defect(form, V, W, mu))
        PV = poisson_kernel(form, V)
        PW = poisson_kernel(form, W)
        g = rng.normal(size=form.n)
        worst = max(worst, float(np.max(np.abs(PV @ (PW @ g) - PW @ g))))
        worst = max(worst, float(np.max(np.abs(PV @ PW - PW))))
        u = rng.normal(size=form.n)
        pr = project(form, W, u)
        worst = max(worst, float(np.max(np.abs((form.energy_matrix() @ (u - pr))[W]))))
        worst = max(worst, float(max(np.max(PV.sum(axis=1)) - 1.0, 0.0)))
        worst = max(worst, float(max(-np.min(PV), 0.0)))
        worst = max(worst, float(np.max(np.abs(PV[:, V]), initial=0.0)))
    dt = time.perf_counter() - t0
    _verdict(1, worst < 1e-10 and dt < 10.0,
             f"exact identities on 100 random forms: worst defect {worst:.2e}, {dt:.1f}s")


def _instance_bank(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_problem(rng) for _ in range(count)]


def test_criterion_02_equivalence():
    t0 = time.perf_counter()
    worst_sol = 0.0
    violators_ok = True
    for spec in _instance_bank(1002, 50):
        sol = solve(spec)
        rep = verify_projective(sol.u, spec)
        res = residual_probabilistic(sol.u, spec)
        worst_sol = max(worst_sol, res, *rep.values())
        bad = sol.u.copy()
        bad[spec.D[0]] += 0.25
        violators_ok &= residual_probabilistic(bad, spec) > 1e-8
        violators_ok &= verify_projective(bad, spec)["variational"] > 1e-8
    dt = time.perf_counter() - t0
    _verdict(2, worst_sol < 1e-8 and violators_ok and dt < 30.0,
             f"equivalence on 50 instances: worst defect {worst_sol:.2e}, "
             f"violators rejected {violators_ok}, {dt:.1f}s")


def test_criterion_03_existence_uniqueness():
    rng = np.random.default_rng(1003)
    worst_gap = 0.0
    worst_cert = -np.inf
    all_converged = True
    for make in (lambda b: power_nonlinearity(b, 3.0),
                 lambda b: exp_nonlinearity(b),
                 lambda b: power_nonlinearity(b, 2.0)):
        for _ in range(5):
            form = random_form(rng, 5, 25)
            spec = random_problem(rng, form, f=make(rng.uniform(0.1, 1.0, size=form.n)))
            s1 = solve(spec, LadderConfig(base=2))
            s2 = solve(spec, LadderConfig(base=3))
            all_converged &= s1.converged and s2.converged
            worst_gap = max(worst_gap, float(np.max(np.abs(s1.u - s2.u))))
            diff = project(spec.form, spec.D, s1.u - s2.u)
            worst_cert = max(worst_cert,
                             diff @ spec.form.energy_matrix() @ np.clip(diff, -1.0, 1.0))
    _verdict(3, all_converged and worst_gap < 1e-8 and worst_cert <= 1e-10,
             f"truncation ladder: converged {all_converged}, shuffled-schedule gap "
             f"{worst_gap:.2e}, clamp certificate {worst_cert:.2e}")


def test_criterion_04_comparison():
    rng = np.random.default_rng(1004)
    violations = 0
    worst = 0.0
    for _ in range(100):
        s1, s2 = random_ordered_pair(rng)
        rep = compare(s1, s2)
        if not (rep["checked"] and rep["ordered"]):
            violations += 1
        worst = max(worst, rep["max_violation"])
    _verdict(4, violations == 0 and worst <= 1e-9,
             f"comparison on 100 ordered pairs: violations {violations}, "
             f"worst overshoot {worst:.2e}")


def test_criterion_05_apriori_stability():
    rng = np.random.default_rng(1005)
    worst = -np.inf
    for spec in _instance_bank(1005, 25):
        sol = solve(spec)
        rep = apriori_report(sol.u, spec)
        worst = max(worst, *rep.values())
    for _ in range(15):
        s1, s2 = random_ordered_pair(rng)
        rep = stability_gap(s1, s2)
        worst = max(worst, *rep.values())
    _verdict(5, worst <= 1e-9,
             f"a-priori and stability bounds: worst pointwise defect {worst:.2e}")


def test_criterion_06_second_moment():
    rng = np.random.default_rng(1006)
    worst = -np.inf
    for _ in range(100):
        form = random_form(rng, 5, 30)
        V, _ = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[V] = rng.uniform(0.0, 1.0, size=V.size)
        exact, bound = exit_second_moment(form, V, mu)
        worst = max(worst, float(np.max(exact) - bound))
    mc_ok = True
    for k, seed in enumerate((61, 62, 63)):
        form = random_form(np.random.default_rng(600 + k), 6, 15)
        spec = random_problem(np.random.default_rng(700 + k), form)
        mu = np.abs(spec.mu)
        exact, _ = exit_second_moment(form, spec.D, mu)
        x = int(spec.D[0])
        [(est, se)] = mc_estimate(("second_moment",), form, spec.D, x,
                                  n_paths=100_000, seed=seed, mu=mu)
        mc_ok &= abs(est - exact[x]) <= 3 * max(se, 1e-12)
    _verdict(6, worst <= 1e-10 and mc_ok,
             f"second-moment identity: worst bound defect {worst:.2e}, "
             f"Monte Carlo 3-sigma agreement {mc_ok}")


def test_criterion_07_mc_oracles():
    failures = 0
    for run in range(100):
        rng = np.random.default_rng(7000 + run)
        form = random_form(rng, 5, 20)
        spec = random_problem(rng, form)
        sol = solve(spec)
        x = int(spec.D[0])
        ok = True
        pd_exact = float(harmonic_extension(form, spec.D, spec.g)[x])
        [(est, se)] = mc_estimate(("PDg",), form, spec.D, x, n_paths=100_000,
                                  seed=3 * run, g=spec.g)
        ok &= abs(est - pd_exact) <= 3 * max(se, 1e-9)
        h = rng.uniform(0.0, 1.0, size=form.n)
        rd_exact = float(green_apply(form, spec.D, h * form.m)[x])
        [(est, se)] = mc_estimate(("RDf",), form, spec.D, x, n_paths=100_000,
                                  seed=3 * run + 1, h=h)
        ok &= abs(est - rd_exact) <= 3 * max(se, 1e-9)
        [(est, se)] = mc_estimate(("FK_residual",), form, spec.D, x, n_paths=100_000,
                                  seed=3 * run + 2, g=spec.g, mu=spec.mu, u=sol.u, f=spec.f)
        ok &= abs(est) <= 3 * max(se, 1e-9)
        failures += not ok
    kern = f1.build_kernels(1.0)
    pmin = 1.0
    for j, x in enumerate((0.0, 0.4, -0.7)):
        _, p = wos.wos_exit_chi2(kern, x, n_paths=100_000, seed=71 + j)
        pmin = min(pmin, p)
    _verdict(7, failures <= 1 and pmin > 0.001,
             f"Monte Carlo oracles: {100 - failures}/100 chain runs within 3 sigma, "
             f"worst walk exit-law p-value {pmin:.4f}")


def test_criterion_08_continuum_scaling():
    detail = []
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        t0 = time.perf_counter()
        k = f1.build_kernels(alpha)
        grid = f1.build_grid(alpha)
        deltas = 2.0 ** -np.arange(3, 10, dtype=float)
        vals = f1.apply_RD(k, grid, h=lambda y: np.ones_like(y), x=1.0 - deltas)
        slope_t = float(np.polyfit(np.log(deltas), np.log(vals), 1)[0])
        d2 = 2.0 ** -np.arange(5, 13, dtype=float)
        slope_p = float(np.polyfit(np.log(d2), np.log(k.poisson(1.0 - d2, 3.0)), 1)[0])
        dt = time.perf_counter() - t0
        ok &= abs(slope_t - alpha / 2) < 0.05 and abs(slope_p - alpha / 2) < 0.05 and dt < 120.0
        detail.append(f"a={alpha}: exit {slope_t:.3f}, density {slope_p:.3f}, {dt:.1f}s")
    _verdict(8, ok, "boundary-distance exponents within 0.05 of a/2 [" + "; ".join(detail) + "]")


def test_criterion_09_boundary_trace():
    # discrete: terminal nest level reaches D, the trace vanishes exactly
    rng = np.random.default_rng(1009)
    discrete_ok = True
    for _ in range(10):
        spec = random_problem(rng)
        sol = solve(spec)
        seq = trace_sequence_graph(sol.u, spec.form, spec.D, spec.nest)
        discrete_ok &= float(np.max(np.abs(seq.values[-1]))) == 0.0
    # continuum solver outputs: extrapolated trace below 1e-3
    k = f1.build_kernels(1.0)
    grid = f1.build_grid(1.0)
    worst_cont = 0.0
    for prob in (
            f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                                f=power_nonlinearity(1.0, 3.0)),
            f1.ContinuumProblem(kernels=k, grid=grid, g=f1.indicator_exterior(1.0, 3.0),
                                f=zero_nonlinearity())):
        sol = f1.solve_continuum(prob)
        u_fn = f1.continuum_callable(prob, sol)
        seq = trace_sequence_frac(k, u_fn, f1.default_nest(16))
        worst_cont = max(worst_cont, float(np.max(np.abs(seq.extrapolated))))
    # pure boundary-measure input recovers its mass at the base point
    mass_err = 0.0
    for alpha in (0.5, 1.5):
        ka = f1.build_kernels(alpha)
        def u_fn(y):
            return f1.martin_kernel(ka, y, +1)
        seq = trace_sequence_frac(ka, u_fn, f1.default_nest(12), probes=(0.0,),
                                  edge_exponent=alpha / 2.0 - 1.0)
        mass_err = max(mass_err, abs(float(seq.extrapolated[0]) - 1.0))
    _verdict(9, discrete_ok and worst_cont < 1e-3 and mass_err < 0.05,
             f"boundary trace: discrete exact zero {discrete_ok}, continuum "
             f"extrapolated {worst_cont:.2e}, boundary-mass recovery error {mass_err:.3f}")


def test_criterion_10_weak_layers():
    rng = np.random.default_rng(1010)
    worst_vd = -np.inf
    done = 0
    while done < 50:
        spec = random_problem(rng, kappa_free=True, f=zero_nonlinearity())
        if spec.D.size == spec.form.n:
            continue
        sol = solve(spec)
        rep = vd_check(sol.u, spec)
        worst_vd = max(worst_vd, rep["identity"], rep["norm_bound"],
                       rep["kernel_contraction"])
        done += 1
    worst_vw = 0.0
    for spec in _instance_bank(1011, 25):
        sol = solve(spec)
        rep = very_weak_defect(sol.u, spec)
        worst_vw = max(worst_vw, rep["identity"], rep["harmonic_pairing"])
    _verdict(10, worst_vd <= 1e-9 and worst_vw < 1e-9,
             f"weak layers on kappa-free instances: worst defect {worst_vd:.2e}; "
             f"very-weak pairing defect {worst_vw:.2e}")
