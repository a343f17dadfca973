import math

import numpy as np
import pytest

from dirichlet_lab import DiscreteForm, exit_second_moment
from dirichlet_lab.chain_sim import (exit_law_chi2, mc_estimate, sample_path, simulate_batch)
from dirichlet_lab.potential import green_operator
from dirichlet_lab.rng import chisquare
from dirichlet_lab.semilinear import ProblemSpec, power_nonlinearity, solve
from dirichlet_lab.suite import random_form, random_problem


def test_same_seed_same_path(k3):
    p1 = sample_path(k3, [1, 2], 1, rng_seed=7)
    p2 = sample_path(k3, [1, 2], 1, rng_seed=7)
    assert p1.states == p2.states
    assert np.array_equal(p1.holdings, p2.holdings)
    assert p1.exit_cause == p2.exit_cause
    p3 = sample_path(k3, [1, 2], 1, rng_seed=8)
    assert p1.states != p3.states or not np.array_equal(p1.holdings, p3.holdings)


def test_single_state_holding_time_law():
    # lone state with exit edges only: one exponential holding time whose
    # rate is the total outgoing rate
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = 0.6
    J[1, 2] = J[2, 1] = 0.9
    form = DiscreteForm(m=np.array([1.0, 2.0, 1.0]), J=J, kappa=np.zeros(3))
    rate = (2 * 0.6 + 2 * 0.9) / 2.0  # jump rates out of state 1
    _, occ = simulate_batch(form, [1], 1, 100_000, seed=1)
    hold = occ[:, 0]
    mean, se = hold.mean(), hold.std(ddof=1) / np.sqrt(hold.size)
    assert abs(mean - 1.0 / rate) < 3 * se
    # exponential law: variance equals the squared mean (moment-based band)
    v = hold.var(ddof=1)
    m4 = np.mean((hold - mean) ** 4)
    se_var = np.sqrt(max(m4 - v ** 2, 0.0) / hold.size)
    assert abs(v - 1.0 / rate ** 2) < 3 * se_var


def test_death_frequency_matches_rate_split(two_state):
    # from state 0: jump rate 1.0, death rate 1.0 -> death half the time
    exits, _ = simulate_batch(two_state, [0], 0, 100_000, seed=2)
    frac = np.mean(exits == -1)
    se = np.sqrt(0.25 / exits.size)
    assert abs(frac - 0.5) < 3 * se


def test_exit_law_chi2_random_form():
    rng = np.random.default_rng(25)
    form = random_form(rng, 12, 18)
    spec = random_problem(rng, form)
    x = int(spec.D[0])
    stat, p = exit_law_chi2(form, spec.D, x, n_paths=100_000, seed=3)
    assert p > 0.001


def test_occupation_matches_green_row(k3):
    D = np.array([1, 2])
    _, occ = simulate_batch(k3, D, 1, 100_000, seed=4)
    G = green_operator(k3, D).G
    for j in range(2):
        se = occ[:, j].std(ddof=1) / np.sqrt(occ.shape[0])
        assert abs(occ[:, j].mean() - G[0, j]) < 3 * se


def test_pdg_estimate_certain_exit(k3):
    # no killing inside D and g = 1 at the only exit: estimate is exactly one
    est, se = mc_estimate("PDg", k3, [1, 2], 1, n_paths=1000, seed=5,
                          g=np.array([1.0, 0.0, 0.0]))
    assert est == 1.0 and se == 0.0


def test_rdf_estimate_vs_green(k3):
    D = [1, 2]
    h = np.array([0.0, 1.0, 2.0])
    est, se = mc_estimate("RDf", k3, D, 1, n_paths=100_000, seed=6, h=h)
    G = green_operator(k3, np.array(D)).G
    exact = float(G[0] @ h[1:])
    assert abs(est - exact) < 3 * se


def test_second_moment_estimate(k3):
    mu = np.array([0.0, 0.0, 1.0])
    exact, bound = exit_second_moment(k3, [1, 2], mu)
    est, se = mc_estimate("second_moment", k3, [1, 2], 2, n_paths=100_000, seed=7, mu=mu)
    assert abs(est - exact[2]) < 3 * se
    assert est <= bound + 3 * se


def test_fk_residual_on_solution(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.array([0.0, 0.3, 0.0]), f=power_nonlinearity(np.ones(3), 3.0))
    sol = solve(spec)
    est, se = mc_estimate("FK_residual", k3, spec.D, 1, n_paths=100_000, seed=8,
                          g=spec.g, mu=spec.mu, u=sol.u, f=spec.f)
    assert abs(est) < 3 * max(se, 1e-12)


def test_mc_estimate_validation(k3):
    with pytest.raises(ValueError):
        mc_estimate("PDg", k3, [1, 2], 1, n_paths=50, seed=0, g=np.zeros(3))
    with pytest.raises(ValueError):
        mc_estimate("nope", k3, [1, 2], 1, n_paths=200, seed=0)


def test_exit_law_chi2_too_few_paths(k3):
    for n in (0, 99):
        with pytest.raises(ValueError, match="n_paths"):
            exit_law_chi2(k3, [1, 2], 1, n_paths=n, seed=0)


def test_start_state_validation(k3):
    with pytest.raises(ValueError):
        sample_path(k3, [1, 2], 0, rng_seed=0)
    conservative = DiscreteForm(m=np.ones(3), J=k3.J, kappa=np.zeros(3))
    with pytest.raises(ValueError):
        simulate_batch(conservative, [0, 1, 2], 1, 100, seed=0)


def test_estimates_bitwise_reproducible(k3):
    a = mc_estimate("RDf", k3, [1, 2], 1, n_paths=10_000, seed=33, h=np.ones(3))
    b = mc_estimate("RDf", k3, [1, 2], 1, n_paths=10_000, seed=33, h=np.ones(3))
    assert a == b


def test_runaway_path_cap(k3):
    # from state 2 the chain must pass through state 1 before it can leave
    with pytest.raises(RuntimeError):
        sample_path(k3, [1, 2], 2, rng_seed=99, max_steps=1)


def test_conservative_interior_exits_with_probability_one():
    # kappa = 0 on D: paths always exit by jumping, never by death
    J = np.zeros((4, 4))
    for i in range(3):
        J[i, i + 1] = J[i + 1, i] = 0.5
    form = DiscreteForm(m=np.ones(4), J=J, kappa=np.zeros(4))
    exits, _ = simulate_batch(form, [1, 2], 1, 20_000, seed=9)
    assert np.all(exits >= 0)
    est, se = mc_estimate("PDg", form, [1, 2], 1, n_paths=20_000, seed=10, g=np.ones(4))
    assert est == 1.0 and se == 0.0


def test_chisquare_closed_form():
    # one degree of freedom: the upper tail is erfc(sqrt(stat / 2))
    stat, p = chisquare([30.0, 70.0], [40.0, 60.0])
    assert stat == pytest.approx(100.0 / 40.0 + 100.0 / 60.0, rel=1e-15)
    assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), rel=1e-12)
    with pytest.raises(ValueError, match="total"):
        chisquare([30.0, 70.0], [40.0, 61.0])
