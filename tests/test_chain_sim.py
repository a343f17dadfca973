import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_lab import DiscreteForm, chain_sim, exit_second_moment
from dirichlet_lab.chain_sim import (_category, _padded_table, exit_law_chi2, exit_law_counts,
                                     mc_estimate, simulate_batch)
from dirichlet_lab.potential import green_operator
from dirichlet_lab.rng import chisquare
from dirichlet_lab.semilinear import ProblemSpec, power_nonlinearity, solve
from dirichlet_lab.suite import random_form, random_problem


def test_same_seed_same_path(k3):
    exits1, occ1 = simulate_batch(k3, [1, 2], 1, 200, seed=7)
    exits2, occ2 = simulate_batch(k3, [1, 2], 1, 200, seed=7)
    assert np.array_equal(occ1, occ2)  # holding time per path and state
    assert np.array_equal(exits1, exits2)  # exit state, -1 for death
    exits3, occ3 = simulate_batch(k3, [1, 2], 1, 200, seed=8)
    assert not np.array_equal(exits1, exits3) or not np.array_equal(occ1, occ3)


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


def test_mc_estimate_checks_arguments_before_simulating(k3, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("paths simulated before the arguments were checked")

    monkeypatch.setattr(chain_sim, "simulate_batch", simulate)
    with pytest.raises(ValueError, match="nope"):
        mc_estimate("nope", k3, [1, 2], 1, n_paths=200)
    vec = np.zeros(3)
    cases = {"PDg": ({}, "g"), "RDf": ({}, "h"), "RDmu": ({}, "mu"),
             "second_moment": ({}, "mu"), "FK_residual": ({"g": vec, "mu": vec, "u": vec}, "f")}
    for kind, (given_args, missing) in cases.items():
        with pytest.raises(ValueError, match=f"needs {missing}$"):
            mc_estimate(kind, k3, [1, 2], 1, n_paths=200, **given_args)


def test_exit_law_chi2_too_few_paths(k3):
    for n in (0, 99):
        with pytest.raises(ValueError, match="n_paths"):
            exit_law_chi2(k3, [1, 2], 1, n_paths=n, seed=0)


def test_start_state_validation(k3):
    with pytest.raises(ValueError):
        simulate_batch(k3, [1, 2], 0, 100, seed=0)
    conservative = DiscreteForm(m=np.ones(3), J=k3.J, kappa=np.zeros(3))
    with pytest.raises(ValueError):
        simulate_batch(conservative, [0, 1, 2], 1, 100, seed=0)


def test_estimates_bitwise_reproducible(k3):
    a = mc_estimate("RDf", k3, [1, 2], 1, n_paths=10_000, seed=33, h=np.ones(3))
    b = mc_estimate("RDf", k3, [1, 2], 1, n_paths=10_000, seed=33, h=np.ones(3))
    assert a == b


def test_runaway_path_cap(k3, two_state):
    # from state 2 the chain must pass through state 1 before it can leave
    with pytest.raises(RuntimeError):
        simulate_batch(k3, [1, 2], 2, 100, seed=99, max_steps=1)
    # a lone state is left at the first step, so one step is enough
    exits, _ = simulate_batch(two_state, [0], 0, 100, seed=99, max_steps=1)
    assert exits.size == 100


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_category_search_matches_dense_count(data):
    # integer weights with zeros give rows with repeated entries (zero-weight
    # edges); draws hit table entries exactly and their neighbouring floats
    n_cat = data.draw(st.integers(1, 40))
    rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n_cat, max_size=n_cat)
                              .filter(any), min_size=1, max_size=4))
    w = np.array(rows, dtype=float)
    cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
    cum /= cum[:, -1:]
    table, width = _padded_table(cum)
    assert width > n_cat and width & (width - 1) == 0
    entries = np.unique(cum)
    near = np.concatenate([entries, np.nextafter(entries, 0.0), np.nextafter(entries, 1.0)])
    u = np.array(data.draw(st.lists(st.one_of(st.sampled_from(sorted(near.tolist())),
                                              st.floats(0.0, 1.0, exclude_max=True)),
                                    min_size=1, max_size=30)))
    state = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1),
                                        min_size=u.size, max_size=u.size)))
    assert np.array_equal(_category(table, width, state, u),
                          (u[:, None] > cum[state]).sum(axis=1))


def test_streamed_functionals_match_full_occupation():
    rng = np.random.default_rng(41)
    form = random_form(rng, 30, 40)
    D = random_problem(rng, form).D
    x = int(D[0])
    vecs = rng.uniform(0.0, 1.0, size=(3, D.size))
    n = 2 * 4096 + 1000  # two full chunks and a partial one
    exits, occ = simulate_batch(form, D, x, n, seed=12)
    exits_s, F = simulate_batch(form, D, x, n, seed=12, functionals=tuple(vecs))
    assert np.array_equal(exits, exits_s)
    assert F.shape == (3, n)
    for v, Fj in zip(vecs, F):
        np.testing.assert_allclose(Fj, occ @ v, rtol=4 * np.finfo(float).eps, atol=0)
    exits_e, F_e = simulate_batch(form, D, x, n, seed=12, functionals=())
    assert np.array_equal(exits, exits_e) and F_e.shape == (0, n)
    comp, counts = exit_law_counts(form, D, x, n, seed=12)
    assert np.array_equal(counts, [(exits == s).sum() for s in comp] + [(exits == -1).sum()])
    with pytest.raises(ValueError, match="length"):
        simulate_batch(form, D, x, 100, seed=12, functionals=(np.ones(D.size + 1),))


def test_streamed_functionals_memory_bound():
    # 1e5 paths on a sparse graph with |D| = 270: the dense occupation matrix
    # would take 216 MB; streamed, one 8.8 MB chunk buffer is reused, and a
    # second one alive at the same time would already pass the bound
    rng = np.random.default_rng(43)
    n, nD = 300, 270
    J = np.zeros((n, n))
    for _ in range(2):
        cycle = rng.permutation(n)
        J[cycle, np.roll(cycle, 1)] = rng.uniform(0.2, 1.0, size=n)
    J = np.maximum(J, J.T)
    outside = 1 + rng.choice(n - 1, size=n - nD, replace=False)
    kappa = np.zeros(n)
    kappa[outside] = 1.0
    form = DiscreteForm(m=np.ones(n), J=J, kappa=kappa)
    D = np.setdiff1d(np.arange(n), outside)
    tracemalloc.start()
    try:
        _, F = simulate_batch(form, D, 0, 100_000, seed=1, functionals=(np.ones(nD),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.shape == (1, 100_000) and np.all(F > 0)
    assert peak < 16e6
