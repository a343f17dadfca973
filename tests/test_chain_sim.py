import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from dirichlet_lab import DiscreteForm, chain_sim, exit_second_moment
from dirichlet_lab.chain_sim import (WalkBudgetError, _category, _rates, _rise_table, mc_estimate,
                                     simulate_batch)
from dirichlet_lab.forms import as_subset, complement, exterior_flux
from dirichlet_lab.potential import green_apply, green_operator
from dirichlet_lab.projection import poisson_kernel
from dirichlet_lab.rng import _chi2_tail, chisquare, mean_and_stderr, substream
from dirichlet_lab.semilinear import ProblemSpec, power_nonlinearity, solve
from dirichlet_lab.suite import random_form, random_problem
from dirichlet_lab.trace import killing_part


def _occupation(form, D, x, n_paths, seed, **kwargs):
    """Exit states and the (n_paths, |D|) occupation times, read through
    the identity functionals."""
    size = as_subset(form.n, D).size
    exits, F = simulate_batch(form, D, x, n_paths, seed, functionals=np.eye(size), **kwargs)
    return exits, F.T


def _chunk_reference(form, D, x, n_paths, seed, V, max_steps=10 ** 6):
    """Chunk-by-chunk stepper: each 4,096-path chunk runs until its last path
    ends, drawing only ``random(size)`` from its own substream per step, with
    categories by the dense count; each visit holds the mean time 1/q.

    Returns exits, the dense occupation, F summed visit by visit, and the
    number of steps each chunk took.
    """
    idx = as_subset(form.n, D)
    total, cum = _rates(form, idx)
    local = -np.ones(form.n + 1, dtype=int)
    local[idx] = np.arange(idx.size)
    exits = np.empty(n_paths, dtype=int)
    occ = np.zeros((n_paths, idx.size))
    F = np.zeros((V.shape[0], n_paths))
    steps = []
    for c0 in range(0, n_paths, 4096):
        rng = substream(seed, c0 // 4096)
        active = np.arange(c0, min(c0 + 4096, n_paths))
        state = np.full(active.size, local[x])
        for step in range(1, max_steps + 1):
            hold = 1.0 / total[state]
            occ[active, state] += hold
            F[:, active] += hold * V[:, state]
            u = rng.random(active.size)
            cat = (u[:, None] > cum[state]).sum(axis=1)
            nxt = local[cat]
            gone = nxt < 0
            exits[active[gone]] = cat[gone]
            active, state = active[~gone], nxt[~gone]
            if active.size == 0:
                break
        else:
            raise RuntimeError("reference chunk did not absorb")
        steps.append(step)
    exits[exits == form.n] = -1
    return exits, occ, F, steps


def _exit_law_chi2(form, D, x, n_paths, seed):
    """Chi-square test of ``simulate_batch``'s exits, states outside D then
    death, against row x of the exit kernel and its death mass, with the
    cells expecting fewer than 5 pooled; returns the counts and ``(statistic, p)``."""
    exits, _ = simulate_batch(form, D, x, n_paths, seed)
    comp = complement(form.n, as_subset(form.n, D))
    row = poisson_kernel(form, D)[x, comp]
    counts = np.array([(exits == s).sum() for s in comp] + [(exits == -1).sum()], dtype=float)
    expected = np.append(row, max(1.0 - row.sum(), 0.0)) * exits.size
    keep = expected >= 5.0
    if (~keep).any():
        counts = np.append(counts[keep], counts[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        if expected[-1] == 0:
            counts, expected = counts[:-1], expected[:-1]
    return counts, chisquare(counts, expected * (counts.sum() / expected.sum()))


@pytest.fixture(scope="module")
def random_chain():
    rng = np.random.default_rng(41)
    form = random_form(rng, 30, 40)
    D = random_problem(rng, form).D
    return form, D, int(D[0]), rng.uniform(0.0, 1.0, size=(3, D.size))


def test_global_stepper_matches_chunk_reference(random_chain):
    # two full chunks and a partial one, all stepped together
    form, D, x, V = random_chain
    n = 2 * 4096 + 77
    exits_ref, occ_ref, F_ref, _ = _chunk_reference(form, D, x, n, 12, V)
    exits, F = simulate_batch(form, D, x, n, seed=12, functionals=V)
    np.testing.assert_array_equal(exits, exits_ref)
    np.testing.assert_array_equal(F, F_ref)
    exits_i, occ = _occupation(form, D, x, n, seed=12)
    np.testing.assert_array_equal(exits_i, exits_ref)
    np.testing.assert_array_equal(occ, occ_ref)  # the identity functionals are exact


def test_step_cap_with_live_paths_in_several_chunks(random_chain):
    form, D, x, V = random_chain
    n = 2 * 4096 + 77
    exits_ref, _, F_ref, steps = _chunk_reference(form, D, x, n, 13, V)
    assert len(steps) == 3
    # enough steps for the slowest chunk: same answer as with the default cap
    exits, F = simulate_batch(form, D, x, n, seed=13, max_steps=max(steps), functionals=V)
    np.testing.assert_array_equal(exits, exits_ref)
    np.testing.assert_array_equal(F, F_ref)
    # two chunks, at least, still have live paths after this many steps
    with pytest.raises(WalkBudgetError, match="exceeded"):
        simulate_batch(form, D, x, n, seed=13, max_steps=sorted(steps)[-2] - 1, functionals=V)
    with pytest.raises(WalkBudgetError, match="exceeded"):
        simulate_batch(form, D, x, n, seed=13, max_steps=max(steps) - 1)


def test_only_uniforms_are_drawn(random_chain, monkeypatch):
    # the holding times enter at their conditional means: no exponential draw
    calls = []

    class Recorder:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self._rng, name)

    form, D, x, V = random_chain
    monkeypatch.setattr(chain_sim, "substream", lambda seed, c: Recorder(substream(seed, c)))
    simulate_batch(form, D, x, 4096 + 77, seed=14, functionals=V)
    assert calls and set(calls) == {"random"}


def test_occupation_is_visit_count_over_rate(random_chain):
    form, D, x, _ = random_chain
    total, _ = _rates(form, as_subset(form.n, D))
    _, occ = _occupation(form, D, x, 2000, seed=15)
    visits = occ * total
    assert np.all(visits[:, D == x] >= 1)  # the start state is visited
    np.testing.assert_allclose(visits, np.round(visits), rtol=0, atol=1e-9)


def test_same_seed_same_path(k3):
    exits1, occ1 = _occupation(k3, [1, 2], 1, 200, seed=7)
    exits2, occ2 = _occupation(k3, [1, 2], 1, 200, seed=7)
    assert np.array_equal(occ1, occ2)  # holding time per path and state
    assert np.array_equal(exits1, exits2)  # exit state, -1 for death
    exits3, occ3 = _occupation(k3, [1, 2], 1, 200, seed=8)
    assert not np.array_equal(exits1, exits3) or not np.array_equal(occ1, occ3)


def test_single_state_holding_time_law():
    # lone state with exit edges only: one visit, whose holding time is
    # exponential with the total outgoing rate (4, so every value is exact)
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = 0.5
    J[1, 2] = J[2, 1] = 1.5
    form = DiscreteForm(m=np.ones(3), J=J, kappa=np.zeros(3))
    rate = 2 * 0.5 + 2 * 1.5  # jump rates out of state 1
    # the occupation is the conditional mean of the hold: 1/rate on every path
    _, occ = _occupation(form, [1], 1, 10_000, seed=1)
    assert np.all(occ[:, 0] == 1.0 / rate)
    # its square: E[H^2] = 2 / rate^2 for the exponential law, on every path
    mu = np.array([0.0, 1.0, 0.0])
    [(est, se)] = mc_estimate(("second_moment",), form, [1], 1, n_paths=10_000, seed=1, mu=mu)
    assert est == 2.0 / rate ** 2 and se == 0.0


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
    _, (stat, p) = _exit_law_chi2(form, spec.D, x, n_paths=100_000, seed=3)
    assert p > 0.001


@pytest.mark.parametrize("weak", [(1e-3, 2e-3), (0.0, 0.0)])
def test_exit_law_chi2_pools_small_cells(weak):
    # D = {1, 2} exits to 0 and 3, to 4 and 5 only through weak bonds, and
    # never dies: at 2,000 paths the cells of 4, 5 and death expect fewer
    # than 5 exits and are pooled into one; with no bond at all the pooled
    # cell expects nothing and is dropped
    J = np.zeros((6, 6))
    for a, b, w in ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, weak[0]), (1, 5, weak[1])):
        J[a, b] = J[b, a] = w
    form = DiscreteForm(m=np.ones(6), J=J, kappa=np.zeros(6))
    counts, (_, p) = _exit_law_chi2(form, [1, 2], 1, n_paths=2000, seed=0)
    assert len(counts) == (3 if weak[0] else 2) and counts.sum() == 2000
    assert p >= 1e-3


def test_occupation_matches_green_row(k3):
    D = np.array([1, 2])
    _, occ = _occupation(k3, D, 1, 100_000, seed=4)
    G = green_operator(k3, D)
    for j in range(2):
        se = occ[:, j].std(ddof=1) / np.sqrt(occ.shape[0])
        assert abs(occ[:, j].mean() - G[0, j]) < 3 * se


def test_pdg_estimate_certain_exit(k3):
    # no killing inside D and g = 1 at the only exit: estimate is exactly one
    [(est, se)] = mc_estimate(("PDg",), k3, [1, 2], 1, n_paths=1000, seed=5,
                              g=np.array([1.0, 0.0, 0.0]))
    assert est == 1.0 and se == 0.0


def test_rdf_estimate_vs_green(k3):
    D = [1, 2]
    h = np.array([0.0, 1.0, 2.0])
    [(est, se)] = mc_estimate(("RDf",), k3, D, 1, n_paths=100_000, seed=6, h=h)
    G = green_operator(k3, np.array(D))
    exact = float(G[0] @ h[1:])
    assert abs(est - exact) < 3 * se
    # only state 1 exits, and each visit to 2 returns to 1, so the occupation
    # integral of h is affine in c1 = (visits to 1) / 2 - 1: the regression
    # on c1 leaves no spread, the estimate is exact to rounding, and its
    # standard error is that rounding's bound
    assert abs(est - exact) < 1e-12 and se < 1e-12
    _, F = simulate_batch(k3, D, 1, 100_000, 6, functionals=[h[1:]])
    plain, plain_se = mean_and_stderr(F[0])
    assert abs(plain - exact) < 3 * plain_se


def test_second_moment_estimate(k3):
    mu = np.array([0.0, 0.0, 1.0])
    exact, bound = exit_second_moment(k3, [1, 2], mu)
    [(est, se)] = mc_estimate(("second_moment",), k3, [1, 2], 2, n_paths=100_000, seed=7, mu=mu)
    assert abs(est - exact[2]) < 3 * se
    assert est <= bound + 3 * se


def test_fk_residual_on_solution(k3):
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, 0.0, 0.0]),
                       mu=np.array([0.0, 0.3, 0.0]), f=power_nonlinearity(np.ones(3), 3.0))
    sol = solve(spec)
    [(est, se)] = mc_estimate(("FK_residual",), k3, spec.D, 1, n_paths=100_000, seed=8,
                              g=spec.g, mu=spec.mu, u=sol.u, f=spec.f)
    assert abs(est) < 3 * max(se, 1e-12)


def test_kinds_of_one_walk_match_one_kind_calls(k3, monkeypatch):
    # one walk carries the union of the rows the kinds read (RDmu and the
    # second moment share the weights, RDf and RDmu the killing part, PDg
    # and FK the flux of g); the exits
    # do not depend on the rows, nor a row on the others, so every estimate
    # has the bits of its one-kind call at the same seed
    spec = ProblemSpec(form=k3, D=[1, 2], g=np.array([1.0, -0.5, 0.0]),
                       mu=np.array([0.0, 0.3, 0.1]), f=power_nonlinearity(np.ones(3), 3.0))
    sol = solve(spec)
    given_args = dict(g=spec.g, h=np.array([0.0, 1.0, 2.0]), mu=spec.mu, u=sol.u, f=spec.f)
    kinds = ("PDg", "RDf", "RDmu", "second_moment", "FK_residual")
    rows = []
    real = chain_sim.simulate_batch

    def simulate(*args, functionals, **kwargs):
        rows.append(len(functionals))
        return real(*args, functionals=functionals, **kwargs)

    monkeypatch.setattr(chain_sim, "simulate_batch", simulate)
    together = mc_estimate(kinds, k3, spec.D, 1, n_paths=10_000, seed=21, **given_args)
    assert rows == [6]
    alone = [mc_estimate((kind,), k3, spec.D, 1, n_paths=10_000, seed=21, **given_args)[0]
             for kind in kinds]
    assert together == alone
    assert mc_estimate(("PDg",), k3, spec.D, 1, n_paths=10_000, seed=21, g=spec.g) == [alone[0]]
    with pytest.raises(ValueError, match="tuple"):
        mc_estimate("PDg", k3, spec.D, 1, n_paths=200, g=spec.g)


def test_shared_walk_calibration():
    # the mc suite's three estimates read from one walk, PD g and FK
    # regressed on the martingale, keep their 3-sigma coverage: over 200
    # seeds at 1e4 paths each band misses at most 4 times, and the z-scores
    # are N(0, 1) by a KS test at 1% each
    spec = random_problem(np.random.default_rng(5))
    sol = solve(spec)
    assert sol.converged
    form, D = spec.form, spec.D
    x, h = int(D[0]), np.ones(form.n)
    exact = (float(spec.pdg[x]), float(green_apply(form, D, h * form.m)[x]), 0.0)
    z = np.array([[(est - ex) / max(se, 1e-9) for (est, se), ex in zip(
        mc_estimate(("PDg", "RDf", "FK_residual"), form, D, x, n_paths=10_000, seed=seed,
                    g=spec.g, h=h, mu=spec.mu, u=sol.u, f=spec.f), exact)]
        for seed in range(200)])
    misses = (np.abs(z) > 3).sum(axis=0)
    assert np.all(misses <= 4), misses
    for kind, column in zip(("PDg", "RDf", "FK_residual"), z.T):
        assert kstest(column, "norm").pvalue > 0.01, kind


def test_martingale_control_variate():
    # c = g(X_tau) - sum_k h(X_k), h(s) = sum_{z not in D} P(s, z) g(z), has
    # mean 0; regressed on it, PD g keeps its mean and loses spread
    spec = random_problem(np.random.default_rng(5))
    form, D = spec.form, spec.D
    x, idx = int(D[0]), as_subset(spec.form.n, spec.D)
    flux = exterior_flux(form, idx, spec.g) / form.m[idx]
    exits, F = simulate_batch(form, D, x, 100_000, 9, functionals=[flux])
    at_exit = np.append(spec.g, 0.0)[exits]
    c_mean, c_se = mean_and_stderr(at_exit - F[0])
    assert abs(c_mean) < 3 * c_se
    plain = mean_and_stderr(at_exit)
    [(est, se)] = mc_estimate(("PDg",), form, D, x, n_paths=100_000, seed=9, g=spec.g)
    assert se < 0.9 * plain[1]
    assert abs(est - spec.pdg[x]) < 3 * se and abs(est - plain[0]) < 3 * plain[1]


def test_killing_martingale_control_variate():
    # c1 = sum_k p_out(X_k) - 1, p_out the chance that a jump leaves D or
    # kills, has mean 0 since R_D kappa_D = 1 on D; regressed on it, the
    # occupation time R_D 1 keeps its mean and loses spread
    spec = random_problem(np.random.default_rng(5))
    form, D = spec.form, spec.D
    x, idx = int(D[0]), as_subset(spec.form.n, spec.D)
    kill = killing_part(form, idx)[idx] / form.m[idx]
    exits, F = simulate_batch(form, D, x, 100_000, 9, functionals=[np.ones(idx.size), kill])
    c_mean, c_se = mean_and_stderr(F[1] - 1.0)
    assert abs(c_mean) < 3 * c_se
    plain = mean_and_stderr(F[0])
    [(est, se)] = mc_estimate(("RDf",), form, D, x, n_paths=100_000, seed=9, h=np.ones(form.n))
    assert se < 0.8 * plain[1]
    exact = green_apply(form, D, form.m)[x]
    assert abs(est - exact) < 3 * se and abs(est - plain[0]) < 3 * plain[1]


def test_mc_estimate_validation(k3):
    with pytest.raises(ValueError):
        mc_estimate(("PDg",), k3, [1, 2], 1, n_paths=50, seed=0, g=np.zeros(3))
    with pytest.raises(ValueError):
        mc_estimate(("nope",), k3, [1, 2], 1, n_paths=200, seed=0)


def test_mc_estimate_checks_arguments_before_simulating(k3, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("paths simulated before the arguments were checked")

    monkeypatch.setattr(chain_sim, "simulate_batch", simulate)
    with pytest.raises(ValueError, match="nope"):
        mc_estimate(("nope",), k3, [1, 2], 1, n_paths=200)
    vec = np.zeros(3)
    cases = {"PDg": ({}, "g"), "RDf": ({}, "h"), "RDmu": ({}, "mu"),
             "second_moment": ({}, "mu"), "FK_residual": ({"g": vec, "mu": vec, "u": vec}, "f")}
    for kind, (given_args, missing) in cases.items():
        with pytest.raises(ValueError, match=f"needs {missing}$"):
            mc_estimate((kind,), k3, [1, 2], 1, n_paths=200, **given_args)


def test_exit_law_chi2_too_few_paths(k3):
    # mc_estimate refuses fewer than 100 paths before it simulates any
    for n in (0, 99):
        with pytest.raises(ValueError, match="n_paths"):
            mc_estimate(("PDg",), k3, [1, 2], 1, n_paths=n, seed=0, g=np.zeros(3))


def test_start_state_validation(k3):
    with pytest.raises(ValueError):
        simulate_batch(k3, [1, 2], 0, 100, seed=0)
    conservative = DiscreteForm(m=np.ones(3), J=k3.J, kappa=np.zeros(3))
    with pytest.raises(ValueError):
        simulate_batch(conservative, [0, 1, 2], 1, 100, seed=0)


def test_estimates_bitwise_reproducible(k3):
    a = mc_estimate(("RDf",), k3, [1, 2], 1, n_paths=10_000, seed=33, h=np.ones(3))
    b = mc_estimate(("RDf",), k3, [1, 2], 1, n_paths=10_000, seed=33, h=np.ones(3))
    assert a == b


def test_runaway_path_cap(k3, two_state):
    # from state 2 the chain must pass through state 1 before it can leave
    with pytest.raises(WalkBudgetError):
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
    # so g constant gives a sample without spread: the estimate is g itself at
    # standard error 0, also for 100.1, whose mean over the paths rounds away
    for g in (1.0, 100.1):
        [(est, se)] = mc_estimate(("PDg",), form, [1, 2], 1, n_paths=20_000, seed=10,
                                  g=np.full(4, g))
        assert est == g and se == 0.0
    assert np.full(20_000, 100.1).mean() != 100.1


def test_walk_budget_reads_the_expected_jump_count(k3, monkeypatch):
    # the row q counts one per jump, so its per-path sum is the jump count N,
    # whose mean the budget reads exactly as E_x N = R_D(q m)(x)
    D, x = np.array([1, 2]), 1
    total, _ = _rates(k3, D)
    _, F = simulate_batch(k3, D, x, 100_000, seed=12, functionals=[total])
    expected = green_apply(k3, D, 2.0 * k3.J.sum(axis=1) + k3.kappa)[x]
    mean, se = mean_and_stderr(F[0])
    assert abs(mean - expected) < 3 * se
    # a walk over the budget is refused by name before any path is walked
    monkeypatch.setattr(chain_sim, "STEP_BUDGET", 100 * expected - 1.0)
    monkeypatch.setattr(chain_sim, "simulate_batch", None)
    with pytest.raises(WalkBudgetError, match=f"E_x N = {expected:.3g}"):
        mc_estimate(("RDf",), k3, D, x, n_paths=100, h=np.ones(3))


def test_chisquare_closed_form():
    # one degree of freedom: the upper tail is erfc(sqrt(stat / 2))
    stat, p = chisquare([30.0, 70.0], [40.0, 60.0])
    assert stat == pytest.approx(100.0 / 40.0 + 100.0 / 60.0, rel=1e-15)
    assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), rel=1e-12)
    with pytest.raises(ValueError, match="total"):
        chisquare([30.0, 70.0], [40.0, 61.0])


def test_chi2_tail_matches_scipy():
    special = pytest.importorskip("scipy.special")
    stats = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 40), np.linspace(1.0, 200.0, 400)])
    for k in range(1, 40):
        ours = np.array([_chi2_tail(k, x) for x in stats])
        assert np.max(np.abs(ours / special.chdtrc(k, stats) - 1.0)) < 1e-13, k
    # x near k: exp(-x/2) underflows past x ~ 1490 while the tail is O(1)
    for k in (1000, 1001, 2000, 2001):
        stats = np.linspace(0.8 * k, 1.3 * k, 60)
        ours = np.array([_chi2_tail(k, x) for x in stats])
        assert np.max(np.abs(ours / special.chdtrc(k, stats) - 1.0)) < 1e-11, k
    assert _chi2_tail(2000, 2000.0) == pytest.approx(0.4958, abs=1e-4)
    assert _chi2_tail(5, 0.0) == 1.0 and _chi2_tail(5, math.inf) == 0.0


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
    table, cats, width = _rise_table(cum)
    # the table keeps position 0 and every rise of a row
    longest = 1 + int((np.diff(cum, axis=1) > 0).sum(axis=1).max())
    assert width & (width - 1) == 0 and width // 2 <= longest < width
    entries = np.unique(cum)
    near = np.concatenate([entries, np.nextafter(entries, 0.0), np.nextafter(entries, 1.0)])
    u = np.array(data.draw(st.lists(st.one_of(st.sampled_from(sorted(near.tolist())),
                                              st.floats(0.0, 1.0, exclude_max=True)),
                                    min_size=1, max_size=30)))
    state = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1),
                                        min_size=u.size, max_size=u.size)))
    assert np.array_equal(_category(table, cats, width, state, u),
                          (u[:, None] > cum[state]).sum(axis=1))


def test_streamed_functionals_match_full_occupation(random_chain):
    form, D, x, vecs = random_chain
    n = 2 * 4096 + 1000  # two full chunks and a partial one
    exits, occ = _occupation(form, D, x, n, seed=12)
    exits_s, F = simulate_batch(form, D, x, n, seed=12, functionals=tuple(vecs))
    assert np.array_equal(exits, exits_s)
    assert F.shape == (3, n)
    for v, Fj in zip(vecs, F):
        np.testing.assert_allclose(Fj, occ @ v, rtol=4 * np.finfo(float).eps, atol=0)
    exits_e, F_e = simulate_batch(form, D, x, n, seed=12, functionals=())
    assert np.array_equal(exits, exits_e) and F_e.shape == (0, n)
    with pytest.raises(ValueError, match="length"):
        simulate_batch(form, D, x, 100, seed=12, functionals=(np.ones(D.size + 1),))


def test_streamed_functionals_memory_bound():
    # 1e5 paths on a sparse graph with |D| = 270: the dense occupation matrix
    # would take 216 MB; summed visit by visit, the functionals need O(n_paths)
    # memory (9.5 MB measured), and a 4,096 x |D| chunk buffer on top of
    # that would pass the bound
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
