import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc

from dirichlet_lab import frac1d as f1
from dirichlet_lab import wos
from dirichlet_lab.rng import substream
from dirichlet_lab.semilinear import power_nonlinearity


@pytest.fixture(scope="module")
def pack():
    alpha = 1.0
    return f1.build_kernels(alpha), f1.build_grid(alpha)


# a smooth solved-function stand-in and its cubic absorption source
_FK = dict(u_fn=lambda y: 0.5 + 0.25 * np.cos(y),
           f=power_nonlinearity(lambda y: np.ones_like(y), 3.0))


def _fk_source(y):
    return _FK["f"](y, _FK["u_fn"](y))


def test_same_seed_same_walk(pack):
    k, _ = pack
    exits1, mean1, _ = wos.wos_exit_batch(k, 0.3, 200, seed=5)
    exits2, mean2, _ = wos.wos_exit_batch(k, 0.3, 200, seed=5)
    assert np.array_equal(exits1, exits2)
    assert np.array_equal(mean1, mean2)
    assert np.all(np.abs(exits1) > 1.0)


def test_exit_requires_interior():
    # outside, on the boundary and NaN: a walk would return a negative or NaN
    # exit time, a zero one, or run to the step cap
    for alpha in (0.5, 1.0):
        k = f1.build_kernels(alpha, validate=False)
        for x in (1.2, 1.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="interior"):
                wos.wos_exit_batch(k, x, 200, seed=0)
            with pytest.raises(ValueError, match="interior"):
                wos.wos_estimate("mean_exit_time", k, x, n_paths=200, seed=0)


def test_exit_cdf_matches_quadrature():
    # one-ball law: distribution function of the exit magnitude vs direct
    # integration of the exit density
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        for t in (1.2, 2.0, 5.0):
            y, w = f1._graded_panels(1.0, t, 14, 40, left=-alpha / 2.0)
            quad = float(np.sum(w * 2.0 * k.poisson_coef * (y ** 2 - 1.0) ** (-alpha / 2.0) / y))
            assert wos.exit_cdf_ball(alpha, np.array([t]))[0] == pytest.approx(quad, abs=1e-8)


def test_sampler_matches_cdf(pack):
    k, _ = pack
    rng = substream(17, 0)
    z = wos._sample_exit_positions(k.alpha, rng, 200_000)
    for t in (1.3, 2.0, 4.0):
        emp = np.mean(np.abs(z) <= t)
        cdf = float(wos.exit_cdf_ball(k.alpha, np.array([t]))[0])
        se = np.sqrt(cdf * (1 - cdf) / z.size)
        assert abs(emp - cdf) < 3 * se
    assert abs(np.mean(z > 0) - 0.5) < 3 * np.sqrt(0.25 / z.size)


def test_sampler_upper_tail():
    # far tail at alpha = 0.5: P(|Y| > t) = P(1 - S < 1/t^2), with 1 - S
    # Beta(alpha/2, 1 - alpha/2)
    alpha = 0.5
    z = np.abs(wos._sample_exit_positions(alpha, substream(19, 0), 200_000))
    for t in (1e2, 1e4):
        emp = np.mean(z > t)
        tail = float(betainc(alpha / 2.0, 1.0 - alpha / 2.0, 1.0 / t ** 2))
        assert abs(emp - tail) < 3 * np.sqrt(tail * (1 - tail) / z.size)


def test_sampler_respects_cap():
    # 1 - S is kept at or above 1.0 - (1.0 - 1e-16) = 2^-53; at alpha = 0.1
    # about one draw in seven reaches that floor
    cap = 1.0 / np.sqrt(1.0 - (1.0 - 1e-16))
    for alpha in (0.1, 0.5, 1.0, 1.5):
        z = np.abs(wos._sample_exit_positions(alpha, substream(29, 0), 200_000))
        assert np.all((z >= 1.0) & (z <= cap))
        if alpha == 0.1:
            assert np.mean(z == cap) > 0.1


def test_exit_law_chi2_three_probes(pack):
    k, grid = pack
    for j, x in enumerate((0.0, 0.4, -0.7)):
        _, p = wos.wos_exit_chi2(k, x, n_paths=100_000, seed=31 + j)
        assert p > 0.001


def test_one_step_exit_probability(pack):
    # from the center the first ball is the whole interval: always one step;
    # from x = 0.3 the one-step exit mass has a closed distribution-function
    # form, cross-checked against the sampled frequency
    k, _ = pack
    _, mean_exit, _ = wos.wos_exit_batch(k, 0.0, 5000, seed=3)
    assert np.all(mean_exit == k.mean_exit_ball(1.0))
    x, r = 0.3, 0.7
    thresh = (1.0 + x) / r
    p_exit = 0.5 + 0.5 * (1.0 - float(wos.exit_cdf_ball(k.alpha, np.array([thresh]))[0]))
    counts = 0
    n = 40_000
    for c0 in range(0, n, 4096):
        rng = substream(9, c0 // 4096)
        size = min(4096, n - c0)
        z = wos._sample_exit_positions(k.alpha, rng, size)
        counts += np.sum(np.abs(x + r * z) >= 1.0)
    emp = counts / n
    assert abs(emp - p_exit) < 3 * np.sqrt(p_exit * (1 - p_exit) / n)


def test_pdg_constant_is_exact(pack):
    k, _ = pack
    est, se = wos.wos_estimate("PDg", k, 0.2, n_paths=500, seed=1,
                               g=lambda y: np.ones_like(y))
    assert est == 1.0 and se == 0.0


def test_pdg_indicator_vs_quadrature(pack):
    k, grid = pack
    g = f1.indicator_exterior(1.0, 2.0)
    est, se = wos.wos_estimate("PDg", k, 0.3, n_paths=100_000, seed=2, g=g)
    exact = float(f1.apply_PD(k, grid, g, x=[0.3])[0])
    assert abs(est - exact) < 3 * se


def test_mean_exit_time_vs_quadrature():
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        grid = f1.build_grid(alpha)
        est, se = wos.wos_estimate("mean_exit_time", k, 0.3, n_paths=100_000, seed=21)
        exact = float(f1.apply_RD(k, grid, h=lambda y: np.ones_like(y), x=[0.3])[0])
        assert abs(est - exact) < 3 * se


def test_ball_green_rule_total_mass(pack):
    # per-ball occupation rule applied to h = 1 recovers the per-ball mean
    # exit time
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        y, v = wos.ball_green_rule(k)
        assert float(v.sum()) == pytest.approx(k.mean_exit_ball(1.0), rel=1e-6)


def test_fk_residual_cubic(pack):
    k, grid = pack
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(lambda y: np.ones_like(y), 3.0))
    sol = f1.solve_continuum(prob)
    u_fn = f1.continuum_callable(prob, sol)
    est, se = wos.wos_estimate("FK_residual", k, 0.2, n_paths=100_000, seed=13,
                               g=prob.g, u_fn=u_fn, f=prob.f)
    assert abs(est) < 3 * se


def test_unknown_kind_rejected(pack):
    k, _ = pack
    with pytest.raises(ValueError):
        wos.wos_estimate("nope", k, 0.0, n_paths=100, seed=0)


def test_estimates_bitwise_reproducible(pack):
    # chunked substreams: merged accumulators do not depend on scheduling
    k, _ = pack
    a = wos.wos_estimate("mean_exit_time", k, 0.3, n_paths=10_000, seed=77)
    b = wos.wos_estimate("mean_exit_time", k, 0.3, n_paths=10_000, seed=77)
    assert a == b
    fk = dict(g=f1.const_exterior(1.0), **_FK)
    a = wos.wos_estimate("FK_residual", k, 0.3, n_paths=10_000, seed=77, **fk)
    b = wos.wos_estimate("FK_residual", k, 0.3, n_paths=10_000, seed=77, **fk)
    assert a == b


def test_shared_first_ball_evaluated_once(pack):
    # from the center every walk is one ball, the ball every path shares, so
    # the source is evaluated on one block of rows rather than once per path
    k, _ = pack
    rows = []

    def h(pts):
        rows.append(pts.shape[0])
        return np.cos(pts)

    exits, _, occ = wos.wos_exit_batch(k, 0.0, 10_000, seed=4, h=h)
    assert sum(rows) == 1
    assert np.all(np.abs(exits) >= 1.0)
    assert np.all(occ == occ[0])


def _per_path_occupation(k, x, n_paths, seed, h):
    # reference with the substreams and chunks of wos_exit_batch: the ball
    # quadrature on each path's first ball, then on every later ball one node
    # of the rule, the count of normalized cumulative weights at or below the
    # path's uniform from the chunk's second substream
    gy, gw = rule = wos.ball_green_rule(k)
    cum = np.cumsum(gw)
    occ = np.zeros(n_paths)
    for c in range(-(-n_paths // wos._CHUNK)):
        rng, pick = substream(seed, c), substream(seed, ~c)
        active = np.arange(c * wos._CHUNK, min((c + 1) * wos._CHUNK, n_paths))
        xs = np.full(active.size, float(x))
        first = True
        while active.size:
            r = 1.0 - np.abs(xs)
            if first:
                occ[active] += [wos._ball_source(h, rule, xi, k.alpha) for xi in xs]
            else:
                u = pick.random(active.size)
                j = [int(np.sum(cum / cum[-1] <= ui)) for ui in u]
                occ[active] += cum[-1] * r ** k.alpha * h(xs + r * gy[j])
            first = False
            xs = xs + r * wos._sample_exit_positions(k.alpha, rng, active.size)
            keep = np.abs(xs) < 1.0
            active, xs = active[keep], xs[keep]
    return occ


def test_shared_first_ball_matches_per_path():
    def h(y):
        return np.cos(3.0 * y) - y ** 3

    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        _, _, occ = wos.wos_exit_batch(k, 0.2, 2_000, seed=6, h=h)
        np.testing.assert_array_equal(occ, _per_path_occupation(k, 0.2, 2_000, 6, h))


def test_walk_independent_of_source():
    # the nodes come from a second substream per chunk, so passing h moves
    # neither the exits nor the mean exit times
    for alpha in (0.5, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        n = 2 * wos._CHUNK + 5
        exits, mean_exit, _ = wos.wos_exit_batch(k, 0.2, n, seed=14)
        exits_h, mean_exit_h, occ = wos.wos_exit_batch(k, 0.2, n, seed=14, h=_fk_source)
        np.testing.assert_array_equal(exits, exits_h)
        np.testing.assert_array_equal(mean_exit, mean_exit_h)
        assert np.all(np.isfinite(occ))


def test_sampled_node_matches_ball_quadrature():
    # one fixed ball: the mean of the one-node terms r^alpha M h(x + r y_J)
    # is the quadrature term of the full rule
    def h(y):
        return np.cos(3.0 * y) - y ** 3

    x = 0.37
    r = 1.0 - x
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        rule = wos.ball_green_rule(k)
        draw, mass = wos._node_sampler(rule)
        terms = r ** alpha * mass * h(x + r * draw(substream(23, 0).random(200_000)))
        quad = wos._ball_source(h, rule, x, alpha)
        assert abs(terms.mean() - quad) < 3 * terms.std(ddof=1) / np.sqrt(terms.size)


def test_batch_independent_of_thread_count(pack, monkeypatch):
    # chunks on one thread or on three, with a partial last chunk
    k, _ = pack
    n = 3 * wos._CHUNK + 77
    outs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("DIRICHLET_LAB_THREADS", threads)
        outs.append(wos.wos_exit_batch(k, 0.3, n, seed=12, h=_fk_source))
    for a, b in zip(*outs):
        np.testing.assert_array_equal(a, b)


def test_step_cap_error_reaches_caller(pack, monkeypatch):
    k, _ = pack
    monkeypatch.setenv("DIRICHLET_LAB_THREADS", "2")
    with pytest.raises(RuntimeError, match="without exiting"):
        wos.wos_exit_batch(k, 0.3, 3 * wos._CHUNK, seed=0, max_steps=1)


def test_fk_walk_memory_bound(pack, monkeypatch):
    # the full ball rule runs once per call, on one row of 1,104 points, and
    # every later ball takes one point, so a worker's temporaries are a few
    # arrays of one 4,096-path chunk; one quadrature row per ball of a whole
    # chunk would be 36 MB for the points alone
    k, _ = pack
    monkeypatch.setenv("DIRICHLET_LAB_THREADS", "2")
    tracemalloc.start()
    try:
        est, _ = wos.wos_estimate("FK_residual", k, 0.3, n_paths=20_000, seed=3,
                                  g=f1.const_exterior(1.0), **_FK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(est)
    assert peak < 12e6


def test_unit_source_occupation_is_mean_exit():
    # h = 1 turns the per-ball source quadrature into the per-ball mean exit
    # time, on the shared first ball and on every later ball alike
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha, validate=False)
        _, mean_exit, occ = wos.wos_exit_batch(k, 0.2, 20_000, seed=8,
                                               h=lambda y: np.ones_like(y))
        np.testing.assert_allclose(occ, mean_exit, rtol=1e-6, atol=0.0)


def test_too_few_paths_rejected(pack):
    k, _ = pack
    for n in (0, 99):
        with pytest.raises(ValueError, match="n_paths"):
            wos.wos_estimate("mean_exit_time", k, 0.3, n_paths=n, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            wos.wos_exit_chi2(k, 0.3, n_paths=n, seed=0)
