import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, betaincinv
from scipy.stats import kstest

from dirichlet_lab import frac1d as f1
from dirichlet_lab import wos
from dirichlet_lab.rng import CHUNK, control_variate, mean_and_stderr, substream
from dirichlet_lab.semilinear import power_nonlinearity


@pytest.fixture(scope="module")
def pack():
    alpha = 1.0
    return f1.build_kernels(alpha), f1.build_grid(alpha)


def _fk_source(y):
    """The cubic absorption source of a smooth solved-function stand-in."""
    return power_nonlinearity(1.0, 3.0)(y, 0.5 + 0.25 * np.cos(y))


# the FK arguments other than g: the source and the stand-in's value at 0.3
_FK = dict(source=_fk_source, u_x=0.5 + 0.25 * np.cos(0.3))


def exit_cdf_ball(alpha: float, t) -> np.ndarray:
    """P(|exit position| <= t) for the unit centered ball, started at 0:
    S = 1 - 1/|Y|^2 is Beta(1 - alpha/2, alpha/2)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    ok = t > 1.0
    out[ok] = betainc(1.0 - alpha / 2.0, alpha / 2.0, 1.0 - 1.0 / t[ok] ** 2)
    return out


def _bin_mass(kernels, x, lo, hi):
    """Exit mass of a finite cell [lo, hi) by its own graded rule: the
    chi-square's reference before its cells moved onto one exterior rule."""
    edge = -kernels.alpha / 2.0
    y, w = f1._graded_panels(lo, hi, 14, 28, left=edge if lo == 1.0 else None,
                             right=edge if hi == -1.0 else None)
    return float(np.sum(w * kernels.poisson(x, y)))


def _tail_mass(kernels, x, cut, negative):
    """Exit mass beyond |y| >= cut on one side, by a graded rule to cut * 2^24
    and the one-term remainder beyond it."""
    alpha = kernels.alpha
    top = cut * 2.0 ** 24
    y, w = f1._graded_panels(cut, top, 12, 70, left=0.0)
    main = float(np.sum(w * kernels.poisson(x, (-1.0 if negative else 1.0) * y)))
    return main + kernels.poisson_coef * (1.0 - x * x) ** (alpha / 2.0) * top ** (-alpha) / alpha


def test_exit_cell_masses_match_graded_rules():
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha)
        for x in (-0.7, 0.2, 0.3):
            cells, masses = wos._exit_cells(k, x)
            ref = [_tail_mass(k, x, lo, False) if np.isinf(hi)
                   else _tail_mass(k, x, -hi, True) if np.isinf(lo)
                   else _bin_mass(k, x, lo, hi) for lo, hi in cells]
            assert len(cells) == 14
            np.testing.assert_allclose(masses, ref, rtol=1e-9, atol=0.0)
            assert abs(masses.sum() - 1.0) < 1e-10


def test_every_exit_falls_in_one_cell():
    # near alpha = 2 many exits from 0 round to exactly -1.0 (15,464 of these
    # 2e5); the left cells are (lo, hi], so they are counted as the exits
    # that round to +1.0 are, and the test keeps its power
    k = f1.build_kernels(1.9)
    exits, _, _ = wos.wos_exit_batch(k, 0.0, 200_000, 1)
    assert np.any(exits == -1.0) and np.any(exits == 1.0)
    assert wos._exit_chi2(k, 0.0, exits)[1] > 0.001
    cells, _ = wos._exit_cells(k, 0.0)
    hits = sum(wos._in_cell(exits, lo, hi).astype(int) for lo, hi in cells)
    assert np.all(hits == 1)


def test_cell_masses_and_counts_match_per_cell_forms():
    # the density is formed once and summed per cell, and the exits counted
    # per side by tail counts: both carry the bits of one exit average and one
    # _in_cell count per cell, cell edges and both ends of the interval included
    right = list(zip(wos._CELL_EDGES, wos._CELL_EDGES[1:] + (np.inf,)))
    cells = right + [(-hi, -lo) for lo, hi in right]
    breaks = np.concatenate([f1._graded_breaks(1.0, wos._CELL_EDGES[1], 28, True)[:-1],
                             wos._CELL_EDGES[1:], 2.0 ** np.arange(3, 12)])
    edges = np.array(wos._CELL_EDGES)
    for alpha in (0.6, 1.0, 1.4):
        k = f1.build_kernels(alpha)
        rule = f1._exterior_rule(breaks, 14, -alpha / 2.0)
        for x in (-0.7, 0.3):
            got_cells, masses = wos._exit_cells(k, x)
            assert got_cells == cells
            per_cell = [f1._exit_average(k, 1.0, f1.ExteriorData(
                fn=lambda y, lo=lo, hi=hi: wos._in_cell(y, lo, hi).astype(float)),
                np.array([x]), rule)[0] for lo, hi in cells]
            np.testing.assert_array_equal(masses, per_cell)
            exits, _, _ = wos.wos_exit_batch(k, x, 20_000, seed=43)
            exits = np.concatenate([exits, edges, -edges, np.nextafter(edges, np.inf),
                                    -np.nextafter(edges, np.inf), [1e8, -1e8]])
            np.testing.assert_array_equal(
                wos._cell_counts(exits), [np.sum(wos._in_cell(exits, lo, hi)) for lo, hi in cells])


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
        k = f1.build_kernels(alpha)
        for x in (1.2, 1.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="interior"):
                wos.wos_exit_batch(k, x, 200, seed=0)
            with pytest.raises(ValueError, match="interior"):
                wos.wos_estimate(("mean_exit_time",), k, x, n_paths=200, seed=0)


def test_exit_cdf_matches_quadrature():
    # one-ball law: distribution function of the exit magnitude vs direct
    # integration of the exit density
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha)
        for t in (1.2, 2.0, 5.0):
            y, w = f1._graded_panels(1.0, t, 14, 40, left=-alpha / 2.0)
            quad = float(np.sum(w * 2.0 * k.poisson_coef * (y ** 2 - 1.0) ** (-alpha / 2.0) / y))
            assert exit_cdf_ball(alpha, np.array([t]))[0] == pytest.approx(quad, abs=1e-8)


def test_sampler_matches_cdf(pack):
    k, _ = pack
    rng = substream(17, 0)
    z = wos._exit_jumps(k.alpha, rng.random(200_000))
    for t in (1.3, 2.0, 4.0):
        emp = np.mean(np.abs(z) <= t)
        cdf = float(exit_cdf_ball(k.alpha, np.array([t]))[0])
        se = np.sqrt(cdf * (1 - cdf) / z.size)
        assert abs(emp - cdf) < 3 * se
    assert abs(np.mean(z > 0) - 0.5) < 3 * np.sqrt(0.25 / z.size)


def test_sampler_upper_tail():
    # far tail at alpha = 0.5: P(|Y| > t) = P(1 - S < 1/t^2), with 1 - S
    # Beta(alpha/2, 1 - alpha/2)
    alpha = 0.5
    z = np.abs(wos._exit_jumps(alpha, substream(19, 0).random(200_000)))
    for t in (1e2, 1e4):
        emp = np.mean(z > t)
        tail = float(betainc(alpha / 2.0, 1.0 - alpha / 2.0, 1.0 / t ** 2))
        assert abs(emp - tail) < 3 * np.sqrt(tail * (1 - tail) / z.size)


def test_sampler_respects_cap():
    # 1 - S is kept at or above 1.0 - (1.0 - 1e-16) = 2^-53; at alpha = 0.1
    # about one draw in seven reaches that floor
    cap = 1.0 / np.sqrt(1.0 - (1.0 - 1e-16))
    for alpha in (0.1, 0.5, 1.0, 1.5):
        z = np.abs(wos._exit_jumps(alpha, substream(29, 0).random(200_000)))
        assert np.all((z >= 1.0) & (z <= cap))
        if alpha == 0.1:
            assert np.mean(z == cap) > 0.1


_EXACT_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99)


def _exact_magnitude(alpha, w):
    """|Y| at the uniforms w by scipy's inverse of the incomplete beta
    integral, at the level 2 min(w, 1 - w), with 1 - S floored at 2^-53."""
    v = 2.0 * np.minimum(w, 1.0 - w)
    return 1.0 / np.sqrt(np.maximum(betaincinv(alpha / 2.0, 1.0 - alpha / 2.0, v), 2.0 ** -53))


def test_exit_table_matches_betaincinv():
    # uniforms on the 2^-53 grid next to 0, 1/2 and 1, across the levels in
    # between, and on both sides of the uniform at which 1 - S meets its floor
    ulp = 2.0 ** -53
    near = np.arange(2000) * ulp
    spread = np.logspace(-15.5, np.log10(0.5), 4000)
    steps = np.arange(-50, 51)
    for alpha in _EXACT_ALPHAS:
        # w below floor_w (and above 1 - floor_w) puts 1 - S under the floor
        floor_w = 0.5 * betainc(alpha / 2.0, 1.0 - alpha / 2.0, ulp)
        at_floor = floor_w * (1.0 + 1e-9 * steps) if floor_w > 1e3 * ulp else np.empty(0)
        w = np.concatenate([near, 0.5 - near[1:], 0.5 + near, 1.0 - near[1:], spread,
                            1.0 - spread, at_floor, 1.0 - at_floor,
                            substream(37, 0).random(20_000)])
        y = wos._exit_jumps(alpha, w)
        np.testing.assert_array_equal(y < 0.0, w < 0.5)
        np.testing.assert_allclose(np.abs(y), _exact_magnitude(alpha, w), rtol=1e-12, atol=0.0)
        assert np.all(np.abs(y) <= wos._EXIT_CAP)
        if at_floor.size:
            capped = np.abs(wos._exit_jumps(alpha, at_floor)) == wos._EXIT_CAP
            np.testing.assert_array_equal(capped[steps != 0], steps[steps != 0] < 0)
    # the end levels: v = 0 is 1 - S = 0, floored; v = 1 is S = 0
    y = wos._exit_jumps(1.0, np.array([0.0, 0.5]))
    np.testing.assert_array_equal(y, [-wos._EXIT_CAP, 1.0])


def test_exit_table_checks_its_gap(monkeypatch):
    # the build compares the table with the integral at the piece midpoints
    # and names alpha and the gap when the table misses its bound
    build = wos._exit_table.__wrapped__
    assert wos._exit_table_gap(0.77, build(0.77)) <= 1e-13
    monkeypatch.setattr(wos, "_EXIT_GAP", 1e-18)
    with pytest.raises(ValueError, match=r"alpha = 0\.77 off its integral by \d\.\d+e-1\d"):
        build(0.77)


def test_exit_table_is_lazy_and_read_only():
    # a kernel pack and a continuum solve build no exit table; the first walk
    # at an alpha builds it once, read-only
    alpha = 0.83
    k = f1.build_kernels(alpha)
    wos._exit_table.cache_clear()
    f1.solve_continuum(f1.ContinuumProblem(kernels=k, grid=f1.build_grid(alpha),
                                           g=f1.const_exterior(1.0),
                                           f=power_nonlinearity(1.0, 3.0)))
    assert wos._exit_table.cache_info().currsize == 0
    wos.wos_exit_batch(k, 0.3, 1000, seed=1)
    wos.wos_exit_batch(k, -0.3, 1000, seed=2)
    info = wos._exit_table.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert not wos._exit_table(alpha).flags.writeable


def test_exit_law_chi2_three_probes(pack):
    k, grid = pack
    for j, x in enumerate((0.0, 0.4, -0.7)):
        _, p = wos.wos_exit_chi2(k, x, n_paths=100_000, seed=31 + j)
        assert p > 0.001


def test_wos_suite_oracles_are_calibrated():
    # the wos suite's two walks over 100 seeds at 1e4 paths, on the solve of
    # const 1 with cubic b = 1: the exit-law chi-square p-values of the walks
    # from -0.7 and 0.2 are uniform, and the z-scores from 0.2 of the mean
    # exit time against its closed form and of the control-variate FK
    # residual against 0 are N(0, 1), each by a KS test at 1%.  The FK kind
    # adds about 1 s to the test.
    for alpha in (0.5, 1.0, 1.1, 1.5):
        k = f1.build_kernels(alpha)
        prob = f1.ContinuumProblem(kernels=k, grid=f1.build_grid(alpha),
                                   g=f1.const_exterior(1.0), f=power_nonlinearity(1.0, 3.0))
        sol = f1.solve_continuum(prob)
        fk = dict(g=prob.g, source=f1.source_density(prob, sol),
                  u_x=float(f1.continuum_callable(prob, sol)([0.2])[0]))
        p_values, z, z_fk = [], [], []
        for seed in range(100):
            p_values.append(wos.wos_exit_chi2(k, -0.7, n_paths=10_000, seed=seed + 2)[1])
            (_, p), (est, se), (res, res_se) = wos.wos_estimate(
                ("exit_chi2", "mean_exit_time", "FK_residual"), k, 0.2, n_paths=10_000,
                seed=seed + 8, **fk)
            p_values.append(p)
            z.append((est - k.mean_exit(0.2)) / se)
            z_fk.append(res / res_se)
        assert kstest(p_values, "uniform").pvalue > 0.01, alpha
        assert kstest(z, "norm").pvalue > 0.01, alpha
        assert kstest(z_fk, "norm").pvalue > 0.01, alpha


_EXIT_JUMPS = wos._exit_jumps
_MEAN_EXIT_BALL = f1.FracKernels.mean_exit_ball


def _far_jumps_longer(alpha, w):
    # the 2% longest jumps, min(w, 1 - w) < 0.01, made 1.3x longer
    y = _EXIT_JUMPS(alpha, w)
    y[np.minimum(w, 1.0 - w) < 0.01] *= 1.3
    return y


def _more_left_jumps(alpha, w):
    # P(Y < 0) raised from 1/2 to 0.51: the jumps of w in [0.5, 0.51) turn left
    y = _EXIT_JUMPS(alpha, w)
    turn = (w >= 0.5) & (w < 0.51)
    y[turn] = -y[turn]
    return y


# name -> (owner, attribute, replacement) of each mutation of the walk
_WALK_MUTATIONS = {
    "law of alpha + 0.1": (wos, "_exit_jumps", lambda alpha, w: _EXIT_JUMPS(alpha + 0.1, w)),
    "far jumps x1.3": (wos, "_exit_jumps", _far_jumps_longer),
    "P(Y < 0) + 0.01": (wos, "_exit_jumps", _more_left_jumps),
    "ball mean exit x1.05": (f1.FracKernels, "mean_exit_ball",
                             lambda self, radius: 1.05 * _MEAN_EXIT_BALL(self, radius)),
}


def test_each_wos_suite_walk_earns_its_place(monkeypatch):
    # every start the wos suite has walked from, at its seed at --seed 0, under
    # each mutation: a walk catches one when its exit-law chi-square reads
    # p < 1e-3 or its mean exit time |z| > 3.  The walk from 0.3 left the
    # suite: everything it catches, -0.7 or 0.2 catches too.  The walk from
    # -0.7 stays: at alpha = 1.4 its long jumps catch the far-jump mutation,
    # which 0.2 misses (p = 0.03).
    seeds = {-0.7: 2, 0.2: 8, 0.3: 7}
    chi2_p, caught = {}, {}
    for name, (owner, attr, fn) in _WALK_MUTATIONS.items():
        with monkeypatch.context() as mp:
            mp.setattr(owner, attr, fn)
            for alpha in (0.6, 1.0, 1.4):
                k = f1.build_kernels(alpha)
                for x, seed in seeds.items():
                    (_, p), (est, se) = wos.wos_estimate(("exit_chi2", "mean_exit_time"), k, x,
                                                         n_paths=100_000, seed=seed)
                    z = (est - k.exit_coef * (1.0 - x * x) ** (alpha / 2.0)) / se
                    chi2_p[name, alpha, x] = p
                    caught[name, alpha, x] = p < 1e-3 or abs(z) > 3.0
    assert chi2_p["far jumps x1.3", 1.4, -0.7] < 1e-3 and not caught["far jumps x1.3", 1.4, 0.2]
    for name, alpha, x in caught:
        if x == 0.3 and caught[name, alpha, x]:
            assert caught[name, alpha, -0.7] or caught[name, alpha, 0.2], (name, alpha)


def test_one_step_exit_probability(pack):
    # from the center the first ball is the whole interval: always one step;
    # from x = 0.3 the one-step exit mass has a closed distribution-function
    # form, cross-checked against the sampled frequency
    k, _ = pack
    _, mean_exit, _ = wos.wos_exit_batch(k, 0.0, 5000, seed=3)
    assert np.all(mean_exit == k.mean_exit_ball(1.0))
    x, r = 0.3, 0.7
    thresh = (1.0 + x) / r
    p_exit = 0.5 + 0.5 * (1.0 - float(exit_cdf_ball(k.alpha, np.array([thresh]))[0]))
    counts = 0
    n = 40_000
    for c0 in range(0, n, 4096):
        rng = substream(9, c0 // 4096)
        size = min(4096, n - c0)
        z = wos._exit_jumps(k.alpha, rng.random(size))
        counts += np.sum(np.abs(x + r * z) >= 1.0)
    emp = counts / n
    assert abs(emp - p_exit) < 3 * np.sqrt(p_exit * (1 - p_exit) / n)


def test_pdg_constant_is_exact(pack):
    k, _ = pack
    [(est, se)] = wos.wos_estimate(("PDg",), k, 0.2, n_paths=500, seed=1,
                                   g=lambda y: np.ones_like(y))
    assert est == 1.0 and se == 0.0


def test_pdg_indicator_vs_quadrature(pack):
    k, grid = pack
    g = f1.indicator_exterior(1.0, 2.0)
    [(est, se)] = wos.wos_estimate(("PDg",), k, 0.3, n_paths=100_000, seed=2, g=g)
    exact = float(f1.apply_PD(k, grid, g, x=[0.3])[0])
    assert abs(est - exact) < 3 * se


def test_mean_exit_time_vs_quadrature():
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha)
        grid = f1.build_grid(alpha)
        [(est, se)] = wos.wos_estimate(("mean_exit_time",), k, 0.3, n_paths=100_000, seed=21)
        exact = float(f1.apply_RD(k, grid, h=lambda y: np.ones_like(y), x=[0.3])[0])
        assert abs(est - exact) < 3 * se
        # the wos suite's band centre, E_x tau in closed form
        closed = k.exit_coef * (1.0 - 0.3 ** 2) ** (alpha / 2.0)
        assert abs(closed - exact) <= 1e-11 * closed


def test_ball_green_rule_total_mass(pack):
    # per-ball occupation rule applied to h = 1 recovers the per-ball mean
    # exit time
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha)
        y, v = wos.ball_green_rule(k)
        assert float(v.sum()) == pytest.approx(k.mean_exit_ball(1.0), rel=1e-6)


def test_fk_residual_cubic(pack):
    # the FK residual of the solve is 0 within its band, whose control
    # variate, the mean exit time, explains most of the FK sample's spread on
    # constant data (band 0.15 of the plain one here); a non-finite sample,
    # mean exit times without spread, or mean exit times whose mean misses
    # E_x tau, keep the plain estimate
    k, grid = pack
    prob = f1.ContinuumProblem(kernels=k, grid=grid, g=f1.const_exterior(1.0),
                               f=power_nonlinearity(1.0, 3.0))
    sol = f1.solve_continuum(prob)
    source, u_x = f1.source_density(prob, sol), float(f1.continuum_callable(prob, sol)([0.2])[0])
    [(est, se)] = wos.wos_estimate(("FK_residual",), k, 0.2, n_paths=100_000, seed=13,
                                   g=prob.g, source=source, u_x=u_x)
    assert abs(est) < 3 * se
    _, mean_exit, occ = wos.wos_exit_batch(k, 0.2, 100_000, 13, h=source)
    vals = 1.0 + occ - u_x
    plain = mean_and_stderr(vals)
    assert se < 0.3 * plain[1] and abs(est - plain[0]) < 3.0 * plain[1]
    vals[7] = np.inf
    with np.errstate(invalid="ignore"):
        est, se = control_variate(vals, mean_exit, k.mean_exit(0.2))
    assert est == np.inf and np.isnan(se)
    vals[7] = 0.0
    flat = np.full(vals.size, k.mean_exit(0.0))
    assert control_variate(vals, flat, k.mean_exit(0.0)) == mean_and_stderr(vals)
    t_mean, t_se = mean_and_stderr(mean_exit)
    assert control_variate(vals, mean_exit, t_mean + 2.9 * t_se) != mean_and_stderr(vals)
    assert control_variate(vals, mean_exit, t_mean + 3.1 * t_se) == mean_and_stderr(vals)


def test_kinds_of_one_walk_match_one_kind_calls(pack):
    # the exits and mean exit times do not depend on the source, so every
    # result of one walk has the bits of its one-kind call at the same seed
    k, _ = pack
    fk = dict(g=f1.const_exterior(1.0), **_FK)
    kinds = ("exit_chi2", "PDg", "mean_exit_time", "FK_residual")
    together = wos.wos_estimate(kinds, k, 0.3, n_paths=10_000, seed=41, **fk)
    alone = [wos.wos_estimate((kind,), k, 0.3, n_paths=10_000, seed=41, **fk)[0]
             for kind in kinds]
    assert together == alone
    assert together[0] == wos.wos_exit_chi2(k, 0.3, n_paths=10_000, seed=41)
    assert wos.wos_estimate(("mean_exit_time",), k, 0.3, n_paths=10_000, seed=41) == [alone[2]]
    with pytest.raises(ValueError, match="tuple"):
        wos.wos_estimate("PDg", k, 0.3, n_paths=200, g=fk["g"])


def test_unknown_kind_rejected(pack):
    k, _ = pack
    with pytest.raises(ValueError):
        wos.wos_estimate(("nope",), k, 0.0, n_paths=100, seed=0)


def test_estimate_checks_arguments_before_walking(pack, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("paths walked before the arguments were checked")

    k, _ = pack
    monkeypatch.setattr(wos, "wos_exit_batch", walk)
    g = f1.const_exterior(1.0)
    cases = [("PDg", {}, "g"), ("FK_residual", {}, "g, source, u_x"),
             ("FK_residual", {"g": g, "source": _FK["source"]}, "u_x"),
             ("FK_residual", {"g": g, "u_x": _FK["u_x"]}, "source")]
    for kind, given, missing in cases:
        with pytest.raises(ValueError, match=f"estimator {kind} needs {missing}$"):
            wos.wos_estimate(("mean_exit_time", kind), k, 0.3, n_paths=100, seed=0, **given)


def test_estimates_bitwise_reproducible(pack):
    # counter-based substreams: the same seed walks the same paths
    k, _ = pack
    a = wos.wos_estimate(("mean_exit_time",), k, 0.3, n_paths=10_000, seed=77)
    b = wos.wos_estimate(("mean_exit_time",), k, 0.3, n_paths=10_000, seed=77)
    assert a == b
    fk = dict(g=f1.const_exterior(1.0), **_FK)
    a = wos.wos_estimate(("FK_residual",), k, 0.3, n_paths=10_000, seed=77, **fk)
    b = wos.wos_estimate(("FK_residual",), k, 0.3, n_paths=10_000, seed=77, **fk)
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


def _per_path_walk(k, x, n_paths, seed, h):
    # chunk-by-chunk reference with the substreams of wos_exit_batch: one
    # uniform per live path and ball from the chunk's first substream for the
    # jump; the ball quadrature on each path's first ball, then on every later
    # ball one node of the rule, the count of normalized cumulative weights at
    # or below the path's uniform from the chunk's second substream
    gy, gw = rule = wos.ball_green_rule(k)
    cum = np.cumsum(gw)
    exits, mean_exit, occ = np.empty(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    for c in range(-(-n_paths // CHUNK)):
        rng, pick = substream(seed, c), substream(seed, ~c)
        active = np.arange(c * CHUNK, min((c + 1) * CHUNK, n_paths))
        xs = np.full(active.size, float(x))
        first = True
        while active.size:
            r = 1.0 - np.abs(xs)
            mean_exit[active] += k.mean_exit_ball(1.0) * r ** k.alpha
            if first:
                occ[active] += [wos._ball_source(h, rule, xi, k.alpha) for xi in xs]
            else:
                u = pick.random(active.size)
                j = [int(np.sum(cum / cum[-1] <= ui)) for ui in u]
                occ[active] += cum[-1] * r ** k.alpha * h(xs + r * gy[j])
            first = False
            xs = xs + r * wos._exit_jumps(k.alpha, rng.random(active.size))
            done = np.abs(xs) >= 1.0
            exits[active[done]] = xs[done]
            active, xs = active[~done], xs[~done]
    return exits, mean_exit, occ


def test_shared_first_ball_matches_per_path():
    # two full chunks and a partial one, stepped together by the batch
    def h(y):
        return np.cos(3.0 * y) - y ** 3

    n = 2 * CHUNK + 77
    for alpha in (0.5, 1.0, 1.5):
        k = f1.build_kernels(alpha)
        got = wos.wos_exit_batch(k, 0.2, n, seed=6, h=h)
        for a, b in zip(got, _per_path_walk(k, 0.2, n, 6, h)):
            np.testing.assert_array_equal(a, b)


def test_walk_independent_of_source():
    # the nodes come from a second substream per chunk, so passing h moves
    # neither the exits nor the mean exit times
    for alpha in (0.5, 1.5):
        k = f1.build_kernels(alpha)
        n = 2 * CHUNK + 5
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
        k = f1.build_kernels(alpha)
        rule = wos.ball_green_rule(k)
        draw, mass = wos._node_sampler(rule)
        terms = r ** alpha * mass * h(x + r * draw(substream(23, 0).random(200_000)))
        quad = wos._ball_source(h, rule, x, alpha)
        assert abs(terms.mean() - quad) < 3 * terms.std(ddof=1) / np.sqrt(terms.size)


def test_step_cap_error_reaches_caller(pack):
    k, _ = pack
    with pytest.raises(RuntimeError, match="without exiting"):
        wos.wos_exit_batch(k, 0.3, 3 * CHUNK, seed=0, max_steps=1)


def test_paths_exiting_at_the_step_cap_are_returned():
    # from the centre every path leaves the first ball, so one step suffices
    exits, _, _ = wos.wos_exit_batch(f1.build_kernels(1.0), 0.0, 1000, 0, max_steps=1)
    assert np.all(np.abs(exits) >= 1.0)


def test_fk_walk_memory_bound(pack):
    # the full ball rule runs once per call, on one row of 1,104 points, and
    # every later ball takes one point, so the walk's temporaries are a few
    # arrays of the 20,000 paths; one quadrature row per ball of a 4,096-path
    # chunk alone would be 36 MB for the points
    k, _ = pack
    tracemalloc.start()
    try:
        [(est, _)] = wos.wos_estimate(("FK_residual",), k, 0.3, n_paths=20_000, seed=3,
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
        k = f1.build_kernels(alpha)
        _, mean_exit, occ = wos.wos_exit_batch(k, 0.2, 20_000, seed=8,
                                               h=lambda y: np.ones_like(y))
        np.testing.assert_allclose(occ, mean_exit, rtol=1e-6, atol=0.0)


def test_too_few_paths_rejected(pack):
    k, _ = pack
    for n in (0, 99):
        with pytest.raises(ValueError, match="n_paths"):
            wos.wos_estimate(("mean_exit_time",), k, 0.3, n_paths=n, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            wos.wos_exit_chi2(k, 0.3, n_paths=n, seed=0)
