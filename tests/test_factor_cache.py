"""One Cholesky factorization per (form, subset), one P_D g and R_D mu per
problem, and the kernel-free exit paths."""

import dataclasses
import json
import threading
import time

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from dirichlet_lab import (DiscreteForm, NonTransientError, apriori_report,
                           exit_second_moment, green_apply,
                           harmonic_extension, poisson_kernel, residual_probabilistic, solve,
                           verify_projective)
from dirichlet_lab import cli, projection, semilinear
from dirichlet_lab.semilinear import ProblemSpec, power_nonlinearity
from dirichlet_lab.suite import random_domain, random_form
from paper_checks import forms_and_domains
from dirichlet_lab.trace import killing_part, trace_sequence_graph


def _counting(monkeypatch, module, name, delay=0.0):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _three_level_problem(seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng, 20, 30)
    D = random_domain(rng, form)
    while D.size < 6:
        D = random_domain(rng, form)
    order = rng.permutation(D)
    nest = (np.sort(order[:D.size // 3]), np.sort(order[:2 * D.size // 3]), D)
    g = rng.uniform(-1.0, 1.0, size=form.n)
    mu = np.zeros(form.n)
    mu[D] = rng.uniform(0.0, 0.5, size=D.size)
    f = power_nonlinearity(rng.uniform(0.0, 1.0, size=form.n), 3.0)
    return ProblemSpec(form=form, D=D, g=g, mu=mu, f=f, nest=nest)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_factorization_per_subset(monkeypatch, seed):
    spec = _three_level_problem(seed)
    factorizations = _counting(monkeypatch, projection, "cho_factor")
    projections = _counting(monkeypatch, semilinear, "project")
    sol = solve(spec)
    residual_probabilistic(sol.u, spec)
    verify_projective(sol.u, spec)
    apriori_report(sol.u, spec)
    exit_second_moment(spec.form, spec.D, np.abs(spec.mu))
    trace_sequence_graph(sol.u, spec.form, spec.D, spec.nest)
    assert len({V.tobytes() for V in spec.nest}) == 3
    # one factor of A on D, in nest order, serves all three levels
    assert len(factorizations) == 1
    # verify_projective reuses the last level's projection for D
    assert len(projections) == len(spec.nest)


def test_nest_factor_serves_every_level():
    # levels of 70, 150 and 200 states: blocks of 64 cut at each level's size
    rng = np.random.default_rng(7)
    form = random_form(rng, 260, 260)
    order = rng.permutation(form.n)[:200]
    nest = tuple(np.sort(order[:k]) for k in (70, 150, 200))
    projection.factor_nest(form, nest)
    fresh = DiscreteForm(m=form.m, J=form.J, kappa=form.kappa)
    rhs = rng.normal(size=(200, 3))
    for V in nest:
        _, level_order = projection._restricted_cho(form, V)
        assert (level_order is None) == (V is nest[0])
        ours = projection._solve(form, V, rhs[:V.size])
        np.testing.assert_allclose(ours, projection._solve(fresh, V, rhs[:V.size]),
                                   rtol=1e-10, atol=1e-12)
    assert len(form._cho) == 3 and len(fresh._cho) == 3


def test_cli_run_extends_exterior_data_once(monkeypatch, tmp_path):
    # kappa = 0 and zero absorption, so the verify suite runs vd_check too
    g = [-1.0, 0.25, 0.0, 0.5]
    obj = {"backend": "graph", "D": [1, 2], "g": g, "mu": [0.0, 0.2, 0.1, 0.0],
           "form": {"m": [1.0, 1.0, 1.0, 1.0], "kappa": [0.0, 0.0, 0.0, 0.0],
                    "J": [[0.0, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0],
                          [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.5, 0.0]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    calls = []
    original = projection.harmonic_extension

    def counted(form, V, h):
        calls.append(np.array_equal(V, [1, 2]) and np.array_equal(h, g))
        return original(form, V, h)

    for module in (projection, semilinear):
        monkeypatch.setattr(module, "harmonic_extension", counted)
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", seed=1,
                        suites=("verify", "estimates", "trace", "mc"),
                        paths=1000)
    cli.run(cfg)
    assert "vd_identity" in json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert sum(calls) == 1


def test_problem_data_read_only_and_exact():
    spec = _three_level_problem(0)
    assert spec.pdg.tobytes() == harmonic_extension(spec.form, spec.D, spec.g).tobytes()
    assert spec.rdm.tobytes() == green_apply(spec.form, spec.D, spec.mu).tobytes()
    assert spec.pdg is spec.pdg and spec.rdm is spec.rdm
    for arr in (spec.pdg, spec.rdm, spec.D, spec.g, spec.mu, *spec.nest):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    for name in ("pdg", "rdm"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, np.zeros(spec.form.n))


def test_caller_mutation_leaves_problem_data():
    spec0 = _three_level_problem(1)
    g, mu, D = spec0.g.copy(), spec0.mu.copy(), spec0.D.copy()
    spec = ProblemSpec(form=spec0.form, D=D, g=g, mu=mu, f=spec0.f, nest=spec0.nest)
    g += 1.0
    mu *= 2.0
    D[0] = D[-1]
    assert spec.g.tobytes() == spec0.g.tobytes()
    assert spec.mu.tobytes() == spec0.mu.tobytes()
    assert spec.D.tobytes() == spec0.D.tobytes()
    assert spec.pdg.tobytes() == spec0.pdg.tobytes()
    assert spec.rdm.tobytes() == spec0.rdm.tobytes()
    g += 1.0
    assert spec.pdg.tobytes() == spec0.pdg.tobytes()


def test_concurrent_callers_share_one_factorization(monkeypatch):
    form = random_form(np.random.default_rng(5), 30, 40)
    V = np.arange(form.n - 3)
    mu = np.random.default_rng(6).uniform(size=form.n)
    factorizations = _counting(monkeypatch, projection, "cho_factor", delay=0.05)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(k):
        barrier.wait(timeout=10)
        results[k] = green_apply(form, V, mu)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(factorizations) == 1
    assert all(np.array_equal(r, results[0]) for r in results)


def test_non_transient_subset_raises_every_time(monkeypatch):
    form = DiscreteForm(m=np.ones(2), J=np.array([[0.0, 1.0], [1.0, 0.0]]), kappa=np.zeros(2))
    sweeps = _counting(monkeypatch, projection, "is_transient")
    for _ in range(2):
        with pytest.raises(NonTransientError, match="not transient"):
            green_apply(form, [0, 1], np.ones(2))
    assert len(sweeps) == 1


def test_numerically_singular_subset_raises_every_time(monkeypatch, k3):
    calls = []

    def singular(a, ends=()):
        calls.append(1)
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(projection, "cho_factor", singular)
    for _ in range(2):
        with pytest.raises(NonTransientError, match="numerically singular"):
            projection.project(k3, [1, 2], np.ones(3))
    assert len(calls) == 1


def test_cached_factor_is_read_only(k3):
    (c, inv), order = projection._restricted_cho(k3, np.array([1, 2]))
    for arr in (c, *inv):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert order is None
    assert projection._restricted_cho(k3, np.array([1, 2]))[0][0] is c


def test_trace_without_kernel_matches_kernel():
    for rng, form, D in forms_and_domains():
        u = rng.normal(size=form.n)
        keep = rng.random(D.size) < 0.5
        nest = [np.array([], dtype=int), D[keep], D, np.arange(form.n)]
        seq = trace_sequence_graph(u, form, D, nest)
        integrand = np.abs(u) * green_apply(form, D, killing_part(form, D))
        for k, V in enumerate(nest):
            ref = (poisson_kernel(form, V) @ integrand)[D]
            np.testing.assert_allclose(seq.values[k], ref, rtol=1e-12, atol=0.0)
        assert np.all(seq.values[2] == 0.0)
