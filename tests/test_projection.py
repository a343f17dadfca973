import numpy as np
import pytest

from dirichlet_lab import (DiscreteForm, NonTransientError, harmonic_extension, poisson_kernel,
                           project, projection)
from dirichlet_lab.forms import complement
from dirichlet_lab.suite import random_form
from paper_checks import forms_and_domains, harmonic_boundary, random_nested_subsets


def test_project_already_supported(k3):
    u = np.array([0.0, 1.0, 0.0])
    assert np.allclose(project(k3, [1], u), u, atol=1e-14)


def test_project_k3_by_hand(k3):
    # 1x1 system: A_11 w = (A u)[1] with A = [[2,-1,0],[-1,2,-1],[0,-1,1]]
    u = np.array([0.0, 1.0, 0.0])
    w = project(k3, [1], u)
    assert w[1] == pytest.approx(1.0, abs=1e-14)


def test_project_orthogonal_complement(k3):
    g = np.array([1.0, 0.0, 1.0])
    h = harmonic_extension(k3, [1], g)
    # h is energy-orthogonal to the subspace, so projecting it gives zero
    assert np.max(np.abs(project(k3, [1], h))) < 1e-12


def test_project_galerkin_orthogonality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        u = rng.normal(size=form.n)
        w = project(form, V, u)
        A = form.energy_matrix()
        defect = np.max(np.abs((A @ (u - w))[V]))
        assert defect < 1e-10
        assert np.max(np.abs(np.delete(w, V))) == 0.0


def test_project_non_transient_raises():
    form = DiscreteForm(m=np.ones(2), J=np.array([[0.0, 1.0], [1.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(NonTransientError):
        project(form, [0, 1], np.ones(2))


def test_harmonic_extension_matches_exterior(k3):
    g = np.array([1.0, 0.0, 1.0])
    h = harmonic_extension(k3, [1], g)
    assert h[0] == 1.0 and h[2] == 1.0
    assert h[1] == pytest.approx(1.0)  # average of the two neighbors


def test_harmonic_extension_constant_no_kill():
    # no killing inside V, exit edges only: constants extend to constants
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = 0.4
    J[1, 2] = J[2, 1] = 0.7
    form = DiscreteForm(m=np.ones(3), J=J, kappa=np.zeros(3))
    g = np.full(3, 3.7)
    h = harmonic_extension(form, [1], g)
    assert np.max(np.abs(h - 3.7)) < 1e-12


def test_harmonic_extension_supported_data_vanishes(k3):
    g = np.array([0.0, 2.0, 0.0])  # supported on V = {1}
    h = harmonic_extension(k3, [1], g)
    assert np.max(np.abs(h)) < 1e-14


def test_poisson_kernel_k3(k3):
    P = poisson_kernel(k3, [1])
    assert P[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert P[1, 2] == pytest.approx(0.5, abs=1e-12)
    assert P[1].sum() == pytest.approx(1.0, abs=1e-12)
    # rows outside V are unit point masses
    assert np.allclose(P[0], np.eye(3)[0])
    assert np.allclose(P[2], np.eye(3)[2])


def test_poisson_kernel_empty_subset(k3):
    P = poisson_kernel(k3, [])
    assert np.array_equal(P, np.eye(3))


def test_poisson_kernel_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        form = random_form(rng, 4, 25)
        V, _ = random_nested_subsets(rng, form)
        P = poisson_kernel(form, V)
        assert np.all(P >= -1e-14)
        assert np.max(P.sum(axis=1)) <= 1.0 + 1e-12
        assert np.max(np.abs(P[:, V])) == 0.0
        # kernel route equals the harmonic extension
        g = rng.normal(size=form.n)
        assert np.max(np.abs(P @ g - harmonic_extension(form, V, g))) < 1e-10


def test_maximum_principle_and_positivity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        comp = np.setdiff1d(np.arange(form.n), V)
        if comp.size == 0:
            continue
        g = rng.normal(size=form.n)
        h = harmonic_extension(form, V, g)
        assert np.max(np.abs(h)) <= np.max(np.abs(g[comp])) + 1e-10
        hpos = harmonic_extension(form, V, np.abs(g))
        assert np.min(hpos) >= -1e-12


def test_monotone_exhaustion():
    rng = np.random.default_rng(7)
    for _ in range(25):
        form = random_form(rng, 6, 20)
        V, W = random_nested_subsets(rng, form)
        g = rng.normal(size=form.n)
        pv = project(form, V, g)
        pw = project(form, W, g)
        # energy norms increase along the nest and stabilize at the top level
        assert pv @ form.energy_matrix() @ pv <= pw @ form.energy_matrix() @ pw + 1e-10
        assert np.max(np.abs(project(form, W, g) - pw)) == 0.0


def test_tower_and_composition():
    rng = np.random.default_rng(8)
    for _ in range(50):
        form = random_form(rng, 4, 20)
        V, W = random_nested_subsets(rng, form)
        PV = poisson_kernel(form, V)
        PW = poisson_kernel(form, W)
        g = rng.normal(size=form.n)
        assert np.max(np.abs(PV @ (PW @ g) - PW @ g)) < 1e-10
        assert np.max(np.abs(PV @ PW - PW)) < 1e-10


def test_harmonic_boundary_k3(k3):
    assert harmonic_boundary(k3, [1]).tolist() == [0, 2]
    assert harmonic_boundary(k3, []).tolist() == []


def test_harmonic_boundary_excludes_unreachable():
    # chain 0-1-2-3: from D = {1} the exit hits only direct neighbors
    J = np.zeros((4, 4))
    for i in range(3):
        J[i, i + 1] = J[i + 1, i] = 0.5
    form = DiscreteForm(m=np.ones(4), J=J, kappa=np.zeros(4))
    assert harmonic_boundary(form, [1]).tolist() == [0, 2]
    assert harmonic_boundary(form, [1, 2]).tolist() == [0, 3]


def _boundary_by_kernel(form, D):
    """Reference definition: aggregated mass m @ P_D over the complement."""
    if D.size == 0:
        return np.array([], dtype=int)
    comp = complement(form.n, D)
    P = poisson_kernel(form, D)
    return comp[form.m[D] @ P[D][:, comp] > 1e-14]


def test_harmonic_boundary_without_kernel_matches_kernel():
    for _, form, D in forms_and_domains():
        assert np.array_equal(harmonic_boundary(form, D), _boundary_by_kernel(form, D))


def test_harmonic_boundary_non_transient_without_complement():
    form = DiscreteForm(m=np.ones(2), J=np.array([[0.0, 1.0], [1.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(NonTransientError):
        harmonic_boundary(form, [0, 1])


def _spd(rng, n, cond):
    """Random SPD matrix with eigenvalues spread geometrically over ``cond``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
    return 0.5 * (a + a.T)


def _graph_block(rng, n=1600, n_domain=960):
    """Energy block on D of a dense graph like the benchmark's graph_exact specs."""
    codes = np.triu(rng.integers(200, 1001, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
    kappa = np.where(rng.random(n) < 0.4, rng.uniform(0.3, 1.2, size=n), 0.0)
    form = DiscreteForm(m=rng.uniform(0.5, 2.0, size=n), J=(codes + codes.T) / n, kappa=kappa)
    D = np.sort(rng.choice(n, size=n_domain, replace=False))
    return form.energy_matrix()[np.ix_(D, D)]


def _residual(a, x, b):
    return np.linalg.norm(a @ x - b) / (np.linalg.norm(a) * np.linalg.norm(x))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blocked_cholesky_factor(n):
    a = _spd(np.random.default_rng(n), n, 1e6)
    L, inv = projection.cho_factor(a)
    assert np.array_equal(L, np.tril(L))
    assert np.max(np.abs(L @ L.T - a)) < 1e-14
    assert len(inv) == -(-n // 64)
    for k, block in enumerate(inv):
        diag = L[64 * k:64 * (k + 1), 64 * k:64 * (k + 1)]
        assert np.max(np.abs(block @ diag - np.eye(diag.shape[0]))) < 1e-12


@pytest.mark.parametrize("case", ["spd200", "graph960"])
def test_blocked_solve_residual_matches_scipy(case):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(20)
    a = _spd(rng, 200, 1e8) if case == "spd200" else _graph_block(rng)
    ours, theirs = projection.cho_factor(a), scipy_linalg.cho_factor(a)
    for b in (rng.normal(size=a.shape[0]), rng.normal(size=(a.shape[0], 5))):
        x = projection.cho_solve(ours, b)
        assert x.shape == b.shape
        assert _residual(a, x, b) <= 10.0 * _residual(a, scipy_linalg.cho_solve(theirs, b), b)


def test_non_finite_input_is_a_value_error(k3):
    # the exit-flux formula never reads g on V, so the whole input is checked
    for u in (np.array([0.0, np.nan, 0.0]), np.array([0.0, 0.0, np.inf])):
        with pytest.raises(ValueError, match="infs or NaNs"):
            project(k3, [1, 2], u)
        with pytest.raises(ValueError, match="infs or NaNs"):
            harmonic_extension(k3, [1, 2], u)
    idx = np.array([1, 2])
    for rhs in (np.array([1.0, np.nan]), np.array([[np.nan], [1.0]])):
        with pytest.raises(ValueError, match="infs or NaNs"):
            projection._solve(k3, idx, rhs)
    with pytest.raises(ValueError, match="infs or NaNs"):
        projection.cho_factor(np.array([[2.0, np.nan], [np.nan, 2.0]]))


def test_harmonic_extension_is_energy_orthogonal_on_a_dense_graph():
    # a graph_exact-like form: dense weights 0.2-1.0, killing and measure
    # scaled by n.  Subtracting a projection left up to 4.5e-13 in (A h)[D]
    rng = np.random.default_rng(11)
    n, nD = 400, 240
    w = rng.uniform(0.2, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.5)
    J = np.triu(w, 1)
    kappa = np.where(rng.random(n) < 0.4, rng.uniform(0.3, 1.2, size=n), 0.0)
    form = DiscreteForm(m=n * rng.uniform(0.5, 2.0, size=n), J=J + J.T, kappa=n * kappa)
    D = np.sort(rng.choice(n, size=nD, replace=False))
    A = form.energy_matrix()
    for g in (rng.uniform(-1.0, 1.0, size=n), np.cos(np.arange(n, dtype=float)),
              rng.standard_normal(n)):
        h = harmonic_extension(form, D, g)
        assert np.array_equal(np.delete(h, D), np.delete(g, D))
        assert np.max(np.abs((A @ h)[D])) <= 1e-13
