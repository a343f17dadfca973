import numpy as np
import pytest

from dirichlet_lab import (exit_second_moment, green_apply, green_operator, harmonic_extension,
                           project)
from dirichlet_lab.forms import NonTransientError, DiscreteForm
from dirichlet_lab.suite import random_form
from paper_checks import dynkin_defect, is_excessive, random_nested_subsets


def test_green_zero_measure(k3):
    assert np.max(np.abs(green_apply(k3, [1, 2], np.zeros(3)))) == 0.0


def test_green_k3_scalar(k3):
    # restricted negative generator at state 1 has diagonal 2
    mu = np.array([0.0, 1.0, 0.0])
    assert green_apply(k3, [1], mu)[1] == pytest.approx(0.5, abs=1e-14)


def test_green_positivity_and_support():
    rng = np.random.default_rng(9)
    for _ in range(50):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[V] = rng.uniform(0.0, 1.0, size=V.size)
        pot = green_apply(form, V, mu)
        assert np.min(pot) >= -1e-14
        assert np.max(np.abs(np.delete(pot, V))) == 0.0


def test_green_variational_identity():
    rng = np.random.default_rng(10)
    for _ in range(50):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        f = rng.normal(size=form.n)
        pot = green_apply(form, V, f * form.m)
        A = form.energy_matrix()
        assert np.max(np.abs((A @ pot - f * form.m)[V])) < 1e-10


def test_green_operator_kernel_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(25):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        G = green_operator(form, V)
        kernel = G / form.m[V][None, :]  # density kernel is symmetric
        assert np.max(np.abs(kernel - kernel.T)) < 1e-12


def test_green_nontransient_rejected():
    form = DiscreteForm(m=np.ones(2), J=np.array([[0.0, 1.0], [1.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(NonTransientError):
        green_apply(form, [0, 1], np.ones(2))


def test_dynkin_equal_subsets(k3):
    mu = np.array([0.0, 0.3, -0.2])
    assert dynkin_defect(k3, [1, 2], [1, 2], mu) < 1e-12


def test_dynkin_random_nested():
    rng = np.random.default_rng(12)
    for _ in range(50):
        form = random_form(rng, 15, 25)
        V, W = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[W] = rng.normal(size=W.size)
        assert dynkin_defect(form, V, W, mu) < 1e-10


def test_dynkin_measure_outside_V():
    rng = np.random.default_rng(13)
    for _ in range(20):
        form = random_form(rng, 8, 20)
        V, W = random_nested_subsets(rng, form)
        rest = np.setdiff1d(W, V)
        if rest.size == 0:
            continue
        mu = np.zeros(form.n)
        mu[rest] = rng.uniform(0.2, 1.0, size=rest.size)
        assert np.max(np.abs(green_apply(form, V, mu))) == 0.0
        assert dynkin_defect(form, V, W, mu) < 1e-10


def test_dynkin_requires_nesting(k3):
    with pytest.raises(ValueError):
        dynkin_defect(k3, [0, 1], [1, 2], np.zeros(3))


def test_excessive_cases(k3):
    assert is_excessive(k3, [1, 2], np.ones(3))
    assert not is_excessive(k3, [1, 2], -np.ones(3))
    pot = green_apply(k3, [1, 2], np.array([0.0, 0.4, 0.7]))
    assert is_excessive(k3, [1, 2], pot)


def test_excessive_potentials_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[V] = rng.uniform(0.0, 1.0, size=V.size)
        assert is_excessive(form, V, green_apply(form, V, mu))


def test_exit_second_moment_zero(k3):
    exact, bound = exit_second_moment(k3, [1, 2], np.zeros(3))
    assert np.max(np.abs(exact)) == 0.0 and bound == 0.0


def test_exit_second_moment_k3_by_hand(k3):
    # nested solves: R mu = (1, 2) on D, exact = 2 R(mu * R mu) = (4, 8)
    mu = np.array([0.0, 0.0, 1.0])
    exact, bound = exit_second_moment(k3, [1, 2], mu)
    assert exact[1] == pytest.approx(4.0, abs=1e-12)
    assert exact[2] == pytest.approx(8.0, abs=1e-12)
    assert bound == pytest.approx(8.0, abs=1e-12)
    assert np.max(exact) <= bound + 1e-10


def test_exit_second_moment_rejects_signed(k3):
    with pytest.raises(ValueError):
        exit_second_moment(k3, [1, 2], np.array([0.0, -0.1, 0.4]))


def test_exit_second_moment_bound_random():
    rng = np.random.default_rng(15)
    worst = -np.inf
    for _ in range(100):
        form = random_form(rng, 4, 20)
        V, _ = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[V] = rng.uniform(0.0, 1.0, size=V.size)
        exact, bound = exit_second_moment(form, V, mu)
        slack = bound - np.max(exact)
        worst = max(worst, np.max(exact) - bound)
        assert np.max(exact) <= bound + 1e-10
        assert slack > -1e-10


def test_green_monotone_in_subset():
    rng = np.random.default_rng(16)
    for _ in range(50):
        form = random_form(rng, 4, 20)
        V, W = random_nested_subsets(rng, form)
        mu = np.zeros(form.n)
        mu[V] = rng.uniform(0.0, 1.0, size=V.size)
        rv = green_apply(form, V, mu)
        rw = green_apply(form, W, mu)
        assert np.all(rv <= rw + 1e-12)


def test_projection_consistency_with_green(k3):
    # the projection of a potential onto a smaller subset is again a potential
    mu = np.array([0.0, 0.5, 1.0])
    rw = green_apply(k3, [1, 2], mu)
    pv = project(k3, [1], rw)
    rv = green_apply(k3, [1], mu)
    assert np.max(np.abs(pv - rv)) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda form: green_apply(form, [1, 2], np.zeros(2)), "mu has wrong length"),
    (lambda form: exit_second_moment(form, [1, 2], np.zeros(4)), "mu has wrong length"),
    (lambda form: harmonic_extension(form, [1, 2], np.zeros(2)), "g has wrong length"),
    (lambda form: is_excessive(form, [1, 2], np.ones(4)), "rho has wrong length"),
], ids=["green_apply", "exit_second_moment", "harmonic_extension", "is_excessive"])
def test_vector_of_wrong_length_refused(k3, call, message):
    with pytest.raises(ValueError, match=message):
        call(k3)
