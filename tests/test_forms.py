import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_lab import DiscreteForm, energy, generator, is_transient
from dirichlet_lab.forms import form_from_dict, form_to_dict, read_form
from dirichlet_lab.suite import random_form


def test_energy_zero_vector(two_state):
    assert energy(two_state, np.zeros(2), np.zeros(2)) == 0.0


def test_energy_two_state_by_hand(two_state):
    # expand the double sum by hand: each unordered pair is counted twice
    u = np.array([1.0, 0.0])
    assert energy(two_state, u, u) == pytest.approx(2.0 * 0.5 * 1.0 + 1.0, abs=0)


def test_energy_symmetric_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        form = random_form(rng, 3, 12)
        u = rng.normal(size=form.n)
        v = rng.normal(size=form.n)
        assert abs(energy(form, u, v) - energy(form, v, u)) < 1e-12


def test_energy_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        form = random_form(rng, 3, 15)
        u = rng.normal(size=form.n)
        assert energy(form, u, u) >= -1e-12


def test_energy_dimension_mismatch(two_state):
    with pytest.raises(ValueError):
        energy(two_state, np.zeros(3), np.zeros(2))


def test_generator_zero_form():
    form = DiscreteForm(m=np.ones(3), J=np.zeros((3, 3)), kappa=np.zeros(3))
    assert np.all(generator(form) == 0.0)


def test_generator_duality_identity(two_state, k3):
    for form in (two_state, k3):
        L = generator(form)
        n = form.n
        for i in range(n):
            for j in range(n):
                ei = np.eye(n)[i]
                ej = np.eye(n)[j]
                lhs = energy(form, ei, ej)
                rhs = float((-L @ ei) @ (ej * form.m))
                assert abs(lhs - rhs) < 1e-12


def test_generator_row_structure():
    rng = np.random.default_rng(2)
    for _ in range(20):
        form = random_form(rng, 3, 20)
        L = generator(form)
        off = L - np.diag(np.diag(L))
        assert np.all(off >= 0)
        assert np.all(np.diag(L) <= 0)
        # self-adjoint in the m-weighted inner product
        ML = form.m[:, None] * L
        assert np.max(np.abs(ML - ML.T)) < 1e-12


def test_unit_contraction_decreases_energy():
    # discrete analogue of the Markov property of the form
    rng = np.random.default_rng(3)
    for _ in range(100):
        form = random_form(rng, 3, 15)
        u = rng.normal(scale=2.0, size=form.n)
        tu = np.clip(u, 0.0, 1.0)
        assert energy(form, tu, tu) <= energy(form, u, u) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_contraction_property_hypothesis(seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng, 3, 10)
    u = rng.normal(scale=3.0, size=form.n)
    tu = np.clip(u, 0.0, 1.0)
    assert energy(form, tu, tu) <= energy(form, u, u) + 1e-12


def test_restrict_full_and_empty(k3):
    A = k3.energy_matrix()
    full = A[np.ix_(range(3), range(3))]
    u = np.array([0.3, -1.0, 2.0])
    assert u @ full @ u == pytest.approx(energy(k3, u, u))
    empty = A[np.ix_([], [])]
    assert empty.shape[0] == 0


def test_restrict_principal_submatrix(k3):
    sub = k3.energy_matrix()[np.ix_([1], [1])]
    e1 = np.array([0.0, 1.0, 0.0])
    assert np.array([1.0]) @ sub @ np.array([1.0]) == pytest.approx(energy(k3, e1, e1))


def test_transience_cases(two_state, k3):
    assert is_transient(two_state, [0, 1])  # state 0 is killed
    conservative = DiscreteForm(m=np.ones(3), J=k3.J, kappa=np.zeros(3))
    assert not is_transient(conservative, [0, 1, 2])  # no escape anywhere
    assert is_transient(conservative, [0, 1])  # strict subset of connected graph
    assert is_transient(conservative, [])


def test_transience_isolated_component():
    J = np.zeros((4, 4))
    J[0, 1] = J[1, 0] = 1.0
    J[2, 3] = J[3, 2] = 1.0
    form = DiscreteForm(m=np.ones(4), J=J, kappa=np.array([1.0, 0, 0, 0]))
    assert is_transient(form, [0, 1])
    assert not is_transient(form, [2, 3])  # component never reaches a kill
    assert not is_transient(form, [0, 1, 2, 3])


def test_validation_errors():
    with pytest.raises(ValueError):
        DiscreteForm(m=np.array([1.0, -1.0]), J=np.zeros((2, 2)), kappa=np.zeros(2))
    with pytest.raises(ValueError):
        DiscreteForm(m=np.ones(2), J=np.array([[0.0, 1.0], [2.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(ValueError):
        DiscreteForm(m=np.ones(2), J=np.array([[1.0, 0.0], [0.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(ValueError):
        DiscreteForm(m=np.ones(2), J=np.zeros((2, 2)), kappa=np.array([-1.0, 0.0]))


def test_json_roundtrip(tmp_path, k3):
    path = tmp_path / "form.json"
    with open(path, "w") as fh:
        json.dump(form_to_dict(k3), fh)
    back = read_form(path)
    assert np.array_equal(back.J, k3.J)
    assert np.array_equal(back.m, k3.m)
    assert np.array_equal(back.kappa, k3.kappa)
    with pytest.raises(ValueError):
        form_from_dict({"m": [1.0], "J": [[0.0]]})
