import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_lab import DiscreteForm, is_transient
from dirichlet_lab.forms import complement, exterior_flux, form_from_dict, form_to_dict
from dirichlet_lab.suite import random_form


def test_energy_zero_vector(two_state):
    assert np.zeros(2) @ two_state.energy_matrix() @ np.zeros(2) == 0.0


def test_energy_two_state_by_hand(two_state):
    # expand the double sum by hand: each unordered pair is counted twice
    u = np.array([1.0, 0.0])
    assert u @ two_state.energy_matrix() @ u == pytest.approx(2.0 * 0.5 * 1.0 + 1.0, abs=0)


def test_energy_symmetric_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        form = random_form(rng, 3, 12)
        u = rng.normal(size=form.n)
        v = rng.normal(size=form.n)
        assert abs(u @ form.energy_matrix() @ v - v @ form.energy_matrix() @ u) < 1e-12


def test_energy_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        form = random_form(rng, 3, 15)
        u = rng.normal(size=form.n)
        assert u @ form.energy_matrix() @ u >= -1e-12


def test_energy_matrix_bytes_match_dense_formula():
    # zero-weight pairs (signed zeros too), killing on some states only, and
    # an isolated state whose row is all zeros: every byte, signs of zeros
    # included, equals 2 (diag(J 1) - J) + diag(kappa)
    rng = np.random.default_rng(5)
    J = np.triu(rng.random((9, 9)) * (rng.random((9, 9)) < 0.4), 1)
    J = J + J.T
    J[4, :] = J[:, 4] = -0.0
    kappa = np.where(np.arange(9) % 3 == 0, rng.random(9), 0.0)
    kappa[4] = -0.0
    form = DiscreteForm(np.ones(9), J, kappa)
    dense = 2.0 * (np.diag(form.J.sum(axis=1)) - form.J) + np.diag(form.kappa)
    assert (form.J == 0).sum() > 20 and np.signbit(form.J).any()
    assert form.energy_matrix().tobytes() == dense.tobytes()


def test_generator_zero_form():
    form = DiscreteForm(m=np.ones(3), J=np.zeros((3, 3)), kappa=np.zeros(3))
    assert np.all(-(form.energy_matrix() / form.m[:, None]) == 0.0)


def test_generator_duality_identity(two_state, k3):
    for form in (two_state, k3):
        L = -(form.energy_matrix() / form.m[:, None])
        n = form.n
        for i in range(n):
            for j in range(n):
                ei = np.eye(n)[i]
                ej = np.eye(n)[j]
                lhs = ei @ form.energy_matrix() @ ej
                rhs = float((-L @ ei) @ (ej * form.m))
                assert abs(lhs - rhs) < 1e-12


def test_generator_row_structure():
    rng = np.random.default_rng(2)
    for _ in range(20):
        form = random_form(rng, 3, 20)
        L = -(form.energy_matrix() / form.m[:, None])
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
        assert tu @ form.energy_matrix() @ tu <= u @ form.energy_matrix() @ u + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_contraction_property_hypothesis(seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng, 3, 10)
    u = rng.normal(scale=3.0, size=form.n)
    tu = np.clip(u, 0.0, 1.0)
    assert tu @ form.energy_matrix() @ tu <= u @ form.energy_matrix() @ u + 1e-12


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


def test_exterior_flux_matches_the_gathered_sum():
    # 2 (J @ w_out)[V] is the gathered sum 2 J[V][:, V^c] @ w[V^c], to
    # rounding, on random forms, subsets and weights; w's entries on V are
    # never read
    rng = np.random.default_rng(3)
    for _ in range(20):
        form = random_form(rng, 5, 40)
        V = np.flatnonzero(rng.random(form.n) < 0.6)
        comp = complement(form.n, V)
        w = rng.normal(size=form.n)
        gathered = 2.0 * form.J[V][:, comp] @ w[comp]
        assert np.allclose(exterior_flux(form, V, w), gathered, rtol=1e-14, atol=1e-14)
        w[V] = np.nan
        assert np.allclose(exterior_flux(form, V, w), gathered, rtol=1e-14, atol=1e-14)


def test_validation_errors():
    with pytest.raises(ValueError):
        DiscreteForm(m=np.array([1.0, -1.0]), J=np.zeros((2, 2)), kappa=np.zeros(2))
    with pytest.raises(ValueError):
        DiscreteForm(m=np.ones(2), J=np.array([[0.0, 1.0], [2.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(ValueError):
        DiscreteForm(m=np.ones(2), J=np.array([[1.0, 0.0], [0.0, 0.0]]), kappa=np.zeros(2))
    with pytest.raises(ValueError):
        DiscreteForm(m=np.ones(2), J=np.zeros((2, 2)), kappa=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="kappa must have 2 entries"):
        DiscreteForm(m=np.ones(2), J=np.zeros((2, 2)), kappa=np.zeros(3))
    with pytest.raises(ValueError, match="J must be nonnegative"):
        DiscreteForm(m=np.ones(2), J=np.array([[0.0, -1.0], [-1.0, 0.0]]), kappa=np.ones(2))
    with pytest.raises(ValueError, match=r"J must be 2x2, got \(2, 3\)"):
        DiscreteForm(m=np.ones(2), J=np.zeros((2, 3)), kappa=np.ones(2))


def test_json_roundtrip(k3):
    back = form_from_dict(json.loads(json.dumps(form_to_dict(k3))))
    assert np.array_equal(back.J, k3.J)
    assert np.array_equal(back.m, k3.m)
    assert np.array_equal(back.kappa, k3.kappa)
    with pytest.raises(ValueError):
        form_from_dict({"m": [1.0], "J": [[0.0]]})
