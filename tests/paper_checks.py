"""The paper's side results on the graph, which the tests check and no run
computes: comparison, stability, the Dynkin identity, excessive potentials;
and the nested transient pairs the projection and trace tests draw."""

import numpy as np

from dirichlet_lab.forms import DiscreteForm, as_subset, complement, is_transient
from dirichlet_lab.potential import green_apply
from dirichlet_lab.projection import _solve, harmonic_extension, project
from dirichlet_lab.semilinear import ProblemSpec, solve
from dirichlet_lab.suite import random_domain

_EXCESSIVE_TOL = 1e-12


def harmonic_boundary(form: DiscreteForm, D) -> np.ndarray:
    """States outside D carrying positive aggregated exit-kernel mass.

    The aggregated measure gives state y the mass sum_{x in D} m[x] P_D[x, y],
    with m the reference measure.  Strict positivity up to a
    rounding guard of 1e-14 selects the minimal atomically-supported carrier.
    Since A_DD is symmetric, m @ P_D[D, Dc] = -(A_DD^{-1} m) @ A[D, Dc]:
    one solve, and the kernel itself is never formed.
    """
    idx = as_subset(form.n, D)
    if idx.size == 0:
        return np.array([], dtype=int)
    comp = complement(form.n, idx)
    mass = -(_solve(form, idx, form.m[idx]) @ form.energy_matrix()[np.ix_(idx, comp)])
    return comp[mass > 1e-14]


def compare(spec1: ProblemSpec, spec2: ProblemSpec) -> dict:
    """Order the two solutions after checking the comparison hypotheses.

    Requires mu1 <= mu2 atomwise, g1 <= g2 on the harmonic boundary, and the
    absorption ordering evaluated along the computed solutions.  On a
    precondition violation the comparison is skipped and reported.
    """
    form, idx = spec1.form, spec1.D
    report = {"checked": False, "ordered": False, "max_violation": np.nan, "precondition": ""}
    if form is not spec2.form and not (
            np.array_equal(form.m, spec2.form.m)
            and np.array_equal(form.J, spec2.form.J)
            and np.array_equal(form.kappa, spec2.form.kappa)):
        report["precondition"] = "forms differ"
        return report
    if not np.array_equal(idx, spec2.D):
        report["precondition"] = "domains differ"
        return report
    if np.any(spec1.mu > spec2.mu + 1e-12):
        report["precondition"] = "mu ordering violated"
        return report
    bd = harmonic_boundary(form, idx)
    if np.any(spec1.g[bd] > spec2.g[bd] + 1e-12):
        report["precondition"] = "g ordering violated on harmonic boundary"
        return report
    u1 = solve(spec1).u
    u2 = solve(spec2).u
    f_le_at_u2 = not np.any(spec1.f(idx, u2[idx]) > spec2.f(idx, u2[idx]) + 1e-12)
    f_le_at_u1 = not np.any(spec1.f(idx, u1[idx]) > spec2.f(idx, u1[idx]) + 1e-12)
    if not (f_le_at_u2 or f_le_at_u1):
        report["precondition"] = "absorption ordering violated"
        return report
    report["checked"] = True
    viol = float(np.max((u1 - u2)[idx], initial=0.0))
    report["max_violation"] = max(viol, 0.0)
    report["ordered"] = bool(np.all(u1[idx] <= u2[idx] + 1e-9))
    return report


def stability_gap(spec1: ProblemSpec, spec2: ProblemSpec) -> dict:
    """Defects of the data-continuity bounds between two solved instances."""
    form, idx = spec1.form, spec1.D
    u1 = solve(spec1).u
    u2 = solve(spec2).u
    df = np.zeros(form.n)
    df[idx] = np.abs(spec1.f(idx, u1[idx]) - spec2.f(idx, u1[idx]))
    rd_df = green_apply(form, idx, df * form.m)
    rd_dmu = green_apply(form, idx, np.abs(spec1.mu - spec2.mu))
    pd_dg = harmonic_extension(form, idx, np.abs(spec1.g - spec2.g))
    gap = float(np.max((np.abs(u1 - u2) - rd_df - rd_dmu - pd_dg)[idx], initial=0.0))
    out = {"stability": gap}
    # names do not tell absorptions apart: power[3.0] with two different b
    same_f = spec1.f is spec2.f or bool(spec1.f.params) and spec1.f.params == spec2.f.params
    if same_f:
        dff = np.zeros(form.n)
        dff[idx] = np.abs(spec1.f(idx, u1[idx]) - spec1.f(idx, u2[idx]))
        lhs = np.abs(u1 - u2) + green_apply(form, idx, dff * form.m)
        out["stability_strong"] = float(np.max((lhs - rd_dmu - pd_dg)[idx], initial=0.0))
    return out


def dynkin_defect(form: DiscreteForm, V, W, mu) -> float:
    """Max-norm gap between project_V(R_W mu) and R_V mu for nested V in W."""
    idxV = as_subset(form.n, V)
    idxW = as_subset(form.n, W)
    if not np.isin(idxV, idxW).all():
        raise ValueError("V must be contained in W")
    rw = green_apply(form, idxW, mu)
    rv = green_apply(form, idxV, mu)
    return float(np.max(np.abs(project(form, idxV, rw) - rv), initial=0.0))


def is_excessive(form: DiscreteForm, V, rho) -> bool:
    """Whether rho is excessive for the semigroup killed outside V.

    Finite-state criterion: rho >= 0 on V and the restricted negative
    generator applied to rho on V is nonnegative, both up to 1e-12.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (form.n,):
        raise ValueError("rho has wrong length")
    idx = as_subset(form.n, V)
    if idx.size == 0:
        return True
    if np.min(rho[idx]) < -_EXCESSIVE_TOL:
        return False
    A = form.energy_matrix()[np.ix_(idx, idx)]
    neg_gen = (A @ rho[idx]) / form.m[idx]
    return bool(np.min(neg_gen) >= -_EXCESSIVE_TOL)


def random_nested_subsets(rng: np.random.Generator, form: DiscreteForm):
    """Transient nested pair V inside W, both proper."""
    for _ in range(64):
        W = random_domain(rng, form)
        if W.size < 2:
            continue
        keep = rng.random(W.size) < 0.6
        if not keep.any():
            keep[0] = True
        V = W[keep]
        if is_transient(form, V):
            return V, W
    raise RuntimeError("failed to draw nested transient subsets")
