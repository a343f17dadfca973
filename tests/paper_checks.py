"""The paper's results that the tests check and no run computes: its
monotone truncation ladder, the reference of the Newton solves on both
backends; and on the graph comparison, stability, the Dynkin identity,
excessive potentials, and the random domains and nested transient pairs
the projection and trace tests draw."""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from dirichlet_lab import frac1d, semilinear
from dirichlet_lab.forms import DiscreteForm, as_subset, complement, is_transient
from dirichlet_lab.potential import green_apply, green_operator
from dirichlet_lab.projection import _solve, harmonic_extension, project
from dirichlet_lab.semilinear import (Nonlinearity, ProblemSpec, Solution,
                                      residual_probabilistic, solve)
from dirichlet_lab.suite import random_domain, random_form

_EXCESSIVE_TOL = 1e-12
# ladder stop on successive outer iterates
_OUTER_TOL = 1e-10
# the largest ladder envelope m whose m*m is a finite float: the ladder's only
# stop other than settling
_MAX_ENVELOPE = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class LadderConfig:
    """Truncation schedule: envelope indices base**k for k = 0, 1, 2, ..."""

    base: int = 2

    def __post_init__(self):
        base = self.base
        if isinstance(base, bool) or not isinstance(base, numbers.Integral) or base < 2:
            raise ValueError(f"ladder base must be an integer >= 2, got {base!r}")

    def schedule(self) -> list[int]:
        """The envelope indices up to ``_MAX_ENVELOPE``."""
        out = [1]
        while out[-1] * self.base <= _MAX_ENVELOPE:
            out.append(out[-1] * self.base)
        return out


def solve_ladder(base: np.ndarray, gmat: np.ndarray | None, f: Nonlinearity, points,
                 cfg: LadderConfig | None = None):
    """Monotone truncation-ladder fixed point of u = base + gmat f(points, u).

    The reference solve on either backend (``solve_by_ladder``).  Each level
    is ``semilinear._newton_fixed_point`` on f clipped between the
    envelopes, from the last level's u.  The envelopes grow until
    successive iterates settle on both loops, or up to ``_MAX_ENVELOPE``,
    where the last iterate is returned unconverged; ``converged`` also
    needs the settling level's solve to have met its tolerance.  Each
    level's trace row is the row of ``_newton_fixed_point`` with its
    envelope indices ``n`` and ``m``.  f must be nonincreasing in y at
    ``points``; the problem types check that when they are built, before
    any ``gmat`` is formed.  Zero absorption returns ``base.copy()`` with an
    empty trace and never reads ``gmat``, so a caller may pass None for it.
    Returns (u, trace, meta); ``meta`` holds ``converged`` and the worst
    violations of the ladder ordering, nondecreasing in the upper envelope
    index (``monotone_up_slack``) and nonincreasing in the lower one
    (``monotone_down_slack``).
    """
    if f.is_zero:
        return base.copy(), [], {"converged": True, "monotone_up_slack": 0.0,
                                 "monotone_down_slack": 0.0}
    schedule = (cfg or LadderConfig()).schedule()
    trace = []
    up = down = 0.0
    converged = False
    u = base
    prev_m = None
    for m in schedule:
        lo = -(m * m) / (1.0 + m)
        prev_n = None
        for n in schedule:
            hi = (n * n) / (1.0 + n)

            def fnm(v, lo=lo, hi=hi):
                return np.clip(f(points, v), lo, hi)

            def dnm(v, lo=lo, hi=hi):
                raw = f(points, v)
                return np.where((raw > lo) & (raw < hi), f.derivative(points, v), 0.0)

            u, row, met = semilinear._newton_fixed_point(u, base, gmat, fnm, dnm)
            trace.append({"n": n, "m": m, **row})
            if prev_n is not None:
                up = min(up, float(np.min(u - prev_n, initial=0.0)))
                if float(np.max(np.abs(u - prev_n))) < _OUTER_TOL:
                    break
            prev_n = u
        if prev_m is not None:
            down = min(down, float(np.min(prev_m - u, initial=0.0)))
            if float(np.max(np.abs(u - prev_m))) < _OUTER_TOL:
                # settled iterates of a stalled level solve are no solution
                converged = met
                break
        prev_m = u
    return u, trace, {"converged": converged, "monotone_up_slack": up, "monotone_down_slack": down}


def solve_by_ladder(problem, base: int = 2) -> Solution:
    """``problem`` (graph or continuum) solved by ``solve_ladder`` on the
    envelope indices base**k, from the base of its Newton solve.  The Green
    matrix, G of D on the graph and the grid's W on the continuum, is formed
    only for nonzero absorption.  ``fixed_point`` is the residual that
    ``solve`` reports: ``residual_probabilistic`` on the graph and
    ``frac1d.fixed_point_residual`` on the continuum.  ``meta`` holds the
    ladder's ``converged`` and monotone slacks, and on the continuum what
    ``frac1d.solve_continuum`` puts there."""
    cfg, f = LadderConfig(base), problem.f
    if isinstance(problem, ProblemSpec):
        idx = problem.D
        G = None if f.is_zero else green_operator(problem.form, idx)
        uD, trace, meta = solve_ladder((problem.pdg + problem.rdm)[idx], G, f, idx, cfg)
        u = problem.g.copy()
        u[idx] = uD
        return Solution(u=u, residuals={"fixed_point": residual_probabilistic(u, problem)},
                        ladder_trace=trace, converged=meta["converged"], meta=meta)
    nodes = problem.grid.interior_x
    start = frac1d._continuum_base(problem)
    W = None if f.is_zero else frac1d.green_matrix(problem.kernels, problem.grid)
    u, trace, meta = solve_ladder(start, W, f, nodes, cfg)
    sol = Solution(u=u, residuals={}, ladder_trace=trace, converged=meta["converged"],
                   meta={"x": nodes, "problem": problem, "base": start, "green_matrix": W, **meta})
    sol.residuals["fixed_point"] = frac1d.fixed_point_residual(sol)
    return sol


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


def forms_and_domains():
    """``(rng, form, D)`` on twelve random forms, each with a random domain,
    the whole state space (transient by killing) and the empty domain."""
    rng = np.random.default_rng(11)
    for _ in range(12):
        form = random_form(rng, 5, 40)
        yield rng, form, random_domain(rng, form)
        yield rng, form, np.arange(form.n)  # empty complement; killing makes it transient
        yield rng, form, np.array([], dtype=int)
