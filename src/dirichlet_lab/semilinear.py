"""Semilinear Dirichlet solver and its verification layers.

Solves u = P_D g + R_D f(.,u) + R_D mu by a monotone truncation ladder: the
absorption term is clipped between growing envelopes -m*rho_m and n*rho_n
(rho_k = k/(1+k)), each bounded problem is solved by damped fixed-point
iteration with a semi-smooth Newton fallback, and the ladder is terminated
once successive outer iterates stabilize.  The exterior condition is imposed
exactly at every step: u is overwritten by g outside D.

Verification operations check the solved function against every equivalent
characterization: the probabilistic fixed point, the projective variational
identities on a nested family, the very-weak dual pairing, the kappa-free
double-sum energy layer, and the comparison / a-priori / stability bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .forms import DiscreteForm, as_subset, complement
from .potential import green_apply, green_operator
from .projection import harmonic_boundary, harmonic_extension, project

__all__ = [
    "LadderConfig",
    "Nonlinearity",
    "ProblemSpec",
    "Solution",
    "apriori_report",
    "compare",
    "exp_nonlinearity",
    "power_nonlinearity",
    "residual_probabilistic",
    "solve",
    "solve_ladder",
    "solve_shifted",
    "stability_gap",
    "table_nonlinearity",
    "vd_check",
    "verify_projective",
    "very_weak_defect",
    "zero_nonlinearity",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Absorption term f(x, y), nonincreasing in y for each point x.

    ``fn(points, y)`` must be vectorized; ``points`` are state indices on the
    graph backend and coordinates on the continuum backend.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"
    params: tuple = ()  # serializable (key, value) pairs, when representable

    def __call__(self, points, y) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points), np.asarray(y, dtype=float)), dtype=float)

    def derivative(self, points, y) -> np.ndarray:
        """Central-difference slope in y (step 1e-6), clipped to be nonpositive."""
        d = (self(points, np.asarray(y) + 1e-6) - self(points, np.asarray(y) - 1e-6)) / 2e-6
        return np.minimum(d, 0.0)

    def check_monotone(self, points) -> None:
        """Spot-check that y -> f(x, y) is nonincreasing; raise on violation."""
        points = np.asarray(points)
        ys = np.linspace(-20.0, 20.0, 17)
        prev = self(points, np.full(points.shape, ys[0]))
        for yv in ys[1:]:
            cur = self(points, np.full(points.shape, yv))
            if np.any(cur > prev + 1e-12):
                raise ValueError(f"nonlinearity '{self.name}' is not nonincreasing in y near y={yv}")
            prev = cur

    @property
    def is_zero(self) -> bool:
        return self.name == "zero"


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity(fn=lambda pts, y: np.zeros_like(np.asarray(y, dtype=float)),
                        name="zero", params=(("kind", "zero"),))


def power_nonlinearity(b, p: float) -> Nonlinearity:
    """f(x, y) = -b(x) * y * |y|^(p-1) with b >= 0 and p >= 1."""
    if p < 1:
        raise ValueError("power exponent must be >= 1")

    def fn(pts, y):
        bb = b(pts) if callable(b) else np.asarray(b, dtype=float)[pts]
        return -bb * y * np.abs(y) ** (p - 1.0)

    params = () if callable(b) else (("kind", "power"), ("p", float(p)),
                                     ("b", tuple(np.asarray(b, dtype=float))))
    return Nonlinearity(fn=fn, name=f"power[{p}]", params=params)


def exp_nonlinearity(b) -> Nonlinearity:
    """f(x, y) = b(x) * (1 - e^y) with b >= 0."""

    def fn(pts, y):
        bb = b(pts) if callable(b) else np.asarray(b, dtype=float)[pts]
        return bb * (1.0 - np.exp(y))

    params = () if callable(b) else (("kind", "exp"), ("b", tuple(np.asarray(b, dtype=float))))
    return Nonlinearity(fn=fn, name="exp", params=params)


def table_nonlinearity(ys, values) -> Nonlinearity:
    """Piecewise-linear f in y from a shared nonincreasing table.

    Values are interpolated between breakpoints and held flat outside them,
    which preserves monotonicity.
    """
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    if ys.ndim != 1 or values.shape != ys.shape:
        raise ValueError("table breakpoints and values must be 1-d and matching")
    if np.any(np.diff(ys) <= 0):
        raise ValueError("table breakpoints must be strictly increasing")
    if np.any(np.diff(values) > 1e-12):
        raise ValueError("table values must be nonincreasing")

    def fn(pts, y):
        return np.interp(np.asarray(y, dtype=float), ys, values)

    return Nonlinearity(fn=fn, name="table",
                        params=(("kind", "custom-table"), ("y", tuple(ys)),
                                ("values", tuple(values))))


@dataclass(frozen=True)
class ProblemSpec:
    """Graph-backend problem: domain, exterior data, measure, absorption, nest.

    ``D``, ``g``, ``mu`` and the nest levels are read-only copies of the
    caller's data.  ``pdg`` (P_D g) and ``rdm`` (R_D mu) are fixed data of
    the problem: each is computed once, on first use, and is read-only.
    ``solve`` reads both, so the CLI's suite threads only read the cache.
    """

    form: DiscreteForm
    D: np.ndarray
    g: np.ndarray
    mu: np.ndarray
    f: Nonlinearity
    nest: tuple = ()

    def __post_init__(self):
        idx = as_subset(self.form.n, self.D)
        if idx.size == 0:
            raise ValueError("D must be nonempty")
        g = np.array(self.g, dtype=float)
        mu = np.array(self.mu, dtype=float)
        if g.shape != (self.form.n,) or mu.shape != (self.form.n,):
            raise ValueError("g and mu must have one entry per state")
        if np.any(mu[complement(self.form.n, idx)] != 0):
            raise ValueError("mu must be supported on D")
        nest = tuple(as_subset(self.form.n, V) for V in self.nest) or (idx,)
        prev = nest[0]
        for V in nest:
            if not np.isin(prev, V).all():
                raise ValueError("nest must be increasing")
            if not np.isin(V, idx).all():
                raise ValueError("nest levels must be subsets of D")
            prev = V
        if not np.array_equal(nest[-1], idx):
            raise ValueError("nest must exhaust D")
        for arr in (idx, g, mu, *nest):
            arr.setflags(write=False)
        object.__setattr__(self, "D", idx)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nest", nest)

    @cached_property
    def pdg(self) -> np.ndarray:
        """P_D g: the harmonic extension of the exterior data."""
        out = harmonic_extension(self.form, self.D, self.g)
        out.setflags(write=False)
        return out

    @cached_property
    def rdm(self) -> np.ndarray:
        """R_D mu: the Green potential of the measure."""
        out = green_apply(self.form, self.D, self.mu)
        out.setflags(write=False)
        return out


# ladder stop on successive outer iterates, inner stop relative to the data
# scale, and the inner iteration cap
_OUTER_TOL = 1e-10
_INNER_TOL = 1e-12
_MAX_INNER = 300


@dataclass(frozen=True)
class LadderConfig:
    """Truncation schedule, first inner step and starting iterate."""

    base: int = 2
    max_level: int = 16
    theta0: float = 1.0
    start: str = "base"  # or "zero"

    def schedule(self) -> list[int]:
        return [self.base ** k for k in range(self.max_level)]


@dataclass
class Solution:
    """Solver output: values, named residuals, per-level ladder trace."""

    u: np.ndarray
    residuals: dict
    ladder_trace: list
    converged: bool
    meta: dict = field(default_factory=dict)


def _inner_solve(u0, base, gmat, fappl, fder, cfg: LadderConfig, scale: float):
    """Solve u = base + gmat f(u) for one bounded truncation level.

    Damped fixed-point sweeps with step adapted to the residual; if progress
    stalls, switch to a semi-smooth Newton iteration with backtracking.  The
    limit is unique, so only robustness matters here.
    """
    u = u0.copy()
    tol = _INNER_TOL * scale

    def residual(v):
        return base + gmat @ fappl(v) - v

    r = residual(u)
    rn = float(np.max(np.abs(r)))
    theta = cfg.theta0
    iters = 0
    slow = 0
    newton = False
    n = u.size
    eye = np.eye(n)
    while rn > tol and iters < _MAX_INNER:
        iters += 1
        if not newton:
            u_try = u + theta * r
            r_try = residual(u_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn:
                slow = slow + 1 if rn_try > 0.5 * rn else 0
                u, r, rn = u_try, r_try, rn_try
                theta = min(1.0, theta * 1.4)
            else:
                theta *= 0.5
                slow += 1
            if slow >= 4 or theta < 0.05:
                newton = True
            continue
        d = fder(u)
        jac = eye - gmat * d[None, :]
        step = np.linalg.solve(jac, r)
        lam = 1.0
        while lam > 1e-8:
            u_try = u + lam * step
            r_try = residual(u_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn:
                u, r, rn = u_try, r_try, rn_try
                break
            lam *= 0.5
        else:
            # no descent direction left at this level; keep best iterate
            break
    return u, iters, rn


def solve_ladder(base: np.ndarray, gmat: np.ndarray, f: Nonlinearity, points,
                 cfg: LadderConfig | None = None):
    """Monotone truncation-ladder fixed point on the interior unknowns.

    Returns (u, trace, meta).  ``meta`` records the worst violations of the
    expected ladder ordering (nondecreasing in the upper envelope index,
    nonincreasing in the lower one) and the final residual.
    """
    cfg = cfg or LadderConfig()
    points = np.asarray(points)
    scale = max(1.0, float(np.max(np.abs(base), initial=0.0)))
    schedule = cfg.schedule()
    trace = []
    mono_up = 0.0
    mono_down = 0.0
    u = base.copy() if cfg.start == "base" else np.zeros_like(base)
    prev_um = None
    converged = False
    final_res = np.inf
    for m in schedule:
        lo = -(m * m) / (1.0 + m)
        prev_unm = None
        u_m = None
        for n in schedule:
            hi = (n * n) / (1.0 + n)

            def fnm(v, lo=lo, hi=hi):
                return np.clip(f(points, v), lo, hi)

            def dnm(v, lo=lo, hi=hi):
                raw = f(points, v)
                d = f.derivative(points, v)
                return np.where((raw > lo) & (raw < hi), d, 0.0)

            u, iters, res = _inner_solve(u, base, gmat, fnm, dnm, cfg, scale)
            trace.append({"n": n, "m": m, "inner_iterations": iters, "residual": res})
            final_res = res
            if prev_unm is not None:
                mono_up = min(mono_up, float(np.min(u - prev_unm, initial=0.0)))
                if float(np.max(np.abs(u - prev_unm))) < _OUTER_TOL:
                    u_m = u
                    break
            prev_unm = u.copy()
        if u_m is None:
            u_m = u
        if prev_um is not None:
            mono_down = min(mono_down, float(np.min(prev_um - u_m, initial=0.0)))
            if float(np.max(np.abs(u_m - prev_um))) < _OUTER_TOL:
                converged = True
                break
        prev_um = u_m.copy()
        u = u_m
    meta = {
        "converged": converged,
        "monotone_up_slack": mono_up,
        "monotone_down_slack": mono_down,
        "final_inner_residual": final_res,
    }
    return u, trace, meta


def solve(spec, ladder: LadderConfig | None = None) -> Solution:
    """Solve the Dirichlet problem for the given spec (graph or continuum)."""
    if not isinstance(spec, ProblemSpec):
        from .frac1d import solve_continuum
        return solve_continuum(spec, ladder=ladder)
    return _solve_graph(spec, ladder)


def _solve_graph(spec: ProblemSpec, ladder: LadderConfig | None) -> Solution:
    idx = spec.D
    spec.f.check_monotone(idx)
    base_full = spec.pdg + spec.rdm
    G = green_operator(spec.form, idx).G
    uD, trace, meta = solve_ladder(base_full[idx], G, spec.f, idx, ladder)
    u = spec.g.copy()
    u[idx] = uD
    res = residual_probabilistic(u, spec)
    sol = Solution(u=u, residuals={"fixed_point": res}, ladder_trace=trace,
                   converged=meta["converged"], meta=meta)
    return sol


def solve_shifted(spec: ProblemSpec, h, ladder: LadderConfig | None = None) -> Solution:
    """Solve u = h + P_D g + R_D f(.,u) + R_D mu by shifting the absorption."""
    h = np.asarray(h, dtype=float)
    idx = spec.D

    def fn(pts, y):
        return spec.f(pts, h[pts] + y)

    fh = Nonlinearity(fn=fn, name=f"{spec.f.name}+shift")
    shifted = replace(spec, f=fh)
    # same form, D, g and mu: hand over P_D g and R_D mu instead of recomputing
    vars(shifted).update(pdg=spec.pdg, rdm=spec.rdm)
    sol = solve(shifted, ladder)
    u = sol.u.copy()
    u[idx] += h[idx]
    res = float(np.max(np.abs(
        u[idx] - h[idx] - spec.pdg[idx] - green_density(spec, u)[idx] - spec.rdm[idx])))
    sol.u = u
    sol.residuals["shifted_fixed_point"] = res
    return sol


def green_density(spec: ProblemSpec, u) -> np.ndarray:
    """R_D applied to the density f(., u) of the current iterate."""
    form, idx = spec.form, spec.D
    fvals = np.zeros(form.n)
    fvals[idx] = spec.f(idx, np.asarray(u, dtype=float)[idx])
    return green_apply(form, idx, fvals * form.m)


def residual_probabilistic(u, spec: ProblemSpec) -> float:
    """Max defect of the fixed-point identity on D plus |u - g| outside D."""
    u = np.asarray(u, dtype=float)
    comp = complement(spec.form.n, spec.D)
    rdf = green_density(spec, u)
    inner = float(np.max(np.abs(u - spec.pdg - rdf - spec.rdm)[spec.D], initial=0.0))
    outer = float(np.max(np.abs(u - spec.g)[comp], initial=0.0))
    return inner + outer


def verify_projective(u, spec: ProblemSpec) -> dict:
    """Defects of the projective variational characterization.

    Returns the worst Galerkin defect across nest levels, the mismatch with
    the exterior data on the harmonic boundary, and the gap between the
    deepest-level exit average of u and the exit average of g on D.
    """
    u = np.asarray(u, dtype=float)
    form, idx = spec.form, spec.D
    A = form.energy_matrix()
    d_var = 0.0
    for V in spec.nest:
        w = project(form, V, u)
        lhs = A @ w
        rhs = np.zeros(form.n)
        rhs[V] = spec.f(V, u[V]) * form.m[V] + spec.mu[V]
        if V.size:
            d_var = max(d_var, float(np.max(np.abs(lhs - rhs)[V])))
    bd = harmonic_boundary(form, idx)
    d_bnd = float(np.max(np.abs(u - spec.g)[bd], initial=0.0))
    pvu = u - w  # the last nest level is D (ProblemSpec enforces it)
    d_exh = float(np.max(np.abs(pvu - spec.pdg)[idx], initial=0.0))
    return {"variational": d_var, "boundary": d_bnd, "exhaustion": d_exh}


def compare(spec1: ProblemSpec, spec2: ProblemSpec,
            ladder: LadderConfig | None = None) -> dict:
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
    u1 = solve(spec1, ladder).u
    u2 = solve(spec2, ladder).u
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


def apriori_report(u, spec: ProblemSpec) -> dict:
    """Defects of the three a-priori bounds for a solved instance.

    Each entry is max(LHS - RHS); the contract is that all stay below 1e-9.
    The weighted norm bound uses the constant one as its excessive weight:
    A_DD 1 = 2 sum_{y not in D} J[., y] + kappa >= 0 for every form.
    """
    u = np.asarray(u, dtype=float)
    form, idx, pdg = spec.form, spec.D, spec.pdg
    fu = np.abs(_f_on_D(spec, u))
    fpdg = np.abs(_f_on_D(spec, pdg))
    pd_abs_g = harmonic_extension(form, idx, np.abs(spec.g))
    rd_abs_mu = green_apply(form, idx, np.abs(spec.mu))
    rd_abs_fu = green_apply(form, idx, fu * form.m)
    rd_abs_f0 = green_apply(form, idx, np.abs(_f_on_D(spec, np.zeros(form.n))) * form.m)
    lhs1 = np.abs(u) + rd_abs_fu
    rhs1 = 2.0 * rd_abs_f0 + rd_abs_mu + pd_abs_g
    d1 = float(np.max((lhs1 - rhs1)[idx], initial=0.0))

    rd_abs_fpdg = green_apply(form, idx, fpdg * form.m)
    lhs2 = np.abs(u - pdg) + rd_abs_fu
    rhs2 = 2.0 * rd_abs_fpdg + rd_abs_mu
    d2 = float(np.max((lhs2 - rhs2)[idx], initial=0.0))

    lhs3 = float(np.sum(fu[idx] * form.m[idx]))
    rhs3 = 2.0 * float(np.sum(fpdg[idx] * form.m[idx])) + float(np.sum(np.abs(spec.mu)[idx]))
    return {"zero_order": d1, "harmonic_shift": d2, "weighted_norm": lhs3 - rhs3}


def _f_on_D(spec: ProblemSpec, u) -> np.ndarray:
    out = np.zeros(spec.form.n)
    out[spec.D] = spec.f(spec.D, np.asarray(u)[spec.D])
    return out


def stability_gap(spec1: ProblemSpec, spec2: ProblemSpec,
                  ladder: LadderConfig | None = None) -> dict:
    """Defects of the data-continuity bounds between two solved instances."""
    form, idx = spec1.form, spec1.D
    u1 = solve(spec1, ladder).u
    u2 = solve(spec2, ladder).u
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


def very_weak_defect(u, spec: ProblemSpec, probe=None) -> dict:
    """Dual-pairing defect of -<u, L eta> = <f(.,u) m + mu, eta> over F(D).

    Also checks that harmonic extensions pair to zero against the interior
    basis (``probe`` supplies the bounded exterior data; a deterministic
    default is used otherwise).
    """
    u = np.asarray(u, dtype=float)
    form, idx = spec.form, spec.D
    A = form.energy_matrix()
    lhs = (A @ u)[idx]
    rhs = spec.f(idx, u[idx]) * form.m[idx] + spec.mu[idx]
    d_id = float(np.max(np.abs(lhs - rhs), initial=0.0))
    if probe is None:
        probe = np.cos(np.arange(form.n, dtype=float))
    h = harmonic_extension(form, idx, np.asarray(probe, dtype=float))
    d_harm = float(np.max(np.abs((A @ h)[idx]), initial=0.0))
    return {"identity": d_id, "harmonic_pairing": d_harm}


def _vd_energy(form: DiscreteForm, D, u, v) -> float:
    """Double-sum energy over ordered pairs with at least one index in D."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    in_D = np.zeros(form.n, dtype=bool)
    in_D[D] = True
    mask = in_D[:, None] | in_D[None, :]
    du = u[:, None] - u[None, :]
    dv = v[:, None] - v[None, :]
    return float(np.sum(du * dv * form.J * mask))


def vd_check(u, spec: ProblemSpec) -> dict:
    """Kappa-free energy layer: variational identity and dual-norm bound.

    Requires a purely jumping form (kappa = 0) and zero absorption.  The
    dual norm of mu over unit-energy interior test functions equals the
    energy norm of its potential.
    """
    form, idx = spec.form, spec.D
    if np.any(form.kappa != 0):
        raise ValueError("vd_check requires kappa = 0 (purely jumping form)")
    if not spec.f.is_zero:
        raise ValueError("vd_check requires zero absorption")
    u = np.asarray(u, dtype=float)
    A = form.energy_matrix()
    pdg = spec.pdg
    d_id = float(np.max(np.abs((A @ (u - pdg))[idx] - spec.mu[idx]), initial=0.0))
    mu_dual = float(np.sqrt(max(spec.mu @ spec.rdm, 0.0)))
    nu = float(np.sqrt(max(_vd_energy(form, idx, u, u), 0.0)))
    npdg = float(np.sqrt(max(_vd_energy(form, idx, pdg, pdg), 0.0)))
    ng = float(np.sqrt(max(_vd_energy(form, idx, spec.g, spec.g), 0.0)))
    return {
        "identity": d_id,
        "norm_bound": nu - (npdg + mu_dual),
        "kernel_contraction": npdg - ng,
    }
