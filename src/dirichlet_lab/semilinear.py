"""Semilinear Dirichlet solver and its verification layers.

On the graph, u = P_D g + R_D f(.,u) + R_D mu is the minimizer over D of the
strictly convex energy 1/2 u A_DD u - <A_DD base, u> - sum_x m_x F_x(u_x)
(base = P_D g + R_D mu, F_x' = f(x, .)), whose gradient is the residual of
the very-weak identity.  The graph's solve is damped Newton on it,
each step a conjugate-gradient solve preconditioned by the cached Cholesky
factor of A_DD.  The continuum's solve is damped Newton on the fixed
point u = base + W f(u) of its Green matrix W, each step GMRES on products
with W.  Zero absorption returns the base on both backends.  The paper's
monotone truncation ladder is the tests' reference for these solves
(``tests/paper_checks.solve_by_ladder``); each of its levels is solved by
``_newton_fixed_point``.  The exterior condition is imposed exactly: u is g
outside D.

Verification operations check the solved function against every equivalent
characterization: the probabilistic fixed point, the projective variational
identities on a nested family, the very-weak dual pairing, the kappa-free
double-sum energy layer, and the a-priori bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .forms import DiscreteForm, as_subset, complement
from .potential import green_apply
from .projection import (_cho_apply, _restricted_cho, cho_factor, cho_solve, factor_nest,
                         harmonic_extension, project)

__all__ = [
    "Nonlinearity",
    "ProblemSpec",
    "Solution",
    "apriori_report",
    "exp_nonlinearity",
    "power_nonlinearity",
    "residual_probabilistic",
    "solve",
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
        """Slope in y, clipped to be nonpositive: -p b |y|^(p-1) and -b e^y
        for the power and exp kinds, read from ``params``; a central
        difference (step 1e-6) for any other f, which above |y| ~ 1e9 is
        below the spacing of y."""
        params = dict(self.params)
        kind = params.get("kind")
        y = np.asarray(y, dtype=float)
        if kind in ("power", "exp"):
            b = np.asarray(params["b"], dtype=float)
            b = b[np.asarray(points)] if b.ndim else b
            d = (-params["p"] * b * np.abs(y) ** (params["p"] - 1.0) if kind == "power"
                 else -b * np.exp(y))
        else:
            d = (self(points, y + 1e-6) - self(points, y - 1e-6)) / 2e-6
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
        """Set only by ``zero_nonlinearity``: a name does not make f zero."""
        return ("kind", "zero") in self.params


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity(fn=lambda pts, y: np.zeros_like(np.asarray(y, dtype=float)),
                        name="zero", params=(("kind", "zero"),))


def power_nonlinearity(b, p: float) -> Nonlinearity:
    """f(x, y) = -b(x) * y * |y|^(p-1) with b >= 0 and p >= 1; b is one number
    (either backend) or one per state (graph)."""
    if p < 1:
        raise ValueError("power exponent must be >= 1")
    b = np.array(b, dtype=float)

    def fn(pts, y):
        return -(b[pts] if b.ndim else b) * y * np.abs(y) ** (p - 1.0)

    return Nonlinearity(fn=fn, name=f"power[{p}]", params=(
        ("kind", "power"), ("p", float(p)), ("b", tuple(b) if b.ndim else float(b))))


def exp_nonlinearity(b) -> Nonlinearity:
    """f(x, y) = b(x) * (1 - e^y) with b >= 0, b as for ``power_nonlinearity``."""
    b = np.array(b, dtype=float)

    def fn(pts, y):
        return (b[pts] if b.ndim else b) * (1.0 - np.exp(y))

    return Nonlinearity(fn=fn, name="exp",
                        params=(("kind", "exp"), ("b", tuple(b) if b.ndim else float(b))))


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
    The first of them factors A on D in nest order, once for every nest
    level (``projection.factor_nest``).
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
        self.f.check_monotone(idx)
        for arr in (idx, g, mu, *nest):
            arr.setflags(write=False)
        object.__setattr__(self, "D", idx)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nest", nest)

    @cached_property
    def pdg(self) -> np.ndarray:
        """P_D g: the harmonic extension of the exterior data."""
        factor_nest(self.form, self.nest)
        out = harmonic_extension(self.form, self.D, self.g)
        out.setflags(write=False)
        return out

    @cached_property
    def rdm(self) -> np.ndarray:
        """R_D mu: the Green potential of the measure."""
        factor_nest(self.form, self.nest)
        out = green_apply(self.form, self.D, self.mu)
        out.setflags(write=False)
        return out


# the stop of the Newton solve of u = base + gmat f(u) relative to the data scale
_INNER_TOL = 1e-12
# every Newton loop: its step cap, and the iterations of a Krylov step (GMRES
# on the continuum, CG on the graph) before it goes on by a dense step
# (continuum) or a factored preconditioner (graph)
_MAX_NEWTON = 100
_MAX_KRYLOV = 30
# a GMRES step's tolerance relative to ||r||_2, and the graph's round-off
# stop in units of eps times the scale of r
_KRYLOV_TOL = 1e-10
_ROUNDOFF = 64.0


@dataclass
class Solution:
    """Solver output: values, named residuals, the Newton trace."""

    u: np.ndarray
    residuals: dict
    # the Newton trace, a row per step on the graph and one row on the
    # continuum; benchmark/layers.py reads it by this name
    ladder_trace: list
    converged: bool
    meta: dict = field(default_factory=dict)


def _max_abs(r) -> float:
    return float(np.max(np.abs(r)))


def _norm2(r) -> float:
    """||r||_2 where ``np.linalg.norm`` overflows on finite entries: scaled
    by max|r| there; inf where an entry is not finite."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(r))
    if not np.isfinite(out):
        top = _max_abs(r)
        out = top * float(np.linalg.norm(r / top)) if np.isfinite(top) else math.inf
    return out


def _damped_newton(starts, residual, direction, done, max_steps: int, norm):
    """Damped Newton from the first of ``starts`` whose residual has the
    smallest ``norm``, a norm that is not finite counting as infinite.

    ``direction(u, r)`` returns a step and its trace row; it is called only
    after ``done(u, r)`` came back False.  The step is halved until
    ``norm`` of the residual decreases, down to a length of 1e-8.  A full
    step that cut the norm by less than 4 is doubled while doubling cuts it
    further: far from the solution an exponential absorption moves u by
    about one per full step, and from 0 rather than a large datum it needs
    few of them.  The loop stops when ``done(u, r)``, when ``r`` is not
    finite, after ``max_steps`` steps, or after a step that no halving made
    decrease, which keeps ``u``.  Each row gets the accepted length
    (``damping``, 0 for none) and the max norm of the residual after the
    step.  Returns (u, r, rows, done).
    """
    tried = [(v, r, norm(r)) for v in starts for r in (residual(v),)]
    u, r, rn = min(tried, key=lambda t: t[2] if np.isfinite(t[2]) else math.inf)
    rows = []
    while np.isfinite(rn) and len(rows) < max_steps:
        if done(u, r):
            return u, r, rows, True
        step, row = direction(u, r)
        rows.append(row)
        u0, rn0 = u, rn
        lam = 1.0
        while lam > 1e-8:
            u_try = u0 + lam * step
            r_try = residual(u_try)
            rn_try = norm(r_try)
            if rn_try < rn:
                u, r, rn = u_try, r_try, rn_try
                break
            lam *= 0.5
        else:
            row.update(damping=0.0, residual=_max_abs(r))
            break
        while lam >= 1.0 and rn > 0.25 * rn0:
            u_try = u0 + 2.0 * lam * step
            r_try = residual(u_try)
            rn_try = norm(r_try)
            if not rn_try < rn:
                break
            u, r, rn, lam = u_try, r_try, rn_try, 2.0 * lam
        row.update(damping=lam, residual=_max_abs(r))
    return u, r, rows, bool(np.isfinite(rn)) and done(u, r)


def _newton_fixed_point(u, base, gmat, fappl, fder, *more):
    """Solve u = base + gmat f(u) by ``_damped_newton`` in the max norm from
    the first of ``u`` and the ``more`` starts with the smallest residual.
    The continuum's solve, on f itself from the base or 0, and each level
    of the test-side ladder, on the clipped f from the last level's u alone.
    Each step solves (I - gmat diag(f'(u))) s = r by ``_gmres``, from
    products with gmat alone; a step whose GMRES misses its tolerance in
    ``_MAX_KRYLOV`` iterations is an LU solve of that matrix, and so is
    every later step of this call.  The stop is ||r||_inf <= ``_INNER_TOL``
    max(1, |base|).  No array is written in place: a start may be returned
    as is.  f and its slope may overflow where a trial step is rejected, or
    where the ladder clips or masks them: no such value is used.  Returns
    (u, row, met): the row holds the Newton steps (``inner_iterations``),
    the max-norm ``residual``, and the steps' ``krylov_iterations`` and
    ``dense_steps``.
    """
    tol = _INNER_TOL * max(1.0, float(np.max(np.abs(base), initial=0.0)))
    row = {"krylov_iterations": 0, "dense_steps": 0}

    def residual(v):
        return base + gmat @ fappl(v) - v

    def direction(v, res):
        d = fder(v)
        if not row["dense_steps"]:
            s, its, met = _gmres(lambda p: p - gmat @ (d * p), res,
                                 _KRYLOV_TOL * float(np.linalg.norm(res)), _MAX_KRYLOV)
            row["krylov_iterations"] += its
            if met:
                return s, {}
        row["dense_steps"] += 1
        jac = gmat * -d
        jac.flat[::v.size + 1] += 1.0
        return np.linalg.solve(jac, res), {}

    with np.errstate(over="ignore", invalid="ignore"):
        u, r, rows, met = _damped_newton((u, *more), residual, direction,
                                         lambda v, res: _max_abs(res) <= tol,
                                         _MAX_NEWTON, _max_abs)
    return u, {"inner_iterations": len(rows), "residual": _max_abs(r), **row}, met


def _gmres(matvec, b, tol: float, cap: int):
    """Unrestarted GMRES for matvec(x) = b from x = 0 (Saad and Schultz,
    SIAM J. Sci. Stat. Comput. 7, 1986), until ||b - matvec(x)||_2 <= tol
    or ``cap`` iterations.  The Arnoldi basis is orthogonalized by classical
    Gram-Schmidt done twice, and the Hessenberg matrix is kept triangular by
    Givens rotations, whose last sine tracks the residual norm.  Returns
    (x, iterations, whether tol was met)."""
    beta = float(np.linalg.norm(b))
    if beta <= tol:
        return np.zeros_like(b), 0, True
    V = np.empty((cap + 1, b.size))
    H = np.zeros((cap, cap))  # the rotated Hessenberg matrix: upper triangular
    cs, sn = np.zeros(cap), np.zeros(cap)
    e = np.zeros(cap + 1)
    e[0] = beta
    V[0] = b / beta
    met = False
    for k in range(1, cap + 1):
        j = k - 1
        w = matvec(V[j])
        for _ in range(2):
            h = V[:k] @ w
            w -= h @ V[:k]
            H[:k, j] += h
        below = float(np.linalg.norm(w))
        for i in range(j):
            H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                    cs[i] * H[i + 1, j] - sn[i] * H[i, j])
        rho = math.hypot(H[j, j], below)
        cs[j], sn[j] = H[j, j] / rho, below / rho
        H[j, j] = rho
        e[j], e[k] = cs[j] * e[j], -sn[j] * e[j]
        met = abs(e[k]) <= tol  # met at a breakdown (below = 0), where x is exact
        if met:
            break
        V[k] = w / below
    y = np.linalg.solve(H[:k, :k], e[:k])
    return y @ V[:k], k, met


def _pcg(hess, b, precond, tol: float, cap: int):
    """Preconditioned conjugate gradients for hess(x) = b from x = 0, until
    ||b - hess(x)||_2 <= tol or ``cap`` iterations.  Returns (x, iterations,
    whether tol was met)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = z = precond(r)
    rz = float(r @ z)
    for k in range(1, cap + 1):
        hp = hess(p)
        alpha = rz / float(p @ hp)
        x += alpha * p
        r -= alpha * hp
        if np.linalg.norm(r) <= tol:
            return x, k, True
        z = precond(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x, cap, False


def _solve_newton(spec: ProblemSpec):
    """u on D by damped Newton on the energy, from base = (P_D g + R_D mu) on D.

    The gradient at u is r = A_DD (u - base) - m f(u).  A step solves
    (A_DD - diag(m f'(u))) s = -r by conjugate gradients to the forcing
    tolerance of Eisenstat and Walker ("Choosing the forcing terms in an
    inexact Newton method", SIAM J. Sci. Comput. 17, 1996, choice 2),
    preconditioned by the cached factor of A_DD.  A step whose CG misses that
    tolerance in ``_MAX_KRYLOV`` iterations replaces the preconditioner by the
    factor of the Newton matrix at its u and is solved again.  Newton starts
    from the base or 0, and steps are halved until ||r||_2 (``_norm2``)
    decreases; the loop stops when ||r||_inf is at round-off for the scale
    |A_DD||u| + |m f(u)| + |A_DD base|.  Zero absorption returns base with
    an empty trace.  Returns (u on D, trace rows, converged).
    """
    form, idx, f = spec.form, spec.D, spec.f
    base = (spec.pdg + spec.rdm)[idx]
    if f.is_zero:
        return base.copy(), [], True
    A = form.energy_matrix()[np.ix_(idx, idx)]
    m = form.m[idx]
    a_base = A @ base
    # |A| = 2 diag(A) - A, since the off-diagonal entries of A are -2 J <= 0
    diag2 = 2.0 * A.diagonal()
    entry = _restricted_cho(form, idx)
    state = {"precond": lambda x: _cho_apply(entry, x), "eta": 0.5, "norm": None, "tol": 0.0}

    def residual(v):
        return A @ v - a_base - m * f(idx, v)

    def done(v, r):
        av = np.abs(v)
        scale = diag2 * av - A @ av + np.abs(m * f(idx, v)) + np.abs(a_base)
        state["tol"] = _ROUNDOFF * np.finfo(float).eps * float(np.max(scale))
        return _max_abs(r) <= state["tol"]

    def direction(v, r):
        rn = _norm2(r)
        eta = 0.5
        if state["norm"] is not None:
            eta = 0.9 * (rn / state["norm"]) ** 2
            if 0.9 * state["eta"] ** 2 > 0.1:
                eta = max(eta, 0.9 * state["eta"] ** 2)
            eta = min(eta, 0.5)
        # no tighter than the round-off stop needs
        eta = max(eta, 0.5 * state["tol"] / rn)
        state.update(eta=eta, norm=rn)
        d = m * f.derivative(idx, v)

        def hess(p):
            return A @ p - d * p

        s, its, met = _pcg(hess, -r, state["precond"], eta * rn, _MAX_KRYLOV)
        if not met:
            factor = cho_factor(A - np.diag(d))
            state["precond"] = lambda x: cho_solve(factor, x)
            s, more, _ = _pcg(hess, -r, state["precond"], eta * rn, _MAX_KRYLOV)
            its += more
        return s, {"inner_iterations": its, "factored": float(not met)}

    with np.errstate(over="ignore", invalid="ignore"):
        u, _, rows, converged = _damped_newton((base, np.zeros_like(base)), residual,
                                               direction, done, _MAX_NEWTON, _norm2)
    return u, rows, converged


def solve(spec) -> Solution:
    """Solve the Dirichlet problem for the given spec (graph or continuum) by Newton."""
    if not isinstance(spec, ProblemSpec):
        from .frac1d import solve_continuum
        return solve_continuum(spec)
    return _solve_graph(spec)


def _solve_graph(spec: ProblemSpec) -> Solution:
    """u = g off D, and on D Newton on the energy (``_solve_newton``)."""
    uD, trace, converged = _solve_newton(spec)
    u = spec.g.copy()
    u[spec.D] = uD
    return Solution(u=u, residuals={"fixed_point": residual_probabilistic(u, spec)},
                    ladder_trace=trace, converged=converged)


def residual_probabilistic(u, spec: ProblemSpec) -> float:
    """Max defect of the fixed-point identity on D plus |u - g| outside D;
    infinite when f(u) is not finite on D, since R_D takes no such density."""
    u = np.asarray(u, dtype=float)
    comp = complement(spec.form.n, spec.D)
    density = _f_on_D(spec, u) * spec.form.m
    if not np.isfinite(density).all():
        return float("inf")
    rdf = green_apply(spec.form, spec.D, density)
    inner = float(np.max(np.abs(u - spec.pdg - rdf - spec.rdm)[spec.D], initial=0.0))
    outer = float(np.max(np.abs(u - spec.g)[comp], initial=0.0))
    return inner + outer


def verify_projective(u, spec: ProblemSpec) -> dict:
    """Defect of the projective variational characterization: the worst
    Galerkin defect across the nest levels, as ``{"variational": ...}``;
    infinite for a u that is not finite, which P_V does not take."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        return {"variational": float("inf")}
    form = spec.form
    A = form.energy_matrix()
    d_var = 0.0
    for V in spec.nest:
        w = project(form, V, u)
        lhs = A @ w
        rhs = np.zeros(form.n)
        rhs[V] = spec.f(V, u[V]) * form.m[V] + spec.mu[V]
        if V.size:
            d_var = max(d_var, float(np.max(np.abs(lhs - rhs)[V])))
    return {"variational": d_var}


def apriori_report(u, spec: ProblemSpec) -> dict:
    """Defects of the three a-priori bounds for a solved instance.

    Each entry is max(LHS - RHS); the contract is that all stay below 1e-9.
    The weighted norm bound uses the constant one as its excessive weight:
    A_DD 1 = 2 sum_{y not in D} J[., y] + kappa >= 0 for every form.  All
    three are infinite when f(u) is not finite on D.  Where f(P_D g)
    overflows, the two bounds that read it hold with an infinite right side.
    """
    u = np.asarray(u, dtype=float)
    form, idx, pdg = spec.form, spec.D, spec.pdg
    fu = np.abs(_f_on_D(spec, u))
    if not np.isfinite(fu).all():
        return dict.fromkeys(("zero_order", "harmonic_shift", "weighted_norm"), float("inf"))
    with np.errstate(over="ignore"):  # an overflowing f(P_D g) is handled below
        fpdg = np.abs(_f_on_D(spec, pdg))
    pd_abs_g = harmonic_extension(form, idx, np.abs(spec.g))
    rd_abs_mu = green_apply(form, idx, np.abs(spec.mu))
    rd_abs_fu = green_apply(form, idx, fu * form.m)
    rd_abs_f0 = green_apply(form, idx, np.abs(_f_on_D(spec, np.zeros(form.n))) * form.m)
    lhs1 = np.abs(u) + rd_abs_fu
    rhs1 = 2.0 * rd_abs_f0 + rd_abs_mu + pd_abs_g
    d1 = float(np.max((lhs1 - rhs1)[idx], initial=0.0))

    # an overflowing |f(P_D g)| makes R_D of it infinite wherever the chain
    # reaches it in D, and the two bounds that read it hold there
    big = ~np.isfinite(fpdg)
    rd_abs_fpdg = green_apply(form, idx, np.where(big, 0.0, fpdg) * form.m)
    if big.any():
        rd_abs_fpdg[green_apply(form, idx, big * form.m) > 0.0] = np.inf
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


def very_weak_defect(u, spec: ProblemSpec, probe=None) -> dict:
    """Dual-pairing defect of -<u, L eta> = <f(.,u) m + mu, eta> over F(D).

    Also checks that harmonic extensions pair to zero against the interior
    basis (``probe`` supplies the bounded exterior data; a deterministic
    default is used otherwise).  The identity's defect is infinite for a u
    that is not finite.
    """
    u = np.asarray(u, dtype=float)
    form, idx = spec.form, spec.D
    A = form.energy_matrix()
    d_id = float("inf")
    if np.isfinite(u).all():
        lhs = (A @ u)[idx]
        rhs = spec.f(idx, u[idx]) * form.m[idx] + spec.mu[idx]
        d_id = float(np.max(np.abs(lhs - rhs), initial=0.0))
    if probe is None:
        probe = np.cos(np.arange(form.n, dtype=float))
    h = harmonic_extension(form, idx, np.asarray(probe, dtype=float))
    d_harm = float(np.max(np.abs((A @ h)[idx]), initial=0.0))
    return {"identity": d_id, "harmonic_pairing": d_harm}


def _vd_energy(form: DiscreteForm, D, u, v) -> float:
    """Double-sum energy over ordered pairs with at least one index in D:
    the full double sum 2 u (diag(J 1) - J) v less the same sum over the
    block of J outside D, so no n x n temporary is formed."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    comp = complement(form.n, D)

    def double_sum(J, u, v):
        return 2.0 * float(u @ (J.sum(axis=1) * v) - u @ (J @ v))

    return double_sum(form.J, u, v) - double_sum(form.J[np.ix_(comp, comp)], u[comp], v[comp])


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
