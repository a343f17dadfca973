"""The power of every check: a table of mutations run through ``cli.run``.

Each mutation is a monkeypatch that breaks one piece of the pipeline: the
solved function after the solve, one datum or operator inside the solve
only, an operator that the solve and the checks share, a reference of a
Monte Carlo oracle, or the Monte Carlo walk itself.  ``CATCHES`` lists, for
every key of ``residuals.json``, the mutations the key must fail on, and the
test fails when a key catches fewer.  ``BOUNDS`` gives the reason of each
key that no mutation here needs to fail: an inequality whose slack hides
every mutation, or a record.  The unmutated runs pass every key, and so do
the runs of ``ABSORBED``: faults in a control variate, which its gate must
answer with the plain estimate, never with a biased one.

The exact mutations move a value by 1e-6 (graph) or 1e-4 (continuum),
above the contracts of 1e-10 to 1e-6 and far below the Monte Carlo bands.
Each Monte Carlo mutation of a solver or a reference moves an oracle's mean
by at least three of its bands: a band of 2e4 paths (three standard errors)
is 5e-3 to 1.1e-2 wide on these specs, and 4.5e-4 to 1.5e-3 for the
control-variate FK band of the walk-on-spheres.  The mutations of the graph
walk are sized for its control variate's gate instead (see
``_exits_moved``).  Seeds are fixed, so the table is deterministic.  Prior
art: mutation analysis (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11, 1978).
"""

import dataclasses
import json
from typing import Callable

import numpy as np
import pytest

from dirichlet_lab import chain_sim, cli, frac1d, potential, projection, semilinear, trace, wos
from dirichlet_lab.forms import DiscreteForm, as_subset
from dirichlet_lab.rng import mean_and_stderr
from dirichlet_lab.semilinear import ProblemSpec, power_nonlinearity, zero_nonlinearity
import paper_checks

PATHS = 20000
SEED = 1


def _graph_spec(absorbing: bool) -> dict:
    """Eight states, D = 1..6 with a four-level nest, g and mu nonzero; cubic
    per-state b when ``absorbing``, else kappa = 0 and no absorption, which
    adds the vd_* checks."""
    rng = np.random.default_rng(5)
    n = 8
    J = np.triu(rng.uniform(0.2, 1.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    J[np.arange(n - 1), np.arange(1, n)] += 0.3  # a path through every state
    spec = {"backend": "graph",
            "form": {"m": rng.uniform(0.5, 2.0, n).tolist(), "J": (J + J.T).tolist(),
                     "kappa": [0.8, 0.0, 0.5, 0.0, 0.0, 0.3, 0.0, 0.0]},
            "D": [1, 2, 3, 4, 5, 6], "g": rng.uniform(-1.0, 1.0, n).tolist(),
            "mu": [0.0, 0.3, -0.2, 0.0, 0.4, 0.1, 0.0, 0.0],
            "nest": [[3], [2, 3], [2, 3, 4, 5], [1, 2, 3, 4, 5, 6]],
            "f": {"kind": "power", "p": 3.0, "b": rng.uniform(0.2, 1.0, n).tolist()}}
    if not absorbing:
        spec["form"]["kappa"] = [0.0] * n
        del spec["f"]
    return spec


SPECS = {
    "graph": _graph_spec(True),
    "graph_ladder": _graph_spec(True),  # solved by the test-side ladder (run_mutation)
    "graph_vd": _graph_spec(False),
    "frac": {"backend": "frac1d", "alpha": 1.0, "g": {"kind": "const", "value": 1.0},
             "f": {"kind": "power", "b": 1.0, "p": 3.0},
             "grid": {"order": 8, "n_base": 6, "edge_levels": 16, "out_levels": 8}},
    # the default grid: on the small one the unmutated run fails the trace
    "frac_nu": {"backend": "frac1d", "alpha": 1.3, "nu": {"plus": 0.1, "minus": 0.05},
                "g": {"kind": "const", "value": 1.0}, "f": {"kind": "power", "b": 1.0, "p": 3.0}},
}
D = np.array(SPECS["graph"]["D"])  # of every graph spec


# --- how a mutation reaches the pipeline -------------------------------------

def _after_solve(mp, change):
    """``cli.run`` sees the solved u as ``change(problem, u)`` leaves it."""
    real = cli.solve

    def solve(problem):
        sol = real(problem)
        sol.u = sol.u.copy()
        change(problem, sol.u)
        return sol

    mp.setattr(cli, "solve", solve)


def _inside_solve(mp, mutate):
    """The solve reads the problem ``mutate(problem)``; the checks read the real one."""
    real = cli.solve
    mp.setattr(cli, "solve", lambda problem: real(mutate(problem)))


def _during_solve(mp, module, name, wrap):
    """``module.name`` is ``wrap(original)`` while the solve runs, and only then."""
    real, original = cli.solve, getattr(module, name)

    def solve(problem):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(module, name, wrap(original))
            return real(problem)

    mp.setattr(cli, "solve", solve)


def _with_pdg(problem, pdg):
    """``problem`` whose cached P_D g is ``pdg``."""
    mutant = dataclasses.replace(problem)
    vars(mutant).update(pdg=pdg, rdm=problem.rdm)
    return mutant


def _on_D(vector, eps):
    """``vector`` with ``eps`` added on D."""
    out = np.array(vector, dtype=float)
    out[D] += eps
    return out


# --- the mutations -------------------------------------------------------------

def _u_on_D_scaled(factor):
    def apply(mp):
        _after_solve(mp, lambda p, u: u.__setitem__(p.D, u[p.D] * factor))
    return apply


def _u_off_D_shifted(mp):
    _after_solve(mp, lambda p, u: u.__setitem__(0, u[0] + 1e-6))


def _u_non_finite_off_D(mp):
    # P_V, and so the verify suite, takes no non-finite u
    _after_solve(mp, lambda p, u: u.__setitem__(0, np.inf))


def _u_non_finite_on_D(mp):
    _after_solve(mp, lambda p, u: u.__setitem__(D[0], np.inf))


def _pdg_in_solve(change):
    def apply(mp):
        _inside_solve(mp, lambda p: _with_pdg(p, change(p.pdg)))
    return apply


def _b_in_solve(factor):
    def apply(mp):
        def mutate(p):
            b = np.asarray(dict(p.f.params)["b"])
            f = power_nonlinearity(b * factor, 3.0) if factor else zero_nonlinearity()
            return dataclasses.replace(p, f=f)

        _inside_solve(mp, mutate)
    return apply


def _energy_column_in_solve(mp):
    # the Newton solve reads A_DD from the energy matrix; P_D g and R_D mu
    # are made first, so that read alone sees column D[0] x1.001
    real, original = cli.solve, DiscreteForm.energy_matrix

    def energy_matrix(form):
        A = original(form).copy()
        A[:, D[0]] *= 1.001
        return A

    def solve(problem):
        problem.pdg, problem.rdm
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(DiscreteForm, "energy_matrix", energy_matrix)
            return real(problem)

    mp.setattr(cli, "solve", solve)


def _green_column_in_solve(mp):
    def wrap(original):
        def green_operator(form, V):
            G = original(form, V)
            G[:, 0] *= 1.001
            return G
        return green_operator

    _during_solve(mp, paper_checks, "green_operator", wrap)


def _green_of_D_scaled(factor):
    # potential._solve serves green_operator and green_apply, not P_D: R_D
    # is wrong alike in the solve, the fixed-point check and the mc reference
    def apply(mp):
        original = potential._solve
        mp.setattr(potential, "_solve", lambda form, idx, rhs: original(form, idx, rhs)
                   * (factor if np.array_equal(idx, D) else 1.0))
    return apply


def _PV_shifted_at_level(mp):
    # P_V u + 1e-6 at level [2, 3] of the nest; P_D is left alone
    original = semilinear.project
    mp.setattr(semilinear, "project", lambda form, V, u: original(form, V, u)
               - (1e-6 if list(V) == [2, 3] else 0.0))


def _PD_shifted(eps):
    # P_D h + eps on D for every h, wherever P_D is called
    def apply(mp):
        original = projection.harmonic_extension

        def harmonic_extension(form, V, h):
            out = original(form, V, h)
            return _on_D(out, eps) if np.array_equal(as_subset(form.n, V), D) else out

        for module in (projection, semilinear, trace):
            mp.setattr(module, "harmonic_extension", harmonic_extension)
    return apply


def _pdg_inflated(mp):
    # the problem's P_D g has 0.5 added on D, in the solve and the checks:
    # harmonic no longer, so the solve misses the exterior data
    real = ProblemSpec.pdg.func

    def pdg(self):
        out = _on_D(real(self), 0.5)
        out.setflags(write=False)
        return out

    mp.setattr(ProblemSpec, "pdg", property(pdg))


def _frac_u_scaled(mp):
    _after_solve(mp, lambda p, u: u.__imul__(1 + 1e-4))


def _frac_u_shifted(mp):
    _after_solve(mp, lambda p, u: u.__iadd__(4e-2))


def _frac_u_non_finite(mp):
    _after_solve(mp, lambda p, u: u.__setitem__(0, np.inf))


def _frac_martin_added(mp):
    # u carries the Martin part of a boundary mass 0.05 at +1 the spec does not have
    _after_solve(mp, lambda p, u: u.__iadd__(
        0.05 * frac1d.martin_kernel(p.kernels, p.grid.interior_x, +1)))


def _frac_in_solve(name, factor):
    def apply(mp):
        _during_solve(mp, frac1d, name, lambda f: lambda *a, **k: f(*a, **k) * factor)
    return apply


def _frac_nu_dropped_in_solve(mp):
    # the solve sees no boundary measure; u then misses the Martin part
    # M nu, yet solves the fixed point that the solve built
    _inside_solve(mp, lambda p: dataclasses.replace(p, nu_plus=0.0, nu_minus=0.0))


def _frac_exit_law_off(mp):
    # each ball exit drawn from the law of alpha + 0.1
    original = wos._exit_jumps
    mp.setattr(wos, "_exit_jumps", lambda alpha, w: original(alpha + 0.1, w))


def _frac_ball_mass_off(mp):
    # the per-ball mean exit time 5% high; the closed-form reference unchanged
    mp.setattr(frac1d.FracKernels, "mean_exit_ball",
               lambda self, radius: 1.05 * self.exit_coef * radius ** self.alpha)


def _exits_moved(mp):
    # the exits at state 0 of every 25th path recorded at state 7, the other
    # exterior state: the walk's exit law is wrong, and its flux row is not.
    # The fault moves PD g by 1.43 of the plain band, and the martingale
    # control variate's mean by 3.5 of its standard errors, so the gate drops
    # the variate; regressed on it regardless, the estimate reads 0.83 of its
    # band and would pass, since the variate carries the same fault
    real = chain_sim.simulate_batch

    def simulate_batch(*args, **kwargs):
        exits, F = real(*args, **kwargs)
        moved = exits.copy()
        moved[::25][moved[::25] == 0] = 7
        return moved, F

    mp.setattr(chain_sim, "simulate_batch", simulate_batch)


def _flux_row_scaled(mp):
    # the compensator of the martingale x1.1, so the variate's mean is
    # -0.1 P_D g(x), not 0; regressed on it, PD g and FK read 7.3 and 7.6 bands off
    original = chain_sim.exterior_flux
    mp.setattr(chain_sim, "exterior_flux", lambda *args: 1.1 * original(*args))


@dataclasses.dataclass(frozen=True)
class Mutation:
    spec: str
    apply: Callable = lambda mp: None
    suites: tuple | None = None  # None: every suite of the backend


MUTATIONS = {
    "graph": Mutation("graph"),
    "u on D x(1+1e-6)": Mutation("graph", _u_on_D_scaled(1 + 1e-6)),
    "u on D x1.05": Mutation("graph", _u_on_D_scaled(1.05)),
    "u off D +1e-6": Mutation("graph", _u_off_D_shifted),
    "u off D inf": Mutation("graph", _u_non_finite_off_D, ("estimates",)),
    "u on D inf": Mutation("graph", _u_non_finite_on_D, ("verify", "estimates")),
    "PDg x(1+1e-6) in solve": Mutation("graph", _pdg_in_solve(lambda v: v * (1 + 1e-6))),
    "b x1.01 in solve": Mutation("graph", _b_in_solve(1.01)),
    "b x0 in solve": Mutation("graph", _b_in_solve(0.0)),
    "A_DD column 0 x1.001 in solve": Mutation("graph", _energy_column_in_solve),
    "graph_ladder": Mutation("graph_ladder"),
    "ladder: G column 0 x1.001 in solve": Mutation("graph_ladder", _green_column_in_solve),
    "R_D x(1+1e-6)": Mutation("graph", _green_of_D_scaled(1 + 1e-6)),
    "R_D x1.1": Mutation("graph", _green_of_D_scaled(1.1)),
    "P_V +1e-6 at a proper level": Mutation("graph", _PV_shifted_at_level),
    "P_D +1e-6": Mutation("graph", _PD_shifted(1e-6)),
    "P_D +0.05": Mutation("graph", _PD_shifted(0.05)),
    "chain: exits at 0 of every 25th path at 7": Mutation("graph", _exits_moved, ("mc",)),
    "chain: flux row x1.1": Mutation("graph", _flux_row_scaled, ("mc",)),
    "graph_vd": Mutation("graph_vd"),
    "vd: u on D x(1+1e-6)": Mutation("graph_vd", _u_on_D_scaled(1 + 1e-6)),
    "vd: PDg +1e-6 on D in solve": Mutation("graph_vd", _pdg_in_solve(lambda v: _on_D(v, 1e-6))),
    "vd: PDg +0.5 on D": Mutation("graph_vd", _pdg_inflated),
    "frac": Mutation("frac"),
    "frac: u x(1+1e-4)": Mutation("frac", _frac_u_scaled),
    "frac: u +0.04": Mutation("frac", _frac_u_shifted),
    "frac: u inf": Mutation("frac", _frac_u_non_finite, ("estimates",)),
    "frac: u +0.05 M(., +1)": Mutation("frac", _frac_martin_added),
    "frac: P_D g x1.05 in solve": Mutation("frac", _frac_in_solve("apply_PD", 1.05)),
    "frac: W x1.05 in solve": Mutation("frac", _frac_in_solve("green_matrix", 1.05)),
    "frac: W x1.005 in solve": Mutation("frac", _frac_in_solve("green_matrix", 1.005)),
    "frac: exit law of alpha + 0.1": Mutation("frac", _frac_exit_law_off),
    "frac: ball mean exit x1.05": Mutation("frac", _frac_ball_mass_off),
    "frac_nu": Mutation("frac_nu"),
    "frac_nu: nu dropped in solve": Mutation("frac_nu", _frac_nu_dropped_in_solve),
}
UNMUTATED = tuple(SPECS)  # each unmutated run is named after its spec

# key of residuals.json -> the mutations it must fail on
CATCHES = {
    "fixed_point": (
        "u on D x(1+1e-6)", "u on D x1.05", "u off D +1e-6", "u on D inf",
        "PDg x(1+1e-6) in solve", "b x1.01 in solve", "b x0 in solve",
        "A_DD column 0 x1.001 in solve", "ladder: G column 0 x1.001 in solve",
        "vd: u on D x(1+1e-6)", "vd: PDg +1e-6 on D in solve",
        "frac: u x(1+1e-4)", "frac: u +0.04", "frac: u +0.05 M(., +1)"),
    "projective_variational": (
        "u on D x(1+1e-6)", "u on D x1.05", "u off D +1e-6", "u on D inf",
        "PDg x(1+1e-6) in solve", "b x1.01 in solve", "b x0 in solve",
        "A_DD column 0 x1.001 in solve", "ladder: G column 0 x1.001 in solve", "R_D x(1+1e-6)",
        "R_D x1.1", "P_V +1e-6 at a proper level", "P_D +1e-6", "P_D +0.05",
        "vd: u on D x(1+1e-6)", "vd: PDg +1e-6 on D in solve", "vd: PDg +0.5 on D"),
    "very_weak_identity": (
        "u on D x(1+1e-6)", "u on D x1.05", "u off D +1e-6", "u on D inf",
        "PDg x(1+1e-6) in solve", "b x1.01 in solve", "b x0 in solve",
        "A_DD column 0 x1.001 in solve", "ladder: G column 0 x1.001 in solve", "R_D x(1+1e-6)",
        "R_D x1.1", "P_D +1e-6", "P_D +0.05", "vd: u on D x(1+1e-6)",
        "vd: PDg +1e-6 on D in solve", "vd: PDg +0.5 on D"),
    "very_weak_harmonic_pairing": ("P_D +1e-6", "P_D +0.05"),
    "vd_identity": ("vd: u on D x(1+1e-6)", "vd: PDg +1e-6 on D in solve"),
    "apriori_zero_order": ("u on D x1.05", "u on D inf", "b x0 in solve", "vd: PDg +0.5 on D"),
    "solution_sup": ("u off D inf", "u on D inf"),
    "mc_PDg": ("P_D +0.05", "vd: PDg +0.5 on D", "chain: exits at 0 of every 25th path at 7"),
    "mc_RD1": ("R_D x1.1",),
    "mc_FK_residual": ("u on D x1.05", "b x0 in solve", "P_D +0.05", "vd: PDg +0.5 on D",
                       "chain: exits at 0 of every 25th path at 7"),
    # fixed_point passes "frac_nu: nu dropped in solve" (1.7e-16): the two
    # nest checks are the deterministic keys that see a boundary measure
    "projective_exhaustion": ("frac: u +0.05 M(., +1)", "frac_nu: nu dropped in solve"),
    "trace_extrapolated": ("frac: u +0.05 M(., +1)", "frac_nu: nu dropped in solve"),
    "weighted_ratio": ("frac: u inf",),
    "wos_mean_exit": ("frac: exit law of alpha + 0.1", "frac: ball mean exit x1.05"),
    "wos_fk_residual": ("frac: u +0.04", "frac: u +0.05 M(., +1)",
                        "frac: P_D g x1.05 in solve", "frac: W x1.05 in solve",
                        "frac: W x1.005 in solve", "frac: exit law of alpha + 0.1",
                        "frac_nu: nu dropped in solve"),
    "wos_exit_chi2_pmin": ("frac: exit law of alpha + 0.1",),
}
# mutation -> why every key passes it
ABSORBED = {
    "chain: flux row x1.1": "the variate's mean misses 0 by far more than three of its "
                            "standard errors, so the gate keeps the plain estimate, which "
                            "reads no flux row",
}
# key -> why no mutation of the table needs to fail it
BOUNDS = {
    "apriori_harmonic_shift": "an inequality: |u - P_D g| + R_D|f(u)| <= 2 R_D|f(P_D g)| "
                              "+ R_D|mu|, with slack under every mutation",
    "apriori_weighted_norm": "an inequality on the total absorbed mass; slack 1.4 here",
    "second_moment_bound": "an inequality of exact exit moments that reads only mu "
                           "and the form, not u; slack 2.7e-3 here",
    "vd_norm_bound": "the triangle inequality of the energy norms of u, P_D g and "
                     "R_D mu; slack 0.24 here",
    "vd_kernel_contraction": "the Dirichlet principle E(P_D g) <= E(g), which reads "
                             "only g and P_D g; slack 1.6 here",
}


def run_mutation(name, tmp_path, monkeypatch) -> dict:
    """``results`` of ``residuals.json`` of one run under mutation ``name``."""
    mutation = MUTATIONS[name]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[mutation.spec]))
    if mutation.spec == "graph_ladder":
        monkeypatch.setattr(cli, "solve", paper_checks.solve_by_ladder)
    mutation.apply(monkeypatch)
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", suites=mutation.suites,
                        seed=SEED, paths=PATHS)
    cli.run(cfg)
    return json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_power_table(name, tmp_path, monkeypatch):
    results = run_mutation(name, tmp_path, monkeypatch)
    failed = {key for key, entry in results.items() if not entry["pass"]}
    expected = {key for key, names in CATCHES.items() if name in names}
    assert expected <= set(results)
    assert failed >= expected, f"keys that no longer catch it: {sorted(expected - failed)}"
    if name in UNMUTATED or name in ABSORBED:
        assert failed == set()
    if name in ABSORBED:
        # the plain estimate, so no biased one passes inside its band
        problem, _ = cli.load_problem(tmp_path / "spec.json")
        x = int(problem.D[0])
        exits, _ = chain_sim.simulate_batch(problem.form, problem.D, x, PATHS, SEED)
        plain = mean_and_stderr(np.append(problem.g, 0.0)[exits])
        assert results["mc_PDg"] == cli._band(*plain, float(problem.pdg[x]))


def test_table_covers_every_key(tmp_path, monkeypatch):
    # every key of an unmutated run is in the table once, every mutation
    # named there exists and is caught by some key, and every Monte Carlo
    # entry catches one
    keys = set()
    for name in UNMUTATED:
        tmp_path.joinpath(name).mkdir()
        with monkeypatch.context() as mp:
            keys |= set(run_mutation(name, tmp_path / name, mp))
    assert keys == set(CATCHES) | set(BOUNDS) and not set(CATCHES) & set(BOUNDS)
    named = {name for names in CATCHES.values() for name in names}
    assert named == set(MUTATIONS) - set(UNMUTATED) - set(ABSORBED)
    assert all(CATCHES[key] for key in keys if key.startswith(("mc_", "wos_")))


def test_graph_spec_newton_matches_its_ladder(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS["graph"]))
    problem, _ = cli.load_problem(spec)
    sol, ref = semilinear.solve(problem), paper_checks.solve_by_ladder(problem)
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))
