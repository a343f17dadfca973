"""Experiment runner: load a problem from JSON, solve, verify, emit tables.

``dirichlet-lab run spec.json [--out DIR] [--seed N] [--suite NAME ...]
[--tol KEY=VAL ...] [--paths N]`` solves the problem, runs the requested
verification suites (default: all that ``SUITES`` registers for the backend),
writes ``solution.csv``, ``residuals.json``, ``trace.csv`` and ``mc.json``
into the output directory, and exits nonzero iff any contract fails.
``--tol`` overrides a default of ``CONTRACTS`` (``wos_exit_chi2`` is a floor,
the rest are ceilings); ``--paths`` sets each Monte Carlo oracle's path count.
A suite or ``--tol`` key that does not apply to the backend exits 2 unsolved.

``dirichlet-lab gen --seed N --count K [--out DIR]`` writes reproducible
random graph problem pairs (ordered for comparison runs).

DIRICHLET_LAB_THREADS caps the parallel suite workers and the walk-on-spheres
chunk workers (``rng.worker_count``); the outputs do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import chain_sim, frac1d, trace, wos
from .forms import form_from_dict, form_to_dict
from .potential import exit_second_moment, green_apply
from .rng import worker_count
from .semilinear import (LadderConfig, ProblemSpec, apriori_report, exp_nonlinearity,
                         power_nonlinearity, residual_probabilistic, solve,
                         table_nonlinearity, vd_check, verify_projective,
                         very_weak_defect, zero_nonlinearity)
from .suite import random_ordered_pair

SCHEMA = 1
# (backend, --tol key) -> (default contract, direction). A checked value
# passes when it lies strictly below, or strictly above, its contract.
CONTRACTS = {
    ("graph", "fixed_point"): (1e-8, "below"),
    ("graph", "projective_variational"): (1e-8, "below"),
    ("graph", "projective_boundary"): (1e-8, "below"),
    ("graph", "projective_exhaustion"): (1e-8, "below"),
    ("graph", "very_weak"): (1e-9, "below"),
    ("graph", "vd_identity"): (1e-9, "below"),
    ("graph", "vd_norm_bound"): (1e-9, "below"),
    ("graph", "vd_kernel_contraction"): (1e-9, "below"),
    ("graph", "apriori"): (1e-9, "below"),
    ("graph", "second_moment"): (1e-10, "below"),
    ("graph", "trace"): (1e-10, "below"),
    ("frac1d", "fixed_point"): (1e-6, "below"),
    ("frac1d", "projective_exhaustion"): (1e-2, "below"),
    ("frac1d", "trace"): (1e-3, "below"),
    ("frac1d", "wos_exit_chi2"): (1e-3, "above"),
}
# backend -> the suites that apply, in submission order. Suite ``s`` of a
# backend is the module function ``_suite_<s>_<graph|frac>``.
SUITES = {"graph": ("verify", "estimates", "trace", "mc"),
          "frac1d": ("verify", "trace", "wos", "estimates")}
_SUFFIX = {"graph": "graph", "frac1d": "frac"}
# how a value meets its contract: the table directions, and Monte Carlo bands
_PASSES = {"below": operator.lt, "above": operator.gt, "band": operator.le}


@dataclass
class RunConfig:
    """One experiment; ``suites=None`` runs every suite of the spec's backend."""

    spec_path: Path
    out_dir: Path
    suites: tuple | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    paths: float = 100000
    dump_kernels: bool = False

    def __post_init__(self):
        self.spec_path = Path(self.spec_path)
        self.out_dir = Path(self.out_dir)
        if not self.spec_path.exists():
            raise FileNotFoundError(self.spec_path)
        unknown = set(self.tolerances) - {key for _, key in CONTRACTS}
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, val in self.tolerances.items():
            if not val > 0:  # NaN fails too
                raise ValueError(f"tolerance {key} must be positive, got {val}")
        if not (math.isfinite(self.paths) and int(self.paths) >= 100):
            raise ValueError(f"paths must be finite and at least 100 (n_paths >= 100), "
                             f"got {self.paths}")
        bad = set(self.suites or ()) - {s for names in SUITES.values() for s in names}
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _coefficient(b):
    """A spec's ``b``: a scalar becomes a constant callable, a list an array."""
    if np.isscalar(b):
        return lambda y, c=float(b): np.full_like(np.asarray(y, dtype=float), c)
    return np.asarray(b, dtype=float)


def _atoms(atoms) -> tuple:
    """``mu.atoms``: a list of ``[position, weight]`` pairs of numbers."""
    try:
        if isinstance(atoms, list) and all(isinstance(a, list) for a in atoms):
            return tuple((float(p), float(w)) for p, w in atoms)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"spec key 'mu.atoms' must be a list of [position, weight] pairs, "
                     f"got {atoms!r}")


def _nonlinearity_from_dict(obj: dict):
    """Absorption from a spec's ``f``; pops the keys it reads."""
    kind = obj.pop("kind", None)
    if kind in (None, "zero"):
        return zero_nonlinearity()
    if kind == "power":
        return power_nonlinearity(_coefficient(obj.pop("b", 1.0)), float(obj.pop("p", 1.0)))
    if kind == "exp":
        return exp_nonlinearity(_coefficient(obj.pop("b", 1.0)))
    if kind == "custom-table":
        return table_nonlinearity(obj.pop("y"), obj.pop("values"))
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


def _exterior_from_dict(obj: dict) -> frac1d.ExteriorData:
    """Exterior data from a continuum spec's ``g``; pops the keys it reads."""
    kind = obj.pop("kind", None)
    if kind in (None, "zero"):
        return frac1d.zero_exterior()
    if kind == "const":
        return frac1d.const_exterior(float(obj.pop("value", 1.0)))
    if kind == "indicator":
        return frac1d.indicator_exterior(float(obj.pop("a")), float(obj.pop("b")))
    if kind == "power_singular":
        return frac1d.power_singular_exterior(float(obj.pop("p")), float(obj.pop("coef", 1.0)))
    raise ValueError(f"unknown exterior kind {kind!r}")


def load_problem(path):
    """``(problem, ladder)`` from a spec JSON file: a graph or continuum problem
    and the ``LadderConfig`` of its solve.

    Each reader pops the keys it reads.  A key left over, a sub-object that
    is not a JSON object, or a malformed ``mu.atoms`` is a ValueError naming it.
    """
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"a spec must be a JSON object, got {type(obj).__name__}")
    rest = {}

    def popped(key: str) -> dict:
        """Sub-object ``key`` ({} when absent or null), kept to name its unread keys."""
        sub = obj.pop(key, None)
        if not isinstance(sub, (dict, type(None))):
            raise ValueError(f"spec key {key!r} must be a JSON object, got {type(sub).__name__}")
        rest[key] = sub or {}
        return rest[key]

    obj.pop("schema", None)
    backend = obj.pop("backend", "graph")
    if backend not in tuple(SUITES):  # a tuple: an unhashable value is unknown too
        raise ValueError(f"unknown backend {backend!r}")
    ladder = popped("ladder")
    ladder = LadderConfig(**{fd.name: ladder.pop(fd.name)
                             for fd in fields(LadderConfig) if fd.name in ladder})
    f = _nonlinearity_from_dict(popped("f"))
    if backend == "graph":
        form = popped("form")
        arrays = {key: form.pop(key) for key in ("m", "J", "kappa") if key in form}
        D, g, mu = obj.pop("D"), obj.pop("g", None), obj.pop("mu", None)
        nest = tuple(tuple(v) for v in obj.pop("nest", []))
    else:
        alpha = float(obj.pop("alpha"))
        g = _exterior_from_dict(popped("g"))
        atoms = _atoms(popped("mu").pop("atoms", []))
        nu = popped("nu")
        nu = float(nu.pop("plus", 0.0)), float(nu.pop("minus", 0.0))
        grid = popped("grid")
        grid = {"order": int(grid.pop("order", 10)), "n_base": int(grid.pop("n_base", 8)),
                "edge_levels": int(grid.pop("edge_levels", 22)),
                "out_levels": int(grid.pop("out_levels", 10))}
        nest, levels = obj.pop("nest", None), int(obj.pop("nest_levels", 12))
        nest = frac1d.default_nest(levels) if nest is None else tuple(nest)
    unknown = list(obj) + [f"{name}.{key}" for name, sub in rest.items() for key in sub]
    if unknown:
        raise ValueError(f"unknown spec keys: {unknown}")
    if backend == "graph":
        form = form_from_dict(arrays)
        g = np.zeros(form.n) if g is None else np.asarray(g, dtype=float)
        mu = np.zeros(form.n) if mu is None else np.asarray(mu, dtype=float)
        return ProblemSpec(form=form, D=D, g=g, mu=mu, f=f, nest=nest), ladder
    prob = frac1d.ContinuumProblem(
        kernels=frac1d.build_kernels(alpha), grid=frac1d.build_grid(alpha, **grid),
        g=g, f=f, mu_atoms=atoms, nu_plus=nu[0], nu_minus=nu[1], nest=nest)
    return prob, ladder


def _entry(value, contract, direction="below") -> dict:
    return {"value": value, "contract": contract,
            "pass": bool(_PASSES[direction](value, contract))}


def _checked(cfg, backend, key, value) -> dict:
    """Entry of ``value`` against contract-table row ``(backend, key)`` or its ``--tol``."""
    default, direction = CONTRACTS[backend, key]
    return _entry(value, float(cfg.tolerances.get(key, default)), direction)


def _band(est, se, exact) -> dict:
    """Monte Carlo agreement: ``|est - exact|`` within three standard errors."""
    return _entry(abs(est - exact), max(3.0 * se, 1e-9), "band")


def _suite_verify_graph(cfg, spec, sol, outdir):
    out = {"fixed_point": _checked(cfg, "graph", "fixed_point",
                                   residual_probabilistic(sol.u, spec))}
    for key, val in verify_projective(sol.u, spec).items():
        out[f"projective_{key}"] = _checked(cfg, "graph", f"projective_{key}", val)
    for key, val in very_weak_defect(sol.u, spec).items():
        out[f"very_weak_{key}"] = _checked(cfg, "graph", "very_weak", val)
    if not np.any(spec.form.kappa != 0) and spec.f.is_zero:
        for key, val in vd_check(sol.u, spec).items():
            out[f"vd_{key}"] = _checked(cfg, "graph", f"vd_{key}", val)
    return out


def _suite_estimates_graph(cfg, spec, sol, outdir):
    out = {f"apriori_{key}": _checked(cfg, "graph", "apriori", val)
           for key, val in apriori_report(sol.u, spec).items()}
    exact, bound = exit_second_moment(spec.form, spec.D, np.abs(spec.mu))
    slack = float(np.max(exact[spec.D] - bound, initial=-np.inf)) if spec.D.size else 0.0
    out["second_moment_bound"] = _checked(cfg, "graph", "second_moment", slack)
    # a record, not a --tol check: it fails only on a non-finite solution
    out["solution_sup"] = _entry(float(np.max(np.abs(sol.u))), float("inf"))
    return out


def _suite_trace_graph(cfg, spec, sol, outdir):
    seq = trace.trace_sequence_graph(sol.u, spec.form, spec.D, spec.nest)
    _write_csv(outdir / "trace.csv", "probe,level,value,extrapolated",
               trace.trace_csv_rows(seq))
    worst = float(np.max(np.abs(seq.values[-1])))
    return {"trace_terminal": _checked(cfg, "graph", "trace", worst)}


def _suite_mc_graph(cfg, spec, sol, outdir):
    form, D, n_paths = spec.form, spec.D, int(cfg.paths)
    x = int(D[0])
    est, se = chain_sim.mc_estimate("PDg", form, D, x, n_paths=n_paths, seed=cfg.seed, g=spec.g)
    out = {"mc_PDg": _band(est, se, float(spec.pdg[x]))}
    h = np.ones(form.n)
    rd_exact = float(green_apply(form, D, h * form.m)[x])
    est, se = chain_sim.mc_estimate("RDf", form, D, x, n_paths=n_paths, seed=cfg.seed + 1, h=h)
    out["mc_RD1"] = _band(est, se, rd_exact)
    est, se = chain_sim.mc_estimate("FK_residual", form, D, x, n_paths=n_paths,
                                    seed=cfg.seed + 2, g=spec.g, mu=spec.mu, u=sol.u, f=spec.f)
    out["mc_FK_residual"] = _band(est, se, 0.0)
    return out


def _suite_verify_frac(cfg, prob, sol, outdir):
    out = {"fixed_point": _checked(cfg, "frac1d", "fixed_point",
                                   frac1d.fixed_point_residual(sol))}
    last = float(np.max(frac1d.projective_exhaustion_defects(prob, sol)[-1]))
    out["projective_exhaustion"] = _checked(cfg, "frac1d", "projective_exhaustion", last)
    return out


def _suite_trace_frac(cfg, prob, sol, outdir):
    u_fn = frac1d.continuum_callable(prob, sol)
    # probes near the boundary only enter the exhaustion after a few levels,
    # so the trace suite extends the same nest construction to 16 levels
    radii = prob.nest_radii()
    if len(radii) < 16:
        radii = frac1d.default_nest(16)
    seq = trace.trace_sequence_frac(prob.kernels, u_fn, radii)
    _write_csv(outdir / "trace.csv", "probe,level,value,extrapolated",
               trace.trace_csv_rows(seq))
    worst = float(np.max(np.abs(seq.extrapolated)))
    return {"trace_extrapolated": _checked(cfg, "frac1d", "trace", worst)}


def _suite_wos_frac(cfg, prob, sol, outdir):
    k, n_paths = prob.kernels, int(cfg.paths)
    pmin = 1.0
    for j, x in enumerate((0.0, 0.4, -0.7)):
        _, p = wos.wos_exit_chi2(k, x, n_paths=n_paths, seed=cfg.seed + j)
        pmin = min(pmin, p)
    out = {"wos_exit_chi2_pmin": _checked(cfg, "frac1d", "wos_exit_chi2", pmin)}
    est, se = wos.wos_estimate("mean_exit_time", k, 0.3, n_paths=n_paths, seed=cfg.seed + 7)
    exact = float(frac1d.apply_RD(k, prob.grid, h=lambda y: np.ones_like(y), x=[0.3])[0])
    out["wos_mean_exit"] = _band(est, se, exact)
    if not prob.f.is_zero and not prob.mu_atoms:
        u_fn = frac1d.continuum_callable(prob, sol)
        est, se = wos.wos_estimate("FK_residual", k, 0.2, n_paths=n_paths,
                                   seed=cfg.seed + 8, g=prob.g, u_fn=u_fn, f=prob.f)
        out["wos_fk_residual"] = _band(est, se, 0.0)
    return out


def _suite_estimates_frac(cfg, prob, sol, outdir):
    # a record, not a --tol check: the ratio is >= 0, so it fails only when not finite
    return {"weighted_ratio": _entry(frac1d.example77_report(prob, sol)["ratio"],
                                     float("inf"))}


def _dump_kernels(problem, outdir: Path) -> None:
    """Kernel/grid CSV exports for downstream plotting."""
    if isinstance(problem, ProblemSpec):
        from .potential import green_operator
        from .projection import poisson_kernel

        P = poisson_kernel(problem.form, problem.D).P
        _write_csv(outdir / "poisson_kernel.csv", ",".join(map(str, range(P.shape[1]))),
                   [tuple(float(v) for v in row) for row in P])
        G = green_operator(problem.form, problem.D).G
        _write_csv(outdir / "green_operator.csv", ",".join(str(int(i)) for i in problem.D),
                   [tuple(float(v) for v in row) for row in G])
        return
    grid = problem.grid
    _write_csv(outdir / "grid.csv", "region,node,weight",
               [("interior", float(x), float(w)) for x, w in
                zip(grid.interior_x, grid.interior_w)]
               + [("exterior", float(x), float(w)) for x, w in
                  zip(grid.exterior_x, grid.exterior_w)])
    xs = grid.interior_x[:: max(1, grid.interior_x.size // 64)]
    rows = []
    for x in xs:
        for y in xs:
            if x != y:
                rows.append((float(x), float(y), float(problem.kernels.green(x, y))))
    _write_csv(outdir / "green_samples.csv", "x,y,G", rows)


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    problem, ladder = load_problem(config.spec_path)
    backend = "graph" if isinstance(problem, ProblemSpec) else "frac1d"
    stray = sorted(set(config.suites or ()) - set(SUITES[backend]))
    stray += sorted(set(config.tolerances) - {key for b, key in CONTRACTS if b == backend})
    if stray:
        raise ValueError(f"suites or --tol keys {stray} do not apply to backend {backend!r}")
    suites = [s for s in SUITES[backend] if config.suites is None or s in config.suites]
    sol = solve(problem, ladder)
    outdir = config.out_dir
    if config.dump_kernels:
        _dump_kernels(problem, outdir)
    if backend == "graph":
        rows = [(int(i), float(v)) for i, v in enumerate(sol.u)]
        _write_csv(outdir / "solution.csv", "state,u", rows)
    else:
        rows = [(float(x), float(v)) for x, v in zip(sol.meta["x"], sol.u)]
        _write_csv(outdir / "solution.csv", "x,u", rows)

    results: dict = {}
    # looked up at call time, so a wrapper set on this module is the one run
    fns = [globals()[f"_suite_{s}_{_SUFFIX[backend]}"] for s in suites]
    with ThreadPoolExecutor(max_workers=worker_count(len(fns))) as pool:
        futures = [pool.submit(fn, config, problem, sol, outdir) for fn in fns]
        for fut in futures:
            results.update(fut.result())

    ok = all(entry["pass"] for entry in results.values())
    payload = {"schema": SCHEMA, "pass": ok,
               "solver_converged": bool(sol.converged), "results": results}
    _write_json(outdir / "residuals.json", payload)
    mc_entries = {k: v for k, v in results.items() if k.startswith(("mc_", "wos_"))}
    _write_json(outdir / "mc.json", {"schema": SCHEMA, "results": mc_entries})
    return 0 if ok and sol.converged else 1


def generate_random_suite(seed: int, count: int, out_dir) -> list:
    """Write ``count`` ordered random graph-problem pairs; returns the paths."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(count):
        s1, s2 = random_ordered_pair(rng)
        for tag, s in (("a", s1), ("b", s2)):
            obj = {
                "schema": SCHEMA,
                "backend": "graph",
                "form": form_to_dict(s.form),
                "D": [int(i) for i in s.D],
                "g": s.g.tolist(),
                "mu": s.mu.tolist(),
                "f": _nonlinearity_to_dict(s.f),
            }
            p = out / f"random_{seed}_{k:03d}{tag}.json"
            _atomic_write(p, json.dumps(obj, sort_keys=True) + "\n")
            paths.append(p)
    return paths


def _nonlinearity_to_dict(f) -> dict:
    if not f.params:
        raise ValueError(f"cannot serialize nonlinearity {f.name!r}")
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in f.params}


def _parse_tols(items) -> dict:
    """``KEY=VAL`` arguments of ``--tol`` as a dict of floats."""
    tols = {}
    for item in items:
        key, sep, val = item.partition("=")
        try:
            number = float(val)
        except ValueError:
            number = None
        if not (key and sep) or number is None:
            raise ValueError(f"--tol expects KEY=NUMBER, got {item!r}")
        tols[key] = number
    return tols


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dirichlet-lab",
                                     description="Nonlocal Dirichlet-problem laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="solve a spec file and run verification suites")
    runp.add_argument("spec", type=Path)
    runp.add_argument("--out", type=Path, default=Path("out"))
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--suite", action="append", default=None,
                      help="suite name (repeatable); default: all applicable")
    runp.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                      help="contract override; keys: the rows of cli.CONTRACTS")
    runp.add_argument("--paths", type=float, default=100000, metavar="N",
                      help="paths per Monte Carlo oracle (finite, >= 100)")
    runp.add_argument("--dump-kernels", action="store_true",
                      help="export kernel matrices / grid samples as CSV")
    genp = sub.add_parser("gen", help="generate random graph problem pairs")
    genp.add_argument("--seed", type=int, required=True)
    genp.add_argument("--count", type=int, required=True)
    genp.add_argument("--out", type=Path, default=Path("generated"))
    args = parser.parse_args(argv)
    if args.command == "gen":
        paths = generate_random_suite(args.seed, args.count, args.out)
        print("\n".join(str(p) for p in paths))
        return 0
    try:
        config = RunConfig(spec_path=args.spec, out_dir=args.out,
                           suites=tuple(args.suite) if args.suite else None,
                           seed=args.seed, tolerances=_parse_tols(args.tol),
                           paths=args.paths, dump_kernels=args.dump_kernels)
        status = run(config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {args.spec}: {exc}")
        return 2
    print(f"{'PASS' if status == 0 else 'FAIL'}: results in {config.out_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
