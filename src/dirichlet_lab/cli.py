"""Experiment runner: load a problem from JSON, solve, verify, emit tables.

``dirichlet-lab run spec.json [--out DIR] [--seed N] [--suite NAME ...]``
solves the problem, runs the requested verification suites, writes
``solution.csv``, ``residuals.json``, ``trace.csv`` and ``mc.json`` into the
output directory, and exits nonzero iff any contract fails.

``dirichlet-lab gen --seed N --count K [--out DIR]`` writes reproducible
random graph problem pairs (ordered for comparison runs).

The number of parallel suite workers is capped by DIRICHLET_LAB_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chain_sim, frac1d, trace, wos
from .forms import form_from_dict, form_to_dict
from .potential import exit_second_moment, green_apply
from .semilinear import (LadderConfig, ProblemSpec, apriori_report, exp_nonlinearity,
                         power_nonlinearity, residual_probabilistic, solve,
                         table_nonlinearity, vd_check, verify_projective,
                         very_weak_defect, zero_nonlinearity)
from .suite import random_ordered_pair

SCHEMA = 1
_SUITES = ("verify", "trace", "mc", "wos", "estimates")


@dataclass
class RunConfig:
    """One experiment: spec file, suites, output directory, seeds, tolerances."""

    spec_path: Path
    out_dir: Path
    suites: tuple = _SUITES
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    dump_kernels: bool = False

    def __post_init__(self):
        self.spec_path = Path(self.spec_path)
        self.out_dir = Path(self.out_dir)
        if not self.spec_path.exists():
            raise FileNotFoundError(self.spec_path)
        for key, val in self.tolerances.items():
            if val <= 0:
                raise ValueError(f"tolerance {key} must be positive")
        for key in ("mc_paths", "wos_paths"):
            if int(self.tolerances.get(key, 100)) < 100:
                raise ValueError(f"tolerance {key} must be at least 100 (n_paths >= 100)")
        bad = set(self.suites) - set(_SUITES)
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))


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


def _nonlinearity_from_dict(obj: dict | None, n: int):
    if not obj or obj.get("kind") in (None, "zero"):
        return zero_nonlinearity()
    kind = obj["kind"]
    if kind == "power":
        b = obj.get("b", 1.0)
        b_arr = (lambda y, c=float(b): np.full_like(np.asarray(y, dtype=float), c)) \
            if np.isscalar(b) else np.asarray(b, dtype=float)
        return power_nonlinearity(b_arr, float(obj.get("p", 1.0)))
    if kind == "exp":
        b = obj.get("b", 1.0)
        b_arr = (lambda y, c=float(b): np.full_like(np.asarray(y, dtype=float), c)) \
            if np.isscalar(b) else np.asarray(b, dtype=float)
        return exp_nonlinearity(b_arr)
    if kind == "custom-table":
        return table_nonlinearity(obj["y"], obj["values"])
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


def _exterior_from_dict(obj: dict | None) -> frac1d.ExteriorData:
    if not obj or obj.get("kind") in (None, "zero"):
        return frac1d.zero_exterior()
    kind = obj["kind"]
    if kind == "const":
        return frac1d.const_exterior(float(obj.get("value", 1.0)))
    if kind == "indicator":
        return frac1d.indicator_exterior(float(obj["a"]), float(obj["b"]))
    if kind == "power_singular":
        return frac1d.power_singular_exterior(float(obj["p"]), float(obj.get("coef", 1.0)))
    raise ValueError(f"unknown exterior kind {kind!r}")


def load_problem(path):
    """Problem object (graph or continuum) from a spec JSON file."""
    with open(path) as fh:
        obj = json.load(fh)
    backend = obj.get("backend", "graph")
    if backend == "graph":
        form = form_from_dict(obj["form"])
        f = _nonlinearity_from_dict(obj.get("f"), form.n)
        mu = np.asarray(obj.get("mu", np.zeros(form.n)), dtype=float)
        g = np.asarray(obj.get("g", np.zeros(form.n)), dtype=float)
        nest = tuple(tuple(v) for v in obj.get("nest", []))
        return ProblemSpec(form=form, D=obj["D"], g=g, mu=mu, f=f, nest=nest), obj
    if backend == "frac1d":
        alpha = float(obj["alpha"])
        gobj = obj.get("grid", {})
        kernels = frac1d.build_kernels(alpha)
        grid = frac1d.build_grid(alpha, order=int(gobj.get("order", 10)),
                                 n_base=int(gobj.get("n_base", 8)),
                                 edge_levels=int(gobj.get("edge_levels", 22)),
                                 out_levels=int(gobj.get("out_levels", 10)))
        nu = obj.get("nu", {})
        nest = tuple(obj["nest"]) if "nest" in obj else frac1d.default_nest(
            int(obj.get("nest_levels", 12)))
        prob = frac1d.ContinuumProblem(
            kernels=kernels, grid=grid, g=_exterior_from_dict(obj.get("g")),
            f=_nonlinearity_from_dict(obj.get("f"), 0),
            mu_atoms=tuple((float(p), float(w)) for p, w in obj.get("mu", {}).get("atoms", [])),
            nu_plus=float(nu.get("plus", 0.0)), nu_minus=float(nu.get("minus", 0.0)),
            nest=nest)
        return prob, obj
    raise ValueError(f"unknown backend {backend!r}")


def _ladder_from_dict(obj: dict | None) -> LadderConfig | None:
    if not obj:
        return None
    return LadderConfig(**{k: obj[k] for k in obj
                           if k in ("base", "max_level", "outer_tol", "inner_tol",
                                    "max_inner", "theta0", "start")})


def _suite_verify_graph(cfg, spec, sol, results):
    tol = cfg.tol("fixed_point", 1e-8)
    res = residual_probabilistic(sol.u, spec)
    results["fixed_point"] = {"value": res, "contract": tol, "pass": res < tol}
    rep = verify_projective(sol.u, spec)
    for key, val in rep.items():
        t = cfg.tol(f"projective_{key}", 1e-8)
        results[f"projective_{key}"] = {"value": val, "contract": t, "pass": val < t}
    vw = very_weak_defect(sol.u, spec)
    t = cfg.tol("very_weak", 1e-9)
    for key, val in vw.items():
        results[f"very_weak_{key}"] = {"value": val, "contract": t, "pass": val < t}
    if not np.any(spec.form.kappa != 0) and spec.f.is_zero:
        vd = vd_check(sol.u, spec)
        for key, val in vd.items():
            t = cfg.tol(f"vd_{key}", 1e-9)
            results[f"vd_{key}"] = {"value": val, "contract": t, "pass": val < t}


def _suite_estimates_graph(cfg, spec, sol, results):
    rep = apriori_report(sol.u, spec)
    t = cfg.tol("apriori", 1e-9)
    for key, val in rep.items():
        results[f"apriori_{key}"] = {"value": val, "contract": t, "pass": val < t}
    hi = float(np.max(np.abs(sol.u)))
    t2 = cfg.tol("second_moment", 1e-10)
    mu_pos = np.abs(spec.mu)
    exact, bound = exit_second_moment(spec.form, spec.D, mu_pos)
    slack = float(np.max(exact[spec.D] - bound, initial=-np.inf)) if spec.D.size else 0.0
    results["second_moment_bound"] = {"value": slack, "contract": t2, "pass": slack < t2}
    results["solution_sup"] = {"value": hi, "contract": float("inf"), "pass": True}


def _suite_trace_graph(cfg, spec, sol, outdir, results):
    seq = trace.trace_sequence_graph(sol.u, spec.form, spec.D, spec.nest)
    _write_csv(outdir / "trace.csv", "probe,level,value,extrapolated",
               trace.trace_csv_rows(seq))
    worst = float(np.max(np.abs(seq.values[-1])))
    t = cfg.tol("trace", 1e-10)
    results["trace_terminal"] = {"value": worst, "contract": t, "pass": worst < t}


def _suite_mc_graph(cfg, spec, sol, results):
    form, D = spec.form, spec.D
    x = int(D[0])
    out = {}
    pd_exact = float(_pdg(spec)[x])
    est, se = chain_sim.mc_estimate("PDg", form, D, x, n_paths=int(cfg.tol("mc_paths", 100000)),
                                    seed=cfg.seed, g=spec.g)
    out["PDg"] = _mc_entry(est, se, pd_exact)
    h = np.ones(form.n)
    rd_exact = float(green_apply(form, D, h * form.m)[x])
    est, se = chain_sim.mc_estimate("RDf", form, D, x, n_paths=int(cfg.tol("mc_paths", 100000)),
                                    seed=cfg.seed + 1, h=h)
    out["RD1"] = _mc_entry(est, se, rd_exact)
    est, se = chain_sim.mc_estimate("FK_residual", form, D, x,
                                    n_paths=int(cfg.tol("mc_paths", 100000)),
                                    seed=cfg.seed + 2, g=spec.g, mu=spec.mu, u=sol.u, f=spec.f)
    out["FK_residual"] = _mc_entry(est, se, 0.0)
    results["mc"] = out
    for key, entry in out.items():
        results[f"mc_{key}"] = {"value": abs(entry["estimate"] - entry["exact"]),
                                "contract": entry["band"], "pass": entry["pass"]}
    del results["mc"]


def _pdg(spec: ProblemSpec) -> np.ndarray:
    from .projection import harmonic_extension
    return harmonic_extension(spec.form, spec.D, spec.g)


def _mc_entry(est, se, exact):
    band = max(3.0 * se, 1e-9)
    return {"estimate": est, "stderr": se, "exact": exact, "band": band,
            "pass": bool(abs(est - exact) <= band)}


def _suite_verify_frac(cfg, prob, sol, results):
    tol = cfg.tol("fixed_point", 1e-6)
    res = sol.residuals["fixed_point"]
    results["fixed_point"] = {"value": res, "contract": tol, "pass": res < tol}
    defects = frac1d.projective_exhaustion_defects(prob, sol)
    last = float(np.max(defects[-1]))
    t = cfg.tol("projective_exhaustion", 1e-2)
    results["projective_exhaustion"] = {"value": last, "contract": t, "pass": last < t}


def _suite_trace_frac(cfg, prob, sol, outdir, results):
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
    t = cfg.tol("trace", 1e-3)
    results["trace_extrapolated"] = {"value": worst, "contract": t, "pass": worst < t}


def _suite_wos_frac(cfg, prob, sol, results):
    k = prob.kernels
    n_paths = int(cfg.tol("wos_paths", 100000))
    pmin = 1.0
    for j, x in enumerate((0.0, 0.4, -0.7)):
        _, p = wos.wos_exit_chi2(k, x, n_paths=n_paths, seed=cfg.seed + j)
        pmin = min(pmin, p)
    results["wos_exit_chi2_pmin"] = {"value": pmin, "contract": 0.001, "pass": pmin > 0.001}
    est, se = wos.wos_estimate("mean_exit_time", k, 0.3, n_paths=n_paths, seed=cfg.seed + 7)
    exact = float(frac1d.apply_RD(k, prob.grid, h=lambda y: np.ones_like(y), x=[0.3])[0])
    entry = _mc_entry(est, se, exact)
    results["wos_mean_exit"] = {"value": abs(est - exact), "contract": entry["band"],
                                "pass": entry["pass"]}
    if not prob.f.is_zero and not prob.mu_atoms:
        u_fn = frac1d.continuum_callable(prob, sol)
        est, se = wos.wos_estimate("FK_residual", k, 0.2, n_paths=n_paths,
                                   seed=cfg.seed + 8, g=prob.g, u_fn=u_fn, f=prob.f)
        entry = _mc_entry(est, se, 0.0)
        results["wos_fk_residual"] = {"value": abs(est), "contract": entry["band"],
                                      "pass": entry["pass"]}


def _suite_estimates_frac(cfg, prob, sol, results):
    rep = frac1d.example77_report(prob, sol)
    results["weighted_ratio"] = {"value": rep["ratio"], "contract": float("inf"),
                                 "pass": bool(np.isfinite(rep["ratio"]))}


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
    problem, raw = load_problem(config.spec_path)
    ladder = _ladder_from_dict(raw.get("ladder"))
    sol = solve(problem, ladder)
    inject = raw.get("inject")
    if inject:
        u = sol.u.copy()
        u[int(inject["index"])] += float(inject.get("eps", 0.1))
        sol.u = u
    outdir = config.out_dir
    results: dict = {}
    if config.dump_kernels:
        _dump_kernels(problem, outdir)
    graph = isinstance(problem, ProblemSpec)
    if graph:
        rows = [(int(i), float(v)) for i, v in enumerate(sol.u)]
        _write_csv(outdir / "solution.csv", "state,u", rows)
    else:
        rows = [(float(x), float(v)) for x, v in zip(sol.meta["x"], sol.u)]
        _write_csv(outdir / "solution.csv", "x,u", rows)

    tasks = []
    if graph:
        if "verify" in config.suites:
            tasks.append(lambda: _suite_verify_graph(config, problem, sol, results))
        if "estimates" in config.suites:
            tasks.append(lambda: _suite_estimates_graph(config, problem, sol, results))
        if "trace" in config.suites:
            tasks.append(lambda: _suite_trace_graph(config, problem, sol, outdir, results))
        if "mc" in config.suites:
            tasks.append(lambda: _suite_mc_graph(config, problem, sol, results))
    else:
        if "verify" in config.suites:
            tasks.append(lambda: _suite_verify_frac(config, problem, sol, results))
        if "trace" in config.suites:
            tasks.append(lambda: _suite_trace_frac(config, problem, sol, outdir, results))
        if "wos" in config.suites:
            tasks.append(lambda: _suite_wos_frac(config, problem, sol, results))
        if "estimates" in config.suites:
            tasks.append(lambda: _suite_estimates_frac(config, problem, sol, results))

    workers = int(os.environ.get("DIRICHLET_LAB_THREADS", "0")) or min(4, max(1, len(tasks)))
    if tasks:
        with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(t) for t in tasks]
            for fut in futures:
                fut.result()

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
    runp.add_argument("--tol", action="append", default=[], metavar="KEY=VAL")
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
    tols = {}
    for item in args.tol:
        key, _, val = item.partition("=")
        tols[key] = float(val)
    try:
        config = RunConfig(spec_path=args.spec, out_dir=args.out,
                           suites=tuple(args.suite) if args.suite else _SUITES,
                           seed=args.seed, tolerances=tols,
                           dump_kernels=args.dump_kernels)
        status = run(config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {args.spec}: {exc}")
        return 2
    print(f"{'PASS' if status == 0 else 'FAIL'}: results in {config.out_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
