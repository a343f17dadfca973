"""Traced re-execution of the timed inputs and the per-layer metrics.

Every function attribute of the ``dirichlet_lab`` modules is wrapped in a
span (``spans.py``); hooks read counts off the arguments and results of a
few of them.  Nothing in the program is changed on disk and no option of the
program is used: the wrapping happens in this process only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import warnings
from collections import defaultdict
from pathlib import Path

import spans

MODULES = ("cli", "forms", "projection", "potential", "semilinear", "trace", "frac1d",
           "chain_sim", "wos", "suite", "rng")
SUITE_SPANS = {
    "verify": ("cli._suite_verify_graph", "cli._suite_verify_frac"),
    "estimates": ("cli._suite_estimates_graph", "cli._suite_estimates_frac"),
    "trace": ("cli._suite_trace_graph", "cli._suite_trace_frac"),
    "mc": ("cli._suite_mc_graph",),
    "wos": ("cli._suite_wos_frac",),
}
BANDS = {"chain_sim.band.PDg": "mc_PDg", "chain_sim.band.RD1": "mc_RD1",
         "chain_sim.band.FK_residual": "mc_FK_residual",
         "wos.band.mean_exit": "wos_mean_exit", "wos.band.fk_residual": "wos_fk_residual"}
PROBE_ALPHAS = tuple(k / 10 for k in range(1, 20))
NONFINITE_ALPHAS = (0.5, 1.0, 1.5)


def probes(frac1d, np) -> dict:
    """Known defects, as exact counts: kernel packs refused over alpha = 0.1..1.9,
    and non-finite ``apply_RD`` values at the default-grid nodes."""
    refused = []
    for alpha in PROBE_ALPHAS:
        try:
            frac1d.build_kernels(alpha)
        except ValueError:
            refused.append(alpha)
    nonfinite = {}
    for alpha in NONFINITE_ALPHAS:
        kernels, grid = frac1d.build_kernels(alpha), frac1d.build_grid(alpha)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = frac1d.apply_RD(kernels, grid, h=np.ones_like)
        nonfinite[alpha] = int(np.count_nonzero(~np.isfinite(values)))
    return {"kernels_refused": refused, "nonfinite": nonfinite}


def _make_hooks(tracer: spans.Tracer, mods: dict, got, np) -> dict:
    """Hooks keyed by span name; each files what it reads under the current call."""
    def put(key, value):
        got[tracer.call][key].append(value)

    def bound(fn, name):
        sig = inspect.signature(fn)

        def read(args, kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments[name]
        return read

    def oracle_paths(fn):
        read = bound(fn, "n_paths")
        return lambda args, kwargs, result: put("n_paths", int(read(args, kwargs)))

    def subset(args, kwargs, result):
        put("subsets", np.asarray(args[1]).tobytes())

    chain_paths = bound(mods["chain_sim"].simulate_batch, "n_paths")

    def chain_batch(args, kwargs, result):
        put("chain_paths", int(chain_paths(args, kwargs)))
        put("occupation_bytes", int(result[1].nbytes))

    wos_paths = bound(mods["wos"].wos_exit_batch, "n_paths")

    def wos_batch(args, kwargs, result):
        put("wos_paths", int(wos_paths(args, kwargs)))

    def solved(args, kwargs, sol):
        ladder = sol.ladder_trace
        put("solution", {
            "converged": bool(sol.converged), "ladder_levels": len(ladder),
            "inner_iterations": sum(int(step["inner_iterations"]) for step in ladder),
            "final_residual": float(ladder[-1]["residual"]) if ladder else 0.0,
            "ladder_trace": [{k: float(v) for k, v in step.items()} for step in ladder],
            "monotone_up_slack": float(sol.meta.get("monotone_up_slack", 0.0)),
            "monotone_down_slack": float(sol.meta.get("monotone_down_slack", 0.0)),
            "residuals": {k: float(v) for k, v in sol.residuals.items()}})

    def loaded(args, kwargs, result):
        problem = result[0]
        if hasattr(problem, "kernels"):
            put("kernels", {k: float(v) for k, v in problem.kernels.diagnostics.items()})
            put("grid", {"interior_nodes": int(problem.grid.interior_x.size),
                         "exterior_nodes": int(problem.grid.exterior_x.size)})

    def callable_made(args, kwargs, u_fn):
        def counted(y):
            if "cli._suite_wos_frac" in tracer.names_open():
                arr = np.asarray(y)
                put("source_points", int(arr.size))
                if arr.ndim == 2:
                    put("source_rows", int(arr.shape[0]))
                    put("source_points_2d", int(arr.size))
            return u_fn(y)
        return counted

    return {"projection._restricted_cho": subset, "potential._cho": subset,
            "chain_sim.mc_estimate": oracle_paths(mods["chain_sim"].mc_estimate),
            "wos.wos_estimate": oracle_paths(mods["wos"].wos_estimate),
            "wos.wos_exit_chi2": oracle_paths(mods["wos"].wos_exit_chi2),
            "chain_sim.simulate_batch": chain_batch, "wos.wos_exit_batch": wos_batch,
            "semilinear.solve": solved, "cli.load_problem": loaded,
            "frac1d.continuum_callable": callable_made}


def _call_metrics(summary: dict, waits: list, got: dict, bands: dict) -> dict:
    def tot(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def cnt(name):
        return summary.get(name, {}).get("count", 0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def rate(paths, name):
        return sum(got[paths]) / tot(name) if tot(name) > 0 else 0.0

    sol = got["solution"][-1] if got["solution"] else {}
    grid_nodes = got["grid"][-1]["interior_nodes"] if got["grid"] else 0
    subsets = len(set(got["subsets"]))
    factorizations = cnt("projection.cho_factor") + cnt("potential.cho_factor")
    rows = sum(got["source_rows"])
    out = {
        "cli.load_problem_s": own("cli.load_problem"),
        **{f"cli.suite_s.{suite}": sum(tot(n) for n in names)
           for suite, names in SUITE_SPANS.items()},
        "cli.suite_wait_s": sum(waits),
        "cli.run_self_s": own("cli.run"),
        "forms.form_from_dict_s": tot("forms.form_from_dict"),
        "forms.is_transient_calls": cnt("forms.is_transient"),
        "forms.is_transient_s": tot("forms.is_transient"),
        "projection.cholesky_calls": cnt("projection.cho_factor"),
        "potential.cholesky_calls": cnt("potential.cho_factor"),
        "projection.cholesky_s": tot("projection.cho_factor"),
        "potential.cholesky_s": tot("potential.cho_factor"),
        "projection.distinct_subsets": subsets,
        "projection.cholesky_per_subset": factorizations / subsets if subsets else 0.0,
        "projection.poisson_kernel_s": tot("projection.poisson_kernel"),
        "potential.green_apply_calls": cnt("potential.green_apply"),
        "potential.green_operator_s": tot("potential.green_operator"),
        "semilinear.solve_s": tot("semilinear.solve"),
        "semilinear.ladder_levels": sol.get("ladder_levels", 0),
        "semilinear.inner_iterations": sol.get("inner_iterations", 0),
        "semilinear.residual_probabilistic_s": tot("semilinear.residual_probabilistic"),
        "semilinear.verify_projective_s": tot("semilinear.verify_projective"),
        "semilinear.apriori_report_s": tot("semilinear.apriori_report"),
        "semilinear.very_weak_defect_s": tot("semilinear.very_weak_defect"),
        "trace.trace_sequence_graph_s": tot("trace.trace_sequence_graph"),
        "trace.trace_sequence_frac_s": tot("trace.trace_sequence_frac"),
        "frac1d.build_kernels_s": tot("frac1d.build_kernels"),
        "frac1d.build_grid_s": tot("frac1d.build_grid"),
        "frac1d.green_matrix_s": tot("frac1d.green_matrix"),
        "frac1d.grid_nodes": grid_nodes,
        "frac1d.green_matrix_bytes": 8 * grid_nodes ** 2 if cnt("frac1d.green_matrix") else 0,
        "frac1d.apply_PD_s": tot("frac1d.apply_PD"),
        "frac1d.apply_PV_interval_calls": cnt("frac1d.apply_PV_interval"),
        "frac1d.apply_PV_interval_s": tot("frac1d.apply_PV_interval"),
        "chain_sim.batches": cnt("chain_sim.simulate_batch"),
        "chain_sim.simulate_batch_s": tot("chain_sim.simulate_batch"),
        "chain_sim.paths_per_s": rate("chain_paths", "chain_sim.simulate_batch"),
        "chain_sim.occupation_bytes": max(got["occupation_bytes"], default=0),
        "wos.batches": cnt("wos.wos_exit_batch"),
        "wos.wos_exit_batch_s": tot("wos.wos_exit_batch"),
        "wos.paths_per_s": rate("wos_paths", "wos.wos_exit_batch"),
        "wos.source_points": sum(got["source_points"]),
        "wos.source_points_per_ball": sum(got["source_points_2d"]) / rows if rows else 0.0,
        "wos.chi2_pmin": bands.get("wos_exit_chi2_pmin", 0.0),
        "oracle.min_paths": min(got["n_paths"], default=0),
    }
    out.update({name: bands.get(key, 0.0) for name, key in BANDS.items()})
    return out


def traced_pass(cli, np, workload: str, calls: list, work: Path, call_cli, digests) -> dict:
    """Re-run each timed input under spans; per-layer metrics are medians over calls."""
    spans.selftest()
    mods = {name: importlib.import_module(f"dirichlet_lab.{name}") for name in MODULES}
    found = probes(mods["frac1d"], np)
    tracer = spans.Tracer()
    got = defaultdict(lambda: defaultdict(list))
    span_names = spans.instrument(tracer, mods.values(), _make_hooks(tracer, mods, got, np))
    cli.ThreadPoolExecutor = tracer.pool_class()
    per_call, out_digests, seconds, records = [], {}, [], []
    for call in calls:
        index = tracer.call = call["index"]
        tracer.spans = []
        got[index]  # created here, not concurrently by the first hook on a pool thread
        out = work / "traced" / f"{index:04d}"
        status, secs, error = call_cli(cli, workload, Path(call["spec"]), out, call["cli_seed"])
        out_digests[index] = digests(out)
        seconds.append(secs)
        summary = spans.summarize(tracer.spans)
        waits = [w for c, w in tracer.waits if c == index]
        oracle = json.loads((out / "mc.json").read_text())["results"] \
            if (out / "mc.json").exists() else {}
        bands = {k: v["value"] if k == "wos_exit_chi2_pmin" else v["contract"]
                 for k, v in oracle.items()}
        per_call.append(_call_metrics(summary, waits, got[index], bands))
        records.append({"index": index, "status": status, "seconds": secs, "error": error,
                        "spans": summary, "suite_waits": waits,
                        **{k: v for k, v in got[index].items()
                           if k in ("solution", "kernels", "grid", "n_paths")}})
    metrics = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
    metrics["frac1d.kernels_refused"] = len(found["kernels_refused"])
    metrics["frac1d.nonfinite"] = sum(found["nonfinite"].values())
    for alpha, count in found["nonfinite"].items():
        metrics[f"frac1d.nonfinite.alpha_{alpha:.1f}"] = count
    all_paths = [n for index in got for n in got[index]["n_paths"]]
    return {"digests": out_digests, "run_s": statistics.median(seconds), "metrics": metrics,
            "min_paths": min(all_paths) if all_paths else None,
            "record": {"probes": found, "span_names": span_names, "calls": records}}
