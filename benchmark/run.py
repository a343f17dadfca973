"""Benchmark of ``dirichlet-lab run``: time to verdict, memory, Monte Carlo band.

    python3 benchmark/run.py --workload graph_exact --seed 1 --seconds 16 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory, never from an installed copy.  One client drives
``cli.main(["run", spec, ...])`` in a closed loop, in-process, one call at a
time.  A run makes a fixed number of calls, the ones that take about
``--seconds`` at the seed commit (``call_count``), so a seed meets the same
inputs, and the same contract failures, on every run and every version of
the program; continuum workloads make an even count, since ``gen.py`` draws
their inputs in mirrored pairs.
Every call gets a spec no earlier call of the process has seen (``gen.py``,
seeded by ``--seed``); one untimed warm-up call on a throwaway spec comes
first.  The default contracts and path counts apply: no ``--tol`` is passed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: ``run_s``
(median seconds of a call), ``setup_s`` (median seconds of ``import
dirichlet_lab.cli`` in fresh interpreters, one before the warm-up and the
rest spread over the timed loop), ``peak_rss_mb`` (peak resident
memory of this process, which made the warm-up and timed calls) and
``mc_band`` (geometric mean of the 3-sigma bands in ``mc.json`` over all
timed calls; 1.0, the empty mean, on workloads without an oracle).
``--trace 1`` runs the same timed loop, then re-executes its inputs with
every ``dirichlet_lab`` function wrapped in a span (``spans.py``) and prints
the per-layer metrics.  The traced outputs must be byte-identical to the
timed ones, and the Monte Carlo oracles must get at least 100000 paths;
otherwise the benchmark exits 1.  A record with the host, every call, the
spans and the solver diagnostics goes to ``.bench_work/records/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers  # this directory is first on sys.path when run as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread and two suite workers: on 2 vCPUs this was the fastest
# setting measured, and fixing it keeps runs comparable across hosts.
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
THREAD_ENV["DIRICHLET_LAB_THREADS"] = "2"

SUITES = {
    "graph_exact": ("verify", "estimates", "trace"),
    "graph_mc": ("mc",),
    "frac_exact": ("verify", "trace", "estimates"),
    "frac_wos": ("wos",),
}
PAIRED = ("frac_exact", "frac_wos")  # gen.frac draws inputs in mirrored pairs
# Seconds of one call at the seed commit (2 vCPUs, 1 BLAS thread).
CALL_S = {"graph_exact": 2.7, "graph_mc": 5.5, "frac_exact": 1.4, "frac_wos": 8.5}
OUTPUTS = ("solution.csv", "residuals.json", "trace.csv", "mc.json")
SETUP_IMPORTS = 4
SPEC_BATCH = 8  # at most this many graph_exact specs (13 MB each) on disk without --trace
MIN_PATHS = 100_000
IMPORT_TIMER = ("import time; t = time.perf_counter(); import dirichlet_lab.cli as c; "
                "print(time.perf_counter() - t); print(c.__file__)")


class Refused(Exception):
    """The benchmark cannot run here (no program to measure)."""


def _inside(path, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root.resolve())


def call_count(workload: str, seconds: float) -> int:
    """Timed calls of a run: about ``seconds`` of work at the seed commit, at least two."""
    count = max(2, round(seconds / CALL_S[workload]))
    return count + count % 2 if workload in PAIRED else count


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def measure_setup() -> float:
    """Seconds of ``import dirichlet_lab.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not _inside(lines[1], SRC):
        raise Refused(f"cannot import dirichlet_lab from {SRC}: {proc.stderr.strip()[-300:]}")
    return float(lines[0])


def setup_points(count: int) -> list:
    """Call counts after which an import is timed, spread evenly over the timed loop.

    The host's speed drifts over seconds; imports timed back to back would
    all fall in one phase of it, imports spread over the run sample several.
    """
    return [round(k * count / (SETUP_IMPORTS - 1)) for k in range(1, SETUP_IMPORTS)]


class Specs:
    """Specs of one workload and seed, generated in batches by ``gen.py``.

    Generation runs in its own process and never during a timed call; a
    further batch is made only when the loop has used every spec so far.
    """

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.count = 0
        self.gen_s = 0.0

    def _generate(self, count: int) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", self.workload,
                        "--seed", str(self.seed), "--start", str(self.count),
                        "--count", str(count), "--out", str(self.out)],
                       cwd=ROOT, check=True, timeout=170)
        self.count += count
        self.gen_s += time.perf_counter() - t0

    def warmup(self) -> Path:
        if not self.count:
            self._generate(SPEC_BATCH)
        return self.out / "warmup.json"

    def __getitem__(self, index: int) -> Path:
        while index >= self.count:
            self._generate(SPEC_BATCH)
        return self.out / f"spec_{index:04d}.json"


def call_cli(cli, workload: str, spec: Path, out: Path, seed: int) -> tuple:
    """(exit status or None, seconds, error text) of one ``dirichlet-lab run``."""
    argv = ["run", str(spec), "--out", str(out), "--seed", str(seed)]
    for suite in SUITES[workload]:
        argv += ["--suite", suite]
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI's one-line verdict
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:  # a raising call is a failed call, not a benchmark fault
            return None, time.perf_counter() - t0, traceback.format_exc(limit=4)
        return status, time.perf_counter() - t0, ""


def digests(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            if (out / name).exists() else None for name in OUTPUTS}


def failed_contracts(out: Path) -> list:
    """Names of the contracts a call failed, from its ``residuals.json``."""
    path = out / "residuals.json"
    if not path.exists():
        return []
    res = json.loads(path.read_text())
    names = [key for key, entry in res["results"].items() if not entry["pass"]]
    return names + ([] if res["solver_converged"] else ["solver_converged"])


def mc_bands(out: Path) -> dict:
    """3-sigma bands of the Monte Carlo entries of ``mc.json`` (p-values excluded)."""
    path = out / "mc.json"
    if not path.exists():
        return {}
    entries = json.loads(path.read_text())["results"]
    return {key: entry["contract"] for key, entry in entries.items() if key != "wos_exit_chi2_pmin"}


def check_outputs(np, spec_path: Path, out: Path, status) -> list:
    """Problems found in one call's outputs; empty when they are consistent.

    Independent of the program's own suites: a graph solution must satisfy
    the variational equation A u = m f(u) + mu on D and equal g outside D; a
    continuum solution with constant g >= 0 and absorption -b u^3 must lie
    in [0, g] by the maximum principle.  A verdict must match its contracts.
    """
    problems = []
    res = json.loads((out / "residuals.json").read_text())
    entries = res["results"]
    verdict = all(e["pass"] for e in entries.values())
    if res["pass"] != verdict or status != (0 if verdict and res["solver_converged"] else 1):
        problems.append(f"exit status {status} disagrees with residuals.json")
    mc = json.loads((out / "mc.json").read_text())["results"]
    if mc != {k: v for k, v in entries.items() if k.startswith(("mc_", "wos_"))}:
        problems.append("mc.json disagrees with residuals.json")
    if status != 0:
        return problems
    spec = json.loads(spec_path.read_text())
    sol = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    u = sol[:, 1]
    if not np.all(np.isfinite(u)):
        return problems + ["non-finite solution"]
    if spec["backend"] == "graph":
        form = spec["form"]
        J, m, kappa = (np.asarray(form[k], dtype=float) for k in ("J", "m", "kappa"))
        D = np.asarray(spec["D"])
        g, mu, b = (np.asarray(v, dtype=float) for v in (spec["g"], spec["mu"], spec["f"]["b"]))
        A = 2.0 * (np.diag(J.sum(axis=1)) - J) + np.diag(kappa)
        fu = -b[D] * u[D] ** 3
        defect = A[D] @ u - m[D] * fu - mu[D]
        scale = np.abs(A[D]) @ np.abs(u) + np.abs(m[D] * fu) + np.abs(mu[D])
        rel = float(np.max(np.abs(defect)) / np.max(scale))
        outside = np.setdiff1d(np.arange(u.size), D)
        if u.size != m.size or rel > 1e-6 or not np.array_equal(u[outside], g[outside]):
            problems.append(f"graph solution fails A u = m f(u) + mu (relative defect {rel:.3g})")
    else:
        gval = spec["g"]["value"]
        if np.any(np.diff(sol[:, 0]) <= 0) or np.any(np.abs(sol[:, 0]) >= 1.0):
            problems.append("continuum nodes are not increasing inside (-1, 1)")
        if np.min(u) < -1e-9 * gval or np.max(u) > gval * (1.0 + 1e-6):
            problems.append(f"continuum solution leaves [0, g]: [{np.min(u)}, {np.max(u)}]")
    return problems


def finish_call(np, call: dict, out: Path) -> dict:
    """Check and digest one call's outputs, outside the timed region, then delete them.

    The checks hold far less memory than the call itself, so they do not
    move the process's peak.
    """
    call["problems"] = check_outputs(np, call["spec"], out, call["status"]) \
        if call["status"] in (0, 1) else []
    call["digests"] = digests(out)
    call["failed_contracts"] = failed_contracts(out)
    call["bands"] = mc_bands(out)
    shutil.rmtree(out, ignore_errors=True)
    return call


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 1.0


def cache_sizes() -> dict:
    """L2 and L3 sizes in bytes as ``getconf`` reports them (None if it cannot)."""
    out = {}
    for level in (2, 3):
        try:
            proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                  text=True, timeout=30)
        except OSError:
            proc = None
        text = proc.stdout.strip() if proc is not None and proc.returncode == 0 else ""
        out[f"L{level}_bytes"] = int(text) if text.isdigit() else None
    return out


def host_block(np, scipy, workload: str, seed: int) -> dict:
    def blas(mod):
        info = getattr(mod.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "dirichlet_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(), "caches": cache_sizes(),
            "threads": THREAD_ENV, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "git_commit": commit, "source_sha256": source.hexdigest(),
            "workload": workload, "seed": seed}


def result_metrics(names_units, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def run(args) -> int:
    if not (SRC / "dirichlet_lab" / "cli.py").is_file():
        raise Refused(f"no program at {SRC / 'dirichlet_lab'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    setup = [measure_setup()]

    import numpy as np
    import scipy

    import dirichlet_lab.cli as cli
    if not _inside(cli.__file__, SRC):
        raise Refused(f"dirichlet_lab imported from {cli.__file__}, not from {SRC}")

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        specs = Specs(args.workload, args.seed, work / "specs")
        call_cli(cli, args.workload, specs.warmup(), work / "out" / "warmup", args.seed)
        calls, count = [], call_count(args.workload, args.seconds)
        imports_after = setup_points(count)
        for index in range(count):
            spec = specs[index]
            out = work / "out" / f"{index:04d}"
            cli_seed = args.seed * 10000 + index
            status, seconds, error = call_cli(cli, args.workload, spec, out, cli_seed)
            calls.append(finish_call(np, {"index": index, "spec": spec, "cli_seed": cli_seed,
                                          "status": status, "seconds": seconds,
                                          "error": error}, out))
            if not args.trace:  # the traced pass re-reads the specs; otherwise free the disk
                spec.unlink()
            setup += [measure_setup() for _ in range(imports_after.count(index + 1))]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record = {"host": host_block(np, scipy, args.workload, args.seed),
                  "setup_s": setup, "generation_s": specs.gen_s}
        correct = not any(call["problems"] for call in calls)
        failed = {call["index"] for call in calls if call["status"] != 0}
        run_s = statistics.median(call["seconds"] for call in calls)
        exit_code = 0
        if args.trace:
            traced = layers.traced_pass(cli, np, args.workload, calls, work, call_cli, digests)
            mismatched = {c["index"] for c in calls
                          if c["digests"] != traced["digests"][c["index"]]}
            failed |= mismatched
            values = traced["metrics"]
            values["trace_overhead"] = traced["run_s"] / run_s - 1.0
            values["fail_frac"] = len(failed) / len(calls)
            record.update(traced=traced["record"], mismatched=sorted(mismatched))
            names_units = [(m["name"], m["unit"]) for m in bench["per_layer"]]
            if mismatched:
                correct = False
                print(f"error: traced outputs differ from timed outputs of calls "
                      f"{sorted(mismatched)}", file=sys.stderr)
                exit_code = 1
            if traced["min_paths"] is not None and traced["min_paths"] < MIN_PATHS:
                correct = False
                print(f"error: an oracle ran {traced['min_paths']} paths, fewer than {MIN_PATHS}",
                      file=sys.stderr)
                exit_code = 1
        else:
            values = {"run_s": run_s, "setup_s": statistics.median(setup),
                      "peak_rss_mb": peak_rss_mb,
                      "mc_band": geometric_mean(b for c in calls for b in c["bands"].values())}
            names_units = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        metrics = result_metrics(names_units, values)
        record.update(calls=calls, values=values, metrics=metrics)
        records = WORK / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("host " + json.dumps(record["host"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(calls)} calls, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(calls):.4g}), call seconds "
          + " ".join(f"{c['seconds']:.3f}" for c in calls))
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SUITES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
