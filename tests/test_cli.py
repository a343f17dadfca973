import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_lab import cli, projection, semilinear
from dirichlet_lab.forms import form_from_dict
from dirichlet_lab.forms import is_transient
from dirichlet_lab.suite import random_form
import paper_checks
from paper_checks import solve_by_ladder, stability_gap


def _demo_graph_obj() -> dict:
    return {
        "schema": 1,
        "backend": "graph",
        "form": {"m": [1.0, 1.0, 1.0],
                 "J": [[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]],
                 "kappa": [1.0, 0.0, 0.0]},
        "D": [1, 2],
        "g": [1.0, 0.0, 0.0],
        "mu": [0.0, 0.2, 0.0],
        "f": {"kind": "power", "b": [1.0, 1.0, 1.0], "p": 3.0},
    }


def _demo_graph_spec(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(_demo_graph_obj()))
    return path


def test_run_demo_graph_all_pass(tmp_path):
    spec = _demo_graph_spec(tmp_path)
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", seed=1,
                        suites=("verify", "trace", "estimates"))
    assert cli.run(cfg) == 0
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert res["pass"] and res["schema"] == 1
    assert (tmp_path / "out" / "solution.csv").exists()
    assert (tmp_path / "out" / "trace.csv").exists()


def test_run_demo_graph_mc_suite(tmp_path):
    spec = _demo_graph_spec(tmp_path)
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", seed=1,
                        suites=("mc",), paths=20000)
    assert cli.run(cfg) == 0
    mc = json.loads((tmp_path / "out" / "mc.json").read_text())
    assert set(mc["results"]) == {"mc_PDg", "mc_RD1", "mc_FK_residual"}


def test_mc_suite_walks_once(tmp_path, monkeypatch):
    # one simulate_batch walk gives the three estimates, and PD g has the
    # bits of a one-kind call at the run's seed
    batches = []
    real = cli.chain_sim.simulate_batch

    def simulate(*args, **kwargs):
        batches.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.chain_sim, "simulate_batch", simulate)
    path = cli.generate_random_suite(3, 1, tmp_path / "gen")[0]
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", seed=5,
                        suites=("mc",), paths=20000)
    cli.run(cfg)
    assert batches == [20000]
    res = json.loads((tmp_path / "out" / "mc.json").read_text())["results"]
    spec, _ = cli.load_problem(path)
    x = int(spec.D[0])
    [(est, se)] = cli.chain_sim.mc_estimate(("PDg",), spec.form, spec.D, x, n_paths=20000,
                                            seed=5, g=spec.g)
    assert se > 0 and res["mc_PDg"] == cli._band(est, se, float(spec.pdg[x]))


@pytest.mark.parametrize("absorbing", [True, False])
def test_wos_suite_walks_twice(tmp_path, monkeypatch, absorbing):
    # two walks, from -0.7 at seed + 2 and from 0.2 at seed + 8, with or
    # without absorption; the mean exit time and the FK residual have the bits
    # of one-kind calls at 0.2 / seed + 8, and without absorption the FK check
    # is skipped
    walks = []
    real = cli.wos.wos_exit_batch

    def walk(kernels, x, n_paths, seed, **kwargs):
        walks.append((x, seed))
        return real(kernels, x, n_paths, seed, **kwargs)

    monkeypatch.setattr(cli.wos, "wos_exit_batch", walk)
    obj = json.loads(_small_frac_spec(tmp_path).read_text())
    if not absorbing:
        del obj["f"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", seed=3,
                        suites=("wos",), paths=20000)
    cli.run(cfg)
    assert walks == [(-0.7, 5), (0.2, 11)]
    res = json.loads((tmp_path / "out" / "mc.json").read_text())["results"]
    assert set(res) == {"wos_exit_chi2_pmin", "wos_mean_exit"} | (
        {"wos_fk_residual"} if absorbing else set())
    prob, _ = cli.load_problem(path)
    k = prob.kernels
    exact = k.exit_coef * (1.0 - 0.2 ** 2) ** (k.alpha / 2.0)
    [mean] = cli.wos.wos_estimate(("mean_exit_time",), k, 0.2, n_paths=20000, seed=11)
    assert res["wos_mean_exit"] == cli._band(*mean, exact)
    if absorbing:
        sol = cli.solve(prob)
        u_x = float(cli.frac1d.continuum_callable(prob, sol)([0.2])[0])
        [fk] = cli.wos.wos_estimate(("FK_residual",), k, 0.2, n_paths=20000, seed=11,
                                    g=prob.g, source=cli.frac1d.source_density(prob, sol),
                                    u_x=u_x)
        assert res["wos_fk_residual"] == cli._band(*fk, 0.0)


def test_run_reports_solver_convergence(tmp_path, monkeypatch):
    # a run reports the solver's convergence: the continuum Newton solve
    # converges, and when it may take one step it cannot meet its tolerance,
    # so run returns 1 and reports the solver unconverged
    spec = _small_frac_spec(tmp_path)
    for status in (0, 1):
        if status:
            monkeypatch.setattr(semilinear, "_MAX_NEWTON", 1)
        out = tmp_path / f"out{status}"
        cfg = cli.RunConfig(spec_path=spec, out_dir=out, seed=1, suites=("verify",))
        assert cli.run(cfg) == status
        res = json.loads((out / "residuals.json").read_text())
        assert res["solver_converged"] is (status == 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_band_of_a_non_finite_estimate_fails_with_a_finite_contract(tmp_path):
    # walk exits that round onto |y| = 1 read this g as infinite, and the FK
    # estimate and its standard error as inf and NaN: 3 * NaN made the
    # contract NaN, where the entry must fail against a finite band
    spec = tmp_path / "singular.json"
    spec.write_text(json.dumps({"backend": "frac1d", "alpha": 1.5,
                                "g": {"kind": "power_singular", "p": 0.2},
                                "f": {"kind": "power", "b": 1.0, "p": 3.0}}))
    out = tmp_path / "out"
    assert cli.run(cli.RunConfig(spec_path=spec, out_dir=out, seed=0, suites=("wos",))) == 1
    res = json.loads((out / "mc.json").read_text())["results"]
    assert not np.isfinite(res["wos_fk_residual"]["value"])
    assert all(np.isfinite(entry["contract"]) for entry in res.values())
    assert res["wos_fk_residual"]["pass"] is False
    for est, se in ((np.inf, np.nan), (np.nan, np.nan), (0.5, np.inf), (np.nan, 0.1)):
        entry = cli._band(est, se, 0.5)
        assert entry["contract"] == (3.0 * se if np.isfinite(se) else 1e-9)
        assert entry["pass"] is (est == 0.5)


@pytest.mark.parametrize("alpha, nu, g, atoms", [
    (1.5, {"plus": 0.2}, None, []),
    (1.2, {"plus": 0.1}, 1.0, [[0.1, 0.5]]),
    (1.3, {"plus": 0.1, "minus": 0.05}, 1.0, [[0.1, 0.5]]),
], ids=["alpha1.5", "alpha1.2-atom", "alpha1.3-atom"])
def test_boundary_measure_specs_pass(tmp_path, alpha, nu, g, atoms):
    # |f(u)| exceeds 2**15 near +-1 on these cubic specs: the ladder settles
    # only on larger envelopes, and a cap at 2**15 left them unconverged
    obj = {"backend": "frac1d", "alpha": alpha, "nu": nu, "mu": {"atoms": atoms},
           "f": {"kind": "power", "b": 1.0, "p": 3.0}}
    if g is not None:
        obj["g"] = {"kind": "const", "value": g}
    spec = tmp_path / "nu.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify",
                     "--suite", "trace", "--suite", "estimates"]) == 0
    assert json.loads((out / "residuals.json").read_text())["solver_converged"] is True


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_very_weak_identity_of_a_dense_graph(tmp_path):
    # the ladder stopped this spec at a very-weak defect of 1.07e-9, above its 1e-9
    gen = _bench_gen()
    spec = tmp_path / "spec.json"
    spec.write_text(gen._dumps(gen.graph_exact(15, 1)))
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", seed=1, suites=("verify",))
    assert cli.run(cfg) == 0
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert res["very_weak_identity"]["pass"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_datum_still_solves(tmp_path):
    # e^y overflows at P_D g = 1e4, so Newton starts from 0; the solution is
    # finite (u_1 ~ 9.2), and the a priori bounds that read f(P_D g) hold
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    obj.update(g=[1e4, 0.0, 0.0], f={"kind": "exp", "b": 1.0})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    cfg = cli.RunConfig(spec_path=spec, out_dir=out, seed=1, suites=("verify", "estimates"))
    assert cli.run(cfg) == 0
    res = json.loads((out / "residuals.json").read_text())
    assert res["solver_converged"] is True and res["pass"]
    assert res["results"]["fixed_point"]["value"] <= 1e-10 * 1e4
    u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = solve_by_ladder(cli.load_problem(spec)[0])
    assert ref.converged and np.max(np.abs(u - ref.u)) <= 1e-10 * 1e4


def _exp_graph_spec(tmp_path, g):
    # 120 states, D the first 80, constant exterior datum g and exp b = 1
    form = random_form(np.random.default_rng(1), 120, 120)
    obj = {"schema": 1, "backend": "graph",
           "form": {"m": form.m.tolist(), "J": form.J.tolist(), "kappa": form.kappa.tolist()},
           "D": list(range(80)), "g": [g] * form.n, "mu": [0.0] * form.n,
           "f": {"kind": "exp", "b": 1.0}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    return path


def test_exp_absorption_at_a_large_datum_passes(tmp_path):
    # Newton from P_D g = 500 read ||r||_2 = inf and took no step: exit 1
    # with solver_converged false, where Newton from 0 converges
    spec = _exp_graph_spec(tmp_path, 500.0)
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify",
                     "--suite", "estimates", "--suite", "trace"]) == 0
    assert json.loads((out / "residuals.json").read_text())["solver_converged"] is True


@pytest.mark.filterwarnings("error")
def test_overflowing_datum_estimates_without_warnings(tmp_path):
    # e^(P_D g) overflows at g = 1e4: the a priori bounds that read it hold
    # with an infinite right side, without numpy's overflow warning
    spec = _exp_graph_spec(tmp_path, 1e4)
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "out"),
                     "--suite", "estimates"]) == 0


def test_run_kappa_free_graph_writes_vd_results(tmp_path):
    # kappa = 0 and zero absorption add the vd_* checks to the verify suite;
    # their pass flags must be JSON booleans
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    obj["form"]["kappa"] = [0.0, 0.0, 0.0]
    del obj["f"]
    spec = tmp_path / "vd.json"
    spec.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", seed=1, suites=("verify",))
    assert cli.run(cfg) == 0
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert {"vd_identity", "vd_norm_bound", "vd_kernel_contraction"} <= set(res)
    assert all(type(entry["pass"]) is bool for entry in res.values())


def _demo_frac_spec(tmp_path):
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
           "g": {"kind": "const", "value": 1.0},
           "f": {"kind": "power", "b": 1.0, "p": 3.0}}
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    return path


def _small_frac_obj() -> dict:
    return {"schema": 1, "backend": "frac1d", "alpha": 1.0,
            "g": {"kind": "const", "value": 1.0},
            "f": {"kind": "power", "b": 1.0, "p": 3.0},
            "grid": {"order": 6, "n_base": 4, "edge_levels": 10, "out_levels": 6}}


def _small_frac_spec(tmp_path):
    path = tmp_path / "small_frac.json"
    path.write_text(json.dumps(_small_frac_obj()))
    return path


def _perturb_solution(monkeypatch, index, eps):
    """Make ``cli.run`` see the real solve's u with ``eps`` added at ``index``."""
    real_solve = cli.solve

    def solve(problem):
        sol = real_solve(problem)
        u = sol.u.copy()
        u[index] += eps
        sol.u = u
        return sol

    monkeypatch.setattr(cli, "solve", solve)


@pytest.mark.parametrize("make_spec, index", [(_demo_graph_spec, 1), (_demo_frac_spec, 200)],
                         ids=["graph", "frac1d"])
def test_injected_violator_fails(tmp_path, monkeypatch, make_spec, index):
    # the verify suite must check the u written to solution.csv, not the solve's u
    _perturb_solution(monkeypatch, index, 0.2)
    cfg = cli.RunConfig(spec_path=make_spec(tmp_path), out_dir=tmp_path / "out", seed=1,
                        suites=("verify",))
    assert cli.run(cfg) == 1
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert not res["fixed_point"]["pass"]


def test_run_deterministic_bytes(tmp_path):
    spec = _demo_graph_spec(tmp_path)
    blobs = []
    for k in range(2):
        outdir = tmp_path / f"out{k}"
        cfg = cli.RunConfig(spec_path=spec, out_dir=outdir, seed=2,
                            suites=("verify", "trace"))
        assert cli.run(cfg) == 0
        blobs.append((outdir / "solution.csv").read_bytes()
                      + (outdir / "residuals.json").read_bytes()
                      + (outdir / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_gen_stable_and_valid(tmp_path):
    p1 = cli.generate_random_suite(seed=42, count=2, out_dir=tmp_path / "a")
    p2 = cli.generate_random_suite(seed=42, count=2, out_dir=tmp_path / "b")
    assert len(p1) == 4
    h1 = [hashlib.sha256(p.read_bytes()).hexdigest() for p in p1]
    h2 = [hashlib.sha256(p.read_bytes()).hexdigest() for p in p2]
    assert h1 == h2
    for pa, pb in zip(p1[::2], p1[1::2]):
        a = json.loads(pa.read_text())
        b = json.loads(pb.read_text())
        form = form_from_dict(a["form"])
        assert is_transient(form, a["D"])
        assert np.all(np.asarray(a["mu"]) <= np.asarray(b["mu"]) + 1e-15)
        assert np.all(np.asarray(a["g"]) <= np.asarray(b["g"]) + 1e-15)


def test_gen_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        cli.generate_random_suite(seed=1, count=0, out_dir="/tmp/nope")
    # through main, a count below 1 or a negative seed is exit 2 with one
    # error line, as for run, and nothing is written
    out = tmp_path / "gen"
    for argv, message in ((["--seed", "1", "--count", "0"], "count must be >= 1, got 0"),
                          (["--seed", "-1", "--count", "1"], "seed must be >= 0, got -1")):
        assert cli.main(["gen", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().out == f"error: gen: {message}\n"
        assert not out.exists()


def test_cli_main_roundtrip(tmp_path, capsys):
    spec = _demo_graph_spec(tmp_path)
    status = cli.main(["run", str(spec), "--out", str(tmp_path / "out"),
                       "--seed", "3", "--suite", "verify", "--tol", "fixed_point=1e-6"])
    assert status == 0
    assert "PASS" in capsys.readouterr().out
    status = cli.main(["gen", "--seed", "5", "--count", "1",
                       "--out", str(tmp_path / "gen")])
    assert status == 0


def test_main_reports_config_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["run", str(broken), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().out
    assert cli.main(["run", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2


def test_trace_suite_names_a_probe_no_level_enters(tmp_path, capsys):
    # a valid 16-radius nest that stops at 0.4: probes 0.5 and 0.9 enter no
    # level, which ended in an IndexError from the empty extrapolation
    spec = tmp_path / "short_nest.json"
    spec.write_text(json.dumps({"backend": "frac1d", "alpha": 1.0,
                                "g": {"kind": "const", "value": 1.0},
                                "f": {"kind": "power", "b": 1.0, "p": 3.0},
                                "nest": [0.1 + 0.02 * i for i in range(16)]}))
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "out"),
                     "--suite", "trace"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and "0.9" in printed and "0.4" in printed


def test_trace_suite_refuses_a_nest_without_an_aitken_tail(tmp_path, capsys):
    # 15 radii up to 0.38, then 0.95: probes 0.5 and 0.9 enter one level
    # each, where Aitken has no tail, and the check read 1.21 as though u
    # were wrong (exit 1); the nest is refused, naming each probe's count
    spec = tmp_path / "thin_nest.json"
    spec.write_text(json.dumps({"backend": "frac1d", "alpha": 1.0,
                                "g": {"kind": "const", "value": 1.0},
                                "f": {"kind": "power", "b": 1.0, "p": 3.0},
                                "nest": [0.1 + 0.02 * i for i in range(15)] + [0.95]}))
    assert cli.main(["run", str(spec), "--out", str(tmp_path / "out"),
                     "--suite", "trace"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and "fewer than three levels" in printed
    assert "0.9: 1" in printed and "-0.5: 1" in printed and "0.0:" not in printed


def test_wos_suite_rejects_too_few_paths(tmp_path, capsys):
    path = _small_frac_spec(tmp_path)
    status = cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                       "--suite", "wos", "--paths", "50"])
    assert status == 2
    assert "n_paths" in capsys.readouterr().out


def _assert_too_few_paths_rejected_before_solving(spec, suite, tmp_path, capsys):
    for paths in (50, 0.5):
        with pytest.raises(ValueError, match="paths"):
            cli.RunConfig(spec_path=spec, out_dir=tmp_path, suites=(suite,), paths=paths)
    out = tmp_path / "out"
    for paths in ("50", "0.5", "inf"):
        assert cli.main(["run", str(spec), "--out", str(out), "--suite", suite,
                         "--paths", paths]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("error:") and "paths" in printed
        assert not out.exists()


def test_too_few_wos_paths_rejected_before_solving(tmp_path, capsys):
    _assert_too_few_paths_rejected_before_solving(_small_frac_spec(tmp_path), "wos",
                                                  tmp_path, capsys)


def test_too_few_mc_paths_rejected_before_solving(tmp_path, capsys):
    _assert_too_few_paths_rejected_before_solving(_demo_graph_spec(tmp_path), "mc",
                                                  tmp_path, capsys)


# mc_paths=inf: a retired key (path counts are --paths now) is still refused
@pytest.mark.parametrize("item", ["fixed_point=abc", "fixed_point", "=1e-6",
                                  "mc_paths=inf", "fixed_point=nan", "fixed_point=-nan"])
def test_malformed_tol_is_a_config_error(tmp_path, capsys, item):
    spec = _demo_graph_spec(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--tol", item]) == 2
    assert "error:" in capsys.readouterr().out
    assert not out.exists()  # rejected before the spec is solved


def test_unknown_tol_key_is_a_config_error(tmp_path, capsys):
    # a misspelt key would otherwise leave the default contract in force
    spec = _demo_graph_spec(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify",
                     "--tol", "fixed_pont=1e-30"]) == 2
    printed = capsys.readouterr().out
    assert "error:" in printed and "fixed_pont" in printed
    assert not out.exists()


@pytest.mark.parametrize("backend", ["graph", "frac1d"])
def test_each_contract_row_reaches_a_check(tmp_path, backend):
    # a sentinel on every --tol key of the backend must show up as the contract
    # of at least one results entry
    if backend == "graph":
        obj = json.loads(_demo_graph_spec(tmp_path).read_text())
        obj["form"]["kappa"] = [0.0, 0.0, 0.0]  # kappa = 0 and f = 0 add the vd_* checks
        del obj["f"]
    else:
        obj = json.loads(_small_frac_spec(tmp_path).read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    keys = [key for b, key in cli.CONTRACTS if b == backend]
    for k, key in enumerate(keys):
        sentinel = 1000.0 + k
        cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / key, seed=1, paths=1000,
                            tolerances={key: sentinel})
        cli.run(cfg)
        res = json.loads((tmp_path / key / "residuals.json").read_text())["results"]
        assert any(entry["contract"] == sentinel for entry in res.values()), key


@pytest.mark.parametrize("item", ["projective_boundary=1e-8", "projective_exhaustion=1e-8",
                                  "trace=1e-10"])
def test_retired_graph_tol_keys_are_config_errors(tmp_path, capsys, item):
    # the graph contracts of P_D u on D, u off D and the terminal trace level
    # are gone; the continuum keeps projective_exhaustion and trace
    spec = _demo_graph_spec(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--tol", item]) == 2
    assert capsys.readouterr().out.startswith("error:")
    assert not out.exists()


def test_suite_or_tol_of_another_backend_is_a_config_error(tmp_path, capsys):
    frac = _small_frac_spec(tmp_path)
    graph = _demo_graph_spec(tmp_path)
    for spec, args, name in ((frac, ["--suite", "mc"], "mc"),
                             (frac, ["--tol", "second_moment=1"], "second_moment"),
                             (graph, ["--suite", "wos"], "wos"),
                             (graph, ["--tol", "wos_exit_chi2=0.01"], "wos_exit_chi2")):
        out = tmp_path / "out"
        assert cli.main(["run", str(spec), "--out", str(out), *args]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("error:") and repr(name) in printed
        assert not out.exists()


def test_unknown_ladder_key_is_a_config_error(tmp_path, capsys):
    # no spec key selects a solver: Newton is the only solve of a run
    for backend, make_spec in (("graph", _demo_graph_spec), ("frac1d", _small_frac_spec)):
        obj = json.loads(make_spec(tmp_path).read_text())
        obj["ladder"] = {"base": 2}
        spec = tmp_path / "ladder.json"
        spec.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify"]) == 2, backend
        printed = capsys.readouterr().out
        assert printed.startswith("error:") and "unknown spec keys: ['ladder']" in printed
        assert not out.exists()


@pytest.mark.parametrize("suite", ["verify", "mc"])
def test_empty_domain_is_a_config_error(tmp_path, capsys, suite):
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    obj["D"] = []
    obj["mu"] = [0.0, 0.0, 0.0]
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", suite]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and "D must be nonempty" in printed
    assert not out.exists()


@pytest.mark.parametrize("backend", ["graph", "frac1d"])
def test_unknown_spec_keys_are_a_config_error(tmp_path, capsys, backend):
    # one run names every misspelt key: top level, continuum objects, and
    # the kind-specific keys of f and g
    if backend == "graph":
        obj = json.loads(_demo_graph_spec(tmp_path).read_text())
        obj["nest_levles"] = 3
        obj["f"]["pp"] = 5
        names = ["nest_levles", "f.pp"]
    else:
        obj = json.loads(_small_frac_spec(tmp_path).read_text())
        obj["nest_levles"] = 3
        obj["f"]["pp"] = 5
        obj["grid"]["out_level"] = 6
        obj["g"]["valeu"] = 2.0
        obj["nu"] = {"plus": 0.0, "minsu": 1.0}
        obj["mu"] = {"atom": [[0.0, 1.0]]}
        names = ["nest_levles", "f.pp", "grid.out_level", "g.valeu", "nu.minsu", "mu.atom"]
    spec = tmp_path / "typo.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:")
    assert all(repr(name) in printed for name in names)
    assert not out.exists()


def test_every_spec_key_is_read(tmp_path):
    # specs that carry every key the loader knows (nest and nest_levels in
    # two specs: they exclude each other), and those written by gen, load,
    # and the keys reach the problem; a ladder object is not a spec key
    frac = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
            "g": {"kind": "power_singular", "p": 0.2, "coef": 1.0},
            "mu": {"atoms": [[0.0, 1.0]]}, "nu": {"plus": 1.0, "minus": 0.0},
            "f": {"kind": "exp", "b": 1.0}, "nest": [0.5, 0.75],
            "grid": {"order": 6, "n_base": 4, "edge_levels": 10, "out_levels": 6}}
    frac_levels = {key: value for key, value in frac.items() if key != "nest"}
    frac_levels["nest_levels"] = 2
    graph = json.loads(_demo_graph_spec(tmp_path).read_text())
    graph.update(nest=[[1], [1, 2]],
                 f={"kind": "custom-table", "y": [-1.0, 1.0], "values": [1.0, -1.0]})
    paths = cli.generate_random_suite(3, 1, tmp_path / "gen")
    loaded = []
    for obj in (frac, graph, frac_levels, *(json.loads(p.read_text()) for p in paths)):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        loaded.append(cli.load_problem(spec))
    (prob, backend), (graph_prob, graph_backend), (levels_prob, _) = loaded[:3]
    assert (backend, graph_backend) == ("frac1d", "graph")
    assert prob.mu_atoms == ((0.0, 1.0),) and prob.nu_plus == 1.0
    assert prob.nest == (0.5, 0.75) and prob.grid.order == 6
    assert levels_prob.nest == cli.frac1d.default_nest(2)
    assert graph_prob.f.name == "table"
    assert all(backend == "graph" for _, backend in loaded[3:])
    for obj in (frac, graph):
        obj["ladder"] = {"base": 3}
        spec.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"unknown spec keys: \['ladder'\]"):
            cli.load_problem(spec)


# (backend, dotted key, value): a misspelt form key, sub-objects that are not
# JSON objects, atoms that are not pairs, retired keys, a list (key None) in
# place of the whole spec, a ladder object (not a spec key, whatever it holds),
# state indices that are not integers or not states, graph data that are not
# finite numbers (a numeric string or a bool in form.J included), and continuum
# nests that are not radii in (0, 1) or have no level, continuum numbers that are
# not finite numbers and counts that are not integers >= 1 (bools are neither),
# a table that is not numbers, keys left out, and continuum atoms that are not
# pairs of finite numbers with the position in (-1, 1), and a schema other than 1
@pytest.mark.parametrize("backend, key, value, name", [
    ("graph", "form.kapa", [1.0, 0.0, 0.0], "'form.kapa'"),
    ("graph", "f", 3, "'f'"),
    ("graph", "inject", {"index": 9}, "'inject'"),
    ("frac1d", "grid", [1], "'grid'"),
    ("frac1d", "nu", 2, "'nu'"),
    ("frac1d", "g", 1.0, "'g'"),
    ("frac1d", "mu", [[0.0, 1.0]], "'mu'"),
    ("frac1d", "mu.atoms", [1, 2], "'mu.atoms'"),
    ("graph", None, None, "JSON object"),
    ("graph", "ladder.max_level", "x", "unknown spec keys: ['ladder']"),
    ("graph", "ladder.base", 0, "unknown spec keys: ['ladder']"),
    ("graph", "ladder.theta0", 0.5, "unknown spec keys: ['ladder']"),
    ("graph", "ladder.start", "zero", "unknown spec keys: ['ladder']"),
    ("graph", "g", {"kind": "const"}, "'g'"),
    ("graph", "D", 1.5, "'D'"),
    ("graph", "D", [1.7, 2.2], "'D'"),
    ("graph", "nest", 3, "'nest'"),
    ("graph", "nest", [[1.0], [1, 2]], "'nest[0]'"),
    ("frac1d", "nest", 3, "nest"),
    ("frac1d", "nest", [0.5, 1.5], "nest"),
    ("frac1d", "nest_levels", 0, "nest"),
    ("frac1d", "nest_levels", "x", "'nest_levels'"),
    ("frac1d", "nest_levels", 2.7, "'nest_levels'"),
    ("frac1d", "grid.order", 0, "'grid.order'"),
    ("frac1d", "grid.order", 1.5, "'grid.order'"),
    ("frac1d", "grid.edge_levels", True, "'grid.edge_levels'"),
    ("frac1d", "alpha", "x", "'alpha'"),
    ("frac1d", "alpha", True, "'alpha'"),
    ("frac1d", "alpha", float("nan"), "'alpha'"),
    ("frac1d", "nu.plus", "x", "'nu.plus'"),
    ("frac1d", "g.value", "x", "'g.value'"),
    ("frac1d", "f.p", "x", "'f.p'"),
    ("frac1d", "f.p", True, "'f.p'"),
    ("frac1d", "f.p", float("nan"), "'f.p'"),
    ("frac1d", "f.b", "x", "'f.b'"),
    ("frac1d", "f.b", True, "'f.b'"),
    ("frac1d", "f.b", float("nan"), "'f.b'"),
    ("graph", "f.b", ["x", 1.0, 1.0], "'f.b'"),
    ("graph", "f.b", [1.0, float("nan"), 1.0], "'f.b'"),
    ("graph", "g", [1.0, float("nan"), 0.0], "'g'"),
    ("graph", "mu", [0.0, float("nan"), 0.0], "'mu'"),
    ("graph", "f", {"kind": "custom-table", "y": [-1.0, 1.0]}, "'f.values'"),
    ("graph", "f", {"kind": "custom-table", "y": "ab", "values": [1.0, -1.0]}, "'f.y'"),
    ("frac1d", "g", {"kind": "indicator", "a": 1.5}, "'g.b'"),
    ("frac1d", "g.kind", "wave", "exterior kind 'wave'"),
    ("graph", "f.kind", "cubic", "nonlinearity kind 'cubic'"),
    ("graph", "backend", "fem", "backend 'fem'"),
    ("graph", "form.m", ["a", 1.0, 1.0], "'form.m' must be a list of finite numbers, got 'a'"),
    ("graph", "form.m", None, "'form.m'"),
    ("graph", "form.kappa", [1.0, float("nan"), 0.0], "'form.kappa'"),
    ("graph", "form.J", [[0.0, "x", 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]],
     "'form.J' must be a square matrix of finite numbers, got 'x' at entry [0, 1]"),
    ("graph", "form.J", [[0.0, 0.5, 0.0], [0.5, 0.0, None], [0.0, 0.5, 0.0]],
     "got None at entry [1, 2]"),
    ("graph", "form.J", [[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, float("nan"), 0.0]],
     "got nan at entry [2, 1]"),
    ("graph", "form.J", [[0.0, [0.5], 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]],
     "got [0.5] at entry [0, 1]"),
    ("graph", "form.J", [[0.0, 0.5], [0.5, 0.0]], "'form.J' must be 3x3"),
    ("graph", "form.kappa", [1.0, 0.0], "'form.kappa' must have 3 entries"),
    ("graph", "form.J", [[0.0, 0.5, 0.0], [0.5, 0.0], [0.0, 0.5, 0.0]],
     "got 2 entries in row 1 of 3"),
    ("graph", "f", {"b": 1.0, "p": 3.0}, "'f.kind' is missing or null, but f has keys ['b', 'p']"),
    ("graph", "f.kind", None, "'f.kind'"),
    ("frac1d", "g", {"value": 2.0}, "'g.kind' is missing or null, but g has keys ['value']"),
    ("frac1d", "g.kind", None, "'g.kind'"),
    ("graph", "D", [5], "subset indices out of range [0, 3)"),
    ("graph", "form.J", 5, "'form.J' must be a square matrix of finite numbers, got int"),
    ("graph", "form.J", [[0.0, 0.5, 0.0], 5, [0.0, 0.5, 0.0]], "got int as row 1"),
    ("graph", "form.J", [[0.0, "0.5", 0.0], ["0.5", 0.0, 0.5], [0.0, 0.5, 0.0]],
     "got '0.5' at entry [0, 1]"),
    ("graph", "form.J", [[0.0, 0.5, 0.0], [0.5, 0.0, True], [0.0, True, 0.0]],
     "got True at entry [1, 2]"),
    ("frac1d", "mu.atoms", [[1.5, 1.0]], "'mu.atoms[0]' must place its atom in (-1, 1)"),
    ("frac1d", "mu.atoms", [[0.1, 1.0], [1.0, 1.0]], "'mu.atoms[1]' must place its atom"),
    ("frac1d", "mu.atoms", [[True, 1.0]], "'mu.atoms[0]' must be a finite number"),
    ("frac1d", "mu.atoms", [[float("nan"), 1.0]], "'mu.atoms[0]' must be a finite number"),
    ("frac1d", "mu.atoms", [["0.1", 1.0]], "'mu.atoms[0]' must be a finite number"),
    ("frac1d", "mu.atoms", [[0.1, float("inf")]], "'mu.atoms[0]' must be a finite number"),
    ("frac1d", "mu.atoms", [[0.1, 1.0, 2.0]], "'mu.atoms' must be a list of [position, weight]"),
    ("frac1d", "nest", ["0.5", 0.75], "'nest[0]' must be a finite number"),
    ("graph", "schema", 2, "spec key 'schema' must be 1, got 2"),
    ("frac1d", "schema", 1.0, "spec key 'schema' must be 1, got 1.0"),
    ("graph", "schema", True, "spec key 'schema' must be 1, got True"),
], ids=["form.kapa", "f", "inject", "grid", "nu", "g", "mu", "mu.atoms", "list",
        "ladder.max_level", "ladder.base", "ladder.theta0", "ladder.start", "graph-g",
        "D-scalar", "D-floats", "graph-nest", "graph-nest-floats", "frac-nest",
        "frac-nest-radius", "nest_levels", "nest_levels-str", "nest_levels-float",
        "grid.order-0", "grid.order-float", "grid.edge_levels-bool", "alpha-str",
        "alpha-bool", "alpha-nan", "nu.plus", "g.value", "f.p-str", "f.p-bool", "f.p-nan",
        "f.b-str", "f.b-bool", "f.b-nan", "f.b-list-str", "f.b-list-nan", "g-nan", "mu-nan",
        "f.values-missing", "f.y-str", "g.b-missing", "g.kind", "f.kind", "backend",
        "form.m-str", "form.m-missing", "form.kappa-nan", "form.J-str", "form.J-null",
        "form.J-nan", "form.J-nested", "form.J-size", "form.kappa-size", "form.J-ragged", "f.kind-missing",
        "f.kind-null", "g.kind-missing", "g.kind-null", "D-out-of-range", "form.J-int",
        "form.J-int-row", "form.J-numeric-str", "form.J-bool", "mu.atoms-outside",
        "mu.atoms-endpoint", "mu.atoms-bool", "mu.atoms-nan", "mu.atoms-str", "mu.atoms-inf",
        "mu.atoms-triple", "frac-nest-str", "schema-2", "schema-float", "schema-bool"])
def test_malformed_spec_is_a_config_error(tmp_path, capsys, backend, key, value, name):
    make_spec = _demo_graph_spec if backend == "graph" else _small_frac_spec
    obj = json.loads(make_spec(tmp_path).read_text())
    if key is None:
        obj = [obj]
    else:
        *parents, leaf = key.split(".")
        target = obj
        for part in parents:
            target = target.setdefault(part, {})
        target[leaf] = value
    spec = tmp_path / "malformed.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and name in printed
    assert not out.exists()


def _leaves(obj: dict, prefix: str = "") -> list:
    """The dotted keys of a spec's values that are not JSON objects."""
    return [leaf for key, value in obj.items()
            for leaf in (_leaves(value, f"{prefix}{key}.") if isinstance(value, dict)
                         else [prefix + key])]


_SPEC_OBJS = {"graph": _demo_graph_obj, "frac1d": _small_frac_obj}
# what each leaf is set to; "removed" deletes it
_LEAF_VALUES = {"nan": float("nan"), "str": "x", "nested": [[0.5]], "null": None, "removed": None}
# (backend, dotted key, case) -> (the name the error carries, or None when the
# spec runs, and why the case is not an error naming its own key)
_LEAF_EXCEPTIONS = {
    **{(b, "schema", "removed"): (None, "a spec without a schema is read as schema 1")
       for b in _SPEC_OBJS},
    ("graph", "backend", "removed"): (None, "the backend defaults to graph"),
    **{("graph", key, case): (None, f"{key} null or absent is zero data on every state")
       for key in ("g", "mu") for case in ("null", "removed")},
    **{(b, f"f.{key}", "removed"): (None, f"f.{key} defaults to 1")
       for b in _SPEC_OBJS for key in ("b", "p")},
    ("frac1d", "g.value", "removed"): (None, "a constant datum defaults to 1"),
    **{("frac1d", f"grid.{key}", "removed"): (None, f"grid.{key} takes build_grid's default")
       for key in ("order", "n_base", "edge_levels", "out_levels")},
}


@pytest.mark.parametrize("backend, key, case", [
    (backend, key, case) for backend, make_obj in _SPEC_OBJS.items()
    for key in _leaves(make_obj()) for case in _LEAF_VALUES],
    ids=lambda v: v)
def test_every_spec_leaf_is_read_or_refused(tmp_path, capsys, monkeypatch, backend, key, case):
    # every leaf of a graph and of a continuum spec, set to NaN, a string, a
    # nested list or null, or removed: the spec is refused with exit 2,
    # naming the leaf, before any Green matrix is built or factored, unless
    # the case is a listed exception
    calls = []

    def counted(module, name):
        build = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli.frac1d, "green_matrix")
    counted(projection, "_factor")
    obj = _SPEC_OBJS[backend]()
    *parents, leaf = key.split(".")
    target = obj
    for part in parents:
        target = target[part]
    if case == "removed":
        del target[leaf]
    else:
        target[leaf] = _LEAF_VALUES[case]
    spec = tmp_path / "leaf.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    status = cli.main(["run", str(spec), "--out", str(out), "--suite", "verify"])
    name, _ = _LEAF_EXCEPTIONS.get((backend, key, case), (repr(key), None))
    if name is None:
        assert status == 0 and calls
        return
    printed = capsys.readouterr().out
    assert status == 2 and printed.startswith("error:") and name in printed, printed
    assert calls == [] and not out.exists()


def _read_J(text):
    """``form.J`` of a spec whose J is ``text``: cli's reading must raise
    exactly when json's does, and agree with it through ``np.asarray``, bit
    for bit or in the class of the error; returns cli's reading."""
    doc = '{"form": {"J": %s}}' % text
    try:
        want = json.loads(doc)["form"]["J"]
    except json.JSONDecodeError:
        with pytest.raises(json.JSONDecodeError):
            cli._json_spec(doc)
        return None
    got = cli._json_spec(doc)["form"]["J"]
    arrays = []
    for value in (got, want):
        try:
            arrays.append(np.asarray(value, dtype=float))
        except (TypeError, ValueError) as exc:
            arrays.append(type(exc))
    if isinstance(arrays[1], type):
        assert arrays[0] is arrays[1]
    else:
        assert arrays[0].shape == arrays[1].shape
        assert arrays[0].tobytes() == arrays[1].tobytes()
    return got


# (J text, whether it is read as an array without json's lists): the compact
# layout [[t,...,t],...,[t,...,t]] with entries of at most 8 bytes is read
# by dictionary decoding; whitespace, longer entries and every refusal or
# other shape go through json's scanner
@pytest.mark.parametrize("text, compact", [
    (" [ [ 1 , 2 ] , [ 3 , 4 ] ] ", False),
    ("\n[\n[1,\n2],\t[3,\r\n4]\n]\n", False),
    ("[[1, 2], [3, 4]]", False),
    ("[[-0,-0.0,1e5,1E-3,2.5e+2]]", True),
    ("[[0,1,2],[-3,12345678,-1234567]]", True),
    ("[[9007199254740993,1],[1,0]]", False),
    ("[[0.12345678901234568,0.5],[0.5,1.0000000000000002]]", False),
    ("[[NaN,Infinity],[1,-1]]", True),
    ("[[NaN,-Infinity]]", False),
    ("[[1e999,-1e999]]", True),
    ("[[5]]", True),
    ("[[1,2,3]]", True),
    ("[[1],[2],[3]]", True),
    ("[[1 2]]", False),
    ("[[1,,2]]", False),
    ("[[1,2,]]", False),
    ("[[,1]]", False),
    ("[[01]]", False),
    ("[[1.]]", False),
    ("[[.5]]", False),
    ("[[+1]]", False),
    ("[[1e]]", False),
    ("[[-]]", False),
    ("[[1,2],[3]]", False),
    ("[[1],[2,3]]", False),
    ("[[1,2],[3],[4,5,6]]", False),
    ("[[1,,,2]5[3]]", False),
    ("[[]]", False),
    ("[[],[]]", False),
    ("[]", False),
    ("[1,2]", False),
    ("[[[1]]]", False),
    ("[[1],[[2]]]", False),
    ("[[1]],[[2]]", False),
    ("[[1]]]", False),
    ("[[1],2]", False),
    ("[[1][2]]", False),
    ("[[1,2]x[3,4]]", False),
    ("[[1,2] ,[3,4]]", False),
    ("[[1\u00e9]]", False),
    ('[["\u00e9"]]', False),
    ("[[1\u0000]]", False),
    ("[[1\u0000,1]]", False),
    ('[["1"]]', False),
    ("[[true,false]]", False),
    ("[[null]]", False),
    ("[[1,{}]]", False),
    ("[[Infinity1]]", False),
    ("[[inf]]", False),
    ("[[1_0]]", False),
    ("[[NaN]", False),
    ("[[1]", False),
], ids=lambda v: repr(v) if isinstance(v, str) else None)
def test_jump_matrix_reads_as_json_does(text, compact):
    for block in (1 << 20, 3, 1):  # rows within one block, and cut across blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_CHARS", block)
            assert isinstance(_read_J(text), np.ndarray) == compact


_ENTRIES = st.one_of(
    st.integers(-10 ** 9, 10 ** 9).map(str),
    st.integers(0, 1000).map(lambda k: repr(k / 1000)),
    st.floats(allow_nan=True).map(lambda x: json.dumps(x)),
    st.sampled_from(["-0", "-0.0", "1e5", "1E-3", "2.5e+2", "1e-400", "NaN", "Infinity",
                     "-Infinity", "0.0", "1.0"]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jump_matrix_reading_property(data):
    # random matrices, some with a ragged row, in random layouts, read with
    # small blocks (rows cut across blocks, rows longer than a block) and
    # with no collision-free hash, read as json reads them
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    vocabulary = data.draw(st.lists(_ENTRIES, min_size=1, max_size=12))
    entries = [[data.draw(st.sampled_from(vocabulary)) for _ in range(cols)]
               for _ in range(rows)]
    if data.draw(st.integers(0, 9)) == 0:  # a ragged row
        entries[data.draw(st.integers(0, rows - 1))].pop()
    spaces = st.sampled_from(["", "", "", " ", "\n", "\t", "\r\n"])
    compact = data.draw(st.booleans())
    gap = (lambda: "") if compact else (lambda: data.draw(spaces))
    text = gap() + "[" + ",".join(
        gap() + "[" + ",".join(gap() + t + gap() for t in row) + "]" + gap()
        for row in entries) + "]" + gap()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_CHARS", data.draw(st.sampled_from([1, 2, 7, 32, 1 << 20])))
        if data.draw(st.booleans()):  # a hash under which every two keys collide
            mp.setattr(cli, "_MULTIPLIERS", (np.uint64(0),))
        _read_J(text)


def test_jump_matrix_beyond_the_vocabulary_reads_as_json_does():
    # two distinct entries that collide under every multiplier, in the first
    # block or only once a later block brings the second entry, and too many
    # distinct entries are read by json's scanner
    text = "[[1,1],[1,2]]"
    for block in (1 << 20, 6):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_CHARS", block)
            assert isinstance(_read_J(text), np.ndarray)
            mp.setattr(cli, "_MULTIPLIERS", (np.uint64(0),))
            assert isinstance(_read_J(text), list)
    # more distinct entries than are parsed one by one
    text = "[%s]" % ",".join("[%s]" % ",".join(str(100 * i + j) for j in range(100))
                             for i in range(100))
    assert isinstance(_read_J(text), list)


def test_only_form_J_is_read_as_an_array():
    # the key path selects the reading: lists of lists elsewhere, before or
    # after form.J, stay json's lists
    obj = cli._json_spec('{"J": [[1,2],[2,1]], "form": {"m": [[1]], "J": [[0,1],[1,0]], '
                         '"kappa": [[1]]}, "nest": [[1],[1,2]], "mu": {"atoms": [[0,1]]}}')
    assert isinstance(obj["form"]["J"], np.ndarray)
    assert obj["J"] == [[1, 2], [2, 1]] and obj["nest"] == [[1], [1, 2]]
    assert obj["form"]["m"] == [[1]] and obj["mu"] == {"atoms": [[0, 1]]}


def test_compact_jump_matrix_errors_name_the_entry(tmp_path, capsys):
    # the compact layout is read without json's lists, and its bad entries
    # are still named with the key
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    obj["nest"] = [[1], [1, 2]]
    path = tmp_path / "compact.json"
    path.write_text(json.dumps(obj, separators=(",", ":")))
    assert isinstance(cli._json_spec(path.read_text())["form"]["J"], np.ndarray)
    compact, _ = cli.load_problem(path)
    spaced, _ = cli.load_problem(_demo_graph_spec(tmp_path))
    assert compact.form.J.tobytes() == spaced.form.J.tobytes()
    for bad, name in (("NaN", "nan at entry [0, 1]"), ("Infinity", "inf at entry [0, 1]")):
        path.write_text(path.read_text().replace('"J":[[0.0,0.5', f'"J":[[0.0,{bad}', 1))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--suite", "verify"]) == 2
        printed = capsys.readouterr().out
        assert f"'form.J' must be a square matrix of finite numbers, got {name}" in printed
        assert not out.exists()
        path.write_text(json.dumps(obj, separators=(",", ":")))


@pytest.mark.parametrize("alpha, nu, g", [
    (1.5, (0.2, 0.3), None),
    (1.5, (0.2, -0.3), None),
    (1.2, (0.2, 0.3), 1.0),
    (1.0, (0.2, 0.3), None),
], ids=["alpha1.5", "signed", "alpha1.2-g", "alpha1.0"])
def test_trace_contract_measures_the_boundary_measure(tmp_path, monkeypatch, alpha, nu, g):
    # near +-1 the exit averages of |u| tend to M|nu|, the boundary trace of
    # u; the check reads the distance to it at the 1e-3 contract (9.9e-5 to
    # 6.1e-4 here), and fails when that reference is 1% off
    obj = {"backend": "frac1d", "alpha": alpha, "nu": {"plus": nu[0], "minus": nu[1]},
           "f": {"kind": "power", "b": 1.0, "p": 1.0}}
    if g is not None:
        obj["g"] = {"kind": "const", "value": g}
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", suites=("trace",))
    assert cli.run(cfg) == 0
    prob, _ = cli.load_problem(path)
    sol = cli.solve(prob)
    real = cli.frac1d.martin_kernel
    monkeypatch.setattr(cli.frac1d, "martin_kernel", lambda *args: 1.01 * real(*args))
    assert not cli._suite_trace_frac(cfg, prob, sol, tmp_path)["trace_extrapolated"]["pass"]


def test_boundary_measure_spec_checks_its_martin_part(tmp_path):
    # with nu data the exit averages of u tend to P_D g + M nu, and the
    # walk's FK residual estimates -(M nu) at its start
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.5, "nu": {"plus": 0.2, "minus": 0.3},
           "f": {"kind": "power", "b": 1.0, "p": 1.0}}
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", seed=1,
                        suites=("verify", "wos"))
    assert cli.run(cfg) == 0
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert res["projective_exhaustion"]["pass"] and res["wos_fk_residual"]["pass"]


def test_indicator_exterior_spec_runs_every_suite(tmp_path):
    # g = 1 on [1.5, 3], 0 elsewhere outside (-1, 1), through the four continuum suites
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
           "g": {"kind": "indicator", "a": 1.5, "b": 3.0},
           "f": {"kind": "power", "b": 1.0, "p": 3.0}}
    path = tmp_path / "indicator.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--paths", "2000"]) == 0
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert {"fixed_point", "trace_extrapolated", "wos_fk_residual"} <= set(res)


_CUBIC = {"kind": "power", "b": 1.0, "p": 3.0}
_EXP = {"kind": "exp", "b": 1.0}
_NU = {"plus": 0.1, "minus": 0.05}


@pytest.mark.parametrize("alpha, f, nu, status", [
    (1.0, _EXP, {"plus": 1.0}, 2),
    (1.5, _EXP, {"plus": 1.0}, 2),
    (1.8, _EXP, _NU, 2),
    (1.9, _EXP, _NU, 2),
    (0.95, _CUBIC, _NU, 2),
    (1.0, _CUBIC, _NU, 2),
    (1.05, _CUBIC, _NU, 0),
    (1.2, _EXP, {"plus": -0.1}, 0),
    (1.0, {"kind": "custom-table", "y": [-1.0, 0.0, 1.0], "values": [1.0, 0.0, -1.0]}, _NU, 0),
], ids=["1.0", "1.5", "exp-1.8", "exp-1.9", "cubic-0.95", "cubic-1.0", "cubic-1.05",
        "exp-negative-nu", "table"])
def test_boundary_measure_with_exp_absorption_is_a_config_error(tmp_path, capsys, alpha, f, nu,
                                                                 status):
    # f(M nu) has a finite Green potential only for a power p < (2 + alpha)/(2 - alpha),
    # so cubic needs alpha > 1, and for exp at no alpha once nu has positive
    # mass (at alpha = 1.8 and 1.9 e^(M nu) diverges only far below double
    # precision, so no grid sees it); exp where M nu is negative and a
    # bounded table f are admitted, and converge
    path = tmp_path / "nu.json"
    path.write_text(json.dumps({"backend": "frac1d", "alpha": alpha, "nu": nu, "f": f}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--suite", "verify"]) == status
    if status == 2:
        printed = capsys.readouterr().out
        assert "absorption along the boundary part has no finite potential" in printed
        assert not out.exists()
    else:
        res = json.loads((out / "residuals.json").read_text())
        assert res["solver_converged"] is True and res["results"]["fixed_point"]["value"] < 1e-10


def _counted_green_builds(monkeypatch) -> list:
    """The names of the Green matrices built from now on: W of frac1d, and G
    of the graph, which the test-side ladder forms."""
    calls = []

    def counted(build):
        def wrapper(*args):
            calls.append(build.__name__)
            return build(*args)
        return wrapper

    monkeypatch.setattr(cli.frac1d, "green_matrix", counted(cli.frac1d.green_matrix))
    monkeypatch.setattr(paper_checks, "green_operator", counted(paper_checks.green_operator))
    return calls


def test_negative_absorption_refused_before_any_green_matrix(tmp_path, capsys, monkeypatch):
    # a negative f.b makes f increasing: the spec is refused as it is read,
    # before the solve forms W or G, and the message names the key
    calls = _counted_green_builds(monkeypatch)
    graph = json.loads(_demo_graph_spec(tmp_path).read_text())
    graph["f"]["b"] = [-b for b in graph["f"]["b"]]
    frac = json.loads(_small_frac_spec(tmp_path).read_text())
    frac["f"]["b"] = -1.0
    for name, obj, suite in (("graph", graph, "mc"), ("frac", frac, "verify")):
        path = tmp_path / f"{name}_negative_b.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / f"out_{name}"
        assert cli.main(["run", str(path), "--out", str(out), "--suite", suite]) == 2
        assert "'f.b' must be nonnegative, got -1.0" in capsys.readouterr().out
        assert not out.exists()
    assert calls == []


def test_non_finite_spec_data_refused_before_any_green_matrix(tmp_path, capsys, monkeypatch):
    # a NaN in g, mu or f.b is refused as the spec is read, with the key and
    # the entry named, not by the first factorization that meets it
    calls = _counted_green_builds(monkeypatch)
    for key in ("g", "mu", "f.b"):
        obj = json.loads(_demo_graph_spec(tmp_path).read_text())
        (obj["f"]["b"] if key == "f.b" else obj[key])[1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--suite", "verify"]) == 2
        assert f"{key!r} must be a list of finite numbers, got nan at entry 1" \
            in capsys.readouterr().out
        assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("backend, b", [
    ("frac1d", [1.0, 1.0]),
    ("graph", [1.0]),
    ("graph", [1.0] * 6),
    ("graph", [[1.0], [1.0], [1.0]]),
], ids=["frac-list", "graph-short", "graph-long", "graph-nested"])
def test_absorption_coefficient_must_fit_the_backend(tmp_path, capsys, monkeypatch, backend, b):
    # f.b is one number, or on a graph one number per state: any other list
    # is refused before a Green matrix is formed, naming the key
    calls = _counted_green_builds(monkeypatch)
    make_spec = _demo_graph_spec if backend == "graph" else _small_frac_spec
    obj = json.loads(make_spec(tmp_path).read_text())
    obj["f"]["b"] = b
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--suite", "verify"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and "'f.b'" in printed
    assert calls == [] and not out.exists()


def test_number_absorption_is_plain_data(tmp_path):
    # a number f.b is recorded in the absorption's params: a loaded problem
    # serializes its f back, and two loaded graph problems with the same b
    # have the same absorption, so stability_gap reports the strong bound
    frac = json.loads(_small_frac_spec(tmp_path).read_text())
    frac["f"] = {"kind": "power", "b": 1.5, "p": 3}
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(frac))
    prob, _ = cli.load_problem(path)
    assert cli._nonlinearity_to_dict(prob.f) == frac["f"]
    specs = []
    for g0 in (0.5, 1.0):
        obj = json.loads(_demo_graph_spec(tmp_path).read_text())
        obj["f"]["b"], obj["g"][0] = 1.0, g0
        path = tmp_path / f"graph_{g0}.json"
        path.write_text(json.dumps(obj))
        specs.append(cli.load_problem(path)[0])
    rep = stability_gap(*specs)
    assert set(rep) == {"stability", "stability_strong"} and max(rep.values()) < 1e-9


def test_nest_and_nest_levels_exclude_each_other(tmp_path, capsys):
    obj = json.loads(_small_frac_spec(tmp_path).read_text())
    obj.update(nest=[0.5, 0.75], nest_levels=2)
    spec = tmp_path / "both.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and "'nest'" in printed and "'nest_levels'" in printed
    assert not out.exists()


def test_non_finite_solution_fails_solution_sup(tmp_path, monkeypatch):
    _perturb_solution(monkeypatch, 0, float("nan"))  # state 0 lies outside D
    cfg = cli.RunConfig(spec_path=_demo_graph_spec(tmp_path), out_dir=tmp_path / "out",
                        seed=1, suites=("estimates",))
    assert cli.run(cfg) == 1
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())["results"]
    assert not res["solution_sup"]["pass"]


def test_config_validation(tmp_path):
    spec = _demo_graph_spec(tmp_path)
    with pytest.raises(FileNotFoundError):
        cli.RunConfig(spec_path=tmp_path / "missing.json", out_dir=tmp_path)
    with pytest.raises(ValueError):
        cli.RunConfig(spec_path=spec, out_dir=tmp_path, suites=("bogus",))
    with pytest.raises(ValueError):
        cli.RunConfig(spec_path=spec, out_dir=tmp_path, tolerances={"x": -1.0})


def test_dump_kernels_graph(tmp_path):
    spec = _demo_graph_spec(tmp_path)
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", seed=1,
                        suites=("verify",), dump_kernels=True)
    assert cli.run(cfg) == 0
    P = np.loadtxt(tmp_path / "out" / "poisson_kernel.csv", delimiter=",", skiprows=1)
    assert P.shape == (3, 3)
    assert np.max(P.sum(axis=1)) <= 1.0 + 1e-12
    assert (tmp_path / "out" / "green_operator.csv").exists()


def test_dump_kernels_frac(tmp_path):
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
           "g": {"kind": "zero"}, "f": {"kind": "zero"},
           "grid": {"order": 6, "n_base": 4, "edge_levels": 10, "out_levels": 6}}
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", seed=1,
                        suites=(), dump_kernels=True)
    assert cli.run(cfg) == 0
    assert (tmp_path / "out" / "grid.csv").exists()
    assert (tmp_path / "out" / "green_samples.csv").exists()



def _row_csv(header, rows) -> bytes:
    """The CSV bytes of the row formatter ``cli._write_csv`` replaced: each
    call site built tuples of Python ints and floats, and each cell was its
    ``repr``."""
    return ("\n".join([header] + [",".join(repr(v) for v in row) for row in rows])
            + "\n").encode()


@pytest.mark.parametrize("backend", ["graph", "frac1d"])
def test_csv_bytes_are_the_row_formatters(tmp_path, monkeypatch, backend):
    # the column writer writes the bytes of the row formatter it replaced,
    # for the solution, the trace and the graph kernels
    seen = {}

    def record(module, name):
        build = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name] = build(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((cli, "solve"), (cli, "poisson_kernel"), (cli, "green_operator"),
                         (cli.trace, "trace_sequence_graph"), (cli.trace, "trace_sequence_frac")):
        record(module, name)
    spec = (_demo_graph_spec if backend == "graph" else _small_frac_spec)(tmp_path)
    out = tmp_path / "out"
    cli.run(cli.RunConfig(spec_path=spec, out_dir=out, seed=1, suites=("verify", "trace"),
                          dump_kernels=True))
    sol = seen["solve"]
    if backend == "graph":
        want = {"solution.csv": _row_csv("state,u", [(int(i), float(v))
                                                     for i, v in enumerate(sol.u)])}
        seq = seen["trace_sequence_graph"]
        P, G = seen["poisson_kernel"], seen["green_operator"]
        D = cli.load_problem(spec)[0].D
        want["poisson_kernel.csv"] = _row_csv(",".join(map(str, range(P.shape[1]))),
                                              [tuple(float(v) for v in row) for row in P])
        want["green_operator.csv"] = _row_csv(",".join(str(int(i)) for i in D),
                                              [tuple(float(v) for v in row) for row in G])
    else:
        want = {"solution.csv": _row_csv("x,u", [(float(x), float(v))
                                                 for x, v in zip(sol.meta["x"], sol.u)])}
        seq = seen["trace_sequence_frac"]
    trace_rows = [(float(p), k + 1, float(seq.values[k, j]), float(seq.extrapolated[j]))
                  for j, p in enumerate(np.asarray(seq.probes, dtype=float))
                  for k in range(seq.values.shape[0])]
    assert len(trace_rows) == seq.values.shape[0] * seq.probes.size
    want["trace.csv"] = _row_csv("probe,level,value,extrapolated", trace_rows)
    for name, text in want.items():
        assert (out / name).read_bytes() == text, name


def test_dump_kernels_frac_cells_read_back(tmp_path):
    # grid.csv writes its regions bare, and every node, weight and Green
    # sample reads back bit for bit: the grid's own, and the per-pair
    # kernel value of the sampled nodes
    out = tmp_path / "out"
    spec = _small_frac_spec(tmp_path)
    assert cli.run(cli.RunConfig(spec_path=spec, out_dir=out, suites=(), dump_kernels=True)) == 0
    prob, _ = cli.load_problem(spec)
    grid = prob.grid
    with open(out / "grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["region", "node", "weight"]
    regions = [row[0] for row in rows[1:]]
    assert regions == ["interior"] * grid.interior_x.size + ["exterior"] * grid.exterior_x.size
    for col, (inner, outer) in ((1, (grid.interior_x, grid.exterior_x)),
                                (2, (grid.interior_w, grid.exterior_w))):
        got = np.array([float(row[col]) for row in rows[1:]])
        assert got.tobytes() == np.concatenate([inner, outer]).tobytes()
    with open(out / "green_samples.csv", newline="") as fh:
        samples = list(csv.reader(fh))[1:]
    k = grid.interior_x[:: max(1, grid.interior_x.size // 64)].size
    assert len(samples) == k * (k - 1)
    for x, y, G in samples:
        assert float(G) == float(prob.kernels.green(float(x), float(y))), (x, y)


def test_frac1d_config_runs(tmp_path):
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
           "g": {"kind": "const", "value": 1.0},
           "f": {"kind": "power", "b": 1.0, "p": 3.0},
           "grid": {"order": 8, "n_base": 6, "edge_levels": 16, "out_levels": 8}}
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=path, out_dir=tmp_path / "out", seed=4,
                        suites=("verify", "trace", "estimates"))
    assert cli.run(cfg) == 0
    res = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert res["results"]["trace_extrapolated"]["pass"]


@pytest.mark.parametrize("backend", ["graph", "frac1d"])
def test_run_does_not_import_scipy(tmp_path, backend):
    # scipy is an oracle of the tests only, and the run uses no thread pool:
    # a run of every default suite of each backend, in a fresh interpreter,
    # leaves no scipy or concurrent module loaded
    spec = (_demo_graph_spec if backend == "graph" else _small_frac_spec)(tmp_path)
    argv = ["run", str(spec), "--out", str(tmp_path / "out"), "--paths", "20000"]
    code = ("import json, sys; from dirichlet_lab import cli; "
            f"status = cli.main({argv!r}); "
            "print(json.dumps([status, sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'concurrent')))]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    status, banned = json.loads(proc.stdout.splitlines()[-1])
    # 1: the small continuum grid misses the trace contract (0.00107 against
    # 1e-3); every suite still ran
    assert status in (0, 1) and (tmp_path / "out" / "residuals.json").is_file()
    assert banned == []
