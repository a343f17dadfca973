import hashlib
import json

import numpy as np
import pytest

from dirichlet_lab import cli
from dirichlet_lab.forms import form_from_dict
from dirichlet_lab.forms import is_transient


def _demo_graph_spec(tmp_path):
    obj = {
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
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(obj))
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


def test_spec_ladder_reaches_the_solver(tmp_path):
    # one ladder level cannot meet the convergence test, so run returns 1
    # and reports the solver unconverged; without the key the spec passes
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    for ladder, status in ((None, 0), ({"max_level": 1}, 1)):
        if ladder:
            obj["ladder"] = ladder
        spec = tmp_path / "ladder.json"
        spec.write_text(json.dumps(obj))
        out = tmp_path / f"out{status}"
        cfg = cli.RunConfig(spec_path=spec, out_dir=out, seed=1, suites=("verify",))
        assert cli.run(cfg) == status
        res = json.loads((out / "residuals.json").read_text())
        assert res["solver_converged"] is (status == 0)


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


def _small_frac_spec(tmp_path):
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
           "g": {"kind": "const", "value": 1.0},
           "f": {"kind": "power", "b": 1.0, "p": 3.0},
           "grid": {"order": 6, "n_base": 4, "edge_levels": 10, "out_levels": 6}}
    path = tmp_path / "small_frac.json"
    path.write_text(json.dumps(obj))
    return path


def _perturb_solution(monkeypatch, index, eps):
    """Make ``cli.run`` see the real solve's u with ``eps`` added at ``index``."""
    real_solve = cli.solve

    def solve(problem, ladder):
        sol = real_solve(problem, ladder)
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


def test_gen_validation():
    with pytest.raises(ValueError):
        cli.generate_random_suite(seed=1, count=0, out_dir="/tmp/nope")


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
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    obj["ladder"] = {"max_levle": 3}
    spec = tmp_path / "ladder.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out), "--suite", "verify"]) == 2
    printed = capsys.readouterr().out
    assert printed.startswith("error:") and "max_levle" in printed
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
    # specs that carry every key the loader knows, and those written by gen,
    # load, and the keys reach the problem and the ladder
    frac = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
            "g": {"kind": "power_singular", "p": 0.2, "coef": 1.0},
            "mu": {"atoms": [[0.0, 1.0]]}, "nu": {"plus": 1.0, "minus": 0.0},
            "f": {"kind": "exp", "b": 1.0}, "nest": [0.5, 0.75], "nest_levels": 2,
            "grid": {"order": 6, "n_base": 4, "edge_levels": 10, "out_levels": 6},
            "ladder": {"base": 3, "max_level": 8, "theta0": 0.5, "start": "zero"}}
    graph = json.loads(_demo_graph_spec(tmp_path).read_text())
    graph.update(nest=[[1], [1, 2]], ladder={"max_level": 8},
                 f={"kind": "custom-table", "y": [-1.0, 1.0], "values": [1.0, -1.0]})
    paths = cli.generate_random_suite(3, 1, tmp_path / "gen")
    loaded = []
    for obj in (frac, graph, *(json.loads(p.read_text()) for p in paths)):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        loaded.append(cli.load_problem(spec))
    (prob, ladder), (graph_prob, graph_ladder) = loaded[:2]
    assert ladder == cli.LadderConfig(base=3, max_level=8, theta0=0.5, start="zero")
    assert prob.mu_atoms == ((0.0, 1.0),) and prob.nu_plus == 1.0
    assert prob.nest == (0.5, 0.75) and prob.grid.order == 6
    assert graph_ladder.max_level == 8 and graph_prob.f.name == "table"
    assert all(ladder == cli.LadderConfig() for _, ladder in loaded[2:])


# (backend, dotted key, value): a misspelt form key, sub-objects that are not
# JSON objects, atoms that are not pairs, a retired key, and a list (key None)
# in place of the whole spec
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
], ids=["form.kapa", "f", "inject", "grid", "nu", "g", "mu", "mu.atoms", "list"])
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
