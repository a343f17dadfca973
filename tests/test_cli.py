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


@pytest.mark.parametrize("make_spec, index", [(_demo_graph_spec, 1), (_demo_frac_spec, 200)],
                         ids=["graph", "frac1d"])
def test_injected_violator_fails(tmp_path, make_spec, index):
    # the verify suite must check the u written to solution.csv, not the solve's u
    spec = make_spec(tmp_path)
    obj = json.loads(spec.read_text())
    obj["inject"] = {"index": index, "eps": 0.2}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=bad, out_dir=tmp_path / "out", seed=1,
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


def test_non_finite_solution_fails_solution_sup(tmp_path):
    obj = json.loads(_demo_graph_spec(tmp_path).read_text())
    obj["inject"] = {"index": 0, "eps": float("nan")}  # state 0 lies outside D
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=spec, out_dir=tmp_path / "out", seed=1,
                        suites=("estimates",))
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
