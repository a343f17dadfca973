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
                        suites=("mc",), tolerances={"mc_paths": 20000})
    assert cli.run(cfg) == 0
    mc = json.loads((tmp_path / "out" / "mc.json").read_text())
    assert set(mc["results"]) == {"mc_PDg", "mc_RD1", "mc_FK_residual"}


def test_injected_violator_fails(tmp_path):
    spec = _demo_graph_spec(tmp_path)
    obj = json.loads(spec.read_text())
    obj["inject"] = {"index": 1, "eps": 0.2}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    cfg = cli.RunConfig(spec_path=bad, out_dir=tmp_path / "out", seed=1,
                        suites=("verify",))
    assert cli.run(cfg) == 1


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
    obj = {"schema": 1, "backend": "frac1d", "alpha": 1.0,
           "g": {"kind": "const", "value": 1.0},
           "f": {"kind": "power", "b": 1.0, "p": 3.0},
           "grid": {"order": 6, "n_base": 4, "edge_levels": 10, "out_levels": 6}}
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    status = cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                       "--suite", "wos", "--tol", "wos_paths=50"])
    assert status == 2
    assert "n_paths" in capsys.readouterr().out


def _assert_too_few_paths_rejected_before_solving(key, tmp_path, capsys):
    spec = _demo_graph_spec(tmp_path)
    for paths in (50, 0.5):
        with pytest.raises(ValueError, match=key):
            cli.RunConfig(spec_path=spec, out_dir=tmp_path, tolerances={key: paths})
    out = tmp_path / "out"
    status = cli.main(["run", str(spec), "--out", str(out), "--tol", f"{key}=0.5"])
    assert status == 2
    assert key in capsys.readouterr().out
    assert not out.exists()


def test_too_few_wos_paths_rejected_before_solving(tmp_path, capsys):
    _assert_too_few_paths_rejected_before_solving("wos_paths", tmp_path, capsys)


def test_too_few_mc_paths_rejected_before_solving(tmp_path, capsys):
    _assert_too_few_paths_rejected_before_solving("mc_paths", tmp_path, capsys)


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
