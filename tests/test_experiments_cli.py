import dataclasses
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbarlab import geometry as geo
from dbarlab import forward as fw
from dbarlab import cli
from dbarlab import experiments as ex
from dbarlab import holonomy as ho


SMALL = dict(n_r=48, n_theta=64, order=5, t_list=(0.05, 0.1, 0.2), h_list=(0.2, 0.1, 0.05))


def small_cfg(**over):
    kw = dict(SMALL)
    kw.update(over)
    return ex.ExperimentConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(h_list=(0.05, 0.1))  # not descending
    with pytest.raises(ValueError, match="t_list values must be non-negative"):
        ex.ExperimentConfig(t_list=(-0.1,))
    assert ex.ExperimentConfig.from_dict({"t_list": [0.0, 0.1]}).t_list == (0.0, 0.1)
    for t_list in ((0.2, 0.1, 0.05), (0.1, 0.1)):
        with pytest.raises(ValueError, match="t_list must be ascending"):
            ex.ExperimentConfig(t_list=t_list)
    with pytest.raises(ValueError, match="cgo_h_list must be descending"):
        ex.ExperimentConfig(cgo_h_list=(0.02, 0.04))
    with pytest.raises(ValueError, match="cgo_h_list values must be positive"):
        ex.ExperimentConfig(cgo_h_list=(0.04, 0.0))
    with pytest.raises(ValueError, match="'square'"):
        ex.ExperimentConfig(domain_kind="square")
    with pytest.raises(ValueError, match="'square'"):
        ex.ExperimentConfig.from_dict({"domain": {"kind": "square"}})
    with pytest.raises(ValueError, match="unknown config key.*n_rings"):
        ex.ExperimentConfig.from_dict({"n_rings": 48})
    with pytest.raises(ValueError, match="unknown config key.*domain.radius"):
        ex.ExperimentConfig.from_dict({"domain": {"kind": "disk", "radius": 1.0}})
    # the stability estimates' fixed constants are not keys, even at their values
    for key, value in (("K", 2.0), ("delta_list", [0.2, 0.1, 0.05]), ("h_schedule_c", 1.0),
                       ("h_schedule_alpha", 0.75), ("delta_schedule_eps", 0.25)):
        with pytest.raises(ValueError, match=rf"^unknown config key\(s\): {key}$"):
            ex.ExperimentConfig.from_dict({key: value})
    with pytest.raises(ValueError, match="order 8 needs n_theta >= 17, got 16"):
        ex.ExperimentConfig(n_theta=16, order=8)
    assert ex.ExperimentConfig(n_theta=16, order=7).order == 7
    with pytest.raises(ValueError, match="order must be non-negative"):
        ex.ExperimentConfig(order=-1)
    with pytest.raises(ValueError, match="order must be non-negative"):
        ex.ExperimentConfig.from_dict({"order": -1})
    for key in ("h_list", "cgo_h_list", "t_list"):
        with pytest.raises(ValueError, match=f"{key} must not be empty"):
            ex.ExperimentConfig.from_dict({key: []})
    with pytest.raises(ValueError, match="n_r, n_theta: n_theta must be a power of two"):
        ex.ExperimentConfig.from_dict({"n_theta": 100})
    with pytest.raises(ValueError, match="cgo_n_r, cgo_n_theta: n_theta must be a power of two"):
        ex.ExperimentConfig.from_dict({"cgo_n_theta": 100})
    with pytest.raises(ValueError, match="annulus requires r_inner > 0"):
        ex.ExperimentConfig.from_dict({"domain": {"kind": "annulus"}})
    with pytest.raises(ValueError, match="disk requires r_inner == 0"):
        ex.ExperimentConfig.from_dict({"domain": {"kind": "disk", "r_inner": 0.5}})
    # every field is a valid key
    cfg = ex.ExperimentConfig.from_dict(json.loads(ex.ExperimentConfig().canonical()))
    assert cfg == ex.ExperimentConfig()


def test_readme_config_schema_is_the_default_config():
    """The JSON block under README's "Config file schema" names every key
    and loads as the default config."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config file schema (JSON)", 1)[1]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert ex.ExperimentConfig.from_dict(block) == ex.ExperimentConfig()
    keys = set(block) - {"domain"} | {f"domain_{k}" if k == "kind" else k for k in block["domain"]}
    assert keys == {f.name for f in dataclasses.fields(ex.ExperimentConfig)}


def test_manifest_records_library_versions(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    ex.write_manifest(tmp_path / "m.json", ex.ExperimentConfig(), "forward", {})
    versions = json.loads((tmp_path / "m.json").read_text())["versions"]
    assert versions["numpy"] == np.__version__
    assert versions["python"] == platform.python_version()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions["numpy_blas"] == {"name": blas["name"], "version": blas["version"]}
    # the lab does not run on scipy, so its version and BLAS are not recorded
    assert "scipy" not in versions and "scipy_blas" not in versions
    assert versions["OPENBLAS_NUM_THREADS"] == "3"
    assert versions["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
    assert versions["MKL_NUM_THREADS"] is None


def test_config_roundtrip(tmp_path):
    cfg = small_cfg(seed=7)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "disk", "r_outer": 1.0},
        "n_r": 48, "n_theta": 64, "order": 5, "seed": 7,
        "t_list": [0.05, 0.1, 0.2], "h_list": [0.2, 0.1, 0.05],
    }))
    loaded = ex.ExperimentConfig.from_json(path)
    assert loaded.n_r == cfg.n_r and loaded.seed == 7
    assert loaded.digest() != ex.ExperimentConfig().digest()


def test_cgo_decay_small_grid(tmp_path):
    # coarse h = 0.08 <= radius^2/pi on the radius-0.5 disk; n_theta ~ 2 pi n_r
    cfg = ex.ExperimentConfig(cgo_n_r=24, cgo_n_theta=128, cgo_h_list=(0.08, 0.04, 0.02))
    slopes = ex.run_cgo_decay(cfg, out=tmp_path)
    header, *rows = (tmp_path / "cgo_decay.csv").read_text().splitlines()
    assert len(rows) == 2 * len(cfg.cgo_h_list)
    for line in rows:
        rec = dict(zip(header.split(","), map(float, line.split(","))))
        assert rec["residual"] <= 1e-10
        assert rec["terms_used"] < 200
    manifest = json.loads((tmp_path / "cgo_decay.json").read_text())
    assert manifest["study"] == "cgo-decay"
    for tag in ("pair1", "pair2"):
        assert set(manifest["results"][tag]) == {"slope_r", "slope_s"}
        assert manifest["results"][tag] == slopes[tag]


@pytest.mark.parametrize(
    "over", [{}, dict(domain_kind="annulus", r_inner=0.6, r_outer=1.2)], ids=["disk", "annulus"]
)
def test_gauge_check_passes(tmp_path, over):
    res = ex.run_gauge_check(small_cfg(**over), out=tmp_path)
    assert res["gauge_over_floor"] <= 10.0
    assert res["control_over_floor"] >= 100.0
    manifest = json.loads((tmp_path / "gauge_check.json").read_text())
    assert manifest["study"] == "gauge-check"
    assert "config_sha256" in manifest


def test_stability_sweep_outputs(tmp_path):
    recs = ex.run_stability_sweep(small_cfg(), out=tmp_path)
    assert len(recs) == 3
    interior = [r.q_diff_l2 + r.dX_diff_l2 for r in recs]
    assert all(b > a for a, b in zip(interior, interior[1:]))
    assert all(r.dxid_residual < 1e-3 for r in recs)
    text = (tmp_path / "stability_sweep.csv").read_text()
    assert text.startswith("t,")


def test_stability_sweep_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    ex.run_stability_sweep(small_cfg(), out=a)
    ex.run_stability_sweep(small_cfg(), out=b)
    assert (a / "stability_sweep.csv").read_bytes() == (b / "stability_sweep.csv").read_bytes()


def test_boundary_defect_monotone(tmp_path):
    res = ex.run_boundary_defect(small_cfg(), out=tmp_path)
    vals = [float(v) for v in res["defects"].values()]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_holonomy_study(tmp_path):
    cfg = small_cfg(domain_kind="annulus", r_inner=0.6, r_outer=1.2)
    res = ex.run_holonomy_study(cfg, out=tmp_path)
    assert res["windings_checked"] == 5
    assert res["max_gauge_defect"] < 1e-4


def test_holonomy_study_writes_its_record_before_refusing(tmp_path, monkeypatch):
    real = ho.holonomy_defect
    monkeypatch.setattr(
        ho, "holonomy_defect", lambda *a: dataclasses.replace(real(*a), defect=1e-3)
    )
    cfg = small_cfg(domain_kind="annulus", r_inner=0.6, r_outer=1.2)
    with pytest.raises(ex.CheckFailure) as err:
        ex.run_holonomy_study(cfg, out=tmp_path)
    assert err.value.anchor == "holonomy-gauge-invariance"
    for name in ("holonomy_winding.csv", "holonomy_defect.csv", "holonomy.json"):
        assert (tmp_path / name).exists()
    assert json.loads((tmp_path / "holonomy.json").read_text())["results"]["max_gauge_defect"] == 1e-3


def test_stationary_phase_study(tmp_path):
    res = ex.run_stationary_phase(small_cfg(), out=tmp_path)
    assert 0.8 <= res["slope_integral"] <= 1.2
    rows = (tmp_path / "stationary_phase.csv").read_text().splitlines()
    assert rows[0].split(",")[:3] == ["h", "delta", "integral_re"]


def test_stationary_phase_study_ignores_roundoff_in_diff_r(tmp_path, monkeypatch):
    """The study's critical point, Hessian and psi(z_hat) come from the
    phase object, so a last-bit change in the radial derivative leaves its
    CSV byte-identical."""
    ex.run_stationary_phase(ex.ExperimentConfig(), out=tmp_path / "a")
    diff_r = geo.PolarGrid.diff_r
    monkeypatch.setattr(
        geo.PolarGrid, "diff_r", lambda self, *a, **k: diff_r(self, *a, **k) * (1 + 4.4e-16)
    )
    ex.run_stationary_phase(ex.ExperimentConfig(), out=tmp_path / "b")
    csv = "stationary_phase.csv"
    assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


def test_check_failure_carries_anchor():
    with pytest.raises(ex.CheckFailure) as err:
        raise ex.CheckFailure("winding-integrality", "demo")
    assert err.value.anchor == "winding-integrality"
    assert "winding-integrality" in str(err.value)


# -- CLI ------------------------------------------------------------------------


def test_cli_forward_and_distance(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_r": 48, "n_theta": 64, "order": 4}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["forward", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main([
        "forward", "--config", str(cfg_path), "--out", str(out_b), "--t", "0.2", "--order", "4",
    ]) == 0
    assert cli.main([
        "distance", str(out_a / "dtn.csv"), str(out_b / "dtn.csv"), "--out", str(tmp_path),
    ]) == 0
    result = json.loads((tmp_path / "distance.json").read_text())
    assert result["truncation"] == 4
    assert result["sup_inf"] <= result["surrogate"] + 1e-9
    assert result["surrogate"] > 0


def test_cli_holonomy(tmp_path):
    g = geo.PolarGrid(geo.annulus(0.5, 1.5), 48, 64)
    Z = g.nodes
    zeros = np.zeros(g.shape)
    X1 = geo.OneForm(g, 2 / (2j * Z), -2 / (2j * np.conj(Z)))
    X2 = geo.OneForm(g, zeros, zeros)
    pa, pb = tmp_path / "a.field", tmp_path / "b.field"
    geo.save_snapshot(pa, X1)
    geo.save_snapshot(pb, X2)
    code = cli.main([
        "holonomy", str(pa), str(pb), "--circle", "1.0", "--out", str(tmp_path),
    ])
    assert code == 0
    rep = json.loads((tmp_path / "holonomy_report.json").read_text())
    assert rep["nearest_k"] == 2
    assert rep["defect"] < 1e-5


def test_cli_study_subcommand(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_r": 48, "n_theta": 64, "order": 5,
        "t_list": [0.05, 0.1, 0.2], "h_list": [0.2, 0.1, 0.05],
    }))
    code = cli.main(["gauge-check", "--config", str(cfg_path), "--out", str(tmp_path / "s")])
    assert code == 0
    assert (tmp_path / "s" / "gauge_check.json").exists()

    # a study that returns its records prints their count
    capsys.readouterr()
    code = cli.main(["stability-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "w")])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"records": 3}

    # a failed study check exits 1 and names its anchor on stderr
    real = ho.holonomy_defect
    monkeypatch.setattr(
        ho, "holonomy_defect", lambda *a: dataclasses.replace(real(*a), defect=1e-3)
    )
    cfg_path.write_text(json.dumps({
        "n_r": 48, "n_theta": 64, "order": 5,
        "domain": {"kind": "annulus", "r_inner": 0.6, "r_outer": 1.2},
    }))
    code = cli.main(["holonomy-study", "--config", str(cfg_path), "--out", str(tmp_path / "h")])
    assert code == 1
    assert capsys.readouterr().err.startswith("CHECK FAILED [holonomy-gauge-invariance]")


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["forward", "--order", "-1"], None, "order must be non-negative"),
        (["forward", "--order", "100"], None, "order exceeds the sample bandwidth"),
        (["gauge-check"], {"order": -1}, "order must be non-negative"),
        (["gauge-check"], "missing", "No such file or directory"),
        (
            ["boundary-defect"],
            {"domain": {"kind": "annulus", "r_inner": 0.5}},
            "boundary-defect needs a disk domain",
        ),
        (["stability-sweep"], {"delta_list": [0.2, 0.1, 0.05]}, "unknown config key(s): delta_list"),
    ],
)
def test_cli_refuses_bad_input_in_one_line(tmp_path, args, config, message):
    """A refused input ends with exit code 2 and one stderr line, not a
    traceback, and leaves no output directory behind."""
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        if config != "missing":
            cfg_path.write_text(json.dumps(config))
        args = args + ["--config", str(cfg_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dbarlab.cli", *args, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("dbarlab: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"h_list": 0.1}, "h_list must be a list of finite reals"),
        ({"order": 8.5}, "order must be an integer"),
        ({"n_r": 96.5}, "n_r must be an integer"),
        ({"t_list": ["a"]}, "t_list must be a list of finite reals"),
        ({"amplitude": "x"}, "amplitude must be a finite real"),
        ({"order": True}, "order must be an integer"),
        ({"domain": 5}, "domain must be an object"),
    ],
    ids=["h_list", "order-real", "n_r", "t_list", "amplitude", "order-bool", "domain"],
)
def test_config_refuses_wrong_json_type(tmp_path, capsys, config, message):
    """A config value of the wrong JSON type is refused by name, and the CLI
    reports it in one line with exit code 2 and writes nothing."""
    with pytest.raises(ValueError, match=message):
        ex.ExperimentConfig.from_dict(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for cmd in ("forward", "gauge-check"):
        code = cli.main([cmd, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("dbarlab: ") and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"r_outer": 2.0, "domain": {"kind": "disk"}},
        {"domain_kind": "annulus", "r_inner": 0.5, "domain": {"r_outer": 1.0}},
    ],
)
def test_config_refuses_domain_given_twice(config):
    """A nested domain object and the flat domain keys together are
    refused: neither may silently override the other."""
    with pytest.raises(ValueError, match="domain given twice"):
        ex.ExperimentConfig.from_dict(config)


def test_outputs_do_not_depend_on_blas_thread_variables(tmp_path):
    """The lab leaves the BLAS thread count to the environment, so the same
    config must give the same numbers with the thread variables unset and
    at one thread: a byte-identical sweep CSV and equal manifest results."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    env = {k: v for k, v in os.environ.items() if k not in ex._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    runs = {"unset": env, "one": dict(env, **{k: "1" for k in ex._BLAS_THREAD_VARS})}
    for label, run_env in runs.items():
        for cmd in ("stability-sweep", "gauge-check"):
            proc = subprocess.run(
                [sys.executable, "-m", "dbarlab.cli", cmd,
                 "--config", str(cfg_path), "--out", str(tmp_path / label)],
                capture_output=True, text=True, env=run_env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
    unset, one = tmp_path / "unset", tmp_path / "one"
    csv = "stability_sweep.csv"
    assert (unset / csv).read_bytes() == (one / csv).read_bytes()
    for name in ("stability_sweep.json", "gauge_check.json"):
        results = [json.loads((d / name).read_text())["results"] for d in (unset, one)]
        assert results[0] == results[1]


def test_cli_import_leaves_heavy_scipy_unloaded():
    """Every lab process imports the CLI.  The lab runs on numpy alone, so
    the import must load no scipy module at all: `scipy.linalg` alone
    costs about 0.2 s and a second OpenBLAS build, `scipy.interpolate`
    about 0.3 s."""
    code = "import sys, dbarlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_zero_gauge_gives_zero_distance():
    cfg = small_cfg()
    g = cfg.grid()
    fam = ex.default_potentials(cfg, g)
    pot, _ = fam.reduction(0.0)
    gauged = fw.gauge_transform(pot, geo.ScalarField(g, np.zeros(g.shape)))
    from dbarlab import metrics as me
    d1 = fw.dtn(pot, cfg.order)
    d2 = fw.dtn(gauged, cfg.order)
    assert me.ensemble_distance(d1, d2) == 0.0


def test_cli_holonomy_loop_file(tmp_path):
    g = geo.PolarGrid(geo.annulus(0.5, 1.5), 48, 64)
    Z = g.nodes
    zeros = np.zeros(g.shape)
    X1 = geo.OneForm(g, 1 / (2j * Z), -1 / (2j * np.conj(Z)))
    X2 = geo.OneForm(g, zeros, zeros)
    pa, pb = tmp_path / "a.field", tmp_path / "b.field"
    geo.save_snapshot(pa, X1)
    geo.save_snapshot(pb, X2)
    t = np.linspace(0, 2 * np.pi, 513)
    pts = 1.1 * np.exp(1j * t)
    loop_path = tmp_path / "loop.txt"
    np.savetxt(loop_path, np.column_stack([pts.real, pts.imag]))
    code = cli.main([
        "holonomy", str(pa), str(pb), "--loop-file", str(loop_path), "--out", str(tmp_path),
    ])
    assert code == 0
    rep = json.loads((tmp_path / "holonomy_report.json").read_text())
    assert rep["nearest_k"] == 1


@pytest.mark.parametrize(
    "module",
    ["cauchy", "cli", "dirac", "experiments", "forward", "geometry", "holonomy", "metrics", "phases"],
)
def test_public_names_exist(module):
    mod = importlib.import_module(f"dbarlab.{module}")
    names = getattr(mod, "__all__", ())
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []
