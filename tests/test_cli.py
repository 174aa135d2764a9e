import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import weyllab
from weyllab.cli import main
from weyllab.scenarios import Claim, Verdict

TORUS_CFG = {"kind": "flat_torus",
             "periods": [2 * math.pi, 2 * math.pi]}
PERT_CFG = {"kind": "perturbed_sphere", "epsilon": 0.01, "a": 0.5, "b": 1.0}


@pytest.fixture
def configs(tmp_path):
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(TORUS_CFG))
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps(PERT_CFG))
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps({"kind": "round_sphere", "n": 2}))
    # a scenario task, read through --config
    cutoff = tmp_path / "negative-cutoff.json"
    cutoff.write_text(json.dumps({"task": {"lambda_max": -0.5}}))
    paths = {"torus": str(torus), "pert": str(pert), "sphere": str(sphere),
             "negative-cutoff": str(cutoff), "dir": str(tmp_path)}
    for d in (1, 3):
        path = tmp_path / f"torus{d}.json"
        path.write_text(json.dumps({"kind": "flat_torus",
                                    "periods": [2 * math.pi] * d}))
        paths[f"torus{d}"] = str(path)
    return paths


def test_spectrum_csv(configs):
    rc = main(["--out-dir", configs["dir"], "spectrum",
               "--manifold", configs["torus"], "--lambda-max", "5"])
    assert rc == 0
    lines = open(os.path.join(configs["dir"], "spectrum.csv")).read().split("\n")
    assert lines[0].startswith("# weyllab")
    assert lines[1].startswith("# config-hash")
    assert lines[2] == "lambda,multiplicity,m,k"
    assert lines[3].startswith("0.0,1")


def test_count_and_remainder_fit(configs):
    rc = main(["--out-dir", configs["dir"], "count",
               "--manifold", configs["torus"], "--lambda-max", "60",
               "--window", "20", "50"])
    assert rc == 0
    rc = main(["--out-dir", configs["dir"], "remainder-fit",
               "--manifold", configs["torus"], "--lambda-max", "120",
               "--window", "20", "100", "--model", "power"])
    assert rc == 0
    verdict = json.load(open(os.path.join(configs["dir"],
                                          "remainder-fit.json")))
    assert verdict["gamma"] < 1.0
    assert "config_hash" in verdict["provenance"]


def test_rotation_and_classify(configs):
    rc = main(["--out-dir", configs["dir"], "rotation-number",
               "--profile", configs["pert"], "--grid", "0.2:1.4:4"])
    assert rc == 0
    rc = main(["--out-dir", configs["dir"], "classify",
               "--profile", configs["pert"], "--grid", "0.2:1.4:4",
               "--qmax", "50"])
    assert rc == 0
    body = open(os.path.join(configs["dir"], "classify.csv")).read()
    assert "periodic" in body


def test_nonperiodic_measure_and_determinism(configs):
    args = ["--out-dir", configs["dir"], "--seed", "5",
            "nonperiodic-measure", "--manifold", configs["torus"],
            "--radii", "0.02", "--samples", "2000",
            "--resolution", "const:8.0"]
    assert main(args) == 0
    first = open(os.path.join(configs["dir"],
                              "nonperiodic-measure.csv")).read()
    assert main(args) == 0
    second = open(os.path.join(configs["dir"],
                               "nonperiodic-measure.csv")).read()
    assert first == second


def _csv_rows(path) -> list:
    """The data rows of a CSV output, after its header block."""
    return [line.split(",") for line in open(path).read().split("\n")[3:-1]]


def test_round_sphere_band_measure(configs):
    # past 2 pi every orbit of the round sphere closes, so every sample of
    # the band counts: the estimate is the band's total measure
    rc = main(["--out-dir", configs["dir"], "--seed", "1",
               "nonperiodic-measure", "--manifold", configs["sphere"],
               "--band", "1.05", "1.45", "--radii", "0.05", "--resolution",
               "const:7", "--samples", "2000"])
    assert rc == 0
    (row,) = _csv_rows(os.path.join(configs["dir"],
                                    "nonperiodic-measure.csv"))
    assert row[1:3] == ["7.0", "4.946241681733313"]
    assert row[4] == ""


def test_nonloop_empty_window_is_zero(configs):
    rc = main(["--out-dir", configs["dir"], "--seed", "1", "nonloop-measure",
               "--manifold", configs["torus"], "--x", "0.3", "0.4", "--y",
               "1.0", "1.273", "--t0", "5", "--T", "1", "--radii", "0.2",
               "--samples", "2000"])
    assert rc == 0
    (row,) = _csv_rows(os.path.join(configs["dir"], "nonloop-measure.csv"))
    assert row == ["0.2", "1.0", "0.0", "0.0", "0.0", "0.0"]


def test_kernel_subcommand(configs):
    rc = main(["--out-dir", configs["dir"], "kernel",
               "--manifold", configs["torus"], "--lambda-max", "30",
               "--window", "10", "25", "--n-lambda", "4",
               "--x", "0.0", "0.0", "--y", "0.1", "0.0"])
    assert rc == 0


def test_kernel_csv_is_the_per_lambda_kernel(configs):
    # the subcommand reads the pair's terms once; its rows must be those of
    # one one-lambda projector_kernels call per lambda, byte for byte
    from weyllab.cli import _format_cell
    from weyllab.manifolds import manifold_from_config
    from weyllab.spectra import spectrum_for_manifold
    from weyllab.weyl import projector_kernels
    x, y = (0.3, 1.0), (0.9, 1.0)
    rc = main(["--out-dir", configs["dir"], "kernel",
               "--manifold", configs["pert"], "--lambda-max", "20",
               "--window", "4", "20", "--n-lambda", "17",
               "--x", *map(str, x), "--y", *map(str, y)])
    assert rc == 0
    lines = open(os.path.join(configs["dir"], "kernel.csv")).read().split("\n")
    man = manifold_from_config(PERT_CFG)
    spec = spectrum_for_manifold(man, 20.0)
    basis = spec.basis
    u1, u2 = basis.values([x[0], y[0]]).T
    angular = np.where(basis.m > 0, 2.0 * np.cos(basis.m * (x[1] - y[1])),
                       1.0)
    rows = []
    for lam in np.linspace(4.0, 20.0, 17):
        (kv,) = projector_kernels(man, x, y, [float(lam)], spec=spec)
        # the per-lambda sum written out
        assert kv.Pi == float(np.sum((u1 * u2 * angular)[basis.lam <= lam]))
        rows.append(",".join(_format_cell(v) for v in
                             (float(lam), kv.Pi, kv.comparison, kv.E0)))
    assert lines[2] == "lambda,Pi,comparison,E0"
    assert lines[3:] == rows + [""]


def test_cover_audit(configs):
    rc = main(["--out-dir", configs["dir"], "--seed", "1", "cover-audit",
               "--manifold", configs["torus"], "--r", "0.05"])
    assert rc == 0
    audit = json.load(open(os.path.join(configs["dir"],
                                        "cover-audit.json")))
    assert audit["coverage"]["pass"]


def test_cover_audit_x_flag_is_rejected(configs):
    # the cover of a fiber circle does not depend on its base point
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", configs["dir"], "cover-audit", "--manifold",
              configs["torus"], "--x", "1.2", "0.4"])
    assert exc.value.code == 2


def test_scenario_list_and_run(configs, capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "sphere-sharpness" in out
    assert "pendulum-rotation" in out
    assert "band-classification" in out
    rc = main(["--out-dir", configs["dir"], "scenario", "sphere-sharpness"])
    assert rc == 0
    verdict = json.load(open(os.path.join(
        configs["dir"], "verdict-sphere-sharpness.json")))
    assert verdict["passed"]
    assert all("tag" in c for c in verdict["claims"])


def test_verdict_json_takes_numpy_flags():
    # a claim decided by comparing numpy floats carries numpy.bool_, which
    # the json module does not serialize
    worst = np.float64(1e-9)
    verdict = Verdict("x", [Claim("worst", worst, "< 1e-6", worst < 1e-6)])
    assert json.loads(json.dumps(verdict.to_json()))["claims"][0]["passed"]


def test_config_error_exit_code(configs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for cfg, key in [
        ({"kind": "bogus"}, "bogus"),
        ({"kind": "round_sphere", "dim": 3}, "'dim'"),
        ({**TORUS_CFG, "perods": [1.0]}, "'perods'"),
        ({"kind": "perturbed_sphere", "epsilon": 0.01, "a": 0.5}, "'b'"),
        ({"kind": "product", "factors": [PERT_CFG, {**TORUS_CFG, "n": 2}]},
         "'n'"),
        ({"kind": "surface_of_revolution", "profile": "round"}, "'profile'"),
        ({"kind": "pendulum", "E": "four"}, "'E'"),
        ({"kind": "product", "factors": [PERT_CFG, {**TORUS_CFG,
                                                    "periods": 6.28}]},
         "'periods'"),
    ]:
        bad.write_text(json.dumps(cfg))
        rc = main(["--out-dir", configs["dir"], "spectrum",
                   "--manifold", str(bad), "--lambda-max", "5"])
        err = capsys.readouterr().err
        assert rc == 3, cfg
        assert err.startswith("configuration error: ") and key in err, err


@pytest.mark.parametrize("argv", [
    ["torus", "nonperiodic-measure", "--samples", "10"],
    ["torus", "nonperiodic-measure", "--band", "0.1", "0.2"],
    ["torus", "cover-audit", "--tau", "5", "--r", "0.01"],
    ["torus", "recurrence-check", "--x", "0", "0", "--R", "0.5",
     "--R0", "0.2"],
    ["torus1", "recurrence-check", "--x", "0.3", "0.2"],
    ["torus3", "recurrence-check", "--x", "0.3", "0.2"],
    ["torus1", "nonloop-measure", "--x", "0.3", "0.2", "--y", "1", "1"],
    ["torus3", "nonloop-measure", "--x", "0.3", "0.2", "--y", "1", "1"],
    ["torus1", "nonperiodic-measure", "--radii", "0.05"],
    ["torus3", "nonperiodic-measure", "--radii", "0.05"],
    # t0 > T: the window is empty, but the torus is still refused
    ["torus3", "nonperiodic-measure", "--radii", "0.05", "--t0", "20",
     "--resolution", "const:5"],
    # T = 1 leaves every window empty, but the surface is still refused
    ["pert", "recurrence-check", "--x", "0.3", "0.2", "--resolution",
     "const:1"],
    ["pert", "localized-count", "--lambda-max", "12", "--window", "10",
     "11.5", "--band", "1.45", "1.05"],
    ["pert", "nonperiodic-measure", "--band", "1.45", "1.05"],
    # a window inside the cutoff, so that the chart check decides
    ["pert", "kernel", "--lambda-max", "12", "--window", "5", "10", "--x",
     "2.0", "1.0", "--y", "2.0", "1.0"],
    ["torus", "recurrence-check", "--x", "0.3", "0.4", "--r", "-0.5",
     "--resolution", "const:8"],
    ["torus", "nonperiodic-measure", "--radii", "-0.05"],
    ["torus", "nonloop-measure", "--x", "0.3", "0.4", "--y", "1.0", "1.273",
     "--radii", "-0.01"],
    ["torus", "spectrum", "--lambda-max", "-1"],
    ["torus", "nonperiodic-measure", "--radii", "0"],
    ["torus", "recurrence-check", "--x", "0.3", "0.4", "--r", "0"],
    ["torus", "cover-audit", "--r", "0"],
    ["torus", "cover-audit", "--r", "-0.01"],
    ["pert", "spectrum", "--lambda-max", "0"],
    ["pert", "spectrum", "--lambda-max", "-1"],
    ["torus", "smooth-compare", "--lambda-max", "100", "--n-lambda", "0"],
    ["torus", "kernel", "--lambda-max", "1", "--window", "10", "50",
     "--n-lambda", "2", "--x", "0", "0", "--y", "0.1", "0"],
    ["sphere", "kernel", "--lambda-max", "50", "--x", "2.0", "1.0", "--y",
     "0.5", "1.0"],
    ["torus", "count", "--lambda-max", "100", "--window", "50", "20"],
    ["pert", "localized-count", "--lambda-max", "12", "--window", "11.5",
     "10", "--band", "1.05", "1.45"],
    # the sphere spectrum to lambda_max + 1 = 0.5 exists; the count's
    # window [20, -0.5] does not
    ["negative-cutoff", "scenario", "sphere-sharpness"],
], ids=["too-few-samples", "band-on-a-torus", "tube-past-injectivity",
        "R-above-R0", "recurrence-on-a-1-torus", "recurrence-on-a-3-torus",
        "nonloop-on-a-1-torus", "nonloop-on-a-3-torus",
        "nonperiodic-on-a-1-torus", "nonperiodic-on-a-3-torus",
        "empty-window-on-a-3-torus", "recurrence-on-a-surface-empty-window",
        "localized-count-reversed-band", "nonperiodic-reversed-band",
        "kernel-point-off-the-chart", "recurrence-negative-r",
        "nonperiodic-negative-radius", "nonloop-negative-radius",
        "torus-spectrum-negative-lambda-max", "nonperiodic-zero-radius",
        "recurrence-zero-r", "cover-zero-r", "cover-negative-r",
        "surface-spectrum-zero-lambda-max",
        "surface-spectrum-negative-lambda-max", "smooth-compare-no-lambdas",
        "kernel-window-past-the-cutoff", "sphere-kernel-point-off-the-chart",
        "count-reversed-window", "localized-count-reversed-window",
        "scenario-negative-lambda-max"])
def test_out_of_domain_arguments_exit_code(configs, capsys, argv):
    flag = "--config" if argv[1] == "scenario" else "--manifold"
    rc = main(["--out-dir", configs["dir"], argv[1],
               flag, configs[argv[0]]] + argv[2:])
    assert rc == 3
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_ci_mode_requires_seed(configs):
    rc = main(["--ci", "--out-dir", configs["dir"], "nonperiodic-measure",
               "--manifold", configs["torus"], "--radii", "0.02",
               "--samples", "2000"])
    assert rc == 3


def test_spectrum_json_format(configs):
    rc = main(["--out-dir", configs["dir"], "spectrum",
               "--manifold", configs["torus"], "--lambda-max", "5",
               "--format", "json"])
    assert rc == 0
    payload = json.load(open(os.path.join(configs["dir"], "spectrum.json")))
    assert payload["entries"][0] == {"lambda": 0.0, "multiplicity": 1}


def test_scenario_experiment_config(configs, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"task": {"lambda_max": 120.0}}))
    rc = main(["--out-dir", configs["dir"], "scenario", "sphere-sharpness",
               "--config", str(cfg)])
    assert rc == 0
    verdict = json.load(open(os.path.join(
        configs["dir"], "verdict-sphere-sharpness.json")))
    assert verdict["passed"]


def test_experiment_config_rejects_unknown_fields(tmp_path, configs):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"bogus_field": 1}))
    rc = main(["--out-dir", configs["dir"], "scenario", "sphere-sharpness",
               "--config", str(cfg)])
    assert rc == 3


@pytest.mark.parametrize("block", ["manifold", "output", "seeds",
                                   "tolerances"])
def test_experiment_config_rejects_unread_blocks(tmp_path, configs, block):
    # nothing reads these blocks, so a run must not pass with them ignored
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({block: {"kind": "flat_torus"}}))
    rc = main(["--out-dir", configs["dir"], "scenario", "sphere-sharpness",
               "--config", str(cfg)])
    assert rc == 3


@pytest.mark.parametrize("argv, task, key", [
    (["scenario", "sphere-sharpness"], {"lambda_maxx": 120}, "'lambda_maxx'"),
    (["scenario", "sphere-sharpness"], [1], "task"),
    # the derivative in epsilon is taken at epsilon = 0
    (["scenario", "perturbation-derivative"], {"epsilon": 0.02},
     "'epsilon'"),
    (["--seed", "7", "scenario", "sphere-sharpness"], {}, "'seed'"),
    (["--seed", "7", "scenario", "measure-oracle"], {"seed": 5}, "seed"),
    (["scenario", "all"], {"lambda_max": 100, "lambda_maxx": 120},
     "'lambda_maxx'"),
    (["scenario", "no-such-scenario"], {}, "'no-such-scenario'"),
    # a value that is not a number where the default is one
    (["scenario", "sphere-sharpness"], {"lambda_max": "120"},
     "'lambda_max'"),
    (["scenario", "nonperiodic-trend"], {"seed": True}, "'seed'"),
    (["scenario", "all"], {"samples": [1000]}, "'samples'"),
], ids=["misspelled-key", "task-not-an-object", "undeclared-key",
        "seedless-scenario", "conflicting-seeds", "battery-undeclared-key",
        "unknown-scenario", "string-for-a-number", "boolean-for-a-number",
        "battery-array-for-a-number"])
def test_scenario_parameter_errors_exit_code(tmp_path, capsys, argv, task,
                                             key):
    # a key the scenario does not declare fails before anything runs
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"task": task}))
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out)] + argv + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("configuration error: ") and key in err, err
    assert not out.exists()


def test_seed_reaches_a_seeded_scenario(tmp_path):
    # measure-oracle draws repetition rep from seed + rep, base 1000
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"task": {"samples": 1000, "repetitions": 2}}))

    def worst_deviation(name, *seed):
        out = tmp_path / name
        rc = main(["--out-dir", str(out), *seed, "scenario", "measure-oracle",
                   "--config", str(cfg)])
        assert rc == 2      # 2 repetitions cannot cover 99
        verdict = json.load(open(out / "verdict-measure-oracle.json"))
        return verdict["claims"][1]["measured"]

    default = worst_deviation("default")
    assert worst_deviation("base", "--seed", "1000") == default
    assert worst_deviation("other", "--seed", "1") != default


def test_smooth_compare_subcommand(configs):
    rc = main(["--out-dir", configs["dir"], "--seed", "2", "smooth-compare",
               "--manifold", configs["torus"], "--lambda-max", "460",
               "--window", "20", "35", "--n-lambda", "3"])
    assert rc == 0
    lines = open(os.path.join(configs["dir"],
                              "smooth-compare.csv")).read().splitlines()
    assert lines[2] == "lambda,table,direct,difference"
    for row in lines[3:]:
        assert float(row.split(",")[3]) < 1e-3


def test_scenario_config_malformed_json_exit_code(tmp_path, configs):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"task": {"lambda_max": ')
    rc = main(["--out-dir", configs["dir"], "scenario", "sphere-sharpness",
               "--config", str(cfg)])
    assert rc == 3


def test_scenario_config_missing_file_exit_code(tmp_path, configs):
    rc = main(["--out-dir", configs["dir"], "scenario", "sphere-sharpness",
               "--config", str(tmp_path / "missing.json")])
    assert rc == 3


def test_threads_flag_is_rejected(configs):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "--out-dir", configs["dir"], "scenario",
              "list"])
    assert exc.value.code == 2


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats costs a fresh process about a third of a second; nothing
    # in the package imports it (the Halton sampler is numpy's)
    src = os.path.dirname(os.path.dirname(weyllab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, weyllab.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_pipelines_leave_scipy_stats_and_integrate_unloaded():
    # the near-periodic benchmark's dynamics (tori, a band estimate, a
    # torus estimate) and the spectral benchmark's kernel, in a fresh
    # process: the script exits 1 if either scipy subpackage was imported
    src = os.path.dirname(os.path.dirname(weyllab.__file__))
    script = os.path.join(os.path.dirname(__file__), "scipy_footprint.py")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
