"""Serialization round trips and command-line workflows."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topokit
from topokit import cli, io, presets, reparam
from topokit.fields import DensityField
from topokit.optimizers import Trajectory


def test_density_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, 24)
    path = tmp_path / "field.csv"
    io.write_field_csv(path, values, 6, 4)
    back = io.read_field_csv(path)
    assert (back.nx, back.ny) == (6, 4)
    assert np.array_equal(back.values, values)


def test_csv_layout_is_row_major_top_first(tmp_path):
    values = np.arange(6, dtype=float) / 10.0
    path = tmp_path / "field.csv"
    io.write_field_csv(path, values, 3, 2)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert [float(v) for v in lines[0].split(",")] == [0.0, 0.1, 0.2]


def test_pgm_roundtrip_and_header(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, 32)
    path = tmp_path / "field.pgm"
    io.write_pgm(path, values, 8, 4)
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 4\n255\n")
    image = io.read_pgm(path)
    assert image.shape == (4, 8)
    assert np.abs(image.ravel() - values).max() <= 0.5 / 255 + 1e-12


def test_trajectory_csv_roundtrip(tmp_path):
    traj = Trajectory()
    rng = np.random.default_rng(2)
    for i in range(5):
        traj.record(10.0 - i, 0.4, 0.0, rng.standard_normal(3), np.zeros(2))
    path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(path, traj)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["iteration"]) for row in rows] == [0, 1, 2, 3, 4]
    assert [float(row["objective"]) for row in rows] == traj.objective
    assert np.isnan(float(rows[0]["grad_angle_rad"]))


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_optimize_twobar_manifest(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--preset", "twobar-baseline", "--out", str(out)) == 0
    manifest = io.read_manifest(out / "manifest.json")
    final = manifest["outcome"]["final_point"]
    assert abs(final[0] - 0.0) <= 0.01 and abs(final[1] - 1.0) <= 0.01
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.json").exists()


def test_cli_invalid_problem_lists_catalog(tmp_path, capsys):
    cfg = {
        "problem": {"name": "bogus"},
        "reparam": {"kind": "direct"},
        "optimizer": {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("optimize", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code != 0
    err = capsys.readouterr().err
    assert "michell" in err and "twobar" in err


@pytest.mark.parametrize(
    "optimizer",
    [
        {"kind": "adam", "learning_rate": -1},
        {"kind": "mma", "move_limit": 0, "asyinit": 0.2},
        {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2, "asy_incr": 1.5},
        {"kind": "adam"},
    ],
    ids=["adam-negative-rate", "mma-zero-move", "mma-unknown-key", "adam-missing-rate"],
)
def test_cli_optimize_rejects_bad_optimizer_config_before_pretraining(
    tmp_path, capsys, monkeypatch, optimizer
):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was validated")

    monkeypatch.setattr(reparam, "pretrain_uniform", no_pretraining)
    cfg = {
        "problem": {"name": "michell", "nx": 32, "ny": 16, "v0": 0.6},
        "reparam": {"kind": "mlp"},
        "optimizer": optimizer,
        "budget": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("reparam", {"kind": "mlp", "widht": 50}, "widht"),
        ("problem", {"name": "michell", "nx": 32, "ny": 16, "volume": 0.9}, "volume"),
        ("problem", {"name": "twobar", "sigma_max": 2}, "sigma_max"),
    ],
    ids=["mlp-width-typo", "catalog-volume", "twobar-sigma-max"],
)
def test_cli_optimize_rejects_unknown_config_keys_before_pretraining(
    tmp_path, capsys, monkeypatch, section, value, key
):
    # Each of these used to run silently with the default the key was
    # meant to override.
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was validated")

    monkeypatch.setattr(reparam, "pretrain_uniform", no_pretraining)
    cfg = {
        "problem": {"name": "michell", "nx": 32, "ny": 16, "v0": 0.6},
        "reparam": {"kind": "mlp"},
        "optimizer": {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2},
        "budget": 1,
    }
    cfg[section] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


def test_every_shipped_config_has_only_known_keys():
    for name in presets.PRESETS:
        cfg = presets.preset_config(name)
        presets.problem_from_config(cfg["problem"])
        presets.spec_from_config(cfg["reparam"])
        presets.optimizer_from_config(cfg["optimizer"])


def test_cli_optimize_rejects_unknown_top_level_key_before_pretraining(
    tmp_path, capsys, monkeypatch
):
    # A misspelt budget used to run the default 100 evaluations and exit 0.
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was validated")

    monkeypatch.setattr(reparam, "pretrain_uniform", no_pretraining)
    cfg = {
        "problem": {"name": "michell", "nx": 32, "ny": 16, "v0": 0.6},
        "reparam": {"kind": "mlp"},
        "optimizer": {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2},
        "budgt": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'budgt'" in err
    assert not out.exists()


def test_every_shipped_preset_has_only_known_top_level_keys():
    for name in presets.PRESETS:
        presets._reject_unknown_keys(presets.preset_config(name), cli._OPTIMIZE_KEYS, name)


def test_cli_optimize_grid_writes_artifacts(tmp_path):
    cfg = {
        "problem": {"name": "mbb", "nx": 16, "ny": 8, "v0": 0.5},
        "reparam": {"kind": "direct"},
        "optimizer": {"kind": "mma", "move_limit": 0.2, "asyinit": 0.5},
        "budget": 10,
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out)) == 0
    for name in (
        "manifest.json",
        "trajectory.csv",
        "final_design.csv",
        "final_design.pgm",
        "best_design.csv",
        "thresholded.csv",
        "thresholded.pgm",
        "metrics.json",
        "theta.json",
        "theta.bin",
    ):
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["thresholded_objective_rescaled"] == pytest.approx(
        metrics["thresholded_objective"] * metrics["thresholded_volume"] / 0.5
    )


def test_cli_runs_with_identical_configs_are_bit_identical(tmp_path):
    cfg = {
        "problem": {"name": "mbb", "nx": 16, "ny": 8, "v0": 0.5},
        "reparam": {"kind": "siren", "width": 6, "hidden_layers": 2},
        "optimizer": {"kind": "adam", "learning_rate": 0.02},
        "budget": 8,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out1)) == 0
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out2)) == 0
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_cli_landscape_flat_for_identical_references(tmp_path):
    ref = tmp_path / "ref.csv"
    io.write_field_csv(ref, np.full(128, 0.5), 16, 8)
    cfg = {
        "problem": {"name": "mbb", "nx": 16, "ny": 8, "v0": 0.5},
        "reparams": [{"kind": "direct"}],
        "rho_ref_1": str(ref),
        "rho_ref_2": str(ref),
        "n_alpha": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "land"
    assert run_cli("landscape", "--config", str(cfg_path), "--out", str(out)) == 0
    rows = (out / "landscape_direct.csv").read_text().strip().splitlines()[1:]
    objectives = [float(r.split(",")[1]) for r in rows]
    assert len(objectives) == 7
    assert max(objectives) - min(objectives) < 1e-10 * max(objectives)


def test_cli_landscape_missing_reference_fails(tmp_path):
    cfg = {
        "problem": {"name": "mbb", "nx": 16, "ny": 8, "v0": 0.5},
        "rho_ref_1": "uniform",
        "rho_ref_2": str(tmp_path / "missing.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("landscape", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2


def test_cli_trajectory_metrics(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--preset", "twobar-siren-fast", "--out", str(out)) == 0
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21  # budget 20 + initial evaluation
    assert {"grad_norm", "grad_angle_rad"} <= set(rows[0])
    assert all(float(row["grad_norm"]) > 0.0 for row in rows)


def test_cli_profile_single_run_is_unity(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--preset", "twobar-baseline", "--out", str(out)) == 0
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", str(out), "--metric", "best_objective", "--out", str(prof)) == 0
    lines = (prof / "profile.csv").read_text().strip().splitlines()
    values = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(v == 1.0 for v in values)


def test_cli_search_single_trial_grid(tmp_path):
    cfg = {
        "base": {
            "problem": {"name": "twobar"},
            "reparam": {"kind": "direct"},
            "optimizer": {"kind": "mma", "move_limit": 2.0, "asyinit": 0.1, "c_const": 3.0},
        },
        "search": {"mode": "grid", "parameters": {"move_limit": [2.0]}, "budget": 40},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "search"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out)) == 0
    best = json.loads((out / "best.json").read_text())
    assert best == {"move_limit": 2.0}


def test_cli_search_skips_failing_trial(tmp_path):
    cfg = {
        "base": {
            "problem": {"name": "twobar"},
            "reparam": {"kind": "direct"},
            "optimizer": {"kind": "mma", "move_limit": 2.0, "asyinit": 0.1, "c_const": 3.0},
        },
        # move_limit <= 0 is rejected by the optimizer config: that trial fails
        "search": {"mode": "grid", "parameters": {"move_limit": [-1.0, 2.0]}, "budget": 30},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "search"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out)) == 0
    best = json.loads((out / "best.json").read_text())
    assert best == {"move_limit": 2.0}
    with open(out / "trials.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    status = {row[header.index("move_limit")]: row[header.index("status")] for row in rows}
    assert status["-1.0"] == (
        "failed: ValueError: move limit and asymptote initialization must be positive"
    )
    assert status["2.0"] == "ok"


def _rejected(tmp_path, capsys, command, cfg, key):
    """Run ``command`` on ``cfg``; it must exit 2 naming ``key`` and write nothing."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


def test_cli_search_rejects_unknown_config_keys_before_any_run(tmp_path, capsys, monkeypatch):
    # "trails" and "budgt" used to run the default 10 trials and exit 0.
    def no_run(*args, **kwargs):
        raise AssertionError("a trial ran before the config was validated")

    monkeypatch.setattr(cli, "run_optimization", no_run)
    base = {
        "problem": {"name": "twobar"},
        "reparam": {"kind": "direct"},
        "optimizer": {"kind": "mma", "move_limit": 2.0, "asyinit": 0.1},
    }
    search = {"mode": "random", "parameters": {"move_limit": {"low": 0.5, "high": 2.0}}}
    for cfg, key in (
        ({"base": base, "search": search, "sed": 1}, "sed"),
        ({"base": {**base, "budgt": 1}, "search": search}, "budgt"),
        ({"base": base, "search": {**search, "trails": 2}}, "trails"),
        ({"base": {**base, "reparam": {"kind": "siren", "omega": 5}}, "search": search}, "omega"),
    ):
        _rejected(tmp_path, capsys, "search", cfg, key)


def test_cli_landscape_rejects_unknown_config_keys_before_any_fit(tmp_path, capsys, monkeypatch):
    # A misspelt fit option used to die in a TypeError traceback, and a
    # misspelt n_alpha was ignored.
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the config was validated")

    monkeypatch.setattr(reparam, "fit_to_density", no_fit)
    cfg = {
        "problem": {"name": "mbb", "nx": 16, "ny": 8, "v0": 0.5},
        "reparams": [{"kind": "mlp", "width": 4, "hidden_layers": 1}],
        "rho_ref_1": "uniform",
        "rho_ref_2": {"random_seed": 0},
    }
    for extra, key in (
        ({"fit": {"iteraton_cap": 5}}, "iteraton_cap"),
        ({"nalpha": 3}, "nalpha"),
        ({"reparams": [{"kind": "mlp"}, {"kind": "siren", "widht": 4}]}, "widht"),
    ):
        _rejected(tmp_path, capsys, "landscape", {**cfg, **extra}, key)


def test_cli_expressivity_rejects_unknown_config_keys_before_any_fit(
    tmp_path, capsys, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the config was validated")

    monkeypatch.setattr(reparam, "fit_to_density", no_fit)
    target = tmp_path / "target.csv"
    io.write_field_csv(target, np.full(128, 0.5), 16, 8)
    cfg = {"targets": [str(target)], "architectures": [{"kind": "mlp", "width": 4}]}
    for extra, key in (
        ({"repeat": 2}, "repeat"),
        ({"fit": {"learning_rte": 0.1}}, "learning_rte"),
        ({"architectures": [{"kind": "mlp", "widht": 4}]}, "widht"),
    ):
        _rejected(tmp_path, capsys, "expressivity", {**cfg, **extra}, key)


def test_cli_optimize_rejects_volume_target_outside_unit_interval_before_pretraining(
    tmp_path, capsys, monkeypatch
):
    # 1.5 and -0.2 used to run the whole budget and fail only when
    # thresholding, without a manifest; 0 divided by zero in the set-up.
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was validated")

    monkeypatch.setattr(reparam, "pretrain_uniform", no_pretraining)
    for v0 in (1.5, -0.2, 0.0):
        cfg = {
            "problem": {"name": "michell", "nx": 16, "ny": 8, "v0": v0},
            "reparam": {"kind": "mlp"},
            "optimizer": {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2},
            "budget": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: volume target must lie in (0, 1]\n"
        assert not out.exists()


_TWOBAR_SEARCH_BASE = {
    "problem": {"name": "twobar"},
    "reparam": {"kind": "direct"},
    "optimizer": {"kind": "mma", "move_limit": 2.0, "asyinit": 0.1},
}


@pytest.mark.parametrize(
    "search, key",
    [
        ({"mode": "random", "trials": 2}, "parameters"),
        ({"mode": "random", "parameters": {"move_limit": {"lo": 0.5, "high": 2.0}}}, "lo"),
        ({"mode": "random", "parameters": {"move_limit": {"low": 0.5}}}, "high"),
        ({"mode": "random", "parameters": {"move_limit": {"low": "0.5", "high": 2.0}}}, "low"),
        ({"mode": "random", "parameters": {"move_limit": {"low": 2.0, "high": 2.0}}}, "low"),
        (
            {"mode": "random", "parameters": {"move_limit": {"low": 0.0, "high": 2.0, "log": True}}},
            "low",
        ),
        ({"mode": "grid", "parameters": {"move_limit": 2.0}}, "move_limit"),
        ({"mode": "grid", "parameters": {"move_limit": []}}, "move_limit"),
        ({"mode": "sweep", "parameters": {"move_limit": [2.0]}}, "sweep"),
    ],
    ids=[
        "no-parameters",
        "misspelt-low",
        "missing-high",
        "non-numeric",
        "empty-range",
        "log-at-zero",
        "grid-scalar",
        "grid-empty",
        "unknown-mode",
    ],
)
def test_cli_search_validates_ranges_before_any_trial(
    tmp_path, capsys, monkeypatch, search, key
):
    # A misspelt range key, a missing parameters section or a grid value
    # that is not a list used to die in a traceback with no manifest.
    def no_run(*args, **kwargs):
        raise AssertionError("a trial ran before the config was validated")

    monkeypatch.setattr(cli, "run_optimization", no_run)
    _rejected(tmp_path, capsys, "search", {"base": _TWOBAR_SEARCH_BASE, "search": search}, key)


def _adam_at_full_volume():
    return {
        "problem": {"name": "michell", "nx": 16, "ny": 8, "v0": 1.0},
        "reparam": {"kind": "mlp", "width": 4, "hidden_layers": 1},
        "optimizer": {"kind": "adam", "learning_rate": 0.01},
    }


def test_cli_optimize_rejects_adam_at_full_volume_before_pretraining(
    tmp_path, capsys, monkeypatch
):
    # The exact-volume projection of the Adam pipeline needs v0 < 1; v0 = 1
    # used to fail in pretraining with a traceback and exit 1.
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was validated")

    monkeypatch.setattr(reparam, "pretrain_uniform", no_pretraining)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_adam_at_full_volume(), "budget": 1}))
    out = tmp_path / "o"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: volume target must lie strictly in (0, 1) for projection\n"
    assert not out.exists()


def test_cli_optimize_accepts_mma_at_full_volume(tmp_path):
    cfg = {
        **_adam_at_full_volume(),
        "optimizer": {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2},
        "budget": 1,
        "pretrain": False,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0


def test_cli_search_rejects_adam_base_at_full_volume_before_any_trial(
    tmp_path, capsys, monkeypatch
):
    def no_run(*args, **kwargs):
        raise AssertionError("a trial ran before the config was validated")

    monkeypatch.setattr(cli, "run_optimization", no_run)
    cfg = {
        "base": _adam_at_full_volume(),
        "search": {"mode": "grid", "parameters": {"learning_rate": [0.01]}, "budget": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: volume target must lie strictly in (0, 1) for projection\n"
    assert not out.exists()


def test_csv_table_quotes_only_cells_with_commas(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[0, 0.1, "ok"], [1, float("inf"), "failed"]]
    io.write_csv_table(path, ["trial", "objective", "status"], rows)
    assert path.read_bytes() == b"trial,objective,status\n0,0.1,ok\n1,inf,failed\n"
    io.write_csv_table(path, ["trial", "status"], [[0, "failed: ValueError: need a, b"]])
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["trial", "status"], ["0", "failed: ValueError: need a, b"]]


def test_cli_threshold_command(tmp_path):
    rng = np.random.default_rng(3)
    design = tmp_path / "design.csv"
    io.write_field_csv(design, rng.uniform(0, 1, 128), 16, 8)
    out = tmp_path / "thr"
    assert (
        run_cli(
            "threshold",
            "--design",
            str(design),
            "--problem",
            "mbb",
            "--v0",
            "0.5",
            "--out",
            str(out),
        )
        == 0
    )
    result = json.loads((out / "threshold.json").read_text())
    assert result["thresholded_objective_rescaled"] == pytest.approx(
        result["thresholded_objective"] * result["thresholded_volume"] / 0.5
    )


def test_density_field_validation():
    with pytest.raises(ValueError):
        DensityField(np.array([0.5, 1.5]), 2, 1)
    with pytest.raises(ValueError):
        DensityField(np.zeros(3), 2, 2)


def test_cli_import_loads_no_scipy_signal_or_stats():
    # scipy.signal alone takes most of a second to import; the CLI must not
    # pay for it (or scipy.stats) before a command needs it. scipy.ndimage
    # costs about 70 ms and nothing needs it: the filter is its own
    # correlation.
    code = (
        "import sys, topokit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'signal'], ['scipy', 'stats'], ['scipy', 'ndimage'])))"
    )
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
