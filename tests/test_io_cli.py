"""Serialization round trips and command-line workflows."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topokit
from topokit import cli, io, presets, reparam
from topokit.optimizers import Evaluation, Trajectory
from topokit.runner import run_optimization


def test_density_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, 24)
    path = tmp_path / "field.csv"
    io.write_density_csv(path, values, 6, 4)
    back = io.read_field_csv(path)
    assert back.shape == (4, 6)
    assert np.array_equal(back.ravel(), values)


def test_csv_layout_is_row_major_top_first(tmp_path):
    values = np.arange(6, dtype=float) / 10.0
    path = tmp_path / "field.csv"
    io.write_density_csv(path, values, 3, 2)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert [float(v) for v in lines[0].split(",")] == [0.0, 0.1, 0.2]


def read_pgm(path) -> np.ndarray:
    """The image of a binary (P5) PGM file, scaled to [0, 1]."""
    data = Path(path).read_bytes()
    fields = []
    pos = 0
    # P5 header: magic, width, height, maxval, then one whitespace byte.
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while data[pos : pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1
    if fields[0] != b"P5":
        raise ValueError("not a binary PGM file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).astype(float) / maxval


def test_pgm_roundtrip_and_header(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, 32)
    path = tmp_path / "field.pgm"
    io.write_pgm(path, values, 8, 4)
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 4\n255\n")
    image = read_pgm(path)
    assert image.shape == (4, 8)
    assert np.abs(image.ravel() - values).max() <= 0.5 / 255 + 1e-12


def test_trajectory_csv_roundtrip(tmp_path):
    traj = Trajectory()
    rng = np.random.default_rng(2)
    for i in range(5):
        traj.record(Evaluation(10.0 - i, 0.4, 0.0, rng.standard_normal(3), np.zeros(2)))
    path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(path, traj)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["iteration"]) for row in rows] == [0, 1, 2, 3, 4]
    assert [float(row["objective"]) for row in rows] == traj.objective
    assert np.isnan(float(rows[0]["grad_angle_rad"]))


def repr_rows(rows):
    """Each row's floats joined by commas, one ``repr(float(v))`` at a time."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize(
    "values, nx, ny",
    [
        (np.array(SPECIAL_FLOATS + [1.0]), 4, 3),
        (np.random.default_rng(10).uniform(0.0, 1.0, 160 * 80), 160, 80),
    ],
)
def test_density_csv_bytes_are_repr_of_each_float(tmp_path, values, nx, ny):
    path = tmp_path / "field.csv"
    io.write_density_csv(path, values, nx, ny)
    assert path.read_text(encoding="utf-8") == repr_rows(values.reshape(ny, nx))


def test_trajectory_csv_bytes_are_repr_of_each_float(tmp_path):
    traj = Trajectory()
    columns = ("objective", "volume", "constraint_violation", "grad_norm", "grad_angle")
    for name in columns:
        getattr(traj, name).extend(SPECIAL_FLOATS)
    path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(path, traj)
    rows = zip(*(getattr(traj, name) for name in columns))
    expected = ",".join(io.TRAJECTORY_COLUMNS) + "\n"
    expected += "".join(f"{i}," + repr_rows([row]) for i, row in enumerate(rows))
    assert path.read_text(encoding="utf-8") == expected


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_optimize_twobar_manifest(tmp_path):
    out = tmp_path / "run"
    assert run_cli("optimize", "--preset", "twobar-baseline", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
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


def test_shipped_presets_have_distinct_run_labels():
    # profile keys its runs by label, so two presets sharing one could not
    # be profiled together.
    labels = [cli._run_label(presets.preset_config(name)) for name in presets.PRESETS]
    assert len(set(labels)) == len(labels)


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
    io.write_density_csv(ref, np.full(128, 0.5), 16, 8)
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
    assert run_cli("optimize", "--preset", "twobar-siren", "--budget", "20", "--out", str(out)) == 0
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


_NETWORK_SEARCH = {
    "base": {
        "problem": {"name": "michell", "nx": 16, "ny": 8},
        "reparam": {"kind": "mlp"},
        "optimizer": {"kind": "mma", "move_limit": 0.003, "asyinit": 0.2, "theta_bound": 2.0},
        "seed": 1,
    },
    "search": {"mode": "grid", "parameters": {"move_limit": [0.05, 0.1, 0.2]}, "budget": 3},
}


def _search_rows(out):
    with open(out / "trials.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_cli_search_pretrains_once_and_matches_single_runs(tmp_path, monkeypatch):
    calls = []
    pretrain_uniform = reparam.pretrain_uniform

    def counted(*args):
        calls.append(args)
        return pretrain_uniform(*args)

    monkeypatch.setattr(reparam, "pretrain_uniform", counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_NETWORK_SEARCH))
    out = tmp_path / "search"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out)) == 0
    assert len(calls) == 1
    outcome = json.loads((out / "manifest.json").read_text())["outcome"]

    # Each trial is the run that pretrains for itself, bit for bit.
    base = _NETWORK_SEARCH["base"]
    problem = presets.problem_from_config(base["problem"])
    spec = presets.spec_from_config(base["reparam"])
    rows = _search_rows(out)
    assert "ok" in {row["status"] for row in rows}
    for row in rows:
        optimizer = presets.optimizer_from_config({**base["optimizer"], "move_limit": float(row["move_limit"])})
        traj = run_optimization(problem, spec, optimizer, budget=3, seed=1)
        assert row["objective"] == repr(traj.best_feasible_objective)
        assert outcome["pretrain_mse"] == traj.pretrain_mse


def test_cli_search_on_the_twobar_from_theta0_matches_single_runs(tmp_path):
    base = {
        "problem": {"name": "twobar"},
        "reparam": {"kind": "siren", "omega0": 88.0},
        "optimizer": {"kind": "mma", "move_limit": 0.31, "asyinit": 0.1, "theta_bound": 3.0, "c_const": 3.0},
        "theta0": [0.1, -0.2, 0.3],
    }
    cfg = {"base": base, "search": {"mode": "grid", "parameters": {"move_limit": [0.1, 0.31]}, "budget": 20}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "search"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out)) == 0
    assert "pretrain_mse" not in json.loads((out / "manifest.json").read_text())["outcome"]
    problem = presets.problem_from_config(base["problem"])
    spec = presets.spec_from_config(base["reparam"])
    rows = _search_rows(out)
    assert [row["status"] for row in rows] == ["ok", "ok"]
    for row in rows:
        optimizer = presets.optimizer_from_config({**base["optimizer"], "move_limit": float(row["move_limit"])})
        traj = run_optimization(problem, spec, optimizer, budget=20, theta0=base["theta0"])
        assert row["objective"] == repr(traj.best_feasible_objective)


def test_cli_search_fails_every_trial_when_pretraining_fails(tmp_path, monkeypatch, capsys):
    def failing(*args):
        raise FloatingPointError("pretraining diverged")

    monkeypatch.setattr(reparam, "pretrain_uniform", failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_NETWORK_SEARCH))
    out = tmp_path / "search"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: all trials failed\n"
    rows = _search_rows(out)
    assert len(rows) == 3
    assert {row["status"] for row in rows} == {"failed: FloatingPointError: pretraining diverged"}
    outcome = json.loads((out / "manifest.json").read_text())["outcome"]
    assert outcome == {"status": "error", "error": "all trials failed"}
    assert not (out / "best.json").exists()


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
    io.write_density_csv(target, np.full(128, 0.5), 16, 8)
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
    io.write_density_csv(design, rng.uniform(0, 1, 128), 16, 8)
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


def test_cli_threshold_rejects_the_twobar(tmp_path, capsys):
    # It named keys the user never wrote: 'nx', 'ny', 'penalty' and 'v0'.
    design = tmp_path / "design.csv"
    io.write_density_csv(design, np.full(8, 0.5), 4, 2)
    out = tmp_path / "thr"
    assert run_cli("threshold", "--design", str(design), "--problem", "twobar", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: threshold needs a grid problem, not the two-bar truss\n"
    assert not out.exists()


def test_density_field_validation(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("0.5,1.5\n")
    with pytest.raises(ValueError, match="row 1: density 1.5 "):
        io.read_field_csv(path)
    path.write_text("0,0\n0\n")
    with pytest.raises(ValueError, match="row 2: 1 values, but row 1 has 2"):
        io.read_field_csv(path)
    # values within 1e-12 of [0, 1] are densities
    path.write_text("-1e-13,1.0000000000001\n")
    assert io.read_field_csv(path).tolist() == [[-1e-13, 1.0000000000001]]


#: A malformed density CSV and the row its error names (None: no row).
_BAD_CSVS = {
    "empty": (b"\n\n", None),
    "binary": (b"\xff\xfe0.5\n", None),
    "ragged": (b"0.5,0.5\n0.5\n", 2),
    "non-numeric": (b"0.5,half\n0.5,0.5\n", 1),
    "nan": (b"0.5,0.5\n0.5,nan\n", 2),
    "inf": (b"inf,0.5\n0.5,0.5\n", 1),
    "above-one": (b"0.5,0.5\n0.5,1.5\n", 2),
    "negative": (b"-0.25,0.5\n0.5,0.5\n", 1),
}


def _bad_csv_argv(command, path, tmp_path):
    if command == "threshold":
        return ["threshold", "--design", str(path), "--problem", "mbb", "--v0", "0.5"]
    if command == "landscape":
        cfg = {
            "problem": {"name": "mbb", "nx": 2, "ny": 2, "v0": 0.5},
            "reparams": [{"kind": "mlp", "width": 4, "hidden_layers": 1}],
            "rho_ref_1": str(path),
            "rho_ref_2": "uniform",
        }
    else:
        cfg = {"targets": [str(path)], "architectures": [{"kind": "mlp", "width": 4}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return [command, "--config", str(cfg_path)]


def _no_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a fit or an FE solve ran before the input was validated")

    monkeypatch.setattr(reparam, "fit_to_density", no_run)
    monkeypatch.setattr(cli, "threshold_and_rescale", no_run)


@pytest.mark.parametrize("case", sorted(_BAD_CSVS))
@pytest.mark.parametrize("command", ["threshold", "landscape", "expressivity"])
def test_cli_rejects_bad_density_csv_before_any_run(tmp_path, capsys, monkeypatch, command, case):
    # A NaN used to pass the range check and threshold exited 0; ragged and
    # empty files died in a traceback with exit 1.
    _no_run(monkeypatch)
    data, row = _BAD_CSVS[case]
    path = tmp_path / "design.csv"
    path.write_bytes(data)
    out = tmp_path / "o"
    assert run_cli(*_bad_csv_argv(command, path, tmp_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1
    if row is not None:
        assert f"row {row}:" in err
    assert not out.exists()


def test_cli_landscape_rejects_reference_on_another_grid(tmp_path, capsys, monkeypatch):
    # A 2-wide, 4-tall reference passed as the field of a 4x2 problem.
    _no_run(monkeypatch)
    ref = tmp_path / "ref.csv"
    io.write_density_csv(ref, np.full(8, 0.5), 2, 4)
    cfg = {
        "problem": {"name": "mbb", "nx": 4, "ny": 2, "v0": 0.5},
        "reparams": [{"kind": "mlp", "width": 4, "hidden_layers": 1}],
        "rho_ref_1": str(ref),
        "rho_ref_2": "uniform",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("landscape", "--config", str(cfg_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {ref}: a 2x4 design, but the problem is 4x2\n"
    assert not out.exists()


def test_cli_expressivity_rejects_targets_on_two_grids_before_any_fit(tmp_path, capsys, monkeypatch):
    # The library's check used to fire outside the parse block: traceback, exit 1.
    _no_run(monkeypatch)
    wide, tall = tmp_path / "wide.csv", tmp_path / "tall.csv"
    io.write_density_csv(wide, np.full(8, 0.5), 4, 2)
    io.write_density_csv(tall, np.full(8, 0.5), 2, 4)
    cfg = {"targets": [str(wide), str(tall)], "architectures": [{"kind": "mlp", "width": 4}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("expressivity", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tall}: a 2x4 design, but {wide} is 4x2")
    assert not out.exists()
    cfg_path.write_text(json.dumps({**cfg, "targets": []}))
    assert run_cli("expressivity", "--config", str(cfg_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: expressivity needs at least one target design\n"
    assert not out.exists()


def test_cli_import_loads_no_scipy_signal_or_stats(tmp_path):
    # scipy.signal alone takes most of a second to import; the CLI must not
    # pay for it (or scipy.stats) before a command needs it. scipy.ndimage
    # costs about 70 ms and nothing needs it: the filter is its own
    # correlation. scipy.special costs 33-91 ms for one function, the
    # logistic, which pipeline defines itself. numpy's f2py, testing, ma and
    # polynomial, which scipy's array-API layer touches, run their bodies
    # only when used, and still work when they are.
    code = (
        "import sys, topokit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'signal'], ['scipy', 'stats'], ['scipy', 'ndimage'], ['scipy', 'special']) "
        "or m in ('numpy.f2py.crackfortran', 'numpy.testing._private', 'numpy.ma.core', "
        "'numpy.polynomial.polynomial'))); "
        "import numpy; "
        "numpy.testing.assert_allclose(numpy.ma.masked_array([1.0, 2.0], mask=[0, 1]).sum(), 1.0); "
        "assert numpy.f2py.get_include()"
    )
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

    # A program that imported scipy first keeps numpy's submodules as they are.
    cfg = {
        "problem": {"name": "mbb", "nx": 8, "ny": 4, "v0": 0.5},
        "reparam": {"kind": "direct"},
        "optimizer": {"kind": "mma", "move_limit": 0.2, "asyinit": 0.5},
        "budget": 2,
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = (
        "import sys, scipy.sparse, topokit.cli; "
        "assert 'numpy.testing._private' in sys.modules; "
        "assert topokit.cli.main(['optimize', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "trajectory.csv").exists()


def test_cli_main_freezes_the_import_heap_once(tmp_path):
    # Exit-time collections skip frozen objects; importing topokit must leave
    # the collector alone, and a second main call must not freeze again.
    cfg = {
        "problem": {"name": "mbb", "nx": 8, "ny": 4, "v0": 0.5},
        "reparam": {"kind": "direct"},
        "optimizer": {"kind": "mma", "move_limit": 0.2, "asyinit": 0.5},
        "budget": 2,
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = (
        "import gc, json, sys, topokit.cli as cli; "
        "counts = [gc.isenabled(), gc.get_freeze_count()]; "
        "argv = ['optimize', '--config', sys.argv[1], '--out', sys.argv[2]]; "
        "assert cli.main(argv) == 0; counts.append(gc.get_freeze_count()); "
        "assert cli.main(argv) == 0; counts.append(gc.get_freeze_count()); "
        "print(json.dumps(counts))"
    )
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    enabled, at_import, after_first, after_second = json.loads(done.stdout.strip().splitlines()[-1])
    assert enabled and at_import == 0
    assert after_first > 1000
    assert after_second == after_first


def test_optimize_runs_leave_numpy_deferred_submodules_unexecuted(tmp_path):
    # np.unique reaches numpy.ma (np.ma.is_masked), which costs a run 1.8 MB
    # and 11 ms; every numpy submodule that topokit's import defers must
    # still be unexecuted when a run of each pipeline has finished. A
    # landscape run must also leave scipy.signal unimported (0.7-0.8 s, and
    # it executes numpy.ma and numpy.polynomial through scipy.stats).
    configs = [
        ("michell", "direct", {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2}),
        ("michell", "mlp", {"kind": "mma", "move_limit": 0.003, "asyinit": 0.2}),
        ("michell", "siren", {"kind": "adam", "learning_rate": 0.01}),
        ("mechanism", "cnn", {"kind": "mma", "move_limit": 0.003, "asyinit": 0.1}),
    ]
    runs = [
        ("optimize", {"problem": {"name": name, "nx": 16, "ny": 8}, "reparam": {"kind": kind},
                      "optimizer": optimizer, "budget": 1, "seed": 0})
        for name, kind, optimizer in configs
    ]
    runs.append(("landscape", {**_SMALL_LANDSCAPE, "reparams": [{"kind": "direct"}], "n_alpha": 5}))
    args = []
    for i, (command, cfg) in enumerate(runs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        args += [command, str(path)]
    code = (
        "import json, sys, types, topokit.cli; "
        "lazy = sorted(n for n, m in sys.modules.items() "
        "if n.startswith('numpy.') and type(m) is not types.ModuleType); "
        "codes = [topokit.cli.main([command, '--config', path, '--out', path + '.out']) "
        "for command, path in zip(sys.argv[1::2], sys.argv[2::2])]; "
        "print(json.dumps([codes, lazy, [n for n in lazy if type(sys.modules[n]) is types.ModuleType], "
        "'scipy.signal' in sys.modules]))"
    )
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    codes, lazy, executed, signal_imported = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(runs)
    assert {"numpy.ma", "numpy.testing", "numpy.f2py"} <= set(lazy)
    assert executed == []
    assert not signal_imported


_SMALL_OPTIMIZE = {
    "problem": {"name": "mbb", "nx": 8, "ny": 4, "v0": 0.5},
    "reparam": {"kind": "direct"},
    "optimizer": {"kind": "mma", "move_limit": 0.2, "asyinit": 0.5},
    "budget": 2,
}
_SMALL_LANDSCAPE = {
    "problem": {"name": "mbb", "nx": 8, "ny": 4, "v0": 0.5},
    "reparams": [{"kind": "mlp", "width": 4, "hidden_layers": 1}],
    "rho_ref_1": "uniform",
    "rho_ref_2": {"random_seed": 0},
}
_SMALL_SEARCH = {
    "base": _TWOBAR_SEARCH_BASE,
    "search": {"mode": "random", "parameters": {"move_limit": {"low": 0.5, "high": 2.0}}, "budget": 2},
}
_SMALL_EXPRESSIVITY = {"architectures": [{"kind": "mlp", "width": 4, "hidden_layers": 1}]}
_TWOBAR_DIRECT = {**_TWOBAR_SEARCH_BASE, "budget": 2}
_TWOBAR_SIREN = {
    **_TWOBAR_DIRECT,
    "reparam": {"kind": "siren", "omega0": 88.0},
    "optimizer": {"kind": "mma", "move_limit": 0.31, "asyinit": 0.1, "theta_bound": 3.0},
}

#: (command, config or None for a missing file, extra flags, text the error
#: must hold or None for the config path). Each of them used to run, create
#: the output directory or die in a traceback.
_BAD_INPUTS = {
    "optimize-snapshot-every-string": (
        "optimize", {**_SMALL_OPTIMIZE, "snapshot_every": "x"}, [], "'snapshot_every'"
    ),
    "optimize-snapshot-every-flag-negative": (
        "optimize", _SMALL_OPTIMIZE, ["--snapshot-every", "-1"], "'snapshot_every'"
    ),
    "optimize-missing-config": ("optimize", None, [], None),
    "search-missing-config": ("search", None, [], None),
    "optimize-budget-flag-negative": ("optimize", _SMALL_OPTIMIZE, ["--budget", "-1"], "'budget'"),
    "optimize-budget-float": ("optimize", {**_SMALL_OPTIMIZE, "budget": 2.5}, [], "'budget'"),
    "optimize-seed-bool": ("optimize", {**_SMALL_OPTIMIZE, "seed": True}, [], "'seed'"),
    "optimize-pretrain-string": ("optimize", {**_SMALL_OPTIMIZE, "pretrain": "false"}, [], "'pretrain'"),
    "landscape-n-alpha-1": ("landscape", {**_SMALL_LANDSCAPE, "n_alpha": 1}, [], "'n_alpha'"),
    "landscape-n-alpha-string": ("landscape", {**_SMALL_LANDSCAPE, "n_alpha": "x"}, [], "'n_alpha'"),
    "search-trials-0": (
        "search",
        {**_SMALL_SEARCH, "search": {**_SMALL_SEARCH["search"], "trials": 0}},
        [],
        "'trials'",
    ),
    "search-budget-negative": (
        "search",
        {**_SMALL_SEARCH, "search": {**_SMALL_SEARCH["search"], "budget": -1}},
        [],
        "'budget'",
    ),
    "search-pretrain-string": (
        "search",
        {**_SMALL_SEARCH, "base": {**_TWOBAR_SEARCH_BASE, "pretrain": "false"}},
        [],
        "'pretrain'",
    ),
    "search-grid-string-value": (
        "search",
        {**_SMALL_SEARCH, "search": {"mode": "grid", "parameters": {"move_limit": [2.0, "x"]}}},
        [],
        "'move_limit'",
    ),
    "expressivity-repeats-0": ("expressivity", {**_SMALL_EXPRESSIVITY, "repeats": 0}, [], "'repeats'"),
    # A bad theta0 exited 1 after the manifest was written, ran flattened or
    # died in the two-bar, or failed every search trial.
    "optimize-theta0-short": ("optimize", {**_TWOBAR_SIREN, "theta0": [0.0, 0.0]}, [], "layout needs 3"),
    "optimize-theta0-nested": ("optimize", {**_TWOBAR_DIRECT, "theta0": [[1.0, 1.0]]}, [], "layout needs 2"),
    "optimize-theta0-nested-rows": ("optimize", {**_TWOBAR_DIRECT, "theta0": [[1.0], [1.0]]}, [], "entry 0"),
    "optimize-theta0-null": ("optimize", {**_TWOBAR_DIRECT, "theta0": [1.0, None]}, [], "entry 1"),
    "optimize-theta0-bool": ("optimize", {**_TWOBAR_SIREN, "theta0": [0.0, True, -2.9]}, [], "entry 1"),
    "optimize-theta0-nan": ("optimize", {**_TWOBAR_SIREN, "theta0": [0.0, 0.0, math.nan]}, [], "entry 2"),
    "optimize-theta0-object": ("optimize", {**_TWOBAR_DIRECT, "theta0": {"areas": [1.0, 1.0]}}, [], "'theta0'"),
    "optimize-grid-theta0-short": ("optimize", {**_SMALL_OPTIMIZE, "theta0": [0.5] * 31}, [], "layout needs 32"),
    "optimize-twobar-mlp": ("optimize", {**_TWOBAR_DIRECT, "reparam": {"kind": "mlp"}}, [], "two-bar"),
    "search-theta0-short": (
        "search", {**_SMALL_SEARCH, "base": {**_TWOBAR_SEARCH_BASE, "theta0": [1.0]}}, [], "layout needs 2"
    ),
    # A config section that is not an object died in a TypeError.
    "optimize-problem-string": ("optimize", {**_SMALL_OPTIMIZE, "problem": "mbb"}, [], "problem config"),
    "optimize-reparam-list": ("optimize", {**_SMALL_OPTIMIZE, "reparam": ["direct"]}, [], "reparam config"),
    "optimize-optimizer-string": ("optimize", {**_SMALL_OPTIMIZE, "optimizer": "mma"}, [], "optimizer config"),
    "search-base-optimizer-string": (
        "search", {**_SMALL_SEARCH, "base": {**_TWOBAR_SEARCH_BASE, "optimizer": "mma"}}, [], "optimizer config"
    ),
    "landscape-fit-number": ("landscape", {**_SMALL_LANDSCAPE, "fit": 5}, [], "fit config"),
    # 2.5 and true ran a fit of 3 and 1 iterations; "5" died in a TypeError
    # after the output directory was created; lr_decay was a fit option.
    **{
        f"{command}-fit-{name}": (command, {**small, "fit": fit}, [], named)
        for command, small in (("landscape", _SMALL_LANDSCAPE), ("expressivity", _SMALL_EXPRESSIVITY))
        for name, fit, named in (
            ("cap-float", {"iteration_cap": 2.5}, "'iteration_cap'"),
            ("cap-bool", {"iteration_cap": True}, "'iteration_cap'"),
            ("cap-string", {"iteration_cap": "5"}, "'iteration_cap'"),
            ("lr-decay", {"iteration_cap": 5, "lr_decay": 0.5}, "'lr_decay'"),
        )
    },
    # The two-bar runs under MMA only: optimize exited 1 after writing its
    # manifest, and every search trial failed.
    "optimize-twobar-adam": (
        "optimize", {**_TWOBAR_DIRECT, "optimizer": {"kind": "adam", "learning_rate": 0.1}}, [], "with MMA"
    ),
    "search-twobar-adam": (
        "search",
        {
            "base": {**_TWOBAR_SEARCH_BASE, "optimizer": {"kind": "adam"}},
            "search": {"mode": "grid", "parameters": {"learning_rate": [0.1]}, "budget": 2},
        },
        [],
        "with MMA",
    ),
    # Every trial failed on the unknown kind, and search exited 1.
    "search-optimizer-kind-unknown": (
        "search", {**_SMALL_SEARCH, "base": {**_TWOBAR_SEARCH_BASE, "optimizer": {"kind": "sgd"}}}, [], "'sgd'"
    ),
    # It exited 0 after writing only a manifest.
    "landscape-reparams-empty": ("landscape", {**_SMALL_LANDSCAPE, "reparams": []}, [], "'reparams'"),
    # An unhashable kind died in a TypeError and exited 1.
    "optimize-optimizer-kind-list": (
        "optimize", {**_SMALL_OPTIMIZE, "optimizer": {**_SMALL_OPTIMIZE["optimizer"], "kind": ["mma"]}}, [],
        "optimizer kind",
    ),
    "optimize-reparam-kind-list": (
        "optimize", {**_SMALL_OPTIMIZE, "reparam": {"kind": ["mlp"]}}, [], "reparameterization kind"
    ),
    # "8" and 8.5 ran as nx = 8 and true as v0 = 1; "3" died in a TypeError;
    # a zero filter radius failed after the manifest was written.
    **{
        f"optimize-problem-{name}": (
            "optimize", {**_SMALL_OPTIMIZE, "problem": {**_SMALL_OPTIMIZE["problem"], **entry}}, [], named
        )
        for name, entry, named in (
            ("nx-string", {"nx": "8"}, "'nx'"),
            ("nx-float", {"nx": 8.5}, "'nx'"),
            ("v0-bool", {"v0": True}, "'v0'"),
            ("penalty-string", {"penalty": "3"}, "'penalty'"),
            ("filter-radius-zero", {"filter_radius": 0}, "filter radius"),
        )
    },
    # Each died in a TypeError or a ufunc error and exited 1: 2.5, true and
    # "x" after the manifest was written.
    **{
        f"optimize-reparam-{name}": ("optimize", {**_SMALL_OPTIMIZE, "reparam": reparam}, [], named)
        for name, reparam, named in (
            ("width-float", {"kind": "mlp", "width": 2.5}, "'width'"),
            ("width-string", {"kind": "mlp", "width": "20"}, "'width'"),
            ("hidden-layers-bool", {"kind": "siren", "hidden_layers": True}, "'hidden_layers'"),
            ("omega0-string", {"kind": "siren", "omega0": "x"}, "'omega0'"),
            ("upsample-string-entry", {"kind": "cnn", "upsample": [4, "x"]}, "'upsample'"),
            ("channels-float", {"kind": "cnn", "channels": 1.5}, "'channels'"),
            ("filters-number", {"kind": "cnn", "filters": 1}, "'filters'"),
        )
    },
    # true ran with a move limit of 1; "0.1" died comparing a str with a
    # float, and the message did not name the key.
    **{
        f"optimize-optimizer-{name}": ("optimize", {**_SMALL_OPTIMIZE, "optimizer": optimizer}, [], named)
        for name, optimizer, named in (
            ("move-limit-bool", {"kind": "mma", "move_limit": True, "asyinit": 0.5}, "'move_limit'"),
            ("learning-rate-string", {"kind": "adam", "learning_rate": "0.1"}, "'learning_rate'"),
        )
    },
    "expressivity-width-float": (
        "expressivity", {"architectures": [{"kind": "mlp", "width": 2.5}]}, [], "'width'"
    ),
    # An empty list exited 0 with a header-only table; "swep" was read as a
    # list of sections, and a string of targets as a list of paths.
    "expressivity-architectures-empty": ("expressivity", {"architectures": []}, [], "'architectures'"),
    "expressivity-architectures-string": ("expressivity", {"architectures": "swep"}, [], "'architectures'"),
    "expressivity-targets-string": (
        "expressivity", {**_SMALL_EXPRESSIVITY, "targets": "d.csv"}, [], "'targets'"
    ),
}


@pytest.mark.parametrize("command, cfg, flags, named", _BAD_INPUTS.values(), ids=list(_BAD_INPUTS))
def test_cli_rejects_bad_input_before_any_output(
    tmp_path, capsys, monkeypatch, command, cfg, flags, named
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the input was validated")

    monkeypatch.setattr(cli, "run_optimization", no_run)
    monkeypatch.setattr(reparam, "fit_to_density", no_run)
    cfg_path = tmp_path / "cfg.json"
    if cfg is not None:
        if command == "expressivity":
            target = tmp_path / "target.csv"
            io.write_density_csv(target, np.full(32, 0.5), 8, 4)
            cfg = {"targets": [str(target)], **cfg}
        cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg_path), *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (str(cfg_path) if named is None else named) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "in_config, flags, written",
    [
        (0, [], []),
        (1, [], [0, 1, 2, 3, 4]),
        (2, [], [0, 2, 4]),
        (0, ["--snapshot-every", "3"], [0, 3]),
        (2, ["--snapshot-every", "3"], [0, 3]),
    ],
    ids=["none", "every", "config", "flag", "flag-over-config"],
)
def test_cli_optimize_writes_snapshots_every_nth_evaluation(tmp_path, in_config, flags, written):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_SMALL_OPTIMIZE, "budget": 4, "snapshot_every": in_config}))
    out = tmp_path / "run"
    assert run_cli("optimize", "--config", str(cfg_path), *flags, "--out", str(out)) == 0
    assert sorted(path.name for path in out.glob("design_*.pgm")) == [f"design_{i:05d}.pgm" for i in written]


def test_cli_optimize_manifest_records_the_snapshot_flag(tmp_path):
    # A re-run from the manifest's config writes the same snapshots.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_SMALL_OPTIMIZE, "budget": 4, "snapshot_every": 2}))
    out = tmp_path / "run"
    assert run_cli("optimize", "--config", str(cfg_path), "--snapshot-every", "3", "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["snapshot_every"] == 3
    cfg_path.write_text(json.dumps(config))
    again = tmp_path / "again"
    assert run_cli("optimize", "--config", str(cfg_path), "--out", str(again)) == 0
    assert sorted(path.name for path in again.glob("design_*.pgm")) == ["design_00000.pgm", "design_00003.pgm"]


def test_cli_landscape_rejects_two_reparams_of_one_kind(tmp_path, capsys, monkeypatch):
    # They share landscape_mlp.csv and the manifest key: both were fitted,
    # one was written, and the run reported "wrote 1 slice(s)".
    _no_run(monkeypatch)
    reparams = [
        {"kind": "mlp", "width": 4, "hidden_layers": 1},
        {"kind": "siren", "width": 4, "hidden_layers": 1},
        {"kind": "mlp", "width": 8, "hidden_layers": 1},
    ]
    _rejected(tmp_path, capsys, "landscape", {**_SMALL_LANDSCAPE, "reparams": reparams}, "mlp")


def _profiled_run(path, problem: dict, kind: str, value: float, optimizer=None) -> str:
    """A run directory holding just what ``profile`` reads."""
    path.mkdir()
    cfg = {"problem": problem, "reparam": {"kind": kind}, "optimizer": optimizer or {"kind": "mma"}}
    io.write_manifest(path / "manifest.json", {"command": "optimize", "config": cfg})
    (path / "metrics.json").write_text(json.dumps({"best_feasible_objective": value}))
    return str(path)


def test_cli_profile_reads_one_case_per_problem(tmp_path, capsys):
    # An explicit default penalty or volume target names the same problem as
    # none; they used to be the cases mbb-8x4-vdef-p3 and mbb-8x4-v0.3-p3.0.
    runs = [
        _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4, "penalty": 3}, "direct", 1.0),
        _profiled_run(tmp_path / "b", {"name": "mbb", "nx": 8, "ny": 4, "v0": 0.3}, "mlp", 2.0),
    ]
    prof = tmp_path / "prof"
    argv = ["profile", "--runs", *runs, "--tau-max", "3", "--tau-points", "3", "--out", str(prof)]
    assert run_cli(*argv) == 0
    assert "2 solvers x 1 cases" in capsys.readouterr().out
    assert (prof / "profile.csv").read_text().splitlines() == [
        "tau,p_baseline+mma,p_mlp+mma", "1.0,1.0,0.0", "2.0,1.0,1.0", "3.0,1.0,1.0"
    ]


def test_cli_profile_names_a_run_without_optimizer_kind_as_mma(tmp_path):
    # optimize runs such a config under MMA; profile exited 2 with "error: 'kind'".
    optimizer = {"move_limit": 0.1, "asyinit": 0.2}
    run = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4}, "direct", 1.0, optimizer)
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", run, "--tau-points", "2", "--out", str(prof)) == 0
    assert (prof / "profile.csv").read_text().splitlines()[0] == "tau,p_baseline+mma"


@pytest.mark.parametrize("penalty", [3, 3.0], ids=["same-config", "int-and-float-penalty"])
def test_cli_profile_rejects_two_runs_of_one_solver_on_one_case(tmp_path, capsys, penalty):
    # The last run silently replaced the first.
    first = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4, "penalty": 3}, "mlp", 1.0)
    second = _profiled_run(
        tmp_path / "b", {"name": "mbb", "nx": 8, "ny": 4, "penalty": penalty}, "mlp", 2.0
    )
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", first, second, "--out", str(prof)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and first in err and second in err
    assert not prof.exists()


@pytest.mark.parametrize("value", [[1.0], True, "x"], ids=["list", "bool", "string"])
def test_cli_profile_rejects_a_metric_that_is_not_a_number(tmp_path, capsys, value):
    # A list died in a TypeError, true ran as 1.0 and a string exited 2
    # without naming the run.
    run = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4}, "direct", value)
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", run, "--out", str(prof)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run in err and "'best_feasible_objective'" in err
    assert not prof.exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("metrics.json", "[1]"),
        ("metrics.json", '"x"'),
        ("metrics.json", "{bad"),
        ("manifest.json", "[1]"),
    ],
    ids=["metrics-list", "metrics-string", "metrics-invalid", "manifest-list"],
)
def test_cli_profile_rejects_run_files_that_are_not_an_object(tmp_path, capsys, name, text):
    # Both lists died in an AttributeError or TypeError and exited 1; the
    # invalid file exited 2 without naming the run.
    run = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4}, "direct", 1.0)
    (Path(run) / name).write_text(text)
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", run, "--out", str(prof)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{run}: {name}" in err
    assert not prof.exists()


@pytest.mark.parametrize(
    "manifest",
    [
        {"command": "optimize"},
        {"config": ["mbb"]},
        {"config": {"optimizer": {"kind": "mma"}}},
        {"config": {"problem": {"name": "mbb", "nx": 8, "ny": 4}}},
    ],
    ids=["no-config", "config-list", "no-problem", "no-optimizer"],
)
def test_cli_profile_names_the_run_of_a_manifest_without_a_usable_config(tmp_path, capsys, manifest):
    # A manifest without 'config' exited 2 with "error: 'config'".
    run = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4}, "direct", 1.0)
    (Path(run) / "manifest.json").write_text(json.dumps(manifest))
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", run, "--out", str(prof)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{run}: manifest.json" in err
    assert not prof.exists()


def _thresholded_run(path, problem: dict, value=None) -> str:
    """A run directory for ``profile --metric thresholded_compliance``; a
    two-bar run records no thresholded metric."""
    run = _profiled_run(path, problem, "direct", 1.0)
    if value is not None:
        (path / "metrics.json").write_text(json.dumps({"thresholded_objective_rescaled": value}))
    return run


def test_cli_profile_leaves_out_runs_without_the_metric(tmp_path, capsys):
    # Over the shipped presets it exited 2 with "every solver failed on
    # case(s): twobar".
    runs = [
        _thresholded_run(tmp_path / "a", {"name": "twobar"}),
        _thresholded_run(tmp_path / "b", {"name": "mbb", "nx": 8, "ny": 4}, 2.0),
    ]
    prof = tmp_path / "prof"
    argv = ["profile", "--runs", *runs, "--metric", "thresholded_compliance", "--tau-points", "2"]
    assert run_cli(*argv, "--out", str(prof)) == 0
    assert "1 solvers x 1 cases" in capsys.readouterr().out
    assert (prof / "profile.csv").read_text().splitlines() == ["tau,p_baseline+mma", "1.0,1.0", "4.0,1.0"]


def test_cli_profile_without_a_run_that_records_the_metric_exits_2(tmp_path, capsys):
    runs = [_thresholded_run(tmp_path / "a", {"name": "twobar"})]
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", *runs, "--metric", "thresholded_compliance", "--out", str(prof)) == 2
    assert capsys.readouterr().err == (
        "error: no run records the thresholded_compliance metric ('thresholded_objective_rescaled')\n"
    )
    assert not prof.exists()


def test_cli_profile_rejects_an_unknown_metric(tmp_path, capsys):
    # A metric name that is no documented one was read as a raw
    # metrics.json key, so every run counted as failed.
    run = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4}, "direct", 1.0)
    prof = tmp_path / "prof"
    with pytest.raises(SystemExit) as exc:
        run_cli("profile", "--runs", run, "--metric", "typo_metric", "--out", str(prof))
    assert exc.value.code == 2
    assert "invalid choice: 'typo_metric'" in capsys.readouterr().err
    assert not prof.exists()


@pytest.mark.parametrize(
    "flags",
    [["--tau-points", "0"], ["--tau-max", "nan", "--tau-points", "3"], ["--tau-max", "0.5"]],
    ids=["no-points", "nan", "descending"],
)
def test_cli_profile_rejects_a_bad_tau_grid(tmp_path, capsys, flags):
    # Each exited 0: with a header-only profile.csv, NaN taus and a curve of
    # 0.0, or the descending grid 1.0, 0.75, 0.5.
    run = _profiled_run(tmp_path / "a", {"name": "mbb", "nx": 8, "ny": 4}, "direct", 1.0)
    prof = tmp_path / "prof"
    assert run_cli("profile", "--runs", run, *flags, "--out", str(prof)) == 2
    assert capsys.readouterr().err.startswith("error: tau grid must be")
    assert not prof.exists()


def test_import_topokit_loads_no_scipy():
    # The package only defers numpy's unused submodules; its modules import
    # scipy when they are imported themselves.
    code = "import sys, topokit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(topokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
