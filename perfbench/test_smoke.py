"""Smoke test of the benchmark: every workload shape on the 16x8 grid.

Runs `run.py` untraced and traced with budget 2 and checks that the
wrappers report every metric and that the output check passes, and fails a
wrong answer. Nothing is timed.

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analyze  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from topokit import presets  # noqa: E402


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(name, trace):
    result = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = analyze.PER_LAYER_UNITS if trace == "1" else analyze.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["reparam.vjp.calls_per_iter"] == (1 if "adam" in name else 2)
        assert metrics["fem.solves_per_eval"] >= (2 if "mechanism" in name else 1)
        # runner.share is the window minus the other layers, so the shares
        # sum to 1 by construction; a double-counted span shows as a share
        # outside [0, 1].
        shares = {layer: metrics[f"{layer}.share"] for layer in (*analyze.LAYERS, "runner")}
        assert all(0.0 <= share <= 1.0 for share in shares.values()), shares


def test_output_check_rejects_a_wrong_answer():
    bench("--workload", "mlp-mma-64", "--seed", "0", "--seconds", "1", "--trace", "0", "--tiny")
    workload = WORKLOADS["mlp-mma-64"]
    cfg = workload.make_config(workload.seeds[0], 2, tiny=True)
    outdir = ROOT / ".bench_out" / "mlp-mma-64-seed0-trace0-tiny" / "plain0" / "out"
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    reference = references[run.reference_key("mlp-mma-64", cfg)]
    assert run.check_output(outdir, cfg, reference) is None
    nudged = dict(reference, objectives=list(reference["objectives"]))
    nudged["objectives"][1] *= 1.0 + 1e-5
    assert "objective at evaluation 1" in run.check_output(outdir, cfg, nudged)
    assert "final volume" in run.check_output(outdir, cfg, dict(reference, volume=reference["volume"] + 1e-5))
    assert "evaluations" in run.check_output(outdir, dict(cfg, budget=3), reference)
    assert run.check_output(outdir, cfg, None) is not None


def test_preset_workloads_match_the_shipped_presets():
    for name, preset in (("mlp-mma-64", "michell-p3-mlp-mma"), ("siren-adam-64", "michell-p3-siren-adam")):
        cfg = WORKLOADS[name].make_config(0)
        shipped = presets.preset_config(preset)
        for key in ("problem", "reparam", "optimizer"):
            assert cfg[key] == shipped[key], (name, key)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == analyze.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == analyze.PER_LAYER_UNITS
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        for seed in workload.seeds:
            for tiny in (False, True):
                cfg = workload.make_config(seed, 2 if tiny else None, tiny=tiny)
                assert run.reference_key(workload.name, cfg) in references
