"""Command-line entry points.

Subcommands: optimize, landscape, expressivity, profile, search, threshold.
The config-driven commands (optimize, landscape, expressivity, search) read a
JSON config or a named preset, reject unknown config keys with exit status 2
before any run, and write their artifacts into an output directory together
with a manifest that is sufficient to re-run the experiment. Every command
returns a nonzero exit status on failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, analysis, io, pipeline, presets, reparam
from .problems import ProblemSpec, TwoBarProblem
from .runner import run_optimization, threshold_and_rescale

FEASIBLE_FALLBACK_NOTE = "no feasible iterate; reporting the least-violating design"

#: Top-level keys of an ``optimize`` config.
_OPTIMIZE_KEYS = {
    "problem", "reparam", "optimizer", "budget", "seed", "pretrain", "theta0", "snapshot_every"
}
#: Top-level keys of a ``landscape`` and of an ``expressivity`` config, and
#: the keys of the ``fit`` section they share: the options of
#: ``reparam.fit_to_density``.
_LANDSCAPE_KEYS = {"problem", "reparams", "rho_ref_1", "rho_ref_2", "n_alpha", "seed", "fit"}
_EXPRESSIVITY_KEYS = {"targets", "architectures", "repeats", "seed", "fit"}
_FIT_KEYS = {
    "learning_rate", "iteration_cap", "plateau_iters", "plateau_rtol", "lr_decay", "min_learning_rate"
}
#: Keys of a ``search`` config, of its ``base`` run and of its ``search`` section.
_SEARCH_KEYS = {"base", "search", "seed"}
_SEARCH_BASE_KEYS = {"problem", "reparam", "optimizer", "seed", "pretrain", "theta0"}
_SEARCH_SECTION_KEYS = {"mode", "parameters", "budget", "trials"}


def _load_config(args) -> dict:
    if getattr(args, "preset", None):
        cfg = presets.preset_config(args.preset)
    elif getattr(args, "config", None):
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    else:
        raise ValueError("provide --config PATH or --preset NAME")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        cfg["budget"] = args.budget
    return cfg


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", None) or "runs/out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_projection(problem, optimizer_cfg: dict) -> None:
    """Adam runs a grid problem through the exact-volume projection."""
    if optimizer_cfg.get("kind") == "adam" and isinstance(problem, ProblemSpec):
        pipeline.check_projection_target(problem.volume_target)


def _check_random_range(name: str, bounds) -> None:
    """A random-mode range: finite numbers ``low`` < ``high``, ``low`` > 0 if ``log``."""
    if not isinstance(bounds, dict):
        raise ValueError(f"search range {name!r} must be an object with 'low' and 'high'")
    presets._reject_unknown_keys(bounds, {"low", "high", "log"}, f"search range {name!r}")
    for key in ("low", "high"):
        value = bounds.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"search range {name!r} needs a finite number {key!r}, got {value!r}")
    if not bounds["low"] < bounds["high"]:
        raise ValueError(f"search range {name!r} needs 'low' < 'high'")
    if bounds.get("log", False) and not bounds["low"] > 0:
        raise ValueError(f"search range {name!r} is log-scaled and needs 'low' > 0")


def _manifest_skeleton(command: str, cfg: dict) -> dict:
    return {"command": command, "config": cfg, "version": __version__}


def cmd_optimize(args) -> int:
    try:
        cfg = _load_config(args)
        presets._reject_unknown_keys(cfg, _OPTIMIZE_KEYS, "optimize")
        problem = presets.problem_from_config(cfg["problem"])
        spec = presets.spec_from_config(cfg.get("reparam", {"kind": "direct"}))
        optimizer = presets.optimizer_from_config(cfg["optimizer"])
        _check_projection(problem, cfg["optimizer"])
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    manifest = _manifest_skeleton("optimize", cfg)
    try:
        result = run_optimization(
            problem,
            spec,
            optimizer,
            budget=int(cfg.get("budget", 100)),
            seed=int(cfg.get("seed", 0)),
            pretrain=bool(cfg.get("pretrain", True)),
            theta0=cfg.get("theta0"),
        )
    except Exception as exc:  # solver failures land in the manifest
        manifest["outcome"] = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        io.write_manifest(out / "manifest.json", manifest)
        print(f"error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1

    traj = result.trajectory
    io.write_trajectory_csv(out / "trajectory.csv", traj)
    io.save_params(out / "theta", result.theta)

    outcome = {
        "status": "ok",
        "final_objective": traj.objective[-1],
        "final_constraint_violation": traj.constraint_violation[-1],
        "best_feasible_objective": traj.best_feasible_objective,
        "best_feasible_iteration": traj.best_feasible_iteration,
        "iterations": traj.iterations,
    }
    if result.pretrain_mse is not None:
        outcome["pretrain_mse"] = result.pretrain_mse

    if isinstance(problem, TwoBarProblem):
        outcome["final_point"] = [float(v) for v in result.design]
        metrics = {
            "best_feasible_objective": traj.best_feasible_objective,
            "converged_iteration": analysis.convergence_iteration(traj.objective),
            "final_point": [float(v) for v in result.design],
        }
    else:
        best = traj.best_feasible_design
        note = None
        if best is None:
            best = traj.designs[int(np.argmin(traj.constraint_violation))]
            note = FEASIBLE_FALLBACK_NOTE
        nx, ny = problem.nx, problem.ny
        io.write_density_csv(out / "final_design.csv", result.design, nx, ny)
        io.write_pgm(out / "final_design.pgm", result.design, nx, ny)
        io.write_density_csv(out / "best_design.csv", best, nx, ny)
        io.write_pgm(out / "best_design.pgm", best, nx, ny)
        rho_bw, c_th, c_rescaled, v_th = threshold_and_rescale(problem, best)
        io.write_density_csv(out / "thresholded.csv", rho_bw, nx, ny)
        io.write_pgm(out / "thresholded.pgm", rho_bw, nx, ny)
        snapshot_every = int(getattr(args, "snapshot_every", 0) or cfg.get("snapshot_every", 0))
        if snapshot_every > 0:
            for i in range(0, traj.iterations, snapshot_every):
                io.write_pgm(out / f"design_{i:05d}.pgm", traj.designs[i], nx, ny)
        metrics = {
            "best_feasible_objective": traj.best_feasible_objective,
            "converged_iteration": analysis.convergence_iteration(traj.objective),
            "thresholded_objective": c_th,
            "thresholded_objective_rescaled": c_rescaled,
            "thresholded_volume": v_th,
        }
        if note:
            metrics["note"] = note
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n", encoding="utf-8")
    manifest["outcome"] = outcome
    io.write_manifest(out / "manifest.json", manifest)
    print(f"optimize: objective {traj.objective[-1]:.6g} after {traj.iterations} evaluations -> {out}")
    return 0


def _reference_field(ref, problem: ProblemSpec) -> np.ndarray:
    if isinstance(ref, str) and ref == "uniform":
        return np.full(problem.n_elements, problem.volume_target)
    if isinstance(ref, dict) and "random_seed" in ref:
        rng = np.random.default_rng(int(ref["random_seed"]))
        return rng.uniform(0.0, 1.0, problem.n_elements)
    path = Path(ref)
    if not path.exists():
        raise FileNotFoundError(f"reference design not found: {path}")
    return io.read_field_csv(path).values


def cmd_landscape(args) -> int:
    try:
        cfg = _load_config(args)
        presets._reject_unknown_keys(cfg, _LANDSCAPE_KEYS, "landscape")
        presets._reject_unknown_keys(cfg.get("fit") or {}, _FIT_KEYS, "fit")
        problem = presets.problem_from_config(cfg["problem"])
        specs = [presets.spec_from_config(c) for c in cfg.get("reparams", [{"kind": "direct"}])]
        ref1 = _reference_field(cfg["rho_ref_1"], problem)
        ref2 = _reference_field(cfg["rho_ref_2"], problem)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    manifest = _manifest_skeleton("landscape", cfg)
    results = {}
    for spec in specs:
        res = analysis.landscape_1d(
            spec,
            ref1,
            ref2,
            n_alpha=int(cfg.get("n_alpha", 101)),
            problem=problem,
            seed=int(cfg.get("seed", 0)),
            fit_kwargs=cfg.get("fit"),
        )
        rows = [
            [s.alpha, s.objective, s.constraint, int(s.violation)] for s in res.samples
        ]
        io.write_csv_table(
            out / f"landscape_{spec.kind}.csv",
            ["alpha", "objective", "constraint", "violation"],
            rows,
        )
        results[spec.kind] = {
            "fit_mse": list(res.fit_mse),
            "warnings": res.warnings,
            "interior_maxima": analysis.count_interior_maxima(res.objectives),
            "violations": res.n_violations,
        }
    manifest["outcome"] = {"status": "ok", "reparams": results}
    io.write_manifest(out / "manifest.json", manifest)
    print(f"landscape: wrote {len(results)} slice(s) -> {out}")
    return 0


def cmd_expressivity(args) -> int:
    try:
        cfg = _load_config(args)
        presets._reject_unknown_keys(cfg, _EXPRESSIVITY_KEYS, "expressivity")
        presets._reject_unknown_keys(cfg.get("fit") or {}, _FIT_KEYS, "fit")
        target_paths = cfg["targets"]
        targets = []
        for path in target_paths:
            if not Path(path).exists():
                raise FileNotFoundError(f"target design not found: {path}")
            targets.append(io.read_field_csv(path))
        arch_cfg = cfg.get("architectures", "sweep")
        if arch_cfg == "sweep":
            specs = presets.sweep_specs(targets[0].nx, targets[0].ny)
        else:
            specs = [presets.spec_from_config(c) for c in arch_cfg]
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    rows_out = analysis.expressivity_study(
        specs,
        targets,
        repeats=int(cfg.get("repeats", 1)),
        seed=int(cfg.get("seed", 0)),
        fit_kwargs=cfg.get("fit"),
    )
    table = [
        [row.spec.kind, row.param_count, row.mean_psnr, row.std_psnr]
        + [float(v) for v in row.worst_psnr]
        for row in rows_out
    ]
    repeats = int(cfg.get("repeats", 1))
    header = ["kind", "params", "mean_worst_psnr", "std_worst_psnr"] + [
        f"repeat{r}" for r in range(repeats)
    ]
    io.write_csv_table(out / "expressivity.csv", header, table)
    manifest = _manifest_skeleton("expressivity", cfg)
    manifest["outcome"] = {"status": "ok", "rows": len(table)}
    io.write_manifest(out / "manifest.json", manifest)
    print(f"expressivity: {len(table)} architectures -> {out}")
    return 0


def _run_label(cfg: dict) -> tuple[str, str]:
    reparam_kind = cfg.get("reparam", {}).get("kind", "direct")
    solver = ("baseline" if reparam_kind == "direct" else reparam_kind) + "+" + cfg["optimizer"]["kind"]
    prob = cfg["problem"]
    case = "{}-{}x{}-v{}-p{}".format(
        prob.get("name"),
        prob.get("nx", 64),
        prob.get("ny", 32),
        prob.get("v0", "def"),
        prob.get("penalty", 3.0),
    )
    return solver, case


def cmd_profile(args) -> int:
    metric_key = {
        "best_objective": "best_feasible_objective",
        "converged_iteration": "converged_iteration",
        "thresholded_compliance": "thresholded_objective_rescaled",
    }.get(args.metric, args.metric)
    entries = []
    for run_dir in args.runs:
        run_dir = Path(run_dir)
        manifest_path = run_dir / "manifest.json"
        metrics_path = run_dir / "metrics.json"
        if not manifest_path.exists():
            print(f"error: missing artifact {manifest_path}", file=sys.stderr)
            return 2
        manifest = io.read_manifest(manifest_path)
        solver, case = _run_label(manifest["config"])
        value = np.inf
        if metrics_path.exists():
            metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
            value = float(metrics.get(metric_key, np.inf))
        if not np.isfinite(value):
            value = np.inf
        entries.append((solver, case, value))
    solvers = tuple(sorted({e[0] for e in entries}))
    cases = tuple(sorted({e[1] for e in entries}))
    values = np.full((len(solvers), len(cases)), np.inf)
    for solver, case, value in entries:
        values[solvers.index(solver), cases.index(case)] = value
    table = analysis.MetricTable(values=values, solvers=solvers, cases=cases, metric=args.metric)
    tau_grid = np.linspace(1.0, args.tau_max, args.tau_points)
    try:
        curves = analysis.performance_profile(table, tau_grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    rows = [[float(tau)] + [float(v) for v in curves[:, i]] for i, tau in enumerate(tau_grid)]
    io.write_csv_table(out / "profile.csv", ["tau"] + [f"p_{s}" for s in solvers], rows)
    print(f"profile: {len(solvers)} solvers x {len(cases)} cases -> {out}")
    return 0


def cmd_search(args) -> int:
    try:
        cfg = _load_config(args)
        presets._reject_unknown_keys(cfg, _SEARCH_KEYS, "search")
        base = cfg["base"]
        search = cfg["search"]
        presets._reject_unknown_keys(base, _SEARCH_BASE_KEYS, "search base")
        presets._reject_unknown_keys(search, _SEARCH_SECTION_KEYS, "search section")
        problem = presets.problem_from_config(base["problem"])
        spec = presets.spec_from_config(base.get("reparam", {"kind": "direct"}))
        _check_projection(problem, base["optimizer"])
        if not isinstance(search.get("parameters"), dict):
            raise ValueError("the search section needs a 'parameters' object")
        mode = search.get("mode", "grid")
        if mode == "grid":
            for name, values in search["parameters"].items():
                if not isinstance(values, list) or not values:
                    raise ValueError(f"grid parameter {name!r} needs a non-empty list of values")
        elif mode == "random":
            for name, bounds in search["parameters"].items():
                _check_random_range(name, bounds)
        else:
            raise ValueError(f"unknown search mode {mode!r}")
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    budget = int(search.get("budget", 60))
    seed = int(cfg.get("seed", base.get("seed", 0)))
    names = sorted(search["parameters"])

    if mode == "grid":
        grids = [search["parameters"][n] for n in names]
        combos = [dict(zip(names, values)) for values in itertools.product(*grids)]
    else:
        trials = int(search.get("trials", 10))
        if trials < 1:
            print("error: need at least one trial", file=sys.stderr)
            return 2
        rng = np.random.default_rng(seed)
        combos = []
        for _ in range(trials):
            combo = {}
            for name in names:
                spec_ = search["parameters"][name]
                low, high = float(spec_["low"]), float(spec_["high"])
                if spec_.get("log", False):
                    combo[name] = float(np.exp(rng.uniform(np.log(low), np.log(high))))
                else:
                    combo[name] = float(rng.uniform(low, high))
            combos.append(combo)

    rows = []
    best_value, best_combo = np.inf, None
    for trial, combo in enumerate(combos):
        opt_cfg = dict(base["optimizer"])
        opt_cfg.update(combo)
        status = "ok"
        value = np.inf
        try:
            optimizer = presets.optimizer_from_config(opt_cfg)
            result = run_optimization(
                problem,
                spec,
                optimizer,
                budget=budget,
                seed=seed,
                pretrain=bool(base.get("pretrain", True)),
                theta0=base.get("theta0"),
            )
            value = result.trajectory.best_feasible_objective
            if not np.isfinite(value):
                status = "infeasible"
        except Exception as exc:
            status = f"failed: {type(exc).__name__}: {exc}"
        rows.append([trial] + [float(combo[n]) for n in names] + [float(value), status])
        if value < best_value:
            best_value, best_combo = value, combo
    io.write_csv_table(out / "trials.csv", ["trial"] + names + ["objective", "status"], rows)
    manifest = _manifest_skeleton("search", cfg)
    if best_combo is None:
        manifest["outcome"] = {"status": "error", "error": "all trials failed"}
        io.write_manifest(out / "manifest.json", manifest)
        print("error: all trials failed", file=sys.stderr)
        return 1
    manifest["outcome"] = {"status": "ok", "best": best_combo, "best_objective": best_value}
    io.write_manifest(out / "manifest.json", manifest)
    (out / "best.json").write_text(json.dumps(best_combo, indent=2) + "\n", encoding="utf-8")
    print(f"search: best objective {best_value:.6g} at {best_combo} -> {out}")
    return 0


def cmd_threshold(args) -> int:
    design_path = Path(args.design)
    if not design_path.exists():
        print(f"error: missing artifact {design_path}", file=sys.stderr)
        return 2
    field = io.read_field_csv(design_path)
    try:
        problem = presets.problem_from_config(
            {
                "name": args.problem,
                "nx": field.nx,
                "ny": field.ny,
                "v0": args.v0,
                "penalty": args.penalty,
            }
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    rho_bw, c_th, c_rescaled, v_th = threshold_and_rescale(problem, field.values)
    io.write_density_csv(out / "thresholded.csv", rho_bw, field.nx, field.ny)
    io.write_pgm(out / "thresholded.pgm", rho_bw, field.nx, field.ny)
    result = {
        "thresholded_objective": c_th,
        "thresholded_objective_rescaled": c_rescaled,
        "thresholded_volume": v_th,
        "volume_target": problem.volume_target,
    }
    (out / "threshold.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(
        f"threshold: objective {c_th:.6g} at volume {v_th:.4f}, "
        f"rescaled {c_rescaled:.6g} -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topokit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"topokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--preset", help="named preset configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_opt = sub.add_parser("optimize", help="run one optimization")
    add_common(p_opt)
    p_opt.add_argument("--budget", type=int, help="override the evaluation budget")
    p_opt.add_argument("--snapshot-every", type=int, default=0, dest="snapshot_every")
    p_opt.set_defaults(func=cmd_optimize)

    p_land = sub.add_parser("landscape", help="1-D objective landscape slices")
    add_common(p_land)
    p_land.set_defaults(func=cmd_landscape)

    p_exp = sub.add_parser("expressivity", help="PSNR expressivity study")
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_expressivity)

    p_prof = sub.add_parser("profile", help="performance profiles over run directories")
    p_prof.add_argument("--runs", nargs="+", required=True, help="run directories")
    p_prof.add_argument(
        "--metric",
        default="best_objective",
        help="best_objective, converged_iteration, or thresholded_compliance",
    )
    p_prof.add_argument("--tau-max", type=float, default=4.0, dest="tau_max")
    p_prof.add_argument("--tau-points", type=int, default=61, dest="tau_points")
    p_prof.add_argument("--out", help="output directory")
    p_prof.set_defaults(func=cmd_profile)

    p_search = sub.add_parser("search", help="grid or random hyperparameter search")
    add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_thr = sub.add_parser("threshold", help="black-and-white projection of a design")
    p_thr.add_argument("--design", required=True, help="density CSV to threshold")
    p_thr.add_argument("--problem", required=True, help="catalog problem for re-evaluation")
    p_thr.add_argument("--v0", type=float, default=None, help="volume target")
    p_thr.add_argument("--penalty", type=float, default=3.0)
    p_thr.add_argument("--out", help="output directory")
    p_thr.set_defaults(func=cmd_threshold)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
