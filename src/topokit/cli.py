"""Command-line entry points.

Subcommands: optimize, landscape, expressivity, profile, search, threshold.
The config-driven commands (optimize, landscape, expressivity, search) read a
JSON config or a named preset and write their artifacts into an output
directory, together with a manifest that is sufficient to re-run the
experiment.

Each ``cmd_*`` function validates all of its input first: config keys and
sections, counts, flags, the start point ``theta0`` against the layout of θ,
and the reference and target files it reads. It then returns a
``run(out) -> int`` closure that does the work. :func:`main` owns the exit
status: a ``KeyError``, ``ValueError`` or ``FileNotFoundError`` from a
command's validation prints ``error: ...`` and returns 2 before any
output exists. Only then does ``main`` create the output directory and call
``run``. A run that fails (a solver error, every search trial failing)
records the error in its manifest and returns 1.

:func:`main` moves every object that exists when it is entered into the
collector's permanent generation (``gc.freeze``), once per process. Those
are the ~30k objects that importing this module leaves behind: numpy,
``scipy.sparse(.linalg)`` and scipy's array-API copy of numpy's namespace.
numpy's unused submodules (``f2py``, ``testing``, ``ma`` and others) are not
among them: the package defers them, see ``topokit/__init__.py``.
Without the freeze the interpreter's exit-time collections walk them all:
from ``main``'s return to process exit, a ``michell-p3-mlp-mma`` run took a
median 133 ms, against 27 ms with the freeze (10 fresh processes each, when
the import still left ~42k objects; Python 3.11, numpy 2.4, scipy 1.17,
2-core x86-64). A full collection right
after the import finds none of them unreachable, so freezing them leaks
nothing. Importing topokit leaves the collector alone; only the command
line freezes.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, analysis, io, pipeline, presets, reparam
from .problems import ProblemSpec, TwoBarProblem, make_problem
from .runner import check_optimizer, run_optimization, start_point, theta_layout, threshold_and_rescale

FEASIBLE_FALLBACK_NOTE = "no feasible iterate; reporting the least-violating design"

#: Top-level keys of an ``optimize`` config.
_OPTIMIZE_KEYS = {
    "problem", "reparam", "optimizer", "budget", "seed", "pretrain", "theta0", "snapshot_every"
}
#: Top-level keys of a ``landscape`` and of an ``expressivity`` config. Their
#: ``fit`` section holds one key, ``iteration_cap``: the budget of each fit,
#: a count like ``n_alpha`` and ``repeats``. The rest of the fit is fixed by
#: ``reparam.fit_to_density`` and the ``FIT_*`` constants beside it.
_LANDSCAPE_KEYS = {"problem", "reparams", "rho_ref_1", "rho_ref_2", "n_alpha", "seed", "fit"}
_EXPRESSIVITY_KEYS = {"targets", "architectures", "repeats", "seed", "fit"}
#: Keys of a ``search`` config, of its ``base`` run and of its ``search`` section.
#: A trial's budget comes from the search section, and trials write no snapshots.
_SEARCH_KEYS = {"base", "search", "seed"}
_SEARCH_BASE_KEYS = _OPTIMIZE_KEYS - {"budget", "snapshot_every"}
_SEARCH_SECTION_KEYS = {"mode", "parameters", "budget", "trials"}


def _load_config(args) -> dict:
    if getattr(args, "preset", None):
        cfg = presets.preset_config(args.preset)
    elif getattr(args, "config", None):
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = presets._section(json.loads(text), args.config)
    else:
        raise ValueError("provide --config PATH or --preset NAME")
    for key in ("seed", "budget", "snapshot_every"):  # flags that override the config
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _count(cfg: dict, key: str, default: int, least: int) -> int:
    """``cfg[key]``, or ``default`` if absent: an integer, not a bool, of at least ``least``."""
    value = cfg.get(key, default)
    if not pipeline.is_integer(value) or value < least:
        raise ValueError(f"{key!r} must be an integer >= {least}, got {value!r}")
    return value


def _pretrain(cfg: dict) -> bool:
    pretrain = cfg.get("pretrain", True)
    if not isinstance(pretrain, bool):
        raise ValueError(f"'pretrain' must be true or false, got {pretrain!r}")
    return pretrain


def _iteration_cap(cfg: dict) -> int:
    """The ``iteration_cap`` of the config's ``fit`` section, its only key."""
    fit = cfg.get("fit", {})
    presets._reject_unknown_keys(fit, {"iteration_cap"}, "fit")
    return _count(fit, "iteration_cap", reparam.FIT_ITERATION_CAP, 1)


def _theta0(cfg: dict, layout) -> list | None:
    """``cfg["theta0"]``, if given: a flat list of finite numbers, one per entry of ``layout``."""
    theta0 = cfg.get("theta0")
    if theta0 is None:
        return None
    size = reparam.layout_size(layout)
    if not isinstance(theta0, list):
        raise ValueError(f"'theta0' must be a list of numbers, got {theta0!r:.60}")
    if len(theta0) != size:
        raise ValueError(f"'theta0' has {len(theta0)} entries, layout needs {size}")
    for index, value in enumerate(theta0):
        if not (pipeline.is_number(value) and math.isfinite(value)):
            raise ValueError(f"'theta0' entry {index} must be a finite number, got {value!r}")
    return theta0


def _run_config(cfg: dict):
    """The problem, reparameterization, optimizer kind, θ layout, ``theta0``
    and pretraining flag of an ``optimize`` config or a search's base run,
    each checked, the problem × optimizer rules included."""
    problem = presets.problem_from_config(cfg["problem"])
    spec = presets.spec_from_config(cfg.get("reparam", {}))
    kind = presets.optimizer_kind(cfg["optimizer"])
    check_optimizer(problem, kind)
    layout = theta_layout(problem, spec)
    return problem, spec, kind, layout, _theta0(cfg, layout), _pretrain(cfg)


def _check_random_range(name: str, bounds) -> None:
    """A random-mode range: finite numbers ``low`` < ``high``, ``low`` > 0 if ``log``."""
    if not isinstance(bounds, dict):
        raise ValueError(f"search range {name!r} must be an object with 'low' and 'high'")
    presets._reject_unknown_keys(bounds, {"low", "high", "log"}, f"search range {name!r}")
    for key in ("low", "high"):
        value = bounds.get(key)
        if not (pipeline.is_number(value) and math.isfinite(value)):
            raise ValueError(f"search range {name!r} needs a finite number {key!r}, got {value!r}")
    if not bounds["low"] < bounds["high"]:
        raise ValueError(f"search range {name!r} needs 'low' < 'high'")
    if bounds.get("log", False) and not bounds["low"] > 0:
        raise ValueError(f"search range {name!r} is log-scaled and needs 'low' > 0")


def _write_manifest(out: Path, command: str, cfg: dict, outcome: dict) -> None:
    manifest = {"command": command, "config": cfg, "version": __version__, "outcome": outcome}
    io.write_manifest(out / "manifest.json", manifest)


def _write_field(out: Path, stem: str, values, nx: int, ny: int) -> None:
    """A density field as ``<stem>.csv`` and ``<stem>.pgm``."""
    io.write_density_csv(out / f"{stem}.csv", values, nx, ny)
    io.write_pgm(out / f"{stem}.pgm", values, nx, ny)


def _write_thresholded(out: Path, problem: ProblemSpec, design) -> dict:
    """Write the black-and-white ``design`` as ``thresholded.*``; return its metrics."""
    rho_bw, c_th, c_rescaled, v_th = threshold_and_rescale(problem, design)
    _write_field(out, "thresholded", rho_bw, problem.nx, problem.ny)
    return {
        "thresholded_objective": c_th,
        "thresholded_objective_rescaled": c_rescaled,
        "thresholded_volume": v_th,
    }


def cmd_optimize(args):
    cfg = _load_config(args)
    presets._reject_unknown_keys(cfg, _OPTIMIZE_KEYS, "optimize")
    problem, spec, _, layout, theta0, pretrain = _run_config(cfg)
    optimizer = presets.optimizer_from_config(cfg["optimizer"])
    budget, seed = _count(cfg, "budget", 100, 0), _count(cfg, "seed", 0, 0)
    snapshot_every = _count(cfg, "snapshot_every", 0, 0)

    def run(out: Path) -> int:
        try:
            traj = run_optimization(
                problem, spec, optimizer, budget=budget, seed=seed, pretrain=pretrain, theta0=theta0
            )
        except Exception as exc:  # solver failures land in the manifest
            outcome = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
            _write_manifest(out, "optimize", cfg, outcome)
            print(f"error: {exc}", file=sys.stderr)
            traceback.print_exc()
            return 1

        io.write_trajectory_csv(out / "trajectory.csv", traj)
        io.save_params(out / "theta", traj.theta, layout)
        outcome = {
            "status": "ok",
            "final_objective": traj.objective[-1],
            "final_constraint_violation": traj.constraint_violation[-1],
            "best_feasible_objective": traj.best_feasible_objective,
            "best_feasible_iteration": traj.best_feasible_iteration,
            "iterations": traj.iterations,
        }
        if traj.pretrain_mse is not None:
            outcome["pretrain_mse"] = traj.pretrain_mse
        metrics = {
            "best_feasible_objective": traj.best_feasible_objective,
            "converged_iteration": analysis.convergence_iteration(traj.objective),
        }
        if isinstance(problem, TwoBarProblem):
            outcome["final_point"] = metrics["final_point"] = [float(v) for v in traj.designs[-1]]
        else:
            best = traj.best_feasible_design
            if best is None:
                best = traj.designs[int(np.argmin(traj.constraint_violation))]
            nx, ny = problem.nx, problem.ny
            _write_field(out, "final_design", traj.designs[-1], nx, ny)
            _write_field(out, "best_design", best, nx, ny)
            metrics.update(_write_thresholded(out, problem, best))
            if snapshot_every:
                for i in range(0, traj.iterations, snapshot_every):
                    io.write_pgm(out / f"design_{i:05d}.pgm", traj.designs[i], nx, ny)
            if traj.best_feasible_design is None:
                metrics["note"] = FEASIBLE_FALLBACK_NOTE
        (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n", encoding="utf-8")
        _write_manifest(out, "optimize", cfg, outcome)
        print(f"optimize: objective {traj.objective[-1]:.6g} after {traj.iterations} evaluations -> {out}")
        return 0

    return run


def _reference_field(ref, problem: ProblemSpec) -> np.ndarray:
    if isinstance(ref, str) and ref == "uniform":
        return np.full(problem.n_elements, problem.volume_target)
    if isinstance(ref, dict) and "random_seed" in ref:
        rng = np.random.default_rng(_count(ref, "random_seed", 0, 0))
        return rng.uniform(0.0, 1.0, problem.n_elements)
    path = Path(ref)
    if not path.exists():
        raise FileNotFoundError(f"reference design not found: {path}")
    image = io.read_field_csv(path)
    if image.shape != (problem.ny, problem.nx):
        raise ValueError(
            f"{path}: a {image.shape[1]}x{image.shape[0]} design, "
            f"but the problem is {problem.nx}x{problem.ny}"
        )
    return image


def cmd_landscape(args):
    cfg = _load_config(args)
    presets._reject_unknown_keys(cfg, _LANDSCAPE_KEYS, "landscape")
    problem = presets.problem_from_config(cfg["problem"])
    if not isinstance(problem, ProblemSpec):
        raise ValueError("landscape needs a grid problem, not the two-bar truss")
    reparams = cfg.get("reparams", [{"kind": "direct"}])
    if not isinstance(reparams, list) or not reparams:
        raise ValueError(f"'reparams' must be a non-empty list, got {reparams!r:.60}")
    specs = [presets.spec_from_config(c) for c in reparams]
    kinds = [spec.kind for spec in specs]
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ValueError(
                f"landscape config: two reparams of kind {kind!r} would share landscape_{kind}.csv"
            )
    ref1 = _reference_field(cfg["rho_ref_1"], problem)
    ref2 = _reference_field(cfg["rho_ref_2"], problem)
    n_alpha, seed = _count(cfg, "n_alpha", 101, 2), _count(cfg, "seed", 0, 0)
    iteration_cap = _iteration_cap(cfg)

    def run(out: Path) -> int:
        results = {}
        for spec in specs:
            res = analysis.landscape_1d(
                spec, ref1, ref2, n_alpha=n_alpha, problem=problem, seed=seed,
                iteration_cap=iteration_cap,
            )
            rows = [[s.alpha, s.objective, s.constraint, int(s.violation)] for s in res.samples]
            header = ["alpha", "objective", "constraint", "violation"]
            io.write_csv_table(out / f"landscape_{spec.kind}.csv", header, rows)
            results[spec.kind] = {
                "fit_mse": list(res.fit_mse),
                "warnings": res.warnings,
                "interior_maxima": analysis.count_interior_maxima(res.objectives),
                "violations": res.n_violations,
            }
        _write_manifest(out, "landscape", cfg, {"status": "ok", "reparams": results})
        print(f"landscape: wrote {len(results)} slice(s) -> {out}")
        return 0

    return run


def cmd_expressivity(args):
    cfg = _load_config(args)
    presets._reject_unknown_keys(cfg, _EXPRESSIVITY_KEYS, "expressivity")
    target_paths = cfg["targets"]
    if not (isinstance(target_paths, list) and all(isinstance(path, str) for path in target_paths)):
        raise ValueError(f"'targets' must be a list of paths, got {target_paths!r:.60}")
    if not target_paths:
        raise ValueError("expressivity needs at least one target design")
    targets = []
    for path in target_paths:
        if not Path(path).exists():
            raise FileNotFoundError(f"target design not found: {path}")
        targets.append(io.read_field_csv(path))
        if targets[-1].shape != targets[0].shape:
            (ny, nx), (ny0, nx0) = targets[-1].shape, targets[0].shape
            raise ValueError(
                f"{path}: a {nx}x{ny} design, but {target_paths[0]} is {nx0}x{ny0}: "
                "every target must share one grid"
            )
    arch_cfg = cfg.get("architectures", "sweep")
    if arch_cfg == "sweep":
        ny, nx = targets[0].shape
        specs = presets.sweep_specs(nx, ny)
    elif isinstance(arch_cfg, list) and arch_cfg:
        specs = [presets.spec_from_config(c) for c in arch_cfg]
    else:
        raise ValueError(f"'architectures' must be \"sweep\" or a non-empty list, got {arch_cfg!r:.60}")
    repeats, seed = _count(cfg, "repeats", 1, 1), _count(cfg, "seed", 0, 0)
    iteration_cap = _iteration_cap(cfg)

    def run(out: Path) -> int:
        rows = analysis.expressivity_study(
            specs, targets, repeats=repeats, seed=seed, iteration_cap=iteration_cap
        )
        table = [
            [row.spec.kind, row.param_count, row.mean_psnr, row.std_psnr]
            + [float(v) for v in row.worst_psnr]
            for row in rows
        ]
        header = ["kind", "params", "mean_worst_psnr", "std_worst_psnr"]
        header += [f"repeat{r}" for r in range(repeats)]
        io.write_csv_table(out / "expressivity.csv", header, table)
        _write_manifest(out, "expressivity", cfg, {"status": "ok", "rows": len(table)})
        print(f"expressivity: {len(table)} architectures -> {out}")
        return 0

    return run


def _run_label(cfg: dict) -> tuple[str, str]:
    """(solver, case) of an ``optimize`` config, named from what it builds."""
    kind = presets.spec_from_config(cfg.get("reparam", {})).kind
    solver = ("baseline" if kind == "direct" else kind) + "+" + presets.optimizer_kind(cfg["optimizer"])
    problem = presets.problem_from_config(cfg["problem"])
    if isinstance(problem, TwoBarProblem):
        return solver, "twobar"
    return solver, "{0.name}-{0.nx}x{0.ny}-v{0.volume_target!r}-p{0.penalty!r}".format(problem)


def _json_object(run_dir: Path, name: str) -> dict:
    """The JSON object in the run's file ``name``; a ValueError naming the run otherwise."""
    try:
        value = json.loads((run_dir / name).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{run_dir}: {name} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{run_dir}: {name} must be a JSON object, got {value!r:.60}")
    return value


#: The ``profile --metric`` names and the metrics.json keys they read.
_PROFILE_METRICS = {
    "best_objective": "best_feasible_objective",
    "converged_iteration": "converged_iteration",
    "thresholded_compliance": "thresholded_objective_rescaled",
}


def cmd_profile(args):
    metric_key = _PROFILE_METRICS[args.metric]
    runs = {}  # (solver, case) -> (run directory, metric value, or None without the metric)
    for run_dir in map(Path, args.runs):
        manifest_path = run_dir / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"missing artifact {manifest_path}")
        cfg = _json_object(run_dir, "manifest.json").get("config")
        if not isinstance(cfg, dict):
            raise ValueError(f"{run_dir}: manifest.json has no 'config' object")
        for key in ("problem", "optimizer"):
            if key not in cfg:
                raise ValueError(f"{run_dir}: manifest.json config has no {key!r}")
        label = _run_label(cfg)
        if label in runs:
            raise ValueError(f"{runs[label][0]} and {run_dir} are both {label[0]} on {label[1]}")
        value = np.inf  # a failed run writes no metrics.json
        if (run_dir / "metrics.json").exists():
            metrics = _json_object(run_dir, "metrics.json")
            # None leaves the run out: two-bar runs record no thresholded metric
            value = metrics.get(metric_key)
            if metric_key in metrics and not pipeline.is_number(value):
                raise ValueError(f"{run_dir}: metric {metric_key!r} must be a number, got {value!r:.60}")
        runs[label] = (run_dir, value if value is None or np.isfinite(value) else np.inf)
    runs = {label: run for label, run in runs.items() if run[1] is not None}
    if not runs:
        raise ValueError(f"no run records the {args.metric} metric ({metric_key!r})")
    solvers = tuple(sorted({solver for solver, _ in runs}))
    cases = tuple(sorted({case for _, case in runs}))
    values = np.full((len(solvers), len(cases)), np.inf)
    for (solver, case), (_, value) in runs.items():
        values[solvers.index(solver), cases.index(case)] = value
    tau_grid = np.linspace(1.0, args.tau_max, args.tau_points)
    curves = analysis.performance_profile(values, cases, tau_grid)

    def run(out: Path) -> int:
        rows = [[float(tau)] + [float(v) for v in curves[:, i]] for i, tau in enumerate(tau_grid)]
        io.write_csv_table(out / "profile.csv", ["tau"] + [f"p_{s}" for s in solvers], rows)
        print(f"profile: {len(solvers)} solvers x {len(cases)} cases -> {out}")
        return 0

    return run


def _search_combos(search: dict, seed: int) -> list[dict]:
    """Every grid combination, or ``trials`` random draws from ``seed``."""
    if not isinstance(search.get("parameters"), dict):
        raise ValueError("the search section needs a 'parameters' object")
    parameters = search["parameters"]
    names = sorted(parameters)
    mode = search.get("mode", "grid")
    if mode == "grid":
        for name, values in parameters.items():
            if not isinstance(values, list) or not values or not all(map(pipeline.is_number, values)):
                raise ValueError(f"grid parameter {name!r} needs a non-empty list of numbers")
        return [dict(zip(names, values)) for values in itertools.product(*(parameters[n] for n in names))]
    if mode != "random":
        raise ValueError(f"unknown search mode {mode!r}")
    for name, bounds in parameters.items():
        _check_random_range(name, bounds)
    trials = _count(search, "trials", 10, 1)
    rng = np.random.default_rng(seed)

    def draw(bounds: dict) -> float:
        low, high = float(bounds["low"]), float(bounds["high"])
        if bounds.get("log", False):
            return float(np.exp(rng.uniform(np.log(low), np.log(high))))
        return float(rng.uniform(low, high))

    return [{name: draw(parameters[name]) for name in names} for _ in range(trials)]


def cmd_search(args):
    cfg = _load_config(args)
    presets._reject_unknown_keys(cfg, _SEARCH_KEYS, "search")
    base, search = cfg["base"], cfg["search"]
    presets._reject_unknown_keys(base, _SEARCH_BASE_KEYS, "search base")
    presets._reject_unknown_keys(search, _SEARCH_SECTION_KEYS, "search section")
    problem, spec, kind, _, theta0, pretrain = _run_config(base)
    budget = _count(search, "budget", 60, 0)
    seed = _count(cfg, "seed", _count(base, "seed", 0, 0), 0)
    combos = _search_combos(search, seed)
    names = sorted(search["parameters"])

    def run(out: Path) -> int:
        # Every trial starts from one point: pretrain once, not per trial.
        start, pretrain_mse, start_error = None, None, None
        try:
            start, pretrain_mse = start_point(problem, spec, kind == "mma", seed, pretrain, theta0)
        except Exception as exc:  # every trial fails with it below
            start_error = exc
        rows = []
        best_value, best_combo = np.inf, None
        for trial, combo in enumerate(combos):
            status = "ok"
            value = np.inf
            try:
                optimizer = presets.optimizer_from_config({**base["optimizer"], **combo})
                if start_error is not None:
                    raise start_error
                traj = run_optimization(
                    problem, spec, optimizer, budget=budget, seed=seed, pretrain=False, theta0=start
                )
                value = traj.best_feasible_objective
                if not np.isfinite(value):
                    status = "infeasible"
            except Exception as exc:
                status = f"failed: {type(exc).__name__}: {exc}"
            rows.append([trial] + [float(combo[n]) for n in names] + [float(value), status])
            if value < best_value:
                best_value, best_combo = value, combo
        io.write_csv_table(out / "trials.csv", ["trial"] + names + ["objective", "status"], rows)
        pretrained = {} if pretrain_mse is None else {"pretrain_mse": pretrain_mse}
        if best_combo is None:
            outcome = {"status": "error", "error": "all trials failed", **pretrained}
            _write_manifest(out, "search", cfg, outcome)
            print("error: all trials failed", file=sys.stderr)
            return 1
        outcome = {"status": "ok", "best": best_combo, "best_objective": best_value, **pretrained}
        _write_manifest(out, "search", cfg, outcome)
        (out / "best.json").write_text(json.dumps(best_combo, indent=2) + "\n", encoding="utf-8")
        print(f"search: best objective {best_value:.6g} at {best_combo} -> {out}")
        return 0

    return run


def cmd_threshold(args):
    design_path = Path(args.design)
    if not design_path.exists():
        raise FileNotFoundError(f"missing artifact {design_path}")
    image = io.read_field_csv(design_path)
    ny, nx = image.shape
    if args.problem == "twobar":
        raise ValueError("threshold needs a grid problem, not the two-bar truss")
    penalty = {} if args.penalty is None else {"penalty": args.penalty}
    problem = make_problem(args.problem, nx, ny, args.v0, **penalty)

    def run(out: Path) -> int:
        result = _write_thresholded(out, problem, image.ravel())
        result["volume_target"] = problem.volume_target
        (out / "threshold.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(
            f"threshold: objective {result['thresholded_objective']:.6g} "
            f"at volume {result['thresholded_volume']:.4f}, "
            f"rescaled {result['thresholded_objective_rescaled']:.6g} -> {out}"
        )
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topokit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"topokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="named preset configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_opt = sub.add_parser("optimize", help="run one optimization")
    add_common(p_opt)
    p_opt.add_argument("--budget", type=int, help="override the evaluation budget")
    p_opt.add_argument("--snapshot-every", type=int, dest="snapshot_every")
    p_opt.set_defaults(func=cmd_optimize)

    p_land = sub.add_parser("landscape", help="1-D objective landscape slices")
    add_common(p_land)
    p_land.set_defaults(func=cmd_landscape)

    p_exp = sub.add_parser("expressivity", help="PSNR expressivity study")
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_expressivity)

    p_prof = sub.add_parser("profile", help="performance profiles over run directories")
    p_prof.add_argument("--runs", nargs="+", required=True, help="run directories")
    p_prof.add_argument("--metric", default="best_objective", choices=tuple(_PROFILE_METRICS))
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
    p_thr.add_argument("--penalty", type=float, default=None, help="SIMP penalty")
    p_thr.add_argument("--out", help="output directory")
    p_thr.set_defaults(func=cmd_threshold)

    return parser


def main(argv=None) -> int:
    if gc.get_freeze_count() == 0:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        run = args.func(args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out or "runs/out")
    out.mkdir(parents=True, exist_ok=True)
    return run(out)


if __name__ == "__main__":
    sys.exit(main())
