"""One `topokit optimize` invocation with timing wrappers around public calls.

    python3 perfbench/child.py MODE SRC TIMINGS -- optimize --config CFG --out DIR

MODE selects what is recorded:

- ``plain``: entry and exit of every ``runner.evaluate_design`` call and of
  ``reparam.pretrain_uniform``, nothing else. End-to-end metrics come from
  these runs.
- ``setup``: as ``plain``, but the process ends at the first objective
  evaluation. The benchmark's untimed warm-up uses it.
- ``trace``: spans around the calls into every layer, for the per-layer
  metrics.

SRC is the ``src`` directory of the checkout under test; the package is
imported from there and nowhere else. TIMINGS is the JSON file the records
are written to. Timestamps are ``time.monotonic()``, which is one system-wide
clock on Linux, so the parent can compare them with its own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

now = time.monotonic


class Recorder:
    """Evaluation timestamps plus, when tracing, a tree of spans."""

    def __init__(self, trace: bool, path: str, imported: list[float]):
        self.trace = trace
        self.path = path
        self.imported = imported  # [start, end] of `import topokit.cli`
        self.evals: list[list[float]] = []  # [entry, exit, in_finish]
        self.pretrain: list[list[float]] = []  # [entry, exit, iterations]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.finishing = False  # inside threshold_and_rescale
        self.trajectory = None  # the run's Trajectory, kept to size it

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, now(), None, parent])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = now()

        return wrapper

    def write(self) -> None:
        out = {"import": self.imported, "evals": self.evals, "pretrain": self.pretrain}
        if self.trace:
            out["spans"] = self.spans
            out["trajectory_mb"] = trajectory_mb(self.trajectory)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _finishing(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.finishing = True
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder, mode: str, cli) -> None:
    """Patch the module attributes through which topokit reaches each layer."""
    from topokit import fem, io, optimizers, pipeline, reparam, runner

    evaluate_design = runner.evaluate_design
    pretrain_uniform = reparam.pretrain_uniform
    threshold_and_rescale = cli.threshold_and_rescale

    def timed_evaluate(problem, rho):
        if mode == "setup" and not rec.evals:
            rec.evals.append([now(), None, False])
            rec.write()
            sys.stdout.flush()
            os._exit(0)
        entry = [now(), None, rec.finishing]
        rec.evals.append(entry)
        try:
            return evaluate_design(problem, rho)
        finally:
            entry[1] = now()

    def timed_pretrain(*args, **kwargs):
        entry = [now(), None, 0]
        rec.pretrain.append(entry)
        try:
            result = pretrain_uniform(*args, **kwargs)
            entry[2] = int(result.iterations)
            return result
        finally:
            entry[1] = now()

    if rec.trace:
        timed_evaluate = rec.span("runner.evaluate_design", timed_evaluate)
        timed_pretrain = rec.span("reparam.pretrain_uniform", timed_pretrain)
        cli.threshold_and_rescale = rec.span(
            "runner.threshold_and_rescale", _finishing(rec, threshold_and_rescale)
        )
    else:
        cli.threshold_and_rescale = _finishing(rec, threshold_and_rescale)
    runner.evaluate_design = timed_evaluate
    reparam.pretrain_uniform = timed_pretrain
    if not rec.trace:
        return

    # fem: evaluate_objective contains assembly, factorization and solves.
    fem.evaluate_objective = rec.span("fem.evaluate_objective", fem.evaluate_objective)
    fem.assemble_system = rec.span("fem.assemble_system", fem.assemble_system)
    splu = fem.spla.splu

    class TimedLU:
        def __init__(self, lu):
            self.lu = lu
            self.solve = rec.span("fem.solve", lu.solve)

    def timed_splu(*args, **kwargs):
        return TimedLU(factor(*args, **kwargs))

    factor = rec.span("fem.factor", splu)
    fem.spla.splu = timed_splu  # this process only runs topokit

    # pipeline
    pipeline.build_filter = rec.span("pipeline.build_filter", pipeline.build_filter)
    op = pipeline.FilterOperator
    op.apply = rec.span("pipeline.filter.apply", op.apply)
    op.vjp = rec.span("pipeline.filter.vjp", op.vjp)
    pipeline.find_volume_shift = rec.span("pipeline.find_volume_shift", pipeline.find_volume_shift)
    pipeline.shifted_sigmoid_vjp = rec.span(
        "pipeline.shifted_sigmoid_vjp", pipeline.shifted_sigmoid_vjp
    )

    # reparam: the forward pass, and the VJP closure it returns.
    forward_with_vjp = rec.span("reparam.forward", reparam.forward_with_vjp)

    def traced_forward_with_vjp(*args, **kwargs):
        field, vjp_fun = forward_with_vjp(*args, **kwargs)
        return field, rec.span("reparam.vjp", vjp_fun)

    reparam.forward_with_vjp = traced_forward_with_vjp

    # optimizers: the loop's steps, the pretraining Adam steps and the record.
    runner.mma_step = rec.span("optimizers.mma_step", runner.mma_step)
    runner.adam_step = rec.span("optimizers.adam_step", runner.adam_step)
    optimizers.adam_step = rec.span("optimizers.adam_step", optimizers.adam_step)
    record = optimizers.Trajectory.record

    def kept_record(traj, *args, **kwargs):
        rec.trajectory = traj
        return record(traj, *args, **kwargs)

    optimizers.Trajectory.record = rec.span("optimizers.trajectory_record", kept_record)

    # io: every writer cmd_optimize calls.
    for name in ("write_trajectory_csv", "save_params", "write_density_csv", "write_pgm", "write_manifest"):
        setattr(io, name, rec.span("io.write", getattr(io, name)))


def trajectory_mb(traj) -> float:
    if traj is None:
        return 0.0
    arrays = list(traj.gradients) + list(traj.designs)
    if traj.best_feasible_design is not None:
        arrays.append(traj.best_feasible_design)
    return sum(a.nbytes for a in arrays) / 2**20


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[0] not in ("plain", "setup", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, src, timings = argv[0], os.path.abspath(argv[1]), argv[2]
    sys.path.insert(0, src)
    t0 = now()
    import topokit.cli as cli

    t1 = now()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: topokit was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    rec = Recorder(mode == "trace", timings, [t0, t1])
    install(rec, mode, cli)
    code = cli.main(argv[4:])
    rec.write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
