"""Turn the records of child invocations into the benchmark's metrics.

A record is what ``child.py`` writes, plus the parent's spawn and exit times
and the peak RSS from ``wait4``. Times in records are seconds on the
system-wide monotonic clock.
"""

from __future__ import annotations

import statistics

#: Layers whose calls the traced run wraps; runner time is what is left.
LAYERS = ("fem", "pipeline", "reparam", "optimizers")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "finish_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "fem.evaluate_objective.ms": "ms",
    "fem.assemble_system.ms": "ms",
    "fem.factor.ms": "ms",
    "fem.solve.ms": "ms",
    "fem.solves_per_eval": "count",
    "fem.self.ms": "ms",
    "pipeline.build_filter.ms": "ms",
    "pipeline.filter.apply.ms": "ms",
    "pipeline.filter.vjp.ms": "ms",
    "pipeline.find_volume_shift.ms": "ms",
    "pipeline.find_volume_shift.calls": "count",
    "pipeline.shifted_sigmoid_vjp.ms": "ms",
    "reparam.forward.ms": "ms",
    "reparam.vjp.ms": "ms",
    "reparam.vjp.calls_per_iter": "count",
    "reparam.pretrain.s": "s",
    "reparam.pretrain.iters": "count",
    "reparam.pretrain.ms_per_iter": "ms",
    "optimizers.mma_step.ms": "ms",
    "optimizers.adam_step.ms": "ms",
    "optimizers.trajectory_record.ms": "ms",
    "optimizers.trajectory_mb": "MB",
    "runner.self.ms": "ms",
    "runner.threshold_and_rescale.ms": "ms",
    "io.write.ms": "ms",
    "cli.import.ms": "ms",
    "fem.share": "ratio",
    "pipeline.share": "ratio",
    "reparam.share": "ratio",
    "optimizers.share": "ratio",
    "runner.share": "ratio",
    "trace.overhead_ms": "ms",
}


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def loop_evals(rec: dict) -> list:
    """Evaluations of the optimization loop, without the finishing one."""
    return [e for e in rec["evals"] if not e[2]]


def iteration_ms(rec: dict) -> list[float]:
    """Wall time between successive loop evaluations: one optimizer iteration."""
    loop = loop_evals(rec)
    return [1000.0 * (b[0] - a[0]) for a, b in zip(loop, loop[1:])]


def pretrain_s(rec: dict) -> float:
    return sum(p[1] - p[0] for p in rec["pretrain"])


def setup_s(rec: dict) -> float:
    """Process start to the first objective evaluation, minus pretraining."""
    return rec["evals"][0][0] - rec["spawn"] - pretrain_s(rec)


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """End-to-end metrics: medians over the run's invocations, and iteration
    percentiles over the iterations of all of them."""
    iters = [ms for rec in runs for ms in iteration_ms(rec)]
    return {
        "run_s": median(r["exit"] - r["spawn"] for r in runs),
        "setup_s": median(setup_s(r) for r in runs),
        "iter_ms_p50": median(iters),
        "iter_ms_p90": p90(iters),
        "finish_s": median(r["exit"] - loop_evals(r)[-1][1] for r in runs),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    Per-call figures (``.ms``) and shares cover the iteration window: from
    the first loop evaluation to the last, which holds ``budget`` whole
    optimizer iterations. Set-up, pretraining and finishing spans are
    reported on their own. ``plain`` is an untraced invocation of the same
    config, for the tracing overhead.
    """
    spans = [
        {"name": s[0], "start": s[1], "dur": s[2] - s[1], "parent": s[3]}
        for s in traced["spans"]
    ]
    loop = loop_evals(traced)
    w0, w1 = loop[0][0], loop[-1][0]
    n_iter = len(loop) - 1
    window = [s for s in spans if w0 <= s["start"] < w1]

    def calls(name, where=window):
        return [s["dur"] for s in where if s["name"] == name]

    def per_call_ms(name, where=window):
        durs = calls(name, where)
        return 1000.0 * sum(durs) / len(durs) if durs else 0.0

    def total_ms(name, where=spans):
        return 1000.0 * sum(calls(name, where))

    # Layer time in the window: spans not nested inside another layer's span.
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for s in window:
        layer = s["name"].split(".")[0]
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else "runner."
        if layer in layer_s and parent.startswith("runner."):
            layer_s[layer] += s["dur"]
    window_s = w1 - w0
    runner_s = window_s - sum(layer_s.values())

    evals = calls("fem.evaluate_objective")
    fem_children = sum(
        sum(calls(name)) for name in ("fem.assemble_system", "fem.factor", "fem.solve")
    )
    pretrain_iters = sum(p[2] for p in traced["pretrain"])
    out = {
        "fem.evaluate_objective.ms": per_call_ms("fem.evaluate_objective"),
        "fem.assemble_system.ms": per_call_ms("fem.assemble_system"),
        "fem.factor.ms": per_call_ms("fem.factor"),
        "fem.solve.ms": per_call_ms("fem.solve"),
        "fem.solves_per_eval": len(calls("fem.solve")) / len(evals),
        "fem.self.ms": 1000.0 * (sum(evals) - fem_children) / len(evals),
        "pipeline.build_filter.ms": total_ms("pipeline.build_filter"),
        "pipeline.filter.apply.ms": per_call_ms("pipeline.filter.apply"),
        "pipeline.filter.vjp.ms": per_call_ms("pipeline.filter.vjp"),
        "pipeline.find_volume_shift.ms": per_call_ms("pipeline.find_volume_shift"),
        "pipeline.find_volume_shift.calls": float(len(calls("pipeline.find_volume_shift", spans))),
        "pipeline.shifted_sigmoid_vjp.ms": per_call_ms("pipeline.shifted_sigmoid_vjp"),
        "reparam.forward.ms": per_call_ms("reparam.forward"),
        "reparam.vjp.ms": per_call_ms("reparam.vjp"),
        "reparam.vjp.calls_per_iter": len(calls("reparam.vjp")) / n_iter,
        "reparam.pretrain.s": pretrain_s(traced),
        "reparam.pretrain.iters": float(pretrain_iters),
        "reparam.pretrain.ms_per_iter": (
            1000.0 * pretrain_s(traced) / pretrain_iters if pretrain_iters else 0.0
        ),
        "optimizers.mma_step.ms": per_call_ms("optimizers.mma_step"),
        "optimizers.adam_step.ms": per_call_ms("optimizers.adam_step", spans),
        "optimizers.trajectory_record.ms": per_call_ms("optimizers.trajectory_record"),
        "optimizers.trajectory_mb": float(traced["trajectory_mb"]),
        "runner.self.ms": 1000.0 * runner_s / n_iter,
        "runner.threshold_and_rescale.ms": total_ms("runner.threshold_and_rescale"),
        "io.write.ms": total_ms("io.write"),
        "cli.import.ms": 1000.0 * (traced["import"][1] - traced["import"][0]),
    }
    for layer, seconds in layer_s.items():
        out[f"{layer}.share"] = seconds / window_s
    out["runner.share"] = runner_s / window_s
    out["trace.overhead_ms"] = median(iteration_ms(traced)) - median(iteration_ms(plain))
    return out
