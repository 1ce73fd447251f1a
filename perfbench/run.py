"""topokit benchmark: timed `topokit optimize` invocations, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each invocation is a fresh process (``child.py``) driven by a generated JSON
config. A run starts with an untimed warm-up. With ``--trace 0`` it then
makes full invocations until ``--seconds`` are used and prints the end-to-end
metrics; with ``--trace 1`` it makes one untraced and one traced invocation
of the same config and prints the per-layer metrics. Every full invocation's
objective history, final volume and evaluation count are checked against
``references.json``. The last line of stdout is the result as JSON; a full
record with the environment goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analyze  # noqa: E402
from workloads import OBJECTIVE_RTOL, VOLUME_ATOL, WORKLOADS  # noqa: E402

#: A run ends within this many seconds whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

def reference_key(workload: str, cfg: dict) -> str:
    p = cfg["problem"]
    return f"{workload}/{p['nx']}x{p['ny']}/budget{cfg['budget']}/seed{cfg['seed']}"


def read_output(outdir: Path) -> dict:
    """Objective history, final volume and evaluation count of a finished run."""
    outcome = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))["outcome"]
    if outcome["status"] != "ok":
        raise ValueError(f"run status {outcome['status']!r}")
    rows = [
        row.split(",")
        for row in (outdir / "trajectory.csv").read_text(encoding="utf-8").strip().splitlines()
    ]
    objective, volume = rows[0].index("objective"), rows[0].index("volume")
    return {
        "objectives": [float(row[objective]) for row in rows[1:]],
        "volume": float(rows[-1][volume]),
        "evaluations": int(outcome["iterations"]),
    }


def check_output(outdir: Path, cfg: dict, reference: dict | None) -> str | None:
    """Why the invocation's output is wrong, or None when it passes."""
    if reference is None:
        return "no reference recorded for this config"
    try:
        got = read_output(outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if got["evaluations"] != cfg["budget"] + 1 or got["evaluations"] != reference["evaluations"]:
        return f"{got['evaluations']} evaluations, reference {reference['evaluations']}"
    # Relative to the largest objective of the run, as objectives may cross 0.
    scale = max(abs(v) for v in reference["objectives"])
    for i, (value, ref) in enumerate(zip(got["objectives"], reference["objectives"])):
        if not abs(value - ref) <= OBJECTIVE_RTOL * scale:
            return f"objective at evaluation {i} is {value!r}, reference {ref!r}"
    if not abs(got["volume"] - reference["volume"]) <= VOLUME_ATOL:
        return f"final volume {got['volume']!r}, reference {reference['volume']!r}"
    return None


def invoke(root: Path, workdir: Path, mode: str, cfg: dict, deadline: float) -> dict:
    """Run one child invocation; returns its record with parent-side timings."""
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    timings = workdir / "timings.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        str(root / "src"),
        str(timings),
        "--",
        "optimize",
        "--config",
        str(workdir / "config.json"),
        "--out",
        str(workdir / "out"),
    ]
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=root)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"mode": mode, "returncode": proc.returncode, "spawn": spawn, "exit": end}
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    if proc.returncode == 0 and timings.exists():
        record.update(json.loads(timings.read_text(encoding="utf-8")))
    return record


def environment(root: Path) -> dict:
    import numpy
    import scipy

    env = {
        name: os.environ.get(name)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["nproc"] = len(os.sched_getaffinity(0))
    env["python"] = platform.python_version()
    env["numpy"] = numpy.__version__
    env["scipy"] = scipy.__version__
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        env["blas"] = None
    env["git_commit"] = git_commit(root)
    return env


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="16x8 grid, budget 2, no warm-up (smoke test)"
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "topokit" / "cli.py").is_file():
        print(f"error: no topokit sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    # Byte-compile once so no measured import pays for compilation.
    compileall.compile_dir(str(root / "src" / "topokit"), quiet=1)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    outroot = root / ".bench_out" / tag
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)

    budget = 2 if args.tiny else workload.budget
    pool = workload.seeds
    failures: list[str] = []

    def run_one(name: str, mode: str, i: int) -> dict:
        """Invocation i of the run; full ones are checked against the reference."""
        cfg = workload.make_config(pool[(args.seed + i) % len(pool)], budget, tiny=args.tiny)
        if mode == "setup":
            cfg["pretrain"] = False  # pretraining warms nothing the next process shares
        rec = invoke(root, outroot / name, mode, cfg, hard_deadline)
        rec["config_seed"] = cfg["seed"]
        if rec["returncode"] != 0:
            why = f"exit code {rec['returncode']}"
        elif mode == "setup":
            why = None if rec.get("evals") else "no evaluation reached"
        else:
            reference = references.get(reference_key(workload.name, cfg))
            why = check_output(outroot / name / "out", cfg, reference)
        rec["check"] = why or "ok"
        if why:
            failures.append(f"{name} (config seed {cfg['seed']}): {why}")
        return rec

    # The warm-up is a set-up probe whose timings are not used: it brings the
    # page cache and the CPU to the state the measured invocations then share.
    warmup = [] if args.tiny else [run_one("warmup", "setup", 0)]
    runs: list[dict] = []
    if args.trace:
        runs = [run_one("plain0", "plain", 0), run_one("trace0", "trace", 0)]
    else:
        deadline = min(started + args.seconds, hard_deadline - 10.0)
        while True:
            rec = run_one(f"plain{len(runs)}", "plain", len(runs))
            runs.append(rec)
            if time.monotonic() + (rec["exit"] - rec["spawn"]) > deadline:
                break

    attempted = len(runs) + len(warmup)
    good = [r for r in runs if r["check"] == "ok"]
    metrics: dict[str, float] = {}
    if args.trace:
        if len(good) == 2:
            metrics = analyze.per_layer(traced=runs[1], plain=runs[0])
    elif good:
        metrics = analyze.end_to_end(good)
        metrics["ok_share"] = (attempted - len(failures)) / attempted
    correct = not failures and bool(metrics)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "budget": budget,
        "environment": environment(root),
        "output_check": {"objective_rtol": OBJECTIVE_RTOL, "volume_atol": VOLUME_ATOL},
        "failures": failures,
        "iteration_samples": [len(analyze.iteration_ms(r)) for r in good],
        "metrics": metrics,
        "warmup": warmup,
        "invocations": runs,
        "elapsed_s": time.monotonic() - started,
    }
    (root / ".bench_out" / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    units = analyze.PER_LAYER_UNITS if args.trace else analyze.END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
