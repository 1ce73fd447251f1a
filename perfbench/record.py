"""Record the output-check references of the current checkout.

    python3 perfbench/record.py

Runs every config the benchmark can generate (each workload at its budget
for every seed of its pool, and on the 16x8 smoke grid at budget 2) and
writes their objective history, final volume and evaluation count to
``references.json``, replacing all of it. Run it from the root of a
checkout, only at a commit whose results are known to be right; the
benchmark then fails any run that disagrees with them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    references = {}
    scratch = root / ".bench_out" / "record"
    for name, workload in sorted(WORKLOADS.items()):
        for tiny in (True, False):
            for seed in workload.seeds:
                cfg = workload.make_config(seed, 2 if tiny else None, tiny=tiny)
                key = run.reference_key(name, cfg)
                workdir = scratch / key.replace("/", "_")
                shutil.rmtree(workdir, ignore_errors=True)
                rec = run.invoke(root, workdir, "plain", cfg, time.monotonic() + 900.0)
                if rec["returncode"] != 0:
                    print(f"error: {key} exited with {rec['returncode']}", file=sys.stderr)
                    return 1
                got = run.read_output(workdir / "out")
                references[key] = got
                print(key, got["objectives"][-1], got["volume"], f"{rec['exit'] - rec['spawn']:.1f} s", flush=True)
    (run.HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
