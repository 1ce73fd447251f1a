"""The benchmark's workloads: one generated `topokit optimize` config each.

Names read ``<mapping>-<optimizer>[-<physics>]-<grid>``. Configs are plain
JSON built here, not taken from ``topokit.presets``, so that retuning a
preset does not silently change the benchmark; the smoke test flags it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass


def _michell(nx: int, ny: int) -> dict:
    return {"name": "michell", "nx": nx, "ny": ny, "v0": 0.6, "penalty": 3.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # everything but seed and budget
    budget: int  # evaluations past the first, per invocation
    seeds: tuple[int, ...]  # config seeds the benchmark seed picks from
    tiny_reparam: dict | None = None  # reparam override on the 16x8 smoke grid

    def make_config(self, seed: int, budget: int | None = None, tiny: bool = False) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = int(seed)
        cfg["budget"] = int(self.budget if budget is None else budget)
        cfg["pretrain"] = True
        if tiny:
            cfg["problem"]["nx"], cfg["problem"]["ny"] = TINY_GRID
            if self.tiny_reparam is not None:
                cfg["reparam"] = copy.deepcopy(self.tiny_reparam)
        return cfg


#: Output check: every objective of the trajectory must match the reference
#: to this relative tolerance, and the final volume fraction to this absolute
#: one. See README.md for how they were chosen.
OBJECTIVE_RTOL = 1e-6
VOLUME_ATOL = 1e-6

#: Grid of the smoke test; every workload shape must run on it.
TINY_GRID = (16, 8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="direct-mma-160",
            why="michell at 160x80, direct densities under MMA: the FE solve dominates each iteration",
            config={
                "problem": _michell(160, 80),
                "reparam": {"kind": "direct"},
                "optimizer": {"kind": "mma", "move_limit": 0.1, "asyinit": 0.2},
            },
            budget=5,
            seeds=(0, 1, 2, 3),
        ),
        Workload(
            name="mlp-mma-64",
            why="michell-p3-mlp-mma preset: MLP forward and two VJPs per iteration, MMA on 2k parameters, Adam pretraining",
            config={
                "problem": _michell(64, 32),
                "reparam": {"kind": "mlp"},
                "optimizer": {"kind": "mma", "move_limit": 0.003, "asyinit": 0.2, "theta_bound": 2.0},
            },
            budget=25,
            seeds=(12, 14, 16, 23),
        ),
        Workload(
            name="siren-adam-64",
            why="michell-p3-siren-adam preset: the only Adam path, volume-shift bisection every evaluation, one VJP",
            config={
                "problem": _michell(64, 32),
                "reparam": {"kind": "siren", "omega0": 15.0},
                "optimizer": {"kind": "adam", "learning_rate": 0.01, "grad_clip": 1e-4},
            },
            budget=30,
            seeds=(9, 13, 14, 15),
        ),
        Workload(
            name="cnn-mma-mechanism-128",
            why="mechanism at 128x64 with the CNN decoder under MMA: the only adjoint FE path (two solves, springs)",
            config={
                "problem": {"name": "mechanism", "nx": 128, "ny": 64, "penalty": 3.0},
                "reparam": {"kind": "cnn"},
                "optimizer": {"kind": "mma", "move_limit": 0.003, "asyinit": 0.1, "theta_bound": 2.0},
            },
            budget=9,
            seeds=(6, 12, 13, 22),
            tiny_reparam={"kind": "cnn", "upsample": [2, 4]},
        ),
    )
}
