"""Named run presets and config-dict builders.

The tuned hyperparameter table below was obtained at 64x32 resolution with a
60-iteration tuning budget; presets ship so standard runs do not require a
search. Preset names follow ``<problem>-p<penalty>-<reparam>-<optimizer>``
plus the two two-bar setups.

Each config section is the keyword arguments of the type it builds: a
``problem`` section the parameters of :func:`problems.make_problem`'s
signature, a ``reparam`` section the fields of :class:`reparam.ArchitectureSpec`,
an ``optimizer`` section the fields of its config type, required where they
have no default. That type owns every default and value check. One function,
:func:`check_section`, checks the structure of every section, here and in
``cli``: a JSON object with no unknown key and every required one.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect

from .optimizers import AdamConfig, MmaConfig
from .problems import TWOBAR_THETA0, make_problem
from .reparam import ArchitectureSpec

#: MMA feasibility-penalty constant for the two-bar presets. It must exceed
#: the active constraint multipliers (about 1.2 at the optima) but stay
#: moderate: a stiff penalty pins the iterates to the feasible boundary and
#: the relaxed near-feasible band around the stress-constrained optimum
#: becomes untraversable.
TWOBAR_MMA_C = 3.0

# (move_limit, asyinit, theta_bound) for MMA; SIREN adds omega0.
_MMA_TUNED = {
    ("tensile", 1.0): {
        "direct": (0.03, 0.5, None, None),
        "mlp": (0.03, 0.4, 11.0, None),
        "siren": (2e-4, 0.1, 5.0, 25.0),
        "cnn": (0.056, 0.3, 11.0, None),
    },
    ("michell", 1.0): {
        "direct": (0.056, 0.3, None, None),
        "mlp": (0.002, 0.4, 8.0, None),
        "siren": (0.001, 0.1, 2.0, 10.0),
        "cnn": (0.0056, 0.2, 5.0, None),
    },
    ("tensile", 3.0): {
        "direct": (0.1, 0.2, None, None),
        "mlp": (0.003, 0.4, 5.0, None),
        "siren": (0.002, 0.2, 2.0, 5.0),
        "cnn": (0.0056, 0.5, 5.0, None),
    },
    ("michell", 3.0): {
        "direct": (0.1, 0.2, None, None),
        "mlp": (0.003, 0.2, 2.0, None),
        "siren": (0.002, 0.2, 2.0, 10.0),
        "cnn": (0.003, 0.1, 2.0, None),
    },
}

# (learning_rate, grad_clip) for Adam; SIREN adds omega0.
_ADAM_TUNED = {
    ("tensile", 1.0): {
        "mlp": (0.02, 1e-4, None),
        "siren": (0.01, 0.01, 5.0),
        "cnn": (0.03, 0.01, None),
    },
    ("michell", 1.0): {
        "mlp": (0.056, 0.1, None),
        "siren": (0.0056, 0.1, 15.0),
        "cnn": (0.056, 1e-4, None),
    },
    ("tensile", 3.0): {
        "mlp": (0.02, 0.1, None),
        "siren": (0.0056, 0.1, 15.0),
        "cnn": (0.03, 0.01, None),
    },
    ("michell", 3.0): {
        "mlp": (0.03, 1e-4, None),
        "siren": (0.01, 1e-4, 15.0),
        "cnn": (0.03, 0.01, None),
    },
}

#: Architectures of the expressivity sweep at each resolution: widths for
#: MLP/SIREN and (input size, dense channels, first-layer filters) for the
#: CNN; None marks under-parameterized rows the CNN cannot realize.
EXPRESSIVITY_SWEEP = {
    (64, 32): {
        "width": (11, 15, 20, 33, 42, 50),
        "cnn": (None, None, (1, 1, 2), (16, 12, 16), (32, 12, 32), (64, 16, 32)),
    },
    (128, 64): {
        "width": (23, 33, 44, 66, 85, 100),
        "cnn": (None, None, (1, 1, 2), (32, 12, 32), (64, 12, 64), (128, 16, 64)),
    },
    (256, 128): {
        "width": (48, 70, 90, 135, 170, 200),
        "cnn": (None, None, (1, 1, 2), (64, 16, 32), (96, 16, 64), (128, 16, 96)),
    },
    (320, 160): {
        "width": (60, 85, 110, 170, 215, 250),
        "cnn": (None, None, (1, 1, 2), (16, 16, 64), (64, 16, 96), (128, 16, 128)),
    },
}


def _base_config(problem: str, penalty: float, v0: float) -> dict:
    return {
        "problem": {"name": problem, "nx": 64, "ny": 32, "v0": v0, "penalty": penalty},
        "budget": 200,
        "seed": 0,
        "pretrain": True,
    }


def _build_presets() -> dict[str, dict]:
    presets: dict[str, dict] = {}
    for (problem, penalty), by_kind in _MMA_TUNED.items():
        for kind, (move, asy, bound, omega) in by_kind.items():
            cfg = _base_config(problem, penalty, 0.6)
            cfg["reparam"] = {"kind": kind}
            if omega is not None:
                cfg["reparam"]["omega0"] = omega
            cfg["optimizer"] = {"kind": "mma", "move_limit": move, "asyinit": asy}
            if bound is not None:
                cfg["optimizer"]["theta_bound"] = bound
            label = "baseline" if kind == "direct" else kind
            presets[f"{problem}-p{int(penalty)}-{label}-mma"] = cfg
    for (problem, penalty), by_kind in _ADAM_TUNED.items():
        for kind, (lr, clip, omega) in by_kind.items():
            cfg = _base_config(problem, penalty, 0.6)
            cfg["reparam"] = {"kind": kind}
            if omega is not None:
                cfg["reparam"]["omega0"] = omega
            cfg["optimizer"] = {"kind": "adam", "learning_rate": lr, "grad_clip": clip}
            presets[f"{problem}-p{int(penalty)}-{kind}-adam"] = cfg

    presets["twobar-baseline"] = {
        "problem": {"name": "twobar"},
        "reparam": {"kind": "direct"},
        "optimizer": {"kind": "mma", "move_limit": 2.0, "asyinit": 0.1, "c_const": TWOBAR_MMA_C},
        "budget": 100,
        "seed": 0,
    }
    presets["twobar-siren"] = {
        "problem": {"name": "twobar"},
        "reparam": {"kind": "siren", "omega0": 88.0},
        "optimizer": {
            "kind": "mma",
            "move_limit": 0.31,
            "asyinit": 0.1,
            "theta_bound": 3.0,
            "c_const": TWOBAR_MMA_C,
        },
        "budget": 100,
        "seed": 0,
        "theta0": list(TWOBAR_THETA0),
    }
    return presets


PRESETS = _build_presets()


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])


def check_section(cfg, what: str, known=None, required=()) -> dict:
    """``cfg`` if it is a JSON object with no key outside ``known`` (any key
    if None) and every key of ``required``; otherwise a ValueError naming
    ``what`` and the keys."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} config must be a JSON object, got {cfg!r:.60}")
    unknown = [] if known is None else sorted(set(cfg) - set(known))
    if unknown:
        raise ValueError(
            f"{what} config: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"{what} config: missing key(s) {', '.join(map(repr, missing))}")
    return cfg


def problem_from_config(cfg: dict):
    """Problem from a config dict: make_problem's parameters, a two-bar's name only."""
    name = check_section(cfg, "problem", required=("name",))["name"]
    known = {"name"} if name == "twobar" else inspect.signature(make_problem).parameters
    check_section(cfg, f"{name} problem", known)
    return make_problem(**cfg)


#: Config keys each reparameterization kind reads besides ``kind``: fields
#: of :class:`ArchitectureSpec` under their own names.
_REPARAM_KEYS = {
    "direct": set(),
    "mlp": {"width", "hidden_layers"},
    "siren": {"width", "hidden_layers", "omega0"},
    "cnn": {"input_size", "channels", "filters", "upsample"},
}


def spec_from_config(cfg: dict) -> ArchitectureSpec:
    """Architecture from a config dict, ``direct`` if it names no kind;
    unknown keys raise ValueError."""
    kind = check_section(cfg, "reparam").get("kind", "direct")
    if not isinstance(kind, str) or kind not in _REPARAM_KEYS:
        raise ValueError(f"unknown reparameterization kind {kind!r}")
    check_section(cfg, f"{kind} reparam", _REPARAM_KEYS[kind] | {"kind"})
    kwargs = dict(cfg, kind=kind)
    for key in ("filters", "upsample"):  # JSON has lists, the spec tuples
        if key in cfg:
            if not isinstance(cfg[key], list):
                raise ValueError(f"{key!r} must be a list of integers, got {cfg[key]!r:.60}")
            kwargs[key] = tuple(cfg[key])
    return ArchitectureSpec(**kwargs)


_OPTIMIZERS = {"mma": MmaConfig, "adam": AdamConfig}


def optimizer_kind(cfg: dict) -> str:
    """The kind an optimizer config section names, ``mma`` if none; an unknown kind raises ValueError."""
    kind = check_section(cfg, "optimizer").get("kind", "mma")
    if not isinstance(kind, str) or kind not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return kind


def optimizer_fields(kind: str) -> tuple[set[str], tuple[str, ...]]:
    """The keys of an optimizer section of ``kind`` besides ``kind``, and those it
    requires: the fields of its config type, and those without a default."""
    fields = dataclasses.fields(_OPTIMIZERS[kind])
    return {f.name for f in fields}, tuple(f.name for f in fields if f.default is dataclasses.MISSING)


def optimizer_from_config(cfg: dict) -> MmaConfig | AdamConfig:
    """Validated optimizer config; unknown or missing keys raise ValueError."""
    kind = optimizer_kind(cfg)
    known, required = optimizer_fields(kind)
    check_section(cfg, f"{kind} optimizer", known | {"kind"}, required)
    return _OPTIMIZERS[kind](**{key: value for key, value in cfg.items() if key != "kind"})


def sweep_specs(nx: int, ny: int) -> list[ArchitectureSpec]:
    """Expressivity sweep architectures for one of the studied resolutions."""
    if (nx, ny) not in EXPRESSIVITY_SWEEP:
        raise ValueError(f"no sweep table for resolution {nx}x{ny}")
    table = EXPRESSIVITY_SWEEP[(nx, ny)]
    specs = []
    for width in table["width"]:
        specs.append(ArchitectureSpec(kind="mlp", width=width))
        specs.append(ArchitectureSpec(kind="siren", width=width))
    for row in table["cnn"]:
        if row is None:
            continue
        n_in, channels, filters = row
        specs.append(
            ArchitectureSpec(
                kind="cnn",
                input_size=n_in,
                channels=channels,
                filters=(filters, 1),
                upsample=(4, 8),
            )
        )
    return specs
