"""Named run presets and config-dict builders.

The tuned hyperparameter table below was obtained at 64x32 resolution with a
60-iteration tuning budget; presets ship so standard runs do not require a
search. Preset names follow ``<problem>-p<penalty>-<reparam>-<optimizer>``
plus the three two-bar setups.
"""

from __future__ import annotations

import copy

from .optimizers import AdamConfig, MmaConfig
from .problems import CATALOG, TWOBAR_THETA0, make_problem
from .reparam import ArchitectureSpec

SIREN_WIDTH = 22

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
    presets["twobar-siren-fast"] = {
        "problem": {"name": "twobar"},
        "reparam": {"kind": "siren", "omega0": 40.0},
        "optimizer": {
            "kind": "mma",
            "move_limit": 0.4,
            "asyinit": 0.3,
            "theta_bound": 11.0,
            "c_const": TWOBAR_MMA_C,
        },
        "budget": 20,
        "seed": 0,
        "theta0": list(TWOBAR_THETA0),
    }
    return presets


PRESETS = _build_presets()


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])


def _section(cfg, what: str) -> dict:
    """``cfg`` if it is a JSON object; otherwise a ValueError naming ``what``."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} config must be a JSON object, got {cfg!r:.60}")
    return cfg


def _reject_unknown_keys(cfg: dict, known: set[str], what: str) -> None:
    unknown = sorted(set(_section(cfg, what)) - known)
    if unknown:
        raise ValueError(
            f"{what} config: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )


def problem_from_config(cfg: dict):
    """Problem from a config dict; unknown keys raise ValueError."""
    name = _section(cfg, "problem")["name"]
    if name == "twobar":
        _reject_unknown_keys(cfg, {"name"}, "twobar problem")
        return make_problem("twobar")
    if name not in CATALOG:
        raise ValueError(f"unknown problem {name!r}; catalog: {', '.join(CATALOG + ('twobar',))}")
    _reject_unknown_keys(cfg, {"name", "nx", "ny", "v0", "penalty", "filter_radius"}, f"{name} problem")
    return make_problem(
        name,
        resolution=(cfg.get("nx", 64), cfg.get("ny", 32)),
        v0=cfg.get("v0"),
        penalty=cfg.get("penalty", 3.0),
        filter_radius=cfg.get("filter_radius"),
    )


#: Config keys each reparameterization kind reads, besides ``kind``, and the
#: :class:`ArchitectureSpec` field each sets. A key the config leaves out
#: keeps the spec's default; only SIREN's width has its own, SIREN_WIDTH.
_REPARAM_KEYS = {
    "direct": {},
    "mlp": {"width": "width", "hidden_layers": "hidden_layers"},
    "siren": {"width": "width", "hidden_layers": "hidden_layers", "omega0": "omega0"},
    "cnn": {
        "input_size": "cnn_input_size",
        "channels": "cnn_channels",
        "filters": "cnn_filters",
        "upsample": "cnn_upsample",
    },
}


def spec_from_config(cfg: dict) -> ArchitectureSpec:
    """Architecture from a config dict; unknown keys raise ValueError."""
    kind = _section(cfg, "reparam").get("kind", "direct")
    if not isinstance(kind, str) or kind not in _REPARAM_KEYS:
        raise ValueError(f"unknown reparameterization kind {kind!r}")
    fields = _REPARAM_KEYS[kind]
    _reject_unknown_keys(cfg, set(fields) | {"kind"}, f"{kind} reparam")
    kwargs = {fields[key]: value for key, value in cfg.items() if key != "kind"}
    for key in ("filters", "upsample"):
        if key in cfg:
            if not isinstance(cfg[key], list):
                raise ValueError(f"{key!r} must be a list of integers, got {cfg[key]!r:.60}")
            kwargs[fields[key]] = tuple(cfg[key])
    if kind == "siren":
        kwargs.setdefault("width", SIREN_WIDTH)
    return ArchitectureSpec(kind=kind, **kwargs)


_OPTIMIZERS = {"mma": MmaConfig, "adam": AdamConfig}


def optimizer_kind(cfg: dict) -> str:
    """The kind an optimizer config section names, ``mma`` if none; an unknown kind raises ValueError."""
    kind = _section(cfg, "optimizer").get("kind", "mma")
    if not isinstance(kind, str) or kind not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return kind


def optimizer_from_config(cfg: dict) -> MmaConfig | AdamConfig:
    """Validated optimizer config; unknown or missing keys raise ValueError."""
    kind = optimizer_kind(cfg)
    params = {key: value for key, value in cfg.items() if key != "kind"}
    try:
        return _OPTIMIZERS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"{kind} optimizer config: {exc}") from exc


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
                cnn_input_size=n_in,
                cnn_channels=channels,
                cnn_filters=(filters, 1),
                cnn_upsample=(4, 8),
            )
        )
    return specs
