"""Serialization: CSV fields, binary PGM images, trajectory tables,
parameter checkpoints, and run manifests.

A checkpoint is the flat parameter vector θ as raw float64 (``.bin``) beside
a JSON header (``.json``) with its entry count and the layout the caller
passes in. topokit writes checkpoints, PGM images and trajectory tables but
reads back only density CSVs and manifests.

Density CSVs are row-major (ny rows by nx columns, top row first) and use
``repr`` formatting so re-reading reproduces the exact float64 values.
:func:`read_field_csv` returns the (ny, nx) image as a plain float array and
is the one place a density file is checked: the reading commands trust what
it returns.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import pipeline
from .optimizers import Trajectory

TRAJECTORY_COLUMNS = (
    "iteration",
    "objective",
    "volume",
    "constraint_violation",
    "grad_norm",
    "grad_angle_rad",
)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_density_csv(path, values: np.ndarray, nx: int, ny: int) -> None:
    image = np.asarray(values, dtype=float).reshape(ny, nx)
    lines = [",".join(map(repr, row)) for row in image.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_field_csv(path) -> np.ndarray:
    """The (ny, nx) density image of a CSV written by :func:`write_density_csv`.

    Raises ``ValueError``, naming the file and the row, for a file that is
    not UTF-8 text or holds no rows, rows of unequal length, a token that is
    not a number, and a density that :func:`pipeline.first_bad_density` rejects.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    if not lines:
        raise ValueError(f"{path}: the file holds no density rows")
    rows = []
    for number, line in enumerate(lines, start=1):
        where = f"{path}, row {number}"
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:  # names the token
            raise ValueError(f"{where}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{where}: {len(row)} values, but row 1 has {len(rows[0])}")
        bad = pipeline.first_bad_density(row)
        if bad is not None:
            raise ValueError(f"{where}: density {bad!r} is not a finite value in [0, 1]")
        rows.append(row)
    return np.array(rows)


def write_pgm(path, values: np.ndarray, nx: int, ny: int) -> None:
    """8-bit binary PGM; densities scaled by 255 and rounded."""
    image = np.asarray(values, dtype=float).reshape(ny, nx)
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    table = np.array(
        [
            trajectory.objective,
            trajectory.volume,
            trajectory.constraint_violation,
            trajectory.grad_norm,
            trajectory.grad_angle,
        ],
        dtype=float,
    ).T
    write_csv_table(path, TRAJECTORY_COLUMNS, [[i, *row] for i, row in enumerate(table.tolist())])


def save_params(path, values: np.ndarray, layout) -> None:
    """Checkpoint of a flat θ: raw little-endian float64 next to a JSON header
    naming the caller's layout, its ``(name, shape)`` segments in packing order."""
    path = Path(path)
    header = {
        "dtype": "<f8",
        "count": values.size,
        "segments": [[name, list(shape)] for name, shape in layout],
    }
    path.with_suffix(".json").write_text(json.dumps(header, indent=2), encoding="utf-8")
    path.with_suffix(".bin").write_bytes(values.astype("<f8").tobytes())


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv_table(path, header: list[str], rows: list[list]) -> None:
    """CSV table; floats use ``repr``, and cells holding commas are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows)
