"""Serialization: CSV fields, binary PGM images, trajectory tables,
parameter checkpoints, and run manifests.

Density CSVs are row-major (ny rows by nx columns, top row first) and use
``repr`` formatting so re-reading reproduces the exact float64 values.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .fields import DensityField
from .optimizers import Trajectory
from .reparam import ParamVector

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


def write_field_csv(path, values: np.ndarray, nx: int, ny: int) -> None:
    image = np.asarray(values, dtype=float).reshape(ny, nx)
    lines = [",".join(_fmt(v) for v in row) for row in image]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_field_csv(path) -> DensityField:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").strip().splitlines():
        rows.append([float(tok) for tok in line.split(",")])
    image = np.asarray(rows, dtype=float)
    return DensityField.from_image(image)


def write_density_csv(path, rho, nx: int | None = None, ny: int | None = None) -> None:
    if isinstance(rho, DensityField):
        write_field_csv(path, rho.values, rho.nx, rho.ny)
    else:
        write_field_csv(path, rho, nx, ny)


def write_pgm(path, values: np.ndarray, nx: int, ny: int) -> None:
    """8-bit binary PGM; densities scaled by 255 and rounded."""
    image = np.asarray(values, dtype=float).reshape(ny, nx)
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    fields = []
    pos = 0
    # P5 header: magic, width, height, maxval, then one whitespace byte.
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while data[pos : pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1
    if fields[0] != b"P5":
        raise ValueError("not a binary PGM file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).astype(float) / maxval


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for i in range(trajectory.iterations):
        lines.append(
            ",".join(
                [
                    str(i),
                    _fmt(trajectory.objective[i]),
                    _fmt(trajectory.volume[i]),
                    _fmt(trajectory.constraint_violation[i]),
                    _fmt(trajectory.grad_norm[i]),
                    _fmt(trajectory.grad_angle[i]),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_params(path, theta: ParamVector) -> None:
    """Checkpoint: raw little-endian float64 next to a JSON segment header."""
    path = Path(path)
    header = {
        "dtype": "<f8",
        "count": len(theta),
        "segments": [[name, list(shape)] for name, shape in theta.layout],
    }
    path.with_suffix(".json").write_text(json.dumps(header, indent=2), encoding="utf-8")
    path.with_suffix(".bin").write_bytes(theta.values.astype("<f8").tobytes())


def load_params(path) -> ParamVector:
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    values = np.frombuffer(path.with_suffix(".bin").read_bytes(), dtype=header["dtype"]).astype(float)
    layout = tuple((name, tuple(shape)) for name, shape in header["segments"])
    return ParamVector(values=values, layout=layout)


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
