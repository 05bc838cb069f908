"""CSV schemas for trajectories, metric curves, and comparison tables.

All floats are rendered with 9 significant digits so written files round-trip
exactly and identical experiments produce byte-identical output.
"""
from __future__ import annotations

import csv
from typing import List, Sequence, Tuple

import numpy as np

from .ensemble import CompareRow, EnsembleCurve
from .model import VehicleKind
from .scenario import RunRecord

LEADER_LABEL = "LEADER"


class CsvFormatError(ValueError):
    """Unexpected header or malformed row in a results file."""


TRAJECTORY_HEADER = ["t", "vehicle", "kind", "position", "speed"]
CURVE_HEADER = ["index", "mean_std", "stderr"]
COMPARE_HEADER = ["kind", "mpr", "mean_std", "stderr", "reduction_pct"]

# one line per row, ending in \r\n as csv.writer's rows do; '%.9g' % x == format(x, '.9g')
_TRAJECTORY_ROW = "%.9g,%d,%s,%.9g,%.9g\r\n"
_CURVE_ROW = "%d,%.9g,%.9g\r\n"
_COMPARE_ROW = "%s,%.9g,%.9g,%.9g,%.9g\r\n"

# "U8" holds every kind label (6 characters at most); a longer label is cut
# to 8 characters and so fails the reader's kind check
TRAJECTORY_DTYPE = [
    ("t", float), ("vehicle", int), ("kind", "U8"), ("position", float), ("speed", float),
]
_TRAJECTORY_KINDS = [k.value for k in VehicleKind] + [LEADER_LABEL]

_BLOCK_ROWS = 8192  # rows formatted per write, so a large file never exists as one string


def _write_rows(path, header: Sequence[str], template: str, columns: Sequence) -> None:
    """Write a header and one `template % row` line per row of the equal-length columns."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [np.asarray(c[start:start + _BLOCK_ROWS]).tolist() for c in columns]
            f.write("".join([template % row for row in zip(*block)]))


def vehicle_columns(record: RunRecord) -> Tuple[List[int], List[str], np.ndarray, np.ndarray]:
    """Vehicle numbers, kind labels, and positions and speeds with one column
    per vehicle; the open-road leader is vehicle 0 and comes first."""
    numbers = list(range(1, record.n_vehicles + 1))
    kinds = [k.value for k in record.kinds]
    positions, speeds = record.positions, record.speeds
    if record.leader_positions is not None:
        numbers.insert(0, 0)
        kinds.insert(0, LEADER_LABEL)
        positions = np.column_stack([record.leader_positions, positions])
        leader_speed = np.full_like(record.times, record.geometry.leader_speed)
        speeds = np.column_stack([leader_speed, speeds])
    return numbers, kinds, positions, speeds


def write_trajectory_csv(record: RunRecord, path) -> None:
    """Long-format trajectory rows; the open-road leader is vehicle 0."""
    numbers, kinds, positions, speeds = vehicle_columns(record)
    n_times, width = positions.shape
    columns = (
        np.repeat(record.times, width),
        np.tile(numbers, n_times),
        np.tile(kinds, n_times),
        positions.ravel(),
        speeds.ravel(),
    )
    _write_rows(path, TRAJECTORY_HEADER, _TRAJECTORY_ROW, columns)


def read_trajectory_csv(path) -> np.ndarray:
    """Trajectory rows as a structured array whose fields are TRAJECTORY_HEADER."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        if header != TRAJECTORY_HEADER:
            raise CsvFormatError(f"unexpected trajectory header {header}")
        start = f.tell()
        if not f.readline().strip():
            raise CsvFormatError(f"trajectory file {path} has no row after its header")
        f.seek(start)
        try:
            rows = np.loadtxt(f, delimiter=",", dtype=TRAJECTORY_DTYPE, ndmin=1)
        except ValueError as exc:
            raise CsvFormatError(f"malformed trajectory file {path}: {exc}") from None
    for name in ("t", "position", "speed"):
        if not np.isfinite(rows[name]).all():
            raise CsvFormatError(f"trajectory file {path} has a non-finite {name}")
    unknown = ~np.isin(rows["kind"], _TRAJECTORY_KINDS)
    if unknown.any():
        raise CsvFormatError(
            f"trajectory file {path} has unknown kind {str(rows['kind'][unknown][0])!r}"
        )
    return rows


def write_speeds_csv(record: RunRecord, path) -> None:
    """Wide speed matrix: one column per vehicle, leader first when present."""
    numbers, _, _, speeds = vehicle_columns(record)
    header = ["t"] + [f"v{n}" for n in numbers]
    template = ",".join(["%.9g"] * len(header)) + "\r\n"
    _write_rows(path, header, template, [record.times, *speeds.T])


def curve_index(curve: EnsembleCurve) -> np.ndarray:
    """Vehicle numbers 1..N for per-vehicle curves, step numbers 0.. for over-time."""
    if curve.spec.metric == "per_vehicle":
        return np.arange(1, curve.mean.shape[0] + 1)
    return np.arange(curve.mean.shape[0])


def write_curve_csv(curve: EnsembleCurve, path) -> None:
    _write_rows(path, CURVE_HEADER, _CURVE_ROW, (curve_index(curve), curve.mean, curve.stderr))


def _read_rows(path, header: List[str], what: str) -> List[List[str]]:
    """The rows after a header that must equal `header`, each with as many fields."""
    with open(path, newline="") as f:
        r = csv.reader(f)
        got = next(r, None)
        if got != header:
            raise CsvFormatError(f"unexpected {what} header {got}")
        rows = list(r)
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{what} file {path} line {line} has {len(row)} fields, "
                f"expected {len(header)}"
            )
    return rows


def read_curve_csv(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = _read_rows(path, CURVE_HEADER, "curve")
    idx = np.array([int(row[0]) for row in rows])
    mean = np.array([float(row[1]) for row in rows])
    stderr = np.array([float(row[2]) for row in rows])
    return idx, mean, stderr


def write_compare_csv(rows: Sequence[CompareRow], path) -> None:
    columns = (
        [row.kind.value for row in rows],
        [row.mpr for row in rows],
        [row.mean_final for row in rows],
        [row.stderr_final for row in rows],
        [row.reduction_vs_baseline for row in rows],
    )
    _write_rows(path, COMPARE_HEADER, _COMPARE_ROW, columns)


def read_compare_csv(path) -> List[CompareRow]:
    return [
        CompareRow(
            kind=VehicleKind(row[0]),
            mpr=float(row[1]),
            mean_final=float(row[2]),
            stderr_final=float(row[3]),
            reduction_vs_baseline=float(row[4]),
        )
        for row in _read_rows(path, COMPARE_HEADER, "compare")
    ]
