"""Output checks behind ``failed``/``error_rate``, and golden hashes for ``outputs_identical``.

Every check holds for any seed. The statistical ones compare an ensemble
result with reference statistics captured from many runs by
``bench/capture_reference.py`` and allow ``Z_MAX`` standard errors, which
counts both the operation's own run count and the reference's.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import workloads as W

REFERENCE_PATH = Path(__file__).with_name("reference.json")
Z_MAX = 6.0
GOLDEN_SEED = 1  # outputs_identical compares operation 0 of this workload seed

# the schemas of stopgo.csvio, restated so a schema change shows as a failure
TRAJECTORY_HEADER = ["t", "vehicle", "kind", "position", "speed"]
CURVE_HEADER = ["index", "mean_std", "stderr"]
COMPARE_HEADER = ["kind", "mpr", "mean_std", "stderr", "reduction_pct"]
KINDS = {"HV", "AV", "MAV", "PCV", "PCAV", "FCV", "FCAV"}


class CheckError(Exception):
    pass


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _number(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    _require(math.isfinite(x), f"{what}: {text!r} is not finite")
    return x


def _rows(path: Path, header: List[str]) -> List[List[str]]:
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        got = next(reader, None)
        _require(got == header, f"{path.name}: header {got} != {header}")
        rows = list(reader)
    for row in rows:
        _require(len(row) == len(header), f"{path.name}: row {row} has {len(row)} fields")
    return rows


def _agrees(value: float, ref: dict, runs: int, ref_runs: int, what: str) -> None:
    se = ref["sd"] * math.sqrt(1.0 / runs + 1.0 / ref_runs)
    z = abs(value - ref["mean"]) / se if se > 0 else math.inf
    _require(z <= Z_MAX, f"{what}: {value:.6g} vs reference {ref['mean']:.6g} "
             f"is {z:.1f} standard errors off (limit {Z_MAX})")


def check_compare(path: Path, runs: int, ref: dict) -> None:
    rows = _rows(path, COMPARE_HEADER)
    kinds = ["HV", *W.COMPARE_KINDS]
    _require([r[0] for r in rows] == kinds, f"{path.name}: kinds {[r[0] for r in rows]} != {kinds}")
    baseline = None
    for kind, mpr, mean, stderr, reduction in rows:
        mpr = _number(mpr, f"{kind} mpr")
        mean = _number(mean, f"{kind} mean_std")
        stderr = _number(stderr, f"{kind} stderr")
        reduction = _number(reduction, f"{kind} reduction_pct")
        _require(mpr == (0.0 if kind == "HV" else W.COMPARE_MPR), f"{kind}: mpr {mpr}")
        _require(0.0 < mean <= W.U0, f"{kind}: mean_std {mean} outside (0, u0]")
        _require(stderr >= 0.0, f"{kind}: stderr {stderr} < 0")
        if baseline is None:
            baseline = mean
        expected = 100.0 * (baseline - mean) / baseline
        _require(abs(reduction - expected) <= 1e-6 * max(1.0, abs(expected)),
                 f"{kind}: reduction_pct {reduction} != {expected:.9g}")
        _agrees(mean, ref["final"][kind], runs, ref["runs"], f"{kind} mean_std")


def check_curve(path: Path, runs: int, ref: dict) -> None:
    rows = _rows(path, CURVE_HEADER)
    _require(len(rows) == W.FIG6_STEPS + 1, f"{path.name}: {len(rows)} rows != {W.FIG6_STEPS + 1}")
    mean = []
    for i, (index, m, se) in enumerate(rows):
        _require(index == str(i), f"{path.name}: index {index!r} at row {i}")
        m, se = _number(m, f"mean_std[{i}]"), _number(se, f"stderr[{i}]")
        _require(0.0 <= m <= W.U0, f"mean_std[{i}] = {m} outside [0, u0]")
        _require(se >= 0.0, f"stderr[{i}] = {se} < 0")
        mean.append(m)
    _require(mean[0] <= 1e-9, f"mean_std[0] = {mean[0]}; the ring starts at equilibrium")
    for (lo, hi), wref in zip(ref["windows"], ref["window_stats"]):
        avg = sum(mean[lo:hi + 1]) / (hi + 1 - lo)
        _agrees(avg, wref, runs, ref["runs"], f"mean_std over steps {lo}-{hi}")


def _floats(values, what: str) -> np.ndarray:
    try:
        x = np.asarray(values, dtype=float)
    except ValueError as exc:
        raise CheckError(f"{what}: {exc}") from None
    _require(bool(np.isfinite(x).all()), f"{what}: a value is not finite")
    return x


def check_trajectory(path: Path, n: int, steps: int) -> None:
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        got = next(reader, None)
        _require(got == TRAJECTORY_HEADER, f"{path.name}: header {got}")
        rows = list(reader)
    _require(len(rows) == n * (steps + 1),
             f"{path.name}: {len(rows)} rows != N*(steps+1) = {n * (steps + 1)}")
    for row in rows:
        _require(len(row) == 5, f"{path.name}: row {row}")
    t, vehicle, kind, position, speed = zip(*rows)
    _require(set(kind) <= KINDS, f"{path.name}: kinds {sorted(set(kind) - KINDS)}")
    vehicle = _floats(vehicle, f"{path.name}: vehicle")
    _require(bool(((vehicle >= 1) & (vehicle <= n) & (vehicle == np.round(vehicle))).all()),
             f"{path.name}: a vehicle number outside 1..{n}")
    _floats(t, f"{path.name}: t")
    _floats(position, f"{path.name}: position")
    v = _floats(speed, f"{path.name}: speed")
    outside = v[(v < 0.0) | (v > W.U0)]
    _require(outside.size == 0, f"{path.name}: speed {outside[:1]} outside [0, u0]")


def check_speeds(path: Path, n: int, steps: int) -> None:
    rows = _rows(path, ["t"] + [f"v{k + 1}" for k in range(n)])
    _require(len(rows) == steps + 1, f"{path.name}: {len(rows)} rows != {steps + 1}")
    v = _floats([row[1:] for row in rows], f"{path.name}: speed")
    _require(bool(((v >= 0.0) & (v <= W.U0)).all()), f"{path.name}: a speed outside [0, u0]")


def check_trajectory_svg(path: Path, n: int, steps: int, ring_length: float) -> None:
    """One line per vehicle and step, less at most one per ring crossing, plus 2 axes."""
    _require(path.is_file(), f"missing output {path.name}")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{path.name}: not well-formed XML: {exc}") from None
    _require(root.tag.endswith("svg"), f"{path.name}: root element {root.tag}")
    lines = sum(1 for e in root.iter() if e.tag.endswith("line"))
    crossings = math.ceil(W.U0 * steps * W.TAU / ring_length) + 1
    lo, hi = n * (steps - crossings) + 2, n * steps + 2
    _require(lo <= lines <= hi, f"{path.name}: {lines} line elements outside [{lo}, {hi}]")


def check_op(workload: str, size: str, op: dict, reference: dict) -> List[str]:
    """Problems with one operation: exit codes, tracebacks and output checks."""
    for cmd in op["commands"]:
        if cmd["traceback"]:
            return [f"traceback in {cmd['argv'][0]}: {cmd['traceback'].strip().splitlines()[-1]}"]
        if cmd["rc"] != 0:
            return [f"{cmd['argv'][0]} exited {cmd['rc']}: {cmd['stderr'].strip()}"]
    out, seed = Path(op["outdir"]), op["cli_seed"]
    try:
        if workload == "ensembles":
            check_compare(out / f"fig4_compare_mpr{W.COMPARE_MPR:g}_seed{seed}.csv",
                          W.COMPARE_RUNS[size], reference["compare"])
            check_curve(out / f"fig6-mpr1_MAV_mpr0.01_seed{seed}_curve.csv",
                        W.RING_RUNS[size], reference["ring"])
        else:
            steps = W.fig5_steps(size)
            stem = out / f"fig5_seed{seed}"
            check_trajectory(Path(f"{stem}_trajectory.csv"), W.FIG5_N, steps)
            check_speeds(Path(f"{stem}_speeds.csv"), W.FIG5_N, steps)
            for svg in (f"{stem}_trajectory.svg", f"{stem}_replot.svg"):
                check_trajectory_svg(Path(svg), W.FIG5_N, steps, W.FIG5_LENGTH)
    except (CheckError, OSError, ValueError) as exc:
        return [str(exc)]
    return []


def output_hashes(outdir: Path) -> Dict[str, str]:
    """File name -> sha256 of every file an operation wrote ({} if it wrote none)."""
    outdir = Path(outdir)
    if not outdir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir()) if p.is_file()
    }
