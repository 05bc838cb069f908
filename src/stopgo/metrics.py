"""Oscillation-growth metrics computed from run histories."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .scenario import RunRecord


_ROW_BLOCK = 64


class MetricError(ValueError):
    """Metric preconditions violated (window too short, degenerate data)."""


@dataclass
class PerVehicleStdCurve:
    """Speed standard deviation of each vehicle over a time window.

    values[i] belongs to platoon position i+1 (vehicle #1 is right behind
    the leader).
    """

    values: np.ndarray
    window: Tuple[float, float]


@dataclass
class OverTimeStdCurve:
    """Speed standard deviation across all vehicles, one value per step."""

    values: np.ndarray


def default_window(record: RunRecord) -> Tuple[float, float]:
    """Measurement window skipping a warm-up of N * tau seconds."""
    return _default_window(record.speeds, record.dt)


def _default_window(speeds: np.ndarray, dt: float) -> Tuple[float, float]:
    return (speeds.shape[1] * dt, (speeds.shape[0] - 1) * dt)


def per_vehicle_std(
    record: RunRecord, window: Optional[Tuple[float, float]] = None
) -> PerVehicleStdCurve:
    """Sample std (ddof=1) of each vehicle's speed series within the window."""
    return speed_std_per_vehicle(record.speeds, record.dt, window)


def speed_std_per_vehicle(
    speeds: np.ndarray, dt: float, window: Optional[Tuple[float, float]] = None
) -> PerVehicleStdCurve:
    """per_vehicle_std of a bare (n_steps + 1, N) speed history sampled every dt."""
    if window is None:
        window = _default_window(speeds, dt)
    t_start, t_end = window
    times = np.arange(speeds.shape[0]) * dt
    inside = np.flatnonzero((times >= t_start) & (times <= t_end))
    if inside.size < 2:
        raise MetricError(
            f"window [{t_start}, {t_end}] s contains {inside.size} samples; need >= 2"
        )
    # times increase, so the window is one slice of rows: a view, not a copy
    values = speeds[inside[0] : inside[-1] + 1].std(axis=0, ddof=1)
    return PerVehicleStdCurve(values=values, window=(t_start, t_end))


def over_time_std(record: RunRecord) -> OverTimeStdCurve:
    """Sample std (ddof=1) of the speed across vehicles at each step."""
    return OverTimeStdCurve(values=speed_std_across_vehicles(record.speeds))


def speed_std_across_vehicles(speeds: np.ndarray) -> np.ndarray:
    """Sample std (ddof=1) of each row of a (samples, N) speed history.

    Rows are reduced a block at a time, which bounds the temporaries to a
    block instead of a copy of the whole history.
    """
    if speeds.shape[1] < 2:
        raise MetricError("over_time_std needs at least 2 vehicles")
    return np.concatenate([
        speeds[i : i + _ROW_BLOCK].std(axis=1, ddof=1)
        for i in range(0, speeds.shape[0], _ROW_BLOCK)
    ])


def reduction_pct(baseline: float, treated: float) -> float:
    """Relative reduction 100 * (baseline - treated) / baseline."""
    if baseline <= 0:
        raise MetricError(f"baseline must be > 0, got {baseline}")
    return 100.0 * (baseline - treated) / baseline


def growth_exponent(
    curve: Union[PerVehicleStdCurve, np.ndarray],
    fit_range: Optional[Tuple[int, int]] = None,
) -> float:
    """Least-squares slope of log(std) vs log(vehicle index).

    fit_range is a 1-based inclusive (first, last) vehicle range; by default
    vehicles 10..N, skipping small-platoon transients.
    """
    values = np.asarray(getattr(curve, "values", curve), dtype=float)
    n = values.shape[0]
    lo, hi = fit_range if fit_range is not None else (min(10, n), n)
    if not 1 <= lo < hi <= n:
        raise MetricError(f"fit_range ({lo}, {hi}) invalid for {n} vehicles")
    idx = np.arange(lo, hi + 1)
    vals = values[lo - 1 : hi]
    if idx.size < 5:
        raise MetricError("fit_range must cover at least 5 vehicles")
    if np.any(vals <= 0):
        raise MetricError("growth_exponent needs strictly positive std values")
    slope, _ = np.polyfit(np.log(idx), np.log(vals), 1)
    return float(slope)
