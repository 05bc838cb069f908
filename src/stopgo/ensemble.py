"""Monte Carlo harness: seeded ensembles with randomized vehicle placement.

Every run derives its own seed from (master_seed, run_index), so results are
bit-identical no matter how runs are scheduled or how many workers execute
them. Runs are stepped in chunks, each chunk as one batch of the scenario
kernel; a process pool shards chunks, not runs.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import reduction_pct, speed_std_across_vehicles, speed_std_per_vehicle
from .model import ConfigurationError, ModelParams, VehicleKind
from .scenario import FleetConfig, Geometry, place_intelligent, run_with_rng

METRIC_PER_VEHICLE = "per_vehicle"
METRIC_OVER_TIME = "over_time"

# Bytes of speed history one chunk may hold; a whole fig4 ensemble of 250
# runs would hold 160 MB. 3 MiB holds 4 fig4 runs (0.64 MB each) or one
# fig6 ring run (1.9 MB), no more than a lone run's speeds and positions.
# Two ring runs per chunk raised the ensembles benchmark's peak memory by 5%.
CHUNK_BYTES = 3 * 2**20


@dataclass(frozen=True)
class EnsembleSpec:
    """Complete description of one Monte Carlo experiment."""

    geometry: Geometry
    n_vehicles: int
    mpr: float
    kind: VehicleKind
    n_runs: int
    n_steps: int
    master_seed: int
    metric: str = METRIC_PER_VEHICLE
    window: Optional[Tuple[float, float]] = None
    initial_spacing: Optional[float] = None
    params: ModelParams = ModelParams()
    fixed_position: Optional[int] = None  # pin the equipped vehicle instead of randomizing

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {self.n_runs}")
        if not 0.0 <= self.mpr <= 1.0:
            raise ConfigurationError(f"mpr must be in [0, 1], got {self.mpr}")
        if self.metric not in (METRIC_PER_VEHICLE, METRIC_OVER_TIME):
            raise ConfigurationError(f"unknown metric {self.metric!r}")
        if self.fixed_position is not None and not 0 <= self.fixed_position < self.n_vehicles:
            raise ConfigurationError(
                f"fixed_position must be in [0, {self.n_vehicles - 1}], got {self.fixed_position}"
            )


@dataclass
class EnsembleCurve:
    """Pointwise mean and standard error of a metric curve over all runs."""

    mean: np.ndarray
    stderr: np.ndarray
    n_runs: int
    spec: EnsembleSpec


def run_seed_sequence(master_seed: int, run_index: int) -> np.random.SeedSequence:
    """Stable per-run seed derivation; distinct for every run index."""
    return np.random.SeedSequence(master_seed, spawn_key=(run_index,))


def build_fleet(spec: EnsembleSpec, rng: np.random.Generator) -> FleetConfig:
    """One run's fleet: the equipped vehicle pinned at spec.fixed_position, or
    round(mpr * N) of them at positions drawn from rng."""
    if spec.fixed_position is not None:
        kinds = [VehicleKind.HV] * spec.n_vehicles
        kinds[spec.fixed_position] = spec.kind
    else:
        kinds = place_intelligent(spec.n_vehicles, spec.mpr, spec.kind, rng)
    return FleetConfig(kinds=kinds, initial_spacing=spec.initial_spacing)


def _run_bytes(spec: EnsembleSpec) -> int:
    return 8 * (spec.n_steps + 1) * spec.n_vehicles


def _chunk_size(spec: EnsembleSpec, n_workers: int) -> int:
    """Runs per chunk: at least one chunk per worker, none over the byte cap,
    and chunk sizes as even as that allows."""
    cap = max(1, CHUNK_BYTES // _run_bytes(spec))
    n_chunks = max(max(1, n_workers), -(-spec.n_runs // cap))
    return -(-spec.n_runs // n_chunks)


def _chunk_curves(spec: EnsembleSpec, start: int, stop: int) -> np.ndarray:
    """Metric curves of runs start..stop-1, one row each, stepped as one batch."""
    rngs = [
        np.random.default_rng(run_seed_sequence(spec.master_seed, r))
        for r in range(start, stop)
    ]
    fleets = [build_fleet(spec, rng) for rng in rngs]  # placement draws precede the noise
    record = run_with_rng(spec.geometry, fleets, spec.params, rngs, spec.n_steps)
    runs = np.hsplit(record.speeds, len(rngs))
    if spec.metric == METRIC_OVER_TIME:
        return np.stack([speed_std_across_vehicles(speeds) for speeds in runs])
    return np.stack([
        speed_std_per_vehicle(speeds, spec.params.tau, spec.window).values for speeds in runs
    ])


def run_ensemble(spec: EnsembleSpec, n_workers: int = 1) -> EnsembleCurve:
    """Run all seeds, then aggregate curves pointwise (mean of per-run stds)."""
    size = _chunk_size(spec, n_workers)
    starts = range(0, spec.n_runs, size)
    stops = [min(start + size, spec.n_runs) for start in starts]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(starts))) as pool:
            chunks = list(pool.map(_chunk_curves, [spec] * len(starts), starts, stops))
    else:
        chunks = [_chunk_curves(spec, start, stop) for start, stop in zip(starts, stops)]
    stacked = np.concatenate(chunks)
    mean = stacked.mean(axis=0)
    if spec.n_runs == 1:
        stderr = np.zeros_like(mean)
    else:
        stderr = stacked.std(axis=0, ddof=1) / np.sqrt(spec.n_runs)
    return EnsembleCurve(mean=mean, stderr=stderr, n_runs=spec.n_runs, spec=spec)


@dataclass
class CompareRow:
    """One kind-and-penetration entry of a comparison table."""

    kind: VehicleKind
    mpr: float
    mean_final: float
    stderr_final: float
    reduction_vs_baseline: float


def _equipped_count(spec: EnsembleSpec) -> int:
    return int(round(spec.mpr * spec.n_vehicles))


def compare_kinds(
    specs: Sequence[EnsembleSpec], n_workers: int = 1
) -> List[CompareRow]:
    """Final-point means and reductions vs the all-HV baseline spec.

    All specs must share geometry, fleet size, horizon, and metric settings;
    exactly one spec must be the baseline (zero equipped vehicles).
    """
    if not specs:
        raise ConfigurationError("compare_kinds needs at least one spec")
    ref = specs[0]
    for s in specs[1:]:
        if (
            s.geometry != ref.geometry
            or s.n_vehicles != ref.n_vehicles
            or s.n_steps != ref.n_steps
            or s.metric != ref.metric
            or s.window != ref.window
        ):
            raise ConfigurationError("compare_kinds specs differ in geometry/size/horizon")
    baselines = [s for s in specs if _equipped_count(s) == 0]
    if len(baselines) != 1:
        raise ConfigurationError(
            f"expected exactly one baseline (zero equipped) spec, got {len(baselines)}"
        )
    baseline_final = None
    rows = []
    for s in specs:
        curve = run_ensemble(s, n_workers=n_workers)
        final = float(curve.mean[-1])
        rows.append((s, final, float(curve.stderr[-1])))
        if _equipped_count(s) == 0:
            baseline_final = final
    return [
        CompareRow(
            kind=s.kind if _equipped_count(s) > 0 else VehicleKind.HV,
            mpr=s.mpr,
            mean_final=final,
            stderr_final=stderr,
            reduction_vs_baseline=reduction_pct(baseline_final, final),
        )
        for s, final, stderr in rows
    ]
