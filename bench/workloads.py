"""The benchmark's workloads: which CLI commands make up one operation.

An operation is what the single closed-loop client issues before it starts
the next one. Operation ``i`` of a run with workload seed ``s`` passes
``--seed`` = ``s * 1000 + i`` to the CLI, so a run's inputs follow from its
seed alone and no two operations of a run repeat each other.

The preset facts the output checks rely on (fleet sizes, horizons, u0) are
written out here rather than read from the package, so that a change to the
package cannot silently change what the checks expect.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

FULL = "full"
TINY = "tiny"  # smoke size for the benchmark's own tests

U0 = 25.0  # ModelParams().u0, the speed cap of every preset used here
TAU = 1.5  # ModelParams().tau [s]

COMPARE_KINDS = ("AV", "MAV", "PCAV", "FCAV")
COMPARE_MPR = 0.02
FIG4_N, FIG4_STEPS = 200, 400
FIG6_N, FIG6_STEPS = 200, 1200
FIG5_N, FIG5_STEPS, FIG5_LENGTH = 100, 600, 2500.0
RING_WORKERS = 2

# Monte Carlo runs per ensemble (full, tiny): chosen so one `ensembles`
# operation takes under a second on a 2-core machine, and a run holds about 50.
COMPARE_RUNS = {FULL: 5, TINY: 2}
RING_RUNS = {FULL: 8, TINY: 2}
FIG5_TINY_STEPS = 40


def cli_seed(seed: int, op_index: int) -> int:
    return seed * 1000 + op_index


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    commands: Callable[[int, Path, str], List[List[str]]]
    vehicle_steps: Callable[[str], int]  # exact count per operation
    workers: int  # pool worker processes per command (0: none)


def _ensembles(seed: int, out: Path, size: str) -> List[List[str]]:
    compare = [
        "compare", "--preset", "fig4", "--kinds", ",".join(COMPARE_KINDS),
        "--mpr", str(COMPARE_MPR), "--workers", "1",
        "--runs", str(COMPARE_RUNS[size]), "--seed", str(seed), "--out", str(out),
    ]
    ring = [
        "mcs", "--preset", "fig6-mpr1", "--workers", str(RING_WORKERS),
        "--runs", str(RING_RUNS[size]), "--seed", str(seed), "--out", str(out),
    ]
    return [compare, ring]


def fig5_steps(size: str) -> int:
    return FIG5_STEPS if size == FULL else FIG5_TINY_STEPS


def _trajectory(seed: int, out: Path, size: str) -> List[List[str]]:
    run = ["run", "--preset", "fig5", "--seed", str(seed), "--out", str(out)]
    if size != FULL:
        run += ["--steps", str(fig5_steps(size))]
    plot = [
        "plot", str(out / f"fig5_seed{seed}_trajectory.csv"),
        "--out", str(out), "--name", f"fig5_seed{seed}_replot.svg",
    ]
    return [run, plot]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ensembles",
            _ensembles,
            lambda size: ((1 + len(COMPARE_KINDS)) * COMPARE_RUNS[size] * FIG4_N * FIG4_STEPS
                          + RING_RUNS[size] * FIG6_N * FIG6_STEPS),
            RING_WORKERS,
        ),
        Workload(
            "trajectory-io",
            _trajectory,
            lambda size: FIG5_N * fig5_steps(size),
            0,
        ),
    )
}
