"""Rebuild ``bench/reference.json``: reference statistics and golden output hashes.

Usage, from the root of a checkout: ``python3 -m bench.capture_reference``
(about a minute on a 2-core machine).

Reference statistics come from many independent single runs through the
public ``run_ensemble`` API, with master seeds far from the benchmark's own.
Goldens are the sha256 of every output of operation 0 at workload seed
``checks.GOLDEN_SEED``. Re-capture only when an output change is intended,
and say so in the change that does it.
"""
from __future__ import annotations

import json
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import checks
from . import workloads as W
from .client import run_op

REF_SEED = 900_000
COMPARE_REF_RUNS = 300
RING_REF_RUNS = 200
RING_WINDOWS = [(1, 300), (301, 600), (601, 900), (901, 1200)]


def _stats(values):
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values)}


def _spec(preset, kind, mpr, seed):
    from stopgo.ensemble import EnsembleSpec
    from stopgo.model import VehicleKind
    from stopgo.presets import get_preset

    cfg = get_preset(preset)
    return EnsembleSpec(
        geometry=cfg.geometry, n_vehicles=cfg.n_vehicles, mpr=mpr,
        kind=VehicleKind(kind), n_runs=1, n_steps=cfg.n_steps, master_seed=seed,
        metric=cfg.metric, window=cfg.window, initial_spacing=cfg.initial_spacing,
        params=cfg.params,
    )


def _single_runs(spec, n_runs):
    from stopgo.ensemble import run_ensemble

    return [run_ensemble(replace(spec, master_seed=REF_SEED + k)).mean for k in range(n_runs)]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import stopgo.cli as cli

    final = {}
    for kind in ("HV", *W.COMPARE_KINDS):
        spec = _spec("fig4", kind, 0.0 if kind == "HV" else W.COMPARE_MPR, REF_SEED)
        final[kind] = _stats([float(c[-1]) for c in _single_runs(spec, COMPARE_REF_RUNS)])
    curves = _single_runs(_spec("fig6-mpr1", "MAV", 0.01, REF_SEED), RING_REF_RUNS)
    window_stats = [
        _stats([float(c[lo:hi + 1].mean()) for c in curves]) for lo, hi in RING_WINDOWS
    ]

    reference = {
        "compare": {"runs": COMPARE_REF_RUNS, "final": final},
        "ring": {"runs": RING_REF_RUNS, "windows": RING_WINDOWS, "window_stats": window_stats},
    }
    goldens = {}
    tmp = root / ".bench_work" / "capture"
    for name, workload in W.WORKLOADS.items():
        out = tmp / name
        seed = W.cli_seed(checks.GOLDEN_SEED, 0)
        op = run_op(cli, workload.commands(seed, out, W.FULL))
        op.update(outdir=str(out), cli_seed=seed)
        problems = checks.check_op(name, W.FULL, op, reference)
        if problems:
            sys.exit(f"{name}: golden operation fails its checks: {problems}")
        goldens[name] = checks.output_hashes(out)
    shutil.rmtree(tmp)
    reference["goldens"] = {"seed": checks.GOLDEN_SEED, "size": W.FULL, "sha256": goldens}

    with open(checks.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
