"""The benchmark's own tests: smoke runs, metric names, tracer hygiene, checks."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import checks, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_exactly_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["scenario.vehicle_steps"]["value"] == \
            workloads.WORKLOADS[workload].vehicle_steps(workloads.TINY)
        assert (metrics["trace.worker_spans"]["value"] > 0) == \
            (workloads.WORKLOADS[workload].workers > 0)


def test_declared_workloads_match_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ensembles", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture
def stopgo_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import stopgo.cli
    return stopgo.cli


def _stopgo_bindings():
    return {(name, key): id(value) for name, mod in sys.modules.items()
            if name == "stopgo" or name.startswith("stopgo.")
            for key, value in vars(mod).items() if callable(value)}


def test_tracer_restores_wrapped_functions(stopgo_cli, tmp_path):
    before = _stopgo_bindings()
    original = stopgo_cli.run_ensemble
    t = tracer.Tracer(tmp_path / "spool")
    t.install()
    try:
        assert stopgo_cli.run_ensemble is not original
        assert sys.modules["stopgo.ensemble"].run_ensemble is stopgo_cli.run_ensemble
    finally:
        t.uninstall()
    assert stopgo_cli.run_ensemble is original
    assert _stopgo_bindings() == before


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracer.Span("p", None, "ensemble.run_ensemble", 0.0, 10.0, 1),
        tracer.Span("a", "p", "scenario.run_with_rng", 1.0, 5.0, 2),
        tracer.Span("b", "p", "scenario.run_with_rng", 3.0, 7.0, 3),
        tracer.Span("c", "a", "metrics.over_time_std", 4.0, 5.0, 2),
    ]
    own = tracer.self_times(spans)
    assert own == {"p": 4.0, "a": 3.0, "b": 4.0, "c": 1.0}


def test_check_fails_on_corrupted_trajectory_csv(stopgo_cli, tmp_path):
    steps = 5
    argv = ["run", "--preset", "fig5", "--seed", "3", "--steps", str(steps), "--out", str(tmp_path)]
    assert stopgo_cli.main(argv) == 0
    path = tmp_path / "fig5_seed3_trajectory.csv"
    checks.check_trajectory(path, workloads.FIG5_N, steps)

    lines = path.read_text().splitlines()
    fields = lines[7].split(",")
    fields[4] = "-1.5"  # a negative speed
    path.write_text("\n".join(lines[:7] + [",".join(fields)] + lines[8:]) + "\n")
    with pytest.raises(checks.CheckError, match="speed"):
        checks.check_trajectory(path, workloads.FIG5_N, steps)

    path.write_text("\n".join(lines[:-1]) + "\n")  # the last row missing
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_trajectory(path, workloads.FIG5_N, steps)


def test_check_fails_on_corrupted_compare_csv(tmp_path):
    reference = checks.load_reference()["compare"]
    path = tmp_path / "compare.csv"
    rows = [",".join(checks.COMPARE_HEADER)]
    for kind in ("HV", *workloads.COMPARE_KINDS):
        mean = reference["final"][kind]["mean"]
        base = reference["final"]["HV"]["mean"]
        mpr = 0 if kind == "HV" else workloads.COMPARE_MPR
        rows.append(f"{kind},{mpr:.9g},{mean:.9g},0.1,{100 * (base - mean) / base:.9g}")
    path.write_text("\n".join(rows) + "\n")
    checks.check_compare(path, workloads.COMPARE_RUNS[workloads.FULL], reference)

    path.write_text("\n".join(rows).replace(",0.1,", ",-0.1,") + "\n")
    with pytest.raises(checks.CheckError, match="stderr"):
        checks.check_compare(path, workloads.COMPARE_RUNS[workloads.FULL], reference)
