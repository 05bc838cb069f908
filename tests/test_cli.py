import re
from pathlib import Path

import numpy as np
import pytest

from stopgo import csvio
from stopgo.cli import (
    EXIT_BAD_CONFIG,
    EXIT_COLLISION,
    EXIT_OK,
    EXIT_UNKNOWN_PRESET,
    main,
)
from stopgo.ensemble import EnsembleSpec, run_ensemble
from stopgo.model import VehicleKind
from stopgo.presets import get_preset
from stopgo.scenario import OpenRoad

K = VehicleKind


def test_run_fig1_outputs(tmp_path):
    rc = main(["run", "--preset", "fig1", "--seed", "7", "--steps", "30",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    traj = tmp_path / "fig1_seed7_trajectory.csv"
    rows = csvio.read_trajectory_csv(traj)
    assert set(rows["vehicle"].tolist()) == set(range(101))  # leader + 100 followers
    assert set(rows["kind"][rows["vehicle"] == 0].tolist()) == {"LEADER"}
    assert len(rows) == 31 * 101
    svg_text = (tmp_path / "fig1_seed7_trajectory.svg").read_text()
    assert svg_text.startswith("<svg")
    assert (tmp_path / "fig1_seed7_speeds.csv").exists()


def test_mcs_deterministic_bytes(tmp_path):
    args = ["mcs", "--preset", "fig6-mpr1", "--kind", "MAV", "--runs", "2",
            "--steps", "40", "--seed", "5", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    out = next(tmp_path.glob("*_curve.csv"))
    first = out.read_bytes()
    out.unlink()
    assert main(args) == EXIT_OK
    assert next(tmp_path.glob("*_curve.csv")).read_bytes() == first


def test_mcs_matches_library_call(tmp_path):
    rc = main(["mcs", "--preset", "fig3b", "--kind", "FCAV", "--runs", "3",
               "--steps", "60", "--seed", "9", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    idx, mean, stderr = csvio.read_curve_csv(next(tmp_path.glob("*_curve.csv")))
    preset = get_preset("fig3b")
    curve = run_ensemble(EnsembleSpec(
        geometry=preset.geometry, n_vehicles=100, mpr=0.01, kind=K.FCAV,
        n_runs=3, n_steps=60, master_seed=9, metric="per_vehicle",
        window=preset.window, initial_spacing=22.0,
    ))
    assert np.array_equal(idx, np.arange(1, 101))
    assert np.allclose(mean, curve.mean, rtol=1e-8)


def test_curve_csv_round_trip(tmp_path):
    spec = EnsembleSpec(
        geometry=OpenRoad((22 - 7.5) / 1.5), n_vehicles=20, mpr=0.0, kind=K.HV,
        n_runs=3, n_steps=50, master_seed=3, window=(0.0, 75.0),
        initial_spacing=22.0,
    )
    curve = run_ensemble(spec)
    path = tmp_path / "curve.csv"
    csvio.write_curve_csv(curve, path)
    _, mean, stderr = csvio.read_curve_csv(path)
    assert np.allclose(mean, curve.mean, rtol=1e-8, atol=0)
    assert np.allclose(stderr, curve.stderr, rtol=1e-8, atol=0)
    # re-writing the parsed values reproduces the same bytes
    first = path.read_bytes()
    curve.mean, curve.stderr = mean, stderr
    csvio.write_curve_csv(curve, path)
    assert path.read_bytes() == first


def test_compare_outputs_table(tmp_path):
    rc = main(["compare", "--preset", "fig3b", "--kinds", "AV,FCAV",
               "--runs", "3", "--steps", "60", "--seed", "2", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = csvio.read_compare_csv(next(tmp_path.glob("*compare*.csv")))
    kinds = [r.kind for r in rows]
    assert kinds == [K.HV, K.AV, K.FCAV]
    assert rows[0].reduction_vs_baseline == 0.0


def test_plot_curve_and_trajectory(tmp_path):
    assert main(["mcs", "--preset", "fig3b", "--runs", "2", "--steps", "40",
                 "--seed", "1", "--out", str(tmp_path)]) == EXIT_OK
    curve_csv = next(tmp_path.glob("*_curve.csv"))
    assert main(["plot", str(curve_csv), "--out", str(tmp_path)]) == EXIT_OK
    assert curve_csv.with_suffix(".svg").exists()

    assert main(["run", "--preset", "fig5", "--steps", "20", "--seed", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    traj_csv = tmp_path / "fig5_seed1_trajectory.csv"
    assert main(["plot", str(traj_csv), "--out", str(tmp_path),
                 "--name", "traj.svg"]) == EXIT_OK
    assert (tmp_path / "traj.svg").exists()


def test_unknown_preset_exit_code(tmp_path, capsys):
    rc = main(["run", "--preset", "nope", "--out", str(tmp_path)])
    assert rc == EXIT_UNKNOWN_PRESET
    assert "unknown preset" in capsys.readouterr().err


def test_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[scenario]\ngeometry = hexagon\n")
    rc = main(["run", "--preset", "fig1", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG


def test_missing_config_exit_code(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG


def test_collision_exit_code(tmp_path):
    cfg = tmp_path / "crash.ini"
    cfg.write_text(
        "[model]\nsigma_hat = 50\n"
        "[scenario]\ngeometry = open\nleader_speed = 0\n"
        "n_vehicles = 3\ninitial_spacing = 8\nn_steps = 50\n"
    )
    rc = main(["run", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path)])
    assert rc == EXIT_COLLISION


def test_config_file_overrides_preset_and_flags_win(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[ensemble]\nkind = MAV\nn_runs = 2\n[scenario]\nn_steps = 40\n")
    rc = main(["mcs", "--preset", "fig3b", "--config", str(cfg), "--kind", "FCAV",
               "--seed", "4", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    # flag wins over config for kind; config wins over preset for runs/steps
    assert (tmp_path / "fig3b_FCAV_mpr0.01_seed4_curve.csv").exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("STOPGO_OUTDIR", str(tmp_path / "envout"))
    rc = main(["mcs", "--preset", "fig3b", "--runs", "2", "--steps", "40", "--seed", "1"])
    assert rc == EXIT_OK
    assert list((tmp_path / "envout").glob("*_curve.csv"))


def test_fig4_curve_covers_200_vehicles(tmp_path):
    rc = main(["mcs", "--preset", "fig4", "--runs", "2", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    idx, _, _ = csvio.read_curve_csv(next(tmp_path.glob("fig4_*_curve.csv")))
    assert idx[0] == 1 and idx[-1] == 200 and len(idx) == 200


def test_empty_curve_writes_header_only(tmp_path):
    spec = EnsembleSpec(
        geometry=OpenRoad(10.0), n_vehicles=5, mpr=0.0, kind=K.HV,
        n_runs=1, n_steps=10, master_seed=1, window=(0.0, 15.0),
        initial_spacing=22.0,
    )
    curve = run_ensemble(spec)
    curve.mean = np.array([])
    curve.stderr = np.array([])
    path = tmp_path / "empty.csv"
    csvio.write_curve_csv(curve, path)
    assert path.read_text().strip() == "index,mean_std,stderr"


@pytest.mark.parametrize("command", ["run", "mcs"])
@pytest.mark.parametrize("position", [500, -1])
def test_fixed_position_out_of_range_exit_code(tmp_path, capsys, command, position):
    cfg = tmp_path / "pin.ini"
    cfg.write_text(f"[ensemble]\nfixed_position = {position}\n")
    rc = main([command, "--preset", "fig2", "--config", str(cfg), "--steps", "10",
               "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: fixed_position must be in [0, 99], got {position}\n"


@pytest.mark.parametrize("geometry, needed", [("ring", "length"), ("open", "leader_speed")])
def test_geometry_without_its_field_exit_code(tmp_path, capsys, geometry, needed):
    cfg = tmp_path / "geom.ini"
    cfg.write_text(f"[scenario]\ngeometry = {geometry}\nn_vehicles = 50\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"error: [scenario] geometry = {geometry} needs {needed}\n"
    )


def test_non_finite_model_parameter_exit_code(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[model]\ntau = nan\n")
    rc = main(["mcs", "--preset", "fig3b", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG
    assert "tau must be finite" in capsys.readouterr().err


def test_collision_in_pool_worker_exit_code(tmp_path, capsys):
    cfg = tmp_path / "crash.ini"
    cfg.write_text(
        "[model]\nsigma_hat = 50\n"
        "[scenario]\ngeometry = open\nleader_speed = 0\n"
        "n_vehicles = 3\ninitial_spacing = 8\nn_steps = 50\n"
    )
    rc = main(["mcs", "--config", str(cfg), "--runs", "4", "--workers", "2",
               "--seed", "2", "--out", str(tmp_path)])
    assert rc == EXIT_COLLISION
    assert capsys.readouterr().err.startswith("error: collision at t=")


@pytest.mark.parametrize("body, message", [
    ("index,mean_std,stderr\r\n0,1.0\r\n",
     "line 2 has 2 fields, expected 3"),
    ("t,vehicle,kind,position,speed\r\n"
     "0,1,HV,10,5\r\n0,2,HV,0,5\r\n1.5,1,HV,17.5,5\r\n",
     "vehicle 2 has 1 rows in"),
    ("index,mean_std,stderr\r\n",
     "has no row to plot"),
    ("t,vehicle,kind,position,speed\r\n",
     "has no row after its header"),
    ("t,vehicle,kind,position,speed\r\n0,1,HV,nan,5\r\n",
     "has a non-finite position"),
    ("t,vehicle,kind,position,speed\r\n0,1,TRUCK,10,5\r\n",
     "has unknown kind 'TRUCK'"),
], ids=["curve-row-short", "vehicle-rows-short", "curve-header-only", "header-only", "nan-position", "unknown-kind"])
def test_plot_malformed_csv_exit_code(tmp_path, capsys, body, message):
    src = tmp_path / "bad.csv"
    src.write_text(body, newline="")
    rc = main(["plot", str(src), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "bad.svg").exists()


def test_non_finite_initial_spacing_exit_code(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text(
        "[scenario]\ngeometry = open\nleader_speed = 10\nn_vehicles = 20\n"
        "initial_spacing = nan\nn_steps = 40\n"
        "[ensemble]\nwindow_start = 0\nwindow_end = 60\n"
    )
    rc = main(["mcs", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == "error: initial_spacing must be finite, got nan\n"
    assert list(tmp_path.glob("*_curve.csv")) == []


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(ini)
    rc = main(["mcs", "--config", str(cfg), "--runs", "2", "--steps", "20",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    idx, mean, _ = csvio.read_curve_csv(tmp_path / "custom_FCAV_mpr0.02_seed1_curve.csv")
    assert idx.tolist() == list(range(21))  # over_time: one row per step
    assert np.isfinite(mean).all()


@pytest.mark.parametrize("u0", ["0", "-5", "nan", "inf"])
def test_plot_u0_must_be_positive_and_finite(tmp_path, capsys, u0):
    assert main(["run", "--preset", "fig5", "--steps", "5", "--seed", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["plot", str(tmp_path / "fig5_seed1_trajectory.csv"), f"--u0={u0}",
              "--out", str(tmp_path), "--name", "replot.svg"])
    assert exc.value.code == 2
    assert "--u0: must be a positive finite speed" in capsys.readouterr().err
    assert not (tmp_path / "replot.svg").exists()
