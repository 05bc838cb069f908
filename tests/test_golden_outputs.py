"""Golden outputs: sha256 of the files small CLI runs write, pinned byte for byte.

The `run`, `mcs` and `compare` hashes were captured from the per-run
stepping loop that preceded the batched ensemble kernel, and the `plot`
hashes from the per-value CSV and per-segment SVG writers that preceded the
array formatting. Any change to the numbers a command produces, to
the order in which random numbers are drawn, or to how curves are reduced
and aggregated shows here as a hash mismatch.
"""
import hashlib

import pytest

from stopgo.cli import EXIT_COLLISION, EXIT_OK, main

GOLDEN = {
    "mcs-fig3b": (
        ["mcs", "--preset", "fig3b", "--runs", "7", "--steps", "60", "--seed", "3"],
        {"fig3b_MAV_mpr0.01_seed3_curve.csv":
            "848135ac88eb81032aae57468a6ed080e95a2ad9fa6fbc59cd8de191d793f69a"},
    ),
    "mcs-fig3b-pcv": (
        ["mcs", "--preset", "fig3b", "--kind", "PCV", "--mpr", "0.05", "--runs", "4",
         "--steps", "80", "--seed", "4"],
        {"fig3b_PCV_mpr0.05_seed4_curve.csv":
            "b71289bedab3c4a1a099f3cbe82116cbb343ad749e62af8f01741543c12b5ec6"},
    ),
    "mcs-fig2": (
        ["mcs", "--preset", "fig2", "--runs", "3", "--steps", "60", "--seed", "5"],
        {"fig2_FCAV_mpr0.01_seed5_curve.csv":
            "8573ee0416e42c3b68dc2cb9f3437c41b9188520deec3da9f9e4ab2157b0fbb7"},
    ),
    "mcs-fig6-mpr1": (
        ["mcs", "--preset", "fig6-mpr1", "--runs", "5", "--steps", "120", "--seed", "6",
         "--workers", "2"],
        {"fig6-mpr1_MAV_mpr0.01_seed6_curve.csv":
            "90cbaec774d8d272db30b235972f916c304a7f964473ea26bcec2bbd08d8e8ee"},
    ),
    "compare-fig4": (
        ["compare", "--preset", "fig4", "--kinds", "AV,MAV,PCAV,FCAV", "--mpr", "0.02",
         "--runs", "3", "--steps", "80", "--seed", "8"],
        {"fig4_compare_mpr0.02_seed8.csv":
            "9a250bebd188c2ba0ce1b310b2a40723c008caee214315b3b2ec83f5ec1a1a4f"},
    ),
    "run-fig1": (
        ["run", "--preset", "fig1", "--steps", "60", "--seed", "7"],
        {
            "fig1_seed7_speeds.csv":
                "27ab9a681ebebd168a6054d9e6799b8ea44179a4e71cf30d15e7d603e1c4b847",
            "fig1_seed7_trajectory.csv":
                "62fe9d64cff03c2fb256e57c1298e9e878e75844f859d18f12d3c318875456f5",
            "fig1_seed7_trajectory.svg":
                "0b1d256935ad0290f8fd8f518a6bad2be61bf42b2921c56be2f44e469dda2c1e",
        },
    ),
    "run-fig5": (
        ["run", "--preset", "fig5", "--steps", "60", "--seed", "7"],
        {
            "fig5_seed7_speeds.csv":
                "256b8d23485a5a5e672c9d0d750de28c255267e0fe47c1499caec8234e45aecb",
            "fig5_seed7_trajectory.csv":
                "12809f94aa5231786009b73eddac535079e70c24c5ece0f5bf7e2b7987364156",
            "fig5_seed7_trajectory.svg":
                "1488d800e40c2891ec6118dba2fb68f9ae71191ee6b062d4711ab93d5e45e7ed",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_match_golden(case, tmp_path):
    argv, expected = GOLDEN[case]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert got == expected


# `plot` of a result CSV that a command wrote: the replot SVG goes through
# the CSV readers, so these pin the reading side as well as the rendering.
# fig1 has a leader (vehicle 0); fig5 is a ring, replotted unwrapped.
PLOT_GOLDEN = {
    "plot-run-fig1": (
        ["run", "--preset", "fig1", "--steps", "60", "--seed", "7"],
        "fig1_seed7_trajectory.csv",
        "b8552e5fbbf3e27a617e14bb63847e41481a14e7b295d6be6d9ad6f13077a208",
    ),
    "plot-run-fig5": (
        ["run", "--preset", "fig5", "--steps", "60", "--seed", "7"],
        "fig5_seed7_trajectory.csv",
        "ca8463203eeee815a79efe11daa4616047b33239ffebdb5056b68a05cd17b983",
    ),
    "plot-mcs-fig3b": (
        ["mcs", "--preset", "fig3b", "--runs", "7", "--steps", "60", "--seed", "3"],
        "fig3b_MAV_mpr0.01_seed3_curve.csv",
        "a7b80bb7492ed7dd4291966c9fb5ea176efaf8b7aad4fc671d6dd1ad0cde214f",
    ),
}


@pytest.mark.parametrize("case", sorted(PLOT_GOLDEN))
def test_plot_bytes_match_golden(case, tmp_path):
    argv, csv_name, expected = PLOT_GOLDEN[case]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    plot_dir = tmp_path / "plot"
    assert main(["plot", str(tmp_path / csv_name), "--out", str(plot_dir),
                 "--name", "replot.svg"]) == EXIT_OK
    assert hashlib.sha256((plot_dir / "replot.svg").read_bytes()).hexdigest() == expected


# Six noisy runs behind a slow leader. At master seed 16, run 0 collides at
# t=33.0 s and run 1 collides earlier, at t=12.0 s; the ensemble reports the
# collision of the lowest-index run, not the earliest one.
CRASH_INI = """\
[model]
sigma_hat = 2.0
[scenario]
geometry = open
leader_speed = 5.0
n_vehicles = 6
initial_spacing = 12.0
n_steps = 40
[ensemble]
kind = HV
mpr = 0.0
n_runs = 6
window_start = 0
window_end = 60
"""


def test_collision_reports_lowest_run_index(tmp_path, capsys):
    cfg = tmp_path / "crash.ini"
    cfg.write_text(CRASH_INI)
    out = tmp_path / "out"
    rc = main(["mcs", "--config", str(cfg), "--seed", "16", "--out", str(out)])
    assert rc == EXIT_COLLISION
    assert capsys.readouterr().err == "error: collision at t=33.0 s: vehicle 3 spacing < 0\n"
    assert list(out.iterdir()) == []
