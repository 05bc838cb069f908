"""Command-line front end: run single simulations or ensembles, write CSV/SVG.

Exit codes:
  0  success
  2  usage error (bad flags/arguments)
  3  unknown preset
  4  malformed config or inconsistent parameters
  5  collision abort (the run produced a negative spacing)
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import csvio, svg
from .ensemble import EnsembleSpec, build_fleet, compare_kinds, run_ensemble
from .metrics import over_time_std, per_vehicle_std
from .model import ConfigurationError, ModelParams, VehicleKind
from .presets import PRESETS, ExperimentConfig, get_preset
from .scenario import CollisionError, OpenRoad, Ring, run_with_rng

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNKNOWN_PRESET = 3
EXIT_BAD_CONFIG = 4
EXIT_COLLISION = 5

OUTDIR_ENV = "STOPGO_OUTDIR"


class ConfigFileError(ValueError):
    pass


def _required_float(section: configparser.SectionProxy, key: str, geometry: str) -> float:
    if key not in section:
        raise ConfigFileError(f"[scenario] geometry = {geometry} needs {key}")
    return section.getfloat(key)


def _load_config_file(path: str, base: ExperimentConfig) -> ExperimentConfig:
    """Overlay an INI config file onto a base experiment."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigFileError(f"config file {path!r} not found or unreadable")
    cfg = base
    try:
        if parser.has_section("model"):
            m = parser["model"]
            cfg = replace(cfg, params=ModelParams(
                u0=m.getfloat("u0", cfg.params.u0),
                s_j=m.getfloat("s_j", cfg.params.s_j),
                tau=m.getfloat("tau", cfg.params.tau),
                sigma_hat=m.getfloat("sigma_hat", cfg.params.sigma_hat),
            ))
        if parser.has_section("scenario"):
            s = parser["scenario"]
            geometry, initial_spacing = cfg.geometry, cfg.initial_spacing
            if s.get("geometry", None):
                g = s["geometry"].strip().lower()
                if g == "ring":
                    geometry = Ring(length=_required_float(s, "length", g))
                elif g == "open":
                    geometry = OpenRoad(leader_speed=_required_float(s, "leader_speed", g))
                else:
                    raise ConfigFileError(f"geometry must be 'open' or 'ring', got {g!r}")
                initial_spacing = None  # the base preset's spacing fits its own geometry
            elif isinstance(geometry, Ring) and "length" in s:
                geometry = Ring(length=s.getfloat("length"))
            elif isinstance(geometry, OpenRoad) and "leader_speed" in s:
                geometry = OpenRoad(leader_speed=s.getfloat("leader_speed"))
            cfg = replace(
                cfg,
                geometry=geometry,
                n_vehicles=s.getint("n_vehicles", cfg.n_vehicles),
                initial_spacing=(
                    s.getfloat("initial_spacing")
                    if "initial_spacing" in s else initial_spacing
                ),
                n_steps=s.getint("n_steps", cfg.n_steps),
            )
        if parser.has_section("ensemble"):
            e = parser["ensemble"]
            window = cfg.window
            if "window_start" in e or "window_end" in e:
                window = (e.getfloat("window_start"), e.getfloat("window_end"))
            cfg = replace(
                cfg,
                kind=VehicleKind(e.get("kind", cfg.kind.value).upper()),
                mpr=e.getfloat("mpr", cfg.mpr),
                n_runs=e.getint("n_runs", cfg.n_runs),
                seed=e.getint("master_seed", cfg.seed),
                metric=e.get("metric", cfg.metric),
                window=window,
                fixed_position=(
                    e.getint("fixed_position")
                    if "fixed_position" in e else cfg.fixed_position
                ),
            )
    except (ValueError, KeyError, configparser.Error) as exc:
        if isinstance(exc, ConfigFileError):
            raise
        raise ConfigFileError(f"malformed config {path!r}: {exc}") from exc
    return cfg


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    """flag > config file > preset default."""
    if args.preset:
        cfg = get_preset(args.preset)
    elif getattr(args, "config", None):
        cfg = replace(get_preset("fig1"), name="custom", description="from config file")
    else:
        raise ConfigFileError("either --preset or --config is required")
    if getattr(args, "config", None):
        cfg = _load_config_file(args.config, cfg)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "kind", None):
        cfg = replace(cfg, kind=VehicleKind(args.kind.upper()))
    if getattr(args, "mpr", None) is not None:
        cfg = replace(cfg, mpr=args.mpr)
    if getattr(args, "runs", None) is not None:
        cfg = replace(cfg, n_runs=args.runs)
    if getattr(args, "steps", None) is not None:
        cfg = replace(cfg, n_steps=args.steps)
    return cfg


def _outdir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _to_spec(cfg: ExperimentConfig) -> EnsembleSpec:
    return EnsembleSpec(
        geometry=cfg.geometry,
        n_vehicles=cfg.n_vehicles,
        mpr=cfg.mpr,
        kind=cfg.kind,
        n_runs=cfg.n_runs,
        n_steps=cfg.n_steps,
        master_seed=cfg.seed,
        metric=cfg.metric,
        window=cfg.window,
        initial_spacing=cfg.initial_spacing,
        params=cfg.params,
        fixed_position=cfg.fixed_position,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = _outdir(args)
    rng = np.random.default_rng(cfg.seed)
    fleet = build_fleet(_to_spec(cfg), rng)
    record = run_with_rng(cfg.geometry, fleet, cfg.params, rng, cfg.n_steps)

    stem = f"{cfg.name}_seed{cfg.seed}"
    csvio.write_trajectory_csv(record, out / f"{stem}_trajectory.csv")
    csvio.write_speeds_csv(record, out / f"{stem}_speeds.csv")

    _, _, positions, speeds = csvio.vehicle_columns(record)
    ring_length = cfg.geometry.length if isinstance(cfg.geometry, Ring) else None
    svg.render_trajectories(
        record.times, positions.T, speeds.T, cfg.params.u0,
        out / f"{stem}_trajectory.svg",
        ring_length=ring_length,
        title=f"{cfg.name}: trajectories colored by speed",
    )
    print(f"wrote {stem}_trajectory.csv, {stem}_speeds.csv, {stem}_trajectory.svg in {out}")
    return EXIT_OK


def _curve_stem(cfg: ExperimentConfig) -> str:
    return f"{cfg.name}_{cfg.kind.value}_mpr{cfg.mpr:g}_seed{cfg.seed}"


def _cmd_mcs(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = _outdir(args)
    curve = run_ensemble(_to_spec(cfg), n_workers=args.workers)
    path = out / f"{_curve_stem(cfg)}_curve.csv"
    csvio.write_curve_csv(curve, path)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = _outdir(args)
    kinds = [VehicleKind(k.strip().upper()) for k in args.kinds.split(",") if k.strip()]
    base = _to_spec(cfg)
    specs = [replace(base, mpr=0.0, kind=VehicleKind.HV)]
    specs += [replace(base, kind=k) for k in kinds]
    rows = compare_kinds(specs, n_workers=args.workers)
    path = out / f"{cfg.name}_compare_mpr{cfg.mpr:g}_seed{cfg.seed}.csv"
    csvio.write_compare_csv(rows, path)
    for row in rows:
        print(
            f"{row.kind.value:5s} mpr={row.mpr:g} final={row.mean_final:.4f} "
            f"reduction={row.reduction_vs_baseline:+.1f}%"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    out = _outdir(args)
    src = Path(args.input)
    with open(src, newline="") as f:
        header = f.readline().strip().split(",")
    dest = out / (args.name or src.with_suffix(".svg").name)
    if header == csvio.CURVE_HEADER:
        idx, mean, stderr = csvio.read_curve_csv(src)
        if not idx.size:
            raise csvio.CsvFormatError(f"curve file {src} has no row to plot")
        svg.render_curves(
            idx, {"mean": mean, "mean+2se": mean + 2 * stderr},
            dest, "index", "speed std [m/s]", title=src.stem,
        )
    elif header == csvio.TRAJECTORY_HEADER:
        rows = csvio.read_trajectory_csv(src)
        times = np.unique(rows["t"])
        vehicles, first, group = np.unique(
            rows["vehicle"], return_index=True, return_inverse=True
        )
        by_first = np.argsort(first)  # vehicles in order of first appearance
        rank = np.argsort(by_first)[group]  # each row's vehicle, in that order
        counts = np.bincount(rank)
        bad = np.flatnonzero(counts != times.size)
        if bad.size:
            raise csvio.CsvFormatError(
                f"vehicle {vehicles[by_first[bad[0]]]} has {counts[bad[0]]} rows in {src} "
                f"for {times.size} time stamps"
            )
        order = np.argsort(rank, kind="stable")
        shape = (vehicles.size, times.size)
        positions = rows["position"][order].reshape(shape)
        speeds = rows["speed"][order].reshape(shape)
        u0 = args.u0 if args.u0 is not None else ModelParams().u0
        svg.render_trajectories(times, positions, speeds, u0, dest, title=src.stem)
    else:
        raise csvio.CsvFormatError(f"unrecognized CSV header {header}")
    print(f"wrote {dest}")
    return EXIT_OK


def _speed(text: str) -> float:
    """A positive, finite speed [m/s]."""
    u0 = float(text)
    if not (np.isfinite(u0) and u0 > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite speed, got {text}")
    return u0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopgo",
        description="Stop-and-go wave simulator with intelligent-vehicle mitigation.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ensemble=False):
        p.add_argument("--preset", help=f"named experiment preset: {', '.join(sorted(PRESETS))}")
        p.add_argument("--config", help="INI config file overriding preset values")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--kind", help="intelligent vehicle kind (HV, AV, MAV, PCV, PCAV, FCV, FCAV)")
        p.add_argument("--mpr", type=float, help="market penetration rate in [0, 1]")
        p.add_argument("--steps", type=int, help="number of simulation steps")
        if ensemble:
            p.add_argument("--runs", type=int, help="number of Monte Carlo runs")
            p.add_argument("--workers", type=int, default=1, help="worker processes")

    p_run = sub.add_parser("run", help="single simulation: trajectory/speed CSVs + SVG")
    common(p_run)
    p_run.set_defaults(func=_cmd_run, runs=None)

    p_mcs = sub.add_parser("mcs", help="Monte Carlo ensemble: metric-curve CSV")
    common(p_mcs, ensemble=True)
    p_mcs.set_defaults(func=_cmd_mcs)

    p_cmp = sub.add_parser("compare", help="reduction table vs all-HV baseline")
    common(p_cmp, ensemble=True)
    p_cmp.add_argument("--kinds", default="AV,MAV,PCAV,FCAV", help="comma-separated kinds")
    p_cmp.set_defaults(func=_cmd_compare)

    p_plot = sub.add_parser("plot", help="render an SVG from a results CSV")
    p_plot.add_argument("input", help="CSV produced by run/mcs/compare")
    p_plot.add_argument("--out", help="output directory")
    p_plot.add_argument("--name", help="output file name")
    p_plot.add_argument("--u0", type=_speed, help="free-flow speed for the colormap")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_PRESET
    except (ConfigFileError, ConfigurationError, csvio.CsvFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CollisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
