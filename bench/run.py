"""Benchmark entry point: ``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``.

Run from the root of a stopgo checkout (it needs ``src/stopgo``). One run:

1. With ``--trace 0``, measures ``setup_s`` with fresh-interpreter probes
   (``bench.probe``), half before step 2 and half after it, and reports
   their median.
2. Starts the workload process (``bench.client``), which runs operations
   for ``--seconds`` seconds in a closed loop.
3. Checks every operation's outputs (``bench.checks``).
4. Prints a report, writes it with the run's metadata to
   ``.bench_work/results/``, and prints as its last line
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
   with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import checks
from .tracer import Span, layer_metrics
from .workloads import FULL, TINY, WORKLOADS, cli_seed

TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = {FULL: 6, TINY: 1}  # before and again after the workload process
SETUP_WARMUPS = {FULL: 1, TINY: 0}  # the first import writes bytecode caches

# thread pools of numerical libraries: one thread each, so pool workers, not
# library threads, decide how many cores a workload uses
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure_setup(argv: List[str], root: Path, env: Dict[str, str], size: str,
                  warmups: int) -> List[float]:
    """Seconds from starting a fresh interpreter to its first simulator call."""
    times = []
    for i in range(warmups + SETUP_PROBES[size]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "bench.probe", *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        if i >= warmups:
            times.append(float(proc.stdout.strip()) - t0)
    return times


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between the closest ranks, as numpy's default."""
    xs = sorted(values)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize_trace(client: dict, spans_by_op: List[List[dict]]) -> Dict[str, dict]:
    """Per-layer metrics: medians over traced operations, plus tracing overhead."""
    per_op = [layer_metrics([Span(**s) for s in spans], client["pid"]) for spans in spans_by_op]
    units = {"calls": "count", "self_s": "s", "us_per_step": "us", "vehicle_steps": "count",
             "vehicle_steps_per_s": "1/s", "record_mb": "MB", "bytes_written": "B",
             "bytes_read": "B", "worker_spans": "count"}
    out = {}
    for name in per_op[0]:
        out[name] = _metric(statistics.median(m[name] for m in per_op),
                            units[name.rsplit(".", 1)[1]])
    traced = [op["wall_s"] for op in client["ops"] if op["traced"]]
    plain = [op["wall_s"] for op in client["ops"][1:] if not op["traced"]]  # 0 is a warm-up
    out["trace.overhead_s"] = _metric(statistics.fmean(traced) - statistics.fmean(plain), "s")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=checks.GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="how long the closed loop issues operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=(FULL, TINY), default=FULL,
                    help="tiny: smoke size used by the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "stopgo" / "__init__.py").is_file():
        print(f"error: {root} holds no src/stopgo; run from the root of a stopgo checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    workdir = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup = []
    if not args.trace:
        probe_cmd = workload.commands(cli_seed(args.seed, 0), workdir / "probe", args.size)[0]
        setup = measure_setup(probe_cmd, root, env, args.size, SETUP_WARMUPS[args.size])

    # its own session, so that a timeout can stop its pool workers with it
    client_proc = subprocess.Popen(
        [sys.executable, "-m", "bench.client", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size, "--workdir", str(workdir)],
        cwd=root, env=env, start_new_session=True)
    try:
        rc = client_proc.wait(timeout=TIME_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        os.killpg(client_proc.pid, signal.SIGKILL)
        client_proc.wait()
        print("error: workload process timed out", file=sys.stderr)
        return 1
    if rc != 0:
        print(f"error: workload process exited {rc}", file=sys.stderr)
        return 1
    with open(workdir / "client.json") as f:
        client = json.load(f)
    if not args.trace:
        setup += measure_setup(probe_cmd, root, env, args.size, 0)

    reference = checks.load_reference()
    ops = client["ops"]
    problems: List[Tuple[int, str]] = []
    for op in ops:
        problems += [(op["index"], p) for p in checks.check_op(args.workload, args.size, op, reference)]
    failed = len({i for i, _ in problems})

    goldens = reference["goldens"]
    outputs_identical = None
    if args.seed == goldens["seed"] and args.size == goldens["size"]:
        outputs_identical = checks.output_hashes(Path(ops[0]["outdir"])) == goldens["sha256"][args.workload]

    results = root / ".bench_work" / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(workdir / "spans.json") as f:
            metrics = summarize_trace(client, json.load(f))
        shutil.move(workdir / "spans.json", f"{stem}-spans.json")
    else:
        # Operation 0 is a warm-up (lazy imports, first writes). See README.md
        # for why the timings are means.
        timed = [op for op in ops[1:] if all(c["rc"] == 0 for c in op["commands"])] or ops
        peak_kb = client["maxrss_self_kb"] + workload.workers * client["maxrss_children_kb"]
        quantiles = {
            key: {name: percentile([op[key] for op in timed], q)
                  for name, q in (("min", 0.0), ("p50", 0.5), ("p90", 0.9))}
            for key in ("wall_s", "cpu_s")
        }
        metrics = {
            "wall_s": _metric(statistics.fmean(op["wall_s"] for op in timed), "s"),
            "cpu_s": _metric(statistics.fmean(op["cpu_s"] for op in timed), "s"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(root),
        "python": client["python"], "numpy": client["numpy"], "nproc": os.cpu_count(),
        "platform": platform.platform(), "start_method": client["start_method"],
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "vehicle_steps_per_op": workload.vehicle_steps(args.size),
        "vehicle_steps": workload.vehicle_steps(args.size) * len(ops),
        "ops": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "outputs_identical": outputs_identical,
        "op_wall_s": [op["wall_s"] for op in ops], "op_cpu_s": [op["cpu_s"] for op in ops],
        "command_wall_s": [[c["wall_s"] for c in op["commands"]] for op in ops],
        "command_cpu_s": [[c["cpu_s"] for c in op["commands"]] for op in ops],
        "setup_probes_s": setup,
        "op_quantiles": None if args.trace else {"ops": len(timed), **quantiles},
        "problems": [f"op {i}: {p}" for i, p in problems],
    }
    with open(f"{stem}.json", "w") as f:
        json.dump({"meta": meta, "metrics": metrics}, f, indent=1)
    shutil.rmtree(workdir)

    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(ops)} operations, {failed} failed, error_rate={failed / len(ops):g}, "
          f"outputs_identical={outputs_identical}")
    for i, p in problems:
        print(f"  FAILED op {i}: {p}")
    if args.trace and workload.workers and not metrics["trace.worker_spans"]["value"]:
        print(f"  note: no spans from pool workers (start method {client['start_method']})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for key, q in quantiles.items():
            print(f"  per operation, {key}: " + ", ".join(f"{k} {v:.4g}" for k, v in q.items())
                  + f" s over {len(timed)} operations")
    print("meta " + json.dumps({k: meta[k] for k in (
        "git_sha", "python", "numpy", "nproc", "seed", "vehicle_steps_per_op",
        "vehicle_steps", "outputs_identical")}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
