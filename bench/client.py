"""The workload process: one closed-loop client calling ``stopgo.cli.main``.

Each operation starts when the previous one has ended. The process imports
the package once, so operation timings exclude set-up, and it never checks
outputs itself, so its memory peak is the program's. It writes what it saw
to ``<workdir>/client.json`` (and the spans of traced operations to
``<workdir>/spans.json``) for ``bench.run`` to check and summarise.

In a traced run, odd-numbered operations are traced and even-numbered ones
are not, so both halves see the same machine conditions and the warm-up,
operation 0, is not traced.
"""
from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

from .tracer import Tracer
from .workloads import WORKLOADS, cli_seed


def _cpu_s() -> float:
    """User+sys CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_op(cli, commands, tracer=None) -> dict:
    """Run one operation's commands in order; stop at the first that fails."""
    results = []
    wall = cpu = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            tb = None
            c0, w0 = _cpu_s(), time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback counts as a failed operation
                rc, tb = None, traceback.format_exc()
            cmd_wall, cmd_cpu = time.perf_counter() - w0, _cpu_s() - c0
            wall += cmd_wall
            cpu += cmd_cpu
            results.append({"argv": argv, "rc": rc, "traceback": tb,
                            "stderr": err.getvalue()[-2000:],
                            "wall_s": cmd_wall, "cpu_s": cmd_cpu})
            if rc != 0:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"commands": results, "wall_s": wall, "cpu_s": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench.client")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import stopgo
    import stopgo.cli as cli
    if Path(stopgo.__file__).resolve().parent.parent != src:
        print(f"error: imported stopgo from {stopgo.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = Tracer(workdir / "spool") if args.trace else None

    ops, spans = [], []
    deadline = time.perf_counter() + args.seconds
    min_ops = 3 if args.trace else 1  # a warm-up, a traced and an untraced operation
    while len(ops) < min_ops or time.perf_counter() < deadline:
        i = len(ops)
        seed = cli_seed(args.seed, i)
        outdir = workdir / "ops" / f"{i:04d}"
        traced = tracer is not None and i % 2 == 1
        op = run_op(cli, workload.commands(seed, outdir, args.size),
                    tracer if traced else None)
        op.update(index=i, cli_seed=seed, outdir=str(outdir), traced=traced)
        ops.append(op)
        if traced:
            spans.append([asdict(s) for s in tracer.collect()])

    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "pid": os.getpid(),
        "ops": ops,
        "maxrss_self_kb": self_ru.ru_maxrss,
        "maxrss_children_kb": child_ru.ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }
    with open(workdir / "client.json", "w") as f:
        json.dump(report, f)
    if args.trace:
        with open(workdir / "spans.json", "w") as f:
            json.dump(spans, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
