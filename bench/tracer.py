"""Span tracing of stopgo's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function in every ``stopgo.*``
module namespace that binds it (``cli`` imports ``run_ensemble`` by name, for
example) with a wrapper that records a span; ``uninstall()`` puts the
original objects back. Nothing in ``src/`` changes.

Spans stay in memory. Pool workers are forked while the ``run_ensemble``
span is open, so they inherit the wrappers and that span as the parent of
their own spans; a worker appends its spans to a spool file when its task
returns, because a pool worker exits without running cleanup code.
``collect()`` merges the spool files into the in-memory list.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: str
    parent: Optional[str]
    name: str
    start: float  # time.perf_counter(), a system-wide monotonic clock on Linux
    end: float
    pid: int
    attrs: Dict[str, float] = field(default_factory=dict)


def _path_size(arg: str) -> Callable:
    def attrs(fn, args, kwargs, result) -> Dict[str, float]:
        path = inspect.signature(fn).bind(*args, **kwargs).arguments[arg]
        return {"bytes": os.path.getsize(path)}
    return attrs


def _record_size(fn, args, kwargs, record) -> Dict[str, float]:
    steps, n = record.speeds.shape[0] - 1, record.speeds.shape[1]
    nbytes = record.speeds.nbytes + record.positions.nbytes
    if record.leader_positions is not None:
        nbytes += record.leader_positions.nbytes
    return {"steps": steps, "vehicle_steps": steps * n, "record_bytes": nbytes}


# span name -> (module, function, attribute hook run on success)
TARGETS: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    "cli.main": ("stopgo.cli", "main", None),
    "scenario.place_intelligent": ("stopgo.scenario", "place_intelligent", None),
    "scenario.run_with_rng": ("stopgo.scenario", "run_with_rng", _record_size),
    "metrics.per_vehicle_std": ("stopgo.metrics", "per_vehicle_std", None),
    "metrics.over_time_std": ("stopgo.metrics", "over_time_std", None),
    "ensemble.run_ensemble": ("stopgo.ensemble", "run_ensemble", None),
    "ensemble.compare_kinds": ("stopgo.ensemble", "compare_kinds", None),
    "csvio.write_trajectory_csv": ("stopgo.csvio", "write_trajectory_csv", _path_size("path")),
    "csvio.write_speeds_csv": ("stopgo.csvio", "write_speeds_csv", _path_size("path")),
    "csvio.write_curve_csv": ("stopgo.csvio", "write_curve_csv", _path_size("path")),
    "csvio.write_compare_csv": ("stopgo.csvio", "write_compare_csv", _path_size("path")),
    "csvio.read_trajectory_csv": ("stopgo.csvio", "read_trajectory_csv", _path_size("path")),
    "csvio.read_curve_csv": ("stopgo.csvio", "read_curve_csv", _path_size("path")),
    "csvio.read_compare_csv": ("stopgo.csvio", "read_compare_csv", _path_size("path")),
    "svg.render_trajectories": ("stopgo.svg", "render_trajectories", _path_size("path")),
}


class Tracer:
    """Records spans around the functions in TARGETS while installed."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._worker_base: Optional[int] = None  # stack depth inherited by a forked worker
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "stopgo" or name.startswith("stopgo."))]
        for span_name, (mod_name, fn_name, attrs) in TARGETS.items():
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(span_name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def collect(self) -> List[Span]:
        """Return and forget every span recorded so far, worker spans included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as f:
                spans.extend(Span(**json.loads(line)) for line in f)
            path.unlink()
        return spans

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != self._pid:  # first traced call in a forked pool worker
                self._pid, self._worker_base, self.spans = pid, len(self._stack), []
            span_id = f"{pid}:{next(self._ids)}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = attrs(fn, args, kwargs, result) if ok and attrs else {}
                self.spans.append(Span(span_id, parent, name, start, end, pid, extra))
                if self._worker_base is not None and len(self._stack) == self._worker_base:
                    self._spool()
        return wrapper

    def _spool(self) -> None:
        with open(self.spool_dir / f"spans-{self._pid}.jsonl", "a") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")
        self.spans = []


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children running in parallel pool workers overlap; the union counts that
    time once, so a parent's self time is the time no child was running.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


# metric prefix of each span name; the csvio writers and readers are grouped
GROUPS = {name: name for name in TARGETS}
GROUPS.update({name: "csvio.writer" for name in TARGETS if name.startswith("csvio.write_")})
GROUPS.update({name: "csvio.reader" for name in TARGETS if name.startswith("csvio.read_")})


def layer_metrics(spans: List[Span], client_pid: int) -> Dict[str, float]:
    """Per-layer metrics of one operation's spans."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for group in sorted(set(GROUPS.values())):
        out[f"{group}.calls"] = 0
        out[f"{group}.self_s"] = 0.0
    sums: Dict[str, float] = defaultdict(float)
    for s in spans:
        group = GROUPS[s.name]
        out[f"{group}.calls"] += 1
        out[f"{group}.self_s"] += own[s.id]
        for key, value in s.attrs.items():
            sums[f"{group}.{key}"] += value
    kernel_s = out["scenario.run_with_rng.self_s"]
    steps = sums["scenario.run_with_rng.steps"]
    vehicle_steps = sums["scenario.run_with_rng.vehicle_steps"]
    out["scenario.us_per_step"] = 1e6 * kernel_s / steps if steps else 0.0
    out["scenario.vehicle_steps"] = int(vehicle_steps)
    out["scenario.vehicle_steps_per_s"] = vehicle_steps / kernel_s if kernel_s else 0.0
    out["scenario.record_mb"] = sums["scenario.run_with_rng.record_bytes"] / 1e6
    out["csvio.bytes_written"] = int(sums["csvio.writer.bytes"])
    out["csvio.bytes_read"] = int(sums["csvio.reader.bytes"])
    out["svg.bytes_written"] = int(sums["svg.render_trajectories.bytes"])
    out["trace.worker_spans"] = sum(1 for s in spans if s.pid != client_pid)
    return out
