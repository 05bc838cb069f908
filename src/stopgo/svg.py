"""Minimal self-contained SVG plots: speed-colored trajectories and curves.

No plotting library: emitting the geometry directly keeps outputs diffable by
structural comparison of coordinates in tests.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

WIDTH = 900
HEIGHT = 600
MARGIN = 60

# dark blue -> teal -> yellow anchors, perceptually ordered with speed
_COLOR_STOPS = np.array([(68, 1, 84), (33, 145, 140), (253, 231, 37)], dtype=float)


def speed_color(v: np.ndarray, u0: float) -> np.ndarray:
    """Linear map [0, u0] -> gradient color: one (r, g, b) integer row per speed."""
    x = np.clip(v / u0, 0.0, 1.0) * (len(_COLOR_STOPS) - 1)
    i = np.minimum(x.astype(np.intp), len(_COLOR_STOPS) - 2)
    f = (x - i)[:, None]
    c0, c1 = _COLOR_STOPS[i], _COLOR_STOPS[i + 1]
    # np.rint rounds half to even, as Python's round() does
    return np.rint(c0 + (c1 - c0) * f).astype(np.intp)


_BLOCK_SEGMENTS = 8192  # segments formatted into one part at a time
_SEGMENT = (
    '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
    'stroke="#%02x%02x%02x" stroke-width="1.2"/>'
)


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim: Tuple[float, float], ylim: Tuple[float, float]):
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0
        self._axes(title, xlabel, ylabel)

    def px(self, x):
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, y):
        return HEIGHT - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - 2 * MARGIN)

    def _axes(self, title, xlabel, ylabel):
        p = self.parts
        p.append(
            f'<g stroke="black" stroke-width="1">'
            f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" y2="{HEIGHT - MARGIN}"/>'
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}"/></g>'
        )
        p.append(
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>'
        )
        p.append(
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 14}" text-anchor="middle" font-size="13">{xlabel}</text>'
        )
        p.append(
            f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 18 {HEIGHT / 2})">{ylabel}</text>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            p.append(
                f'<text x="{self.px(xv):.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
                f'font-size="11">{xv:.4g}</text>'
            )
            p.append(
                f'<text x="{MARGIN - 6}" y="{self.py(yv) + 4:.1f}" text-anchor="end" '
                f'font-size="11">{yv:.4g}</text>'
            )

    def polyline(self, xs: Sequence[float], ys: Sequence[float], color: str,
                 width: float = 1.5, cls: Optional[str] = None) -> None:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<polyline{attr} points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def segments(self, x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
                 rgb: np.ndarray) -> None:
        """One line per segment (x1, y1) -> (x2, y2), colored by the matching rgb row."""
        cols = (self.px(x1), self.py(y1), self.px(x2), self.py(y2), *rgb.T)
        for start in range(0, len(x1), _BLOCK_SEGMENTS):
            block = [c[start:start + _BLOCK_SEGMENTS].tolist() for c in cols]
            self.parts.append("\n".join([_SEGMENT % row for row in zip(*block)]))

    def legend(self, entries: Sequence[Tuple[str, str]]) -> None:
        for i, (label, color) in enumerate(entries):
            y = MARGIN + 18 * i + 10
            x = WIDTH - MARGIN - 140
            self.parts.append(
                f'<line x1="{x}" y1="{y}" x2="{x + 24}" y2="{y}" stroke="{color}" stroke-width="3"/>'
            )
            self.parts.append(
                f'<text x="{x + 30}" y="{y + 4}" font-size="12">{label}</text>'
            )

    def save(self, path) -> None:
        self.parts.append("</svg>")
        with open(path, "w") as f:
            f.write(self.parts[0])
            for part in self.parts[1:]:  # not joined first: a part can hold many segments
                f.write("\n")
                f.write(part)


def render_trajectories(
    times: np.ndarray,
    positions: np.ndarray,
    speeds: np.ndarray,
    u0: float,
    path,
    ring_length: Optional[float] = None,
    title: str = "Vehicle trajectories",
) -> None:
    """Time-space diagram with per-segment color encoding speed.

    positions and speeds hold one row per vehicle and one column per entry of
    times; vehicles are drawn in row order. On a ring the positions are
    wrapped and segments crossing the wrap are skipped.
    """
    if ring_length is not None:
        ylim = (0.0, ring_length)
        y = np.mod(positions, ring_length)
        keep = y[:, 1:] >= y[:, :-1]  # drop the segments that cross the wrap
    else:
        ylim = (float(positions.min()), float(positions.max()))
        y = positions
        keep = np.ones((y.shape[0], y.shape[1] - 1), dtype=bool)
    canvas = _Canvas(title, "time [s]", "position [m]", (float(times[0]), float(times[-1])), ylim)
    t = np.broadcast_to(times, y.shape)
    canvas.segments(
        t[:, :-1][keep], y[:, :-1][keep], t[:, 1:][keep], y[:, 1:][keep],
        speed_color(0.5 * (speeds[:, :-1] + speeds[:, 1:])[keep], u0),
    )
    canvas.save(path)


_SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]


def render_curves(
    xs: np.ndarray,
    series: Dict[str, np.ndarray],
    path,
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> None:
    """One polyline per labeled series, with a legend."""
    ymax = max(float(np.max(ys)) for ys in series.values()) or 1.0
    canvas = _Canvas(title, xlabel, ylabel, (float(xs[0]), float(xs[-1])), (0.0, 1.05 * ymax))
    legend = []
    for i, (label, ys) in enumerate(series.items()):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        canvas.polyline(xs, ys, color, cls=f"series-{i}")
        legend.append((label, color))
    canvas.legend(legend)
    canvas.save(path)
