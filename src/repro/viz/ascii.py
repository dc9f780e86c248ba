"""Terminal visualizations: field maps and line charts in plain text.

The library is headless (no matplotlib dependency), so inspection
happens either in the terminal (this module) or via SVG export
(:mod:`repro.viz.svg`).  Both consume the same inputs: a world
snapshot (:meth:`repro.sim.world.World.snapshot`) or trace series.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["render_field", "render_series"]

# Glyph precedence: later entries overwrite earlier ones in the grid.
_GLYPHS = {
    "sensor": ".",
    "clustered": "o",
    "active": "*",
    "dead": "x",
    "target": "T",
    "rv": "R",
    "base": "B",
}


def render_field(
    snapshot: Dict[str, np.ndarray],
    side_length: float,
    width: int = 60,
    height: int = 30,
    legend: bool = True,
) -> str:
    """An ASCII map of the field from a world snapshot.

    Glyphs: ``.`` idle sensor, ``o`` clustered sensor, ``*`` actively
    monitoring, ``x`` depleted, ``T`` target, ``R`` recharging vehicle,
    ``B`` base station (center).

    Args:
        snapshot: as returned by :meth:`World.snapshot`.
        side_length: field side in meters (for scaling).
        width: grid columns.
        height: grid rows.
        legend: append a legend line.
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    grid = [[" "] * width for _ in range(height)]

    def place(pts: np.ndarray, glyph: str) -> None:
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        for x, y in pts:
            col = min(int(x / side_length * width), width - 1)
            row = min(int(y / side_length * height), height - 1)
            grid[height - 1 - row][col] = glyph  # y grows upward

    sensors = snapshot["sensor_positions"]
    alive = snapshot["alive"]
    active = snapshot["active"]
    membership = snapshot["cluster_membership"]
    clustered = membership >= 0

    place(sensors, _GLYPHS["sensor"])
    place(sensors[clustered & alive], _GLYPHS["clustered"])
    place(sensors[active], _GLYPHS["active"])
    place(sensors[~alive], _GLYPHS["dead"])
    place(snapshot["target_positions"], _GLYPHS["target"])
    place(snapshot["rv_positions"], _GLYPHS["rv"])
    place(np.array([[side_length / 2, side_length / 2]]), _GLYPHS["base"])

    border = "+" + "-" * width + "+"
    lines = [border] + ["|" + "".join(row) + "|" for row in grid] + [border]
    if legend:
        lines.append(
            ". sensor  o clustered  * monitoring  x depleted  T target  R vehicle  B base"
        )
    return "\n".join(lines)


def render_series(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    width: int = 70,
    height: int = 16,
    title: str = "",
    y_label: str = "",
) -> str:
    """A multi-series ASCII line chart.

    Args:
        series: name -> (x values, y values); series are drawn with
            successive glyphs ``* + o x # @``.
        width: plot columns.
        height: plot rows.
        title: optional heading.
        y_label: unit note appended to the axis readout.
    """
    if not series:
        raise ValueError("no series to plot")
    glyphs = "*+ox#@"
    xs_all = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    if xs_all.size == 0:
        raise ValueError("series are empty")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, (name, (xs, ys)) in enumerate(series.items()):
        g = glyphs[k % len(glyphs)]
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        for x, y in zip(xs, ys):
            col = min(int((x - x_lo) / (x_hi - x_lo) * (width - 1)), width - 1)
            row = min(int((y - y_lo) / (y_hi - y_lo) * (height - 1)), height - 1)
            grid[height - 1 - row][col] = g

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.3g} ┤" if False else f"{y_hi:10.4g} |")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{y_lo:10.4g} +" + "-" * width)
    lines.append(" " * 12 + f"{x_lo:<12.4g}{'':^{max(width - 24, 0)}}{x_hi:>12.4g}")
    legend = "   ".join(
        f"{glyphs[k % len(glyphs)]} {name}" for k, name in enumerate(series)
    )
    lines.append(" " * 12 + legend + (f"   [{y_label}]" if y_label else ""))
    return "\n".join(lines)
