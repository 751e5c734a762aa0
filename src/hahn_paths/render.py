"""SVG rendering of trajectories: lattice paths, sheared surface paths, rhombus tilings.

The tiling picture embeds the (t, x) lattice by UP steps at +30 degrees and
FLAT steps at -30 degrees.  Each step of each path covers one rhombus (two
of the three orientations); the third orientation fills the vertical unit
gaps between consecutive paths and the region boundary, one per unoccupied
lattice node of the hexagon.
"""

from __future__ import annotations

import math

from .combinatorics import ModelParams, Trajectory
from .hahn import slice_params

EDGE = 20.0
_SQ3_2 = math.sqrt(3.0) / 2.0

STYLES = ("paths", "surface", "rhombi")

_FILL = {"up": "#4f81bd", "flat": "#c0504d", "gap": "#9bbb59"}


def _shear(t: float, x: float) -> tuple[float, float]:
    """Embed lattice point (t, x) with UP at +30 and FLAT at -30 degrees."""
    return (t * _SQ3_2, x - 0.5 * t)


def hexagon_vertices(model: ModelParams) -> list[tuple[float, float]]:
    """Corners of the region containing all paths, in (t, x) coordinates."""
    N, S, T = model.N, model.S, model.T
    return [
        (0.0, -0.5),
        (T - S, -0.5),
        (float(T), S - 0.5),
        (float(T), S + N - 0.5),
        (float(S), S + N - 0.5),
        (0.0, N - 0.5),
    ]


def trajectory_lozenges(traj: Trajectory) -> dict[str, list[list[tuple[float, float]]]]:
    """All rhombi of the tiling encoded by the trajectory, in (t, x) coordinates.

    "up" and "flat" rhombi follow the path steps; "gap" rhombi sit on the
    unoccupied lattice nodes of each column.
    """
    model = traj.model
    quads: dict[str, list[list[tuple[float, float]]]] = {"up": [], "flat": [], "gap": []}
    for t in range(model.T):
        now = traj.positions[t]
        nxt = traj.positions[t + 1]
        for x, y in zip(now, nxt):
            if y == x + 1:
                quads["up"].append(
                    [(t, x - 0.5), (t + 1, x + 0.5), (t + 1, x + 1.5), (t, x + 0.5)]
                )
            else:
                quads["flat"].append(
                    [(t, x - 0.5), (t + 1, x - 0.5), (t + 1, x + 0.5), (t, x + 0.5)]
                )
    for t in range(model.T + 1):
        column = slice_params(model, t)
        occupied = set(traj.positions[t])
        for y in column.support:
            if y in occupied:
                continue
            quads["gap"].append(
                [(t, y - 0.5), (t + 1, y + 0.5), (t, y + 0.5), (t - 1, y - 0.5)]
            )
    return quads


class _Canvas:
    """Collects shapes in math coordinates, then emits a y-flipped SVG."""

    def __init__(self):
        self.elements: list[tuple] = []
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf

    def _track(self, points):
        for px, py in points:
            self.min_x = min(self.min_x, px)
            self.min_y = min(self.min_y, py)
            self.max_x = max(self.max_x, px)
            self.max_y = max(self.max_y, py)

    def polygon(self, points, cls: str, fill: str):
        self._track(points)
        self.elements.append(("polygon", points, cls, fill))

    def polyline(self, points, cls: str, stroke: str):
        self._track(points)
        self.elements.append(("polyline", points, cls, stroke))

    def to_svg(self) -> str:
        pad = 1.0
        width = (self.max_x - self.min_x + 2 * pad) * EDGE
        height = (self.max_y - self.min_y + 2 * pad) * EDGE

        def fmt(points) -> str:
            coords = []
            for px, py in points:
                sx = (px - self.min_x + pad) * EDGE
                sy = height - (py - self.min_y + pad) * EDGE
                coords.append(f"{sx:.3f},{sy:.3f}")
            return " ".join(coords)

        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.3f}" '
            f'height="{height:.3f}" viewBox="0 0 {width:.3f} {height:.3f}">',
        ]
        for kind, points, cls, paint in self.elements:
            if kind == "polygon":
                lines.append(
                    f'<polygon class="{cls}" points="{fmt(points)}" '
                    f'fill="{paint}" stroke="black" stroke-width="1"/>'
                )
            else:
                lines.append(
                    f'<polyline class="{cls}" points="{fmt(points)}" '
                    f'fill="none" stroke="{paint}" stroke-width="2"/>'
                )
        lines.append("</svg>")
        return "\n".join(lines) + "\n"


def render_svg(traj: Trajectory, style: str = "rhombi") -> str:
    """Deterministic SVG for one trajectory in the requested style."""
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}, got {style!r}")
    model = traj.model
    canvas = _Canvas()
    if style == "rhombi":
        project = _shear
        for cls, quads in sorted(trajectory_lozenges(traj).items()):
            for quad in quads:
                canvas.polygon([project(t, x) for t, x in quad], cls, _FILL[cls])
        outline = [project(t, x) for t, x in hexagon_vertices(model)]
        canvas.polyline(outline + outline[:1], "outline", "black")
        return canvas.to_svg()
    project = _shear if style == "surface" else (lambda t, x: (float(t), float(x)))
    outline = [project(t, x) for t, x in hexagon_vertices(model)]
    canvas.polyline(outline + outline[:1], "outline", "#bbbbbb")
    for i in range(model.N):
        points = [project(t, x) for t, x in enumerate(traj.paths[i])]
        canvas.polyline(points, f"path path-{i}", "#1f3864")
        for t, step in enumerate(traj.moves(i)):
            cls = "up" if step == 1 else "flat"
            canvas.polyline(points[t : t + 2], f"step {cls}", _FILL[cls])
    return canvas.to_svg()
