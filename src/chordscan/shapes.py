"""Built-in test shapes: disk, square, triangle, annulus and a statue stand-in.

Curved outlines are 64-gon polygonizations (configurable), so every reference
value below is the exact polygon area/perimeter, not the smooth-circle one.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Ring, Shape

CIRCLE_SEGMENTS = 64


def _circle_ring(center: tuple[float, float], radius: float, segments: int) -> Ring:
    ang = 2.0 * math.pi * np.arange(segments) / segments
    pts = np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )
    return Ring(pts)


def disk(radius: float = 1.0, center=(0.0, 0.0), segments: int = CIRCLE_SEGMENTS) -> Shape:
    return Shape([_circle_ring(center, radius, segments)], name="disk")


def square(side: float = 1.0, corner=(0.0, 0.0)) -> Shape:
    x, y = corner
    s = side
    return Shape(
        [Ring([(x, y), (x + s, y), (x + s, y + s), (x, y + s)])], name="square"
    )


# Sized so the triangle sits next to the unit square in the perimeter-area
# plane: together with the statue (same area by construction) they form the
# deliberately hard, closely packed cluster of the built-in dictionary.
TRIANGLE_SIDE = 1.56


def triangle(side: float = TRIANGLE_SIDE, center=(0.0, 0.0)) -> Shape:
    """Equilateral triangle centered at its centroid."""
    r = side / math.sqrt(3.0)
    ang = np.deg2rad([90.0, 210.0, 330.0])
    pts = np.column_stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)])
    return Shape([Ring(pts)], name="triangle")


def annulus(
    r_inner: float = 1.0,
    r_outer: float = 2.0,
    center=(0.0, 0.0),
    segments: int = CIRCLE_SEGMENTS,
) -> Shape:
    if not 0.0 < r_inner < r_outer:
        raise ValueError("annulus needs 0 < r_inner < r_outer")
    return Shape(
        [_circle_ring(center, r_outer, segments), _circle_ring(center, r_inner, segments)],
        name="annulus",
    )


# One comb: a 3x1 bar with three 0.5-wide teeth on top. A horizontal line at
# tooth height crosses it three times, so two combs side by side give up to
# six chords per line.
_COMB = [
    (0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.5, 2.0), (2.5, 1.0), (1.75, 1.0),
    (1.75, 2.0), (1.25, 2.0), (1.25, 1.0), (0.5, 1.0), (0.5, 2.0), (0.0, 2.0),
]
_COMB_CELLS = 4.5  # 3x1 bar + three 0.5x1 teeth
_STATUE_CELLS = 2 * _COMB_CELLS


def statue() -> Shape:
    """Two-piece non-convex stand-in, scaled to the triangle's exact area.

    Lines through the tooth band cross up to k = 6 chords. Sharing the
    triangle's area makes the pair distinguishable only through perimeter.
    """
    target = 0.25 * math.sqrt(3.0) * TRIANGLE_SIDE**2  # triangle area
    scale = math.sqrt(target / _STATUE_CELLS)
    combs = []
    for xoff in (0.0, 4.0):
        pts = np.array([(x + xoff, y) for x, y in _COMB]) * scale
        pts -= np.array([3.5, 1.0]) * scale  # center the pair on the origin
        combs.append(Ring(pts))
    return Shape(combs, name="statue")


BUILTIN_NAMES = ("disk", "square", "triangle", "annulus", "statue")


def builtin(name: str) -> Shape:
    makers = {
        "disk": disk,
        "square": square,
        "triangle": triangle,
        "annulus": annulus,
        "statue": statue,
    }
    if name not in makers:
        raise KeyError(f"unknown built-in shape {name!r}; choose from {BUILTIN_NAMES}")
    return makers[name]()
