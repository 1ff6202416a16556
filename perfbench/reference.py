"""Reference areas and perimeters computed apart from the program.

Two independent routes give each value:

* closed forms restated here from the shapes' definitions (64-gon disk and
  annulus, unit square, equilateral triangle of side 1.56, the two-comb
  statue, and cell counts / exposed cell edges of the block-letter masks);
* the shoelace formula and edge lengths over the ring coordinates the
  program builds, with holes found by even-odd nesting.

`check_shape` compares the two; the workloads then check the program's
estimates and dictionary entries against the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9  # both routes are exact up to rounding

# Restated from the shape definitions, not imported from the program.
CIRCLE_SEGMENTS = 64
TRIANGLE_SIDE = 1.56
COMB_CELLS = 4.5  # a 3x1 bar plus three 0.5x1 teeth
COMB_PERIMETER = 14.0  # in unscaled comb units


def regular_polygon(radius: float, n: int = CIRCLE_SEGMENTS) -> tuple[float, float]:
    """(area, perimeter) of a regular n-gon inscribed in a circle."""
    return 0.5 * n * radius**2 * math.sin(2.0 * math.pi / n), 2.0 * n * radius * math.sin(math.pi / n)


def builtin_closed_form(name: str) -> tuple[float, float]:
    """(area, perimeter) of a built-in shape from its definition."""
    tri_area = 0.25 * math.sqrt(3.0) * TRIANGLE_SIDE**2
    if name == "disk":
        return regular_polygon(1.0)
    if name == "square":
        return 1.0, 4.0
    if name == "triangle":
        return tri_area, 3.0 * TRIANGLE_SIDE
    if name == "annulus":
        a_out, p_out = regular_polygon(2.0)
        a_in, p_in = regular_polygon(1.0)
        return a_out - a_in, p_out + p_in
    if name == "statue":
        # two combs scaled so that together they have the triangle's area
        scale = math.sqrt(tri_area / (2.0 * COMB_CELLS))
        return tri_area, 2.0 * COMB_PERIMETER * scale
    raise KeyError(name)


def mask_closed_form(mask, cell: float = 1.0) -> tuple[float, float]:
    """(area, perimeter) of a cell mask: filled cells and exposed cell edges."""
    cells = {(c, r) for r, row in enumerate(mask) for c, ch in enumerate(row) if ch == "X"}
    exposed = sum(
        (c + dc, r + dr) not in cells
        for c, r in cells
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1))
    )
    return len(cells) * cell * cell, exposed * cell


def word_closed_form(word: str, masks, cell: float = 1.0) -> tuple[float, float]:
    """Letters are disjoint, so a word's area and perimeter are sums."""
    parts = [mask_closed_form(masks[c], cell) for c in word]
    return sum(a for a, _ in parts), sum(p for _, p in parts)


def _inside(pt: np.ndarray, ring: np.ndarray) -> bool:
    """Even-odd ray cast of one point against one ring."""
    x, y = pt
    xs, ys = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    straddle = (ys > y) != (yn > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xs + (y - ys) * (xn - xs) / (yn - ys)
    return bool(np.count_nonzero(straddle & (x_cross > x)) % 2)


def shoelace(rings) -> tuple[float, float]:
    """(area, perimeter) from ring coordinates; nesting depth gives holes."""
    area = perim = 0.0
    for i, ring in enumerate(rings):
        xs, ys = ring[:, 0], ring[:, 1]
        signed = 0.5 * float(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1)))
        depth = sum(_inside(ring[0], other) for j, other in enumerate(rings) if j != i)
        area += abs(signed) * (-1.0 if depth % 2 else 1.0)
        perim += float(np.sum(np.hypot(np.roll(xs, -1) - xs, np.roll(ys, -1) - ys)))
    return area, perim


def close(x: float, ref: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rel * abs(ref)


def check_shape(name: str, shape, ref: tuple[float, float]) -> list[str]:
    """Problems found when the program's ring coordinates disagree with ref."""
    a, p = shoelace([np.asarray(r.coords, dtype=float) for r in shape.rings])
    out = []
    if not close(a, ref[0]):
        out.append(f"{name}: shoelace area {a!r} != closed form {ref[0]!r}")
    if not close(p, ref[1]):
        out.append(f"{name}: edge-length perimeter {p!r} != closed form {ref[1]!r}")
    return out
