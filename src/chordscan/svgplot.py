"""Minimal deterministic SVG output for dictionaries, landscapes and letters.

Hand-rolled SVG keeps artifacts byte-stable across runs (no plotting-library
metadata or timestamps).
"""

from __future__ import annotations

import math

import numpy as np

from .recognition import DictEntry, LandscapeGrid, confidence_ellipse

_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#222255", "#225555", "#553311",
)

_W, _H, _MARGIN = 640, 480, 56
_LEVELS = (0.75, 0.95, 0.99)


class _Canvas:
    def __init__(self, x_range, y_range, x_label, y_label):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
            f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#333"/>',
            f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
            f'font-size="14">{x_label}</text>',
            f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" font-size="14" '
            f'transform="rotate(-90 16 {_H / 2:.1f})">{y_label}</text>',
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            xp, _ = self.to_px(xv, self.y0)
            _, yp = self.to_px(self.x0, yv)
            self.parts.append(
                f'<text x="{xp:.1f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                f'font-size="11">{xv:.3g}</text>'
            )
            self.parts.append(
                f'<text x="{_MARGIN - 6}" y="{yp + 4:.1f}" text-anchor="end" '
                f'font-size="11">{yv:.3g}</text>'
            )

    def to_px(self, x, y):
        fx = (x - self.x0) / (self.x1 - self.x0)
        fy = (y - self.y0) / (self.y1 - self.y0)
        return _MARGIN + fx * (_W - 2 * _MARGIN), _H - _MARGIN - fy * (_H - 2 * _MARGIN)

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _pad_range(vals, frac=0.2):
    lo, hi = float(min(vals)), float(max(vals))
    pad = frac * (hi - lo + 1.0)
    return lo - pad, hi + pad


def dictionary_svg(entries: list[DictEntry], n_lines: int, path) -> None:
    """Entry points plus their confidence ellipses at n_lines, one per level of _LEVELS."""
    cv = _Canvas(
        _pad_range([e.p_ref for e in entries]),
        _pad_range([e.a_ref for e in entries]),
        "perimeter",
        "area",
    )
    sx = (_W - 2 * _MARGIN) / (cv.x1 - cv.x0)
    sy = (_H - 2 * _MARGIN) / (cv.y1 - cv.y0)
    for i, e in enumerate(entries):
        color = _PALETTE[i % len(_PALETTE)]
        cx, cy = cv.to_px(e.p_ref, e.a_ref)
        for level in _LEVELS:
            ell = confidence_ellipse(e, n_lines, level)
            ux, uy = math.cos(ell.angle), math.sin(ell.angle)
            # ellipse axes in pixel space (P along x, A along y, y flipped)
            pts = []
            for t in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
                dp = ell.semi_major * math.cos(t) * ux - ell.semi_minor * math.sin(t) * uy
                da = ell.semi_major * math.cos(t) * uy + ell.semi_minor * math.sin(t) * ux
                pts.append(f"{cx + dp * sx:.2f},{cy - da * sy:.2f}")
            cv.parts.append(
                f'<polygon points="{" ".join(pts)}" fill="none" stroke="{color}" '
                f'stroke-opacity="{0.35 + 0.3 * level}"/>'
            )
        cv.parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color}"/>')
        cv.parts.append(
            f'<text x="{cx + 6:.2f}" y="{cy - 6:.2f}" font-size="12" '
            f'fill="{color}">{e.name}</text>'
        )
    cv.save(path)


def landscape_svg(grid: LandscapeGrid, path) -> None:
    """Colored cells where some entry clears the threshold."""
    names = sorted({lbl for row in grid.labels for lbl in row if lbl is not None})
    color_of = {n: _PALETTE[i % len(_PALETTE)] for i, n in enumerate(names)}
    cv = _Canvas(
        (float(grid.p_axis[0]), float(grid.p_axis[-1])),
        (float(grid.a_axis[0]), float(grid.a_axis[-1])),
        "perimeter",
        "area",
    )
    dp = (grid.p_axis[-1] - grid.p_axis[0]) / max(len(grid.p_axis) - 1, 1)
    da = (grid.a_axis[-1] - grid.a_axis[0]) / max(len(grid.a_axis) - 1, 1)
    for i, p in enumerate(grid.p_axis):
        for j, a in enumerate(grid.a_axis):
            lbl = grid.labels[i][j]
            if lbl is None:
                continue
            x0, y0 = cv.to_px(p - dp / 2, a + da / 2)
            x1, y1 = cv.to_px(p + dp / 2, a - da / 2)
            cv.parts.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                f'height="{y1 - y0:.2f}" fill="{color_of[lbl]}" fill-opacity="0.6"/>'
            )
    for i, n in enumerate(names):
        cv.parts.append(
            f'<text x="{_W - _MARGIN - 90}" y="{_MARGIN + 16 + 14 * i}" font-size="12" '
            f'fill="{color_of[n]}">{n}</text>'
        )
    cv.save(path)


def letters_svg(table: dict[str, tuple[float, float]], cell: float, path) -> None:
    """Letters placed at their (perimeter, area) coordinates."""
    cv = _Canvas(
        _pad_range([p / cell for _, p in table.values()]),
        _pad_range([a / cell**2 for a, _ in table.values()]),
        "perimeter / s",
        "area / s^2",
    )
    for c, (a, p) in sorted(table.items()):
        x, y = cv.to_px(p / cell, a / cell**2)
        cv.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="middle" font-size="13" '
            f'fill="#333">{c}</text>'
        )
    cv.save(path)
