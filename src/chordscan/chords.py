"""Crossing events along one segment and the signed geometric functions.

For a segment that starts and ends outside the shape, the boundary crossings
alternate ingoing/outgoing. The order-n geometric function combines all
pairwise gaps: sum over ingoing x outgoing pairs of gap**n, minus the same sum
over outgoing pairs and over ingoing pairs. Order 1 collapses to the plain
in-shape intercept length; order 3 is what the area estimator consumes.

crossings runs the batch ring scan (batch._scan, which tests the edges the
shape's candidate-edge table lists for the line) on one line, so a line within
tolerance of a vertex is rejected here exactly as in every estimate. It is the
one caller whose segment need not be an arena chord: it turns the segment
into a line (theta, p) with sampling.line_params_of_segments and keeps the
crossings that fall within the segment.
geometric_function keeps the pair-sum definition above as the reference the
batch kernel's O(k) sums are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import batch
from .geometry import Point, Shape, contains
from .sampling import line_params_of_segments

INGOING = "in"
OUTGOING = "out"


class DegenerateLineError(ValueError):
    """Crossing classification was ambiguous; the caller should resample."""


class ArenaTooSmallError(ValueError):
    """A segment endpoint fell inside the shape, so chords would be clipped."""


@dataclass(frozen=True)
class CrossingEvent:
    t: float  # arclength along the segment
    kind: str  # INGOING or OUTGOING


@dataclass(frozen=True)
class LineObservation:
    events: tuple[CrossingEvent, ...]
    chords: tuple[float, ...]
    k: int
    L1: float
    L3: float

    def scratch_scalar_count(self) -> int:
        """Numeric values held while processing this line (frugality audit)."""
        # event times + event labels + chord lengths + (k, L1, L3)
        return 2 * len(self.events) + len(self.chords) + 3


ZERO_OBSERVATION = LineObservation(events=(), chords=(), k=0, L1=0.0, L3=0.0)


def crossings(shape: Shape, seg: tuple[Point, Point]) -> list[CrossingEvent]:
    """Sorted, alternating crossing events of the shape boundary within seg.

    Raises DegenerateLineError for a line the batch kernel rejects.
    """
    a_pt, b_pt = seg
    a = a_pt.as_array()
    b = b_pt.as_array()
    d = b - a
    length = float(np.hypot(*d))
    if length == 0.0:
        return []
    if contains(shape, a_pt) or contains(shape, b_pt):
        raise ArenaTooSmallError("segment endpoint lies inside the shape")
    cshape = shape.derived("kernel", batch.CompiledShape)
    theta, p = line_params_of_segments(a[None], b[None], a_pt)  # p is 0
    _, ts, rejected = batch._scan([(cshape, a_pt, 1)], theta, p)
    if rejected[0]:
        raise DegenerateLineError("line passes within tolerance of a vertex")
    # the scan measures along (-sin theta, cos theta) from the foot of the
    # shape's centre O: move the start to a and turn the axis toward b
    cos, sin = batch._sincos(theta)
    u = np.array([-sin[0], cos[0]])
    ts -= float(u @ (a - cshape.center))
    if u @ d < 0.0:
        ts = -ts
    ts = np.sort(ts[(ts >= 0.0) & (ts <= length)])
    if ts.size % 2 != 0:
        raise DegenerateLineError(f"odd crossing count ({ts.size})")
    return [
        CrossingEvent(float(t), INGOING if i % 2 == 0 else OUTGOING) for i, t in enumerate(ts)
    ]


def _check_alternating(events) -> None:
    if len(events) % 2 != 0:
        raise ValueError("event sequence must have even length")
    for i, ev in enumerate(events):
        want = INGOING if i % 2 == 0 else OUTGOING
        if ev.kind != want:
            raise ValueError(f"event {i} is {ev.kind!r}, expected {want!r}")
        if i and ev.t < events[i - 1].t:
            raise ValueError("events must be sorted by t")


def geometric_function(events, n: int) -> float:
    """Signed all-pairs gap sum of order n; zero for an empty line."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    _check_alternating(events)
    t_in = [e.t for e in events if e.kind == INGOING]
    t_out = [e.t for e in events if e.kind == OUTGOING]
    total = sum(abs(o - i) ** n for i in t_in for o in t_out)
    total -= sum(abs(b - a) ** n for a, b in combinations(t_out, 2))
    total -= sum(abs(b - a) ** n for a, b in combinations(t_in, 2))
    return total


def observe(shape: Shape, seg: tuple[Point, Point]) -> LineObservation:
    """Full per-line record: events, chords and the order-1/order-3 functions."""
    events = crossings(shape, seg)
    if not events:
        return ZERO_OBSERVATION
    chords = tuple(
        events[i + 1].t - events[i].t for i in range(0, len(events), 2)
    )
    if any(c <= 0.0 for c in chords):
        raise DegenerateLineError("zero-length chord after resolution")
    return LineObservation(
        events=tuple(events),
        chords=chords,
        k=len(chords),
        L1=geometric_function(events, 1),
        L3=geometric_function(events, 3),
    )
