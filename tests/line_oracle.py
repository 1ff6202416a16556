"""Per-line references the kernel's tests check it against.

The package observes lines only through batch.observe_segments. These are
the slow definitions, one line at a time: line_params_of_segments turns
segments into lines (theta, p), segment_events scans one segment's line for
its crossing events, and geometric_function evaluates the signed all-pairs
gap sums that the kernel's O(k) sums replace. For a segment that starts and
ends outside the shape, the crossings alternate ingoing/outgoing; the order-n
function sums gap**n over ingoing x outgoing pairs, minus the same sum over
outgoing pairs and over ingoing pairs. Order 1 is the plain in-shape length,
order 3 what the area estimator consumes. Event times may be floats or
fractions.Fraction, so the sums can be evaluated exactly.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from chordscan import batch
from chordscan.geometry import Point

INGOING = "in"
OUTGOING = "out"


@dataclass(frozen=True)
class CrossingEvent:
    t: float  # arclength along the segment
    kind: str  # INGOING or OUTGOING


def line_params_of_segments(a: np.ndarray, b: np.ndarray, origin: Point):
    """(theta, p) of each segment's carrier line, p measured from origin.

    theta lies in [0, pi): the normal is the segment's direction turned by
    -90 or +90 degrees, whichever lands there, before the one arctan2, so
    theta is rounded once.
    """
    d = b - a
    # the normal (dy, -dx), turned round where -dx < 0
    nx = np.where(d[:, 0] > 0.0, -d[:, 1], d[:, 1])
    ny = np.abs(d[:, 0])
    theta = np.arctan2(ny, nx)
    p = (a[:, 0] - origin.x) * nx + (a[:, 1] - origin.y) * ny
    p /= np.sqrt(nx * nx + ny * ny)
    return fold_at_pi(theta, p)


def fold_at_pi(theta: np.ndarray, p: np.ndarray):
    """An angle that rounds to pi is the line at 0 with its normal turned round."""
    at_pi = theta == math.pi
    theta[at_pi] = 0.0
    p[at_pi] = -p[at_pi]
    return theta, p


def segment_events(shape, a, b) -> list[CrossingEvent] | None:
    """Sorted, alternating crossing events of the shape boundary on the
    segment from a to b, at their distance from a; None for a line the
    kernel rejects.

    a and b lie outside the shape. The segment's line is (theta, p) through
    a, p from the shape's arena centre O, scanned by batch._scan as
    observe_segments scans its lines; the events are moved from the foot of
    O to a, turned toward b, and those within the segment kept.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = b - a
    length = float(np.hypot(*d))
    cshape = shape.derived("kernel", batch.CompiledShape)
    theta, p = line_params_of_segments(a[None], b[None], cshape.center)
    _, ts, rejected = batch._scan([(cshape, 1)], theta, p)
    if rejected[0]:
        return None
    # the scan measures along (-sin theta, cos theta) from the foot of O:
    # move the start to a and turn the axis toward b
    cos, sin = batch._sincos(theta)
    u = np.array([-sin[0], cos[0]])
    ts -= float(u @ (a - cshape.center.as_array()))
    if u @ d < 0.0:
        ts = -ts
    ts = np.sort(ts[(ts >= 0.0) & (ts <= length)])
    if ts.size % 2 != 0:
        return None  # odd parity: the kernel rejects the line too
    return alternating(ts.tolist())


def _check_alternating(events) -> None:
    if len(events) % 2 != 0:
        raise ValueError("event sequence must have even length")
    for i, ev in enumerate(events):
        want = INGOING if i % 2 == 0 else OUTGOING
        if ev.kind != want:
            raise ValueError(f"event {i} is {ev.kind!r}, expected {want!r}")
        if i and ev.t < events[i - 1].t:
            raise ValueError("events must be sorted by t")


def geometric_function(events, n: int):
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


def alternating(times) -> list[CrossingEvent]:
    """Sorted event times as alternating ingoing/outgoing events."""
    return [CrossingEvent(t, INGOING if i % 2 == 0 else OUTGOING) for i, t in enumerate(times)]


def scratch_scalar_count(k: int) -> int:
    """Numeric values held while one line of k chords is processed
    (frugality audit): 2k event times, 2k event labels, k chord lengths and
    (k, L1, L3)."""
    return 5 * k + 3
