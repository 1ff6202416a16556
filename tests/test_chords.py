"""One line at a time: the kernel's record of a segment's line against the
reference events and pair sums of tests/line_oracle.py."""

import math

import numpy as np
import pytest

from chordscan import batch, shapes
from chordscan.geometry import Point, Shape
from line_oracle import (
    CrossingEvent,
    geometric_function,
    line_params_of_segments,
    scratch_scalar_count,
    segment_events,
)

SQUARE = shapes.square()
HOLED = Shape(
    [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)],
    ]
)


def seg(x0, y0, x1, y1):
    return (x0, y0), (x1, y1)


def ev(*pairs):
    return tuple(CrossingEvent(t, kind) for t, kind in pairs)


def kernel_line(shape, a, b):
    """The kernel's one-line record of the segment's line, the line segment_events scans."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cshape = shape.derived("kernel", batch.CompiledShape)
    theta, p = line_params_of_segments(a[None], b[None], cshape.center)
    return batch.observe_segments(cshape, theta, p)


def test_square_midline():
    events = segment_events(SQUARE, *seg(-1, 0.5, 2, 0.5))
    assert [(e.t, e.kind) for e in events] == [(1.0, "in"), (2.0, "out")]
    obs = kernel_line(SQUARE, *seg(-1, 0.5, 2, 0.5))
    assert obs.k.tolist() == [1] and obs.chords_flat.tolist() == [1.0]


def test_square_with_hole_midline():
    obs = kernel_line(HOLED, *seg(-1, 0.5, 2, 0.5))
    assert obs.k[0] == 2
    assert obs.L1[0] == pytest.approx(1.0 - 0.5, abs=1e-12)
    kinds = [e.kind for e in segment_events(HOLED, *seg(-1, 0.5, 2, 0.5))]
    assert kinds == ["in", "out", "in", "out"]


def test_miss_line_empty():
    assert segment_events(SQUARE, *seg(-1, 5, 2, 5)) == []
    obs = kernel_line(SQUARE, *seg(-1, 5, 2, 5))
    assert (obs.k[0], obs.L1[0], obs.L3[0], obs.rejected[0]) == (0, 0.0, 0.0, False)
    assert obs.chords_flat.size == 0


def test_geometric_function_single_chord():
    events = ev((0, "in"), (2, "out"))
    assert geometric_function(events, 1) == pytest.approx(2.0)
    assert geometric_function(events, 3) == pytest.approx(8.0)


def test_geometric_function_two_chords_close():
    events = ev((0, "in"), (1, "out"), (2, "in"), (3, "out"))
    assert geometric_function(events, 1) == pytest.approx(2.0)
    assert geometric_function(events, 3) == pytest.approx(14.0)


def test_geometric_function_two_chords_spread():
    events = ev((0, "in"), (1, "out"), (3, "in"), (6, "out"))
    assert geometric_function(events, 1) == pytest.approx(4.0)
    assert geometric_function(events, 3) == pytest.approx(100.0)


def test_geometric_function_empty_and_validation():
    assert geometric_function((), 1) == 0.0
    assert geometric_function((), 3) == 0.0
    with pytest.raises(ValueError):
        geometric_function(ev((0, "out"), (1, "in")), 1)
    with pytest.raises(ValueError):
        geometric_function(ev((0, "in"), (1, "in")), 1)
    with pytest.raises(ValueError):
        geometric_function(ev((0, "in"), (1, "out"), (2, "in")), 1)
    with pytest.raises(ValueError):
        geometric_function(ev((0, "in"), (1, "out")), 0)


def _random_alternating(rng, max_k=6):
    k = rng.integers(1, max_k + 1)
    ts = np.sort(rng.uniform(0, 10, size=2 * k))
    # enforce strictly increasing
    ts = ts + np.arange(2 * k) * 1e-9
    return ev(*[(float(t), "in" if i % 2 == 0 else "out") for i, t in enumerate(ts)])


def test_order_one_equals_chord_sum_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(300):
        events = _random_alternating(rng)
        chord_sum = sum(
            events[i + 1].t - events[i].t for i in range(0, len(events), 2)
        )
        assert geometric_function(events, 1) == pytest.approx(chord_sum, rel=1e-9, abs=1e-9)


def test_translation_and_reversal_invariance_fuzz():
    rng = np.random.default_rng(23)
    for _ in range(200):
        events = _random_alternating(rng)
        for n in (1, 2, 3):
            base = geometric_function(events, n)
            shift = rng.uniform(-5, 5)
            shifted = ev(*[(e.t + shift, e.kind) for e in events])
            assert geometric_function(shifted, n) == pytest.approx(base, rel=1e-8, abs=1e-8)
            # reversing the direction swaps in/out labels and reverses order
            tmax = events[-1].t
            flipped = ev(
                *[
                    (tmax - e.t, "in" if e.kind == "out" else "out")
                    for e in reversed(events)
                ]
            )
            assert geometric_function(flipped, n) == pytest.approx(base, rel=1e-8, abs=1e-8)


def test_convex_reduction_k1():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t0, dt = rng.uniform(0, 5), rng.uniform(0.1, 4)
        events = ev((t0, "in"), (t0 + dt, "out"))
        for n in (1, 2, 3, 4):
            assert geometric_function(events, n) == pytest.approx(dt**n, rel=1e-12)


def test_observe_convex_line_is_cubed_chord():
    obs = kernel_line(SQUARE, *seg(-1, 0.25, 2, 0.25))
    assert obs.k[0] == 1
    assert obs.L3[0] == pytest.approx(obs.chords_flat[0] ** 3, rel=1e-12)


def test_annulus_diameter():
    ann = shapes.annulus()
    # through the midpoints of two opposite 64-gon edges: the diameter along
    # the x axis runs through vertices, and such a line is rejected
    c, s = 3 * math.cos(math.pi / 64), 3 * math.sin(math.pi / 64)
    obs = kernel_line(ann, *seg(-c, -s, c, s))
    assert obs.k[0] == 2
    # two chords of r_outer - r_inner each (up to 64-gon flats)
    assert obs.L1[0] == pytest.approx(2.0, abs=0.01)
    events = segment_events(ann, *seg(-c, -s, c, s))
    assert geometric_function(events, 1) == pytest.approx(obs.L1[0], rel=1e-12)


# A line within tolerance of a vertex is rejected and resampled, as in every
# estimate (tests/test_batch.py::test_vertex_hit_line_rejected): such lines
# have probability zero, so resolving them would change no estimate.
def _assert_rejected(shape, a, b):
    assert segment_events(shape, a, b) is None
    obs = kernel_line(shape, a, b)
    assert obs.rejected[0] and obs.k[0] == 0


def test_vertex_crossing_line_rejected():
    # through two corners
    _assert_rejected(SQUARE, *seg(-1, -1, 2, 2))


def test_tangential_corner_discarded():
    _assert_rejected(SQUARE, *seg(-1, 1, 1, -1))


def test_edge_collinear_line_yields_no_events():
    # running exactly along the bottom edge
    _assert_rejected(SQUARE, *seg(-1, 0, 2, 0))


def test_event_parity_on_random_lines():
    rng = np.random.default_rng(41)
    st = shapes.statue()
    hits = 0
    for _ in range(400):
        ang = rng.uniform(0, 2 * math.pi)
        off = rng.uniform(-2, 2)
        c, s = math.cos(ang), math.sin(ang)
        a = (off * -s - 5 * c, off * c - 5 * s)
        b = (off * -s + 5 * c, off * c + 5 * s)
        events = segment_events(st, a, b)
        obs = kernel_line(st, a, b)
        assert len(events) % 2 == 0
        kinds = [e.kind for e in events]
        assert kinds == ["in", "out"] * obs.k[0]
        assert np.all(obs.chords_flat > 0)
        hits += obs.k[0] > 0
    assert hits > 50


def test_contains_flips_at_each_crossing():
    # parity walk: membership alternates between consecutive crossings
    from chordscan.geometry import contains

    rng = np.random.default_rng(43)
    for _ in range(40):
        y = rng.uniform(0.05, 0.95)
        events = segment_events(HOLED, *seg(-1, y, 2, y))
        a = np.array([-1.0, y])
        u = np.array([1.0, 0.0])
        prev_t = 0.0
        inside = False
        for e in events:
            mid = a + u * (prev_t + e.t) / 2.0
            assert contains(HOLED, Point(*mid)) == inside
            inside = not inside
            prev_t = e.t


def test_scratch_scalar_count_bound():
    obs = kernel_line(HOLED, *seg(-1, 0.5, 2, 0.5))
    events = segment_events(HOLED, *seg(-1, 0.5, 2, 0.5))
    k = int(obs.k[0])
    # k chords: 2k event times + 2k labels + k chords + (k, L1, L3)
    assert k == 2
    assert 2 * len(events) + obs.chords_flat.size + 3 == scratch_scalar_count(k) == 5 * k + 3
