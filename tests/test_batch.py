import dataclasses
import math
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chordscan import batch, reading, shapes
from chordscan.explore import explore
from chordscan.geometry import Point, RigidTransform, Shape, contains, transform
from chordscan.sampling import ArenaCircle, SamplerConfig, arena_for, billiard_lines, sample_iur_batch
from conftest import arena_chords
from line_oracle import alternating, geometric_function, line_params_of_segments, segment_events

EPS = np.finfo(float).eps


def _random_lines(shape, n, seed):
    """IUR lines (theta, p) across the shape's arena."""
    return sample_iur_batch(np.random.default_rng(seed), arena_for(shape), n)


def _billiard_lines(shape, n, seed):
    """Lines (theta, p) of a billiard-cos chain in the shape's arena."""
    theta, p, _ = billiard_lines(np.random.default_rng(seed), arena_for(shape), n, "billiard-cos")
    return theta, p


def _lines_through(shape, a, b):
    """Lines (theta, p) through the rows of a and b, p from the shape's arena centre."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return line_params_of_segments(a, b, arena_for(shape).center)


def _chords_of(shape, lines):
    """Each line's chord of a circle about the arena's centre that covers the shape."""
    theta, p = lines
    centre = arena_for(shape).center
    verts = np.concatenate([r.coords for r in shape.rings])
    reach = float(np.max(np.hypot(verts[:, 0] - centre.x, verts[:, 1] - centre.y)))
    return arena_chords(theta, p, ArenaCircle(centre, 1.5 * max(reach, np.max(np.abs(p)))))


def _pair_sums(times):
    """(L1, L3) of a line's sorted event times, exactly: geometric_function's
    pair sums of the times as integers of one power-of-two unit."""
    exact = [Fraction(t) for t in times]  # every denominator a power of two
    unit = max((x.denominator for x in exact), default=1)
    events = alternating([int(x * unit) for x in exact])
    return (
        Fraction(geometric_function(events, 1), unit),
        Fraction(geometric_function(events, 3), unit**3),
    )


def _sums_error(bobs, counts, t):
    """The largest error of an accepted line's L1 or L3 from the exact pair
    sums of its own events, t grouped by line as batch._scan gives them, in
    units of batch's error model, relative (k + 5) eps."""
    first = np.concatenate([[0], np.cumsum(counts)])
    worst = Fraction(0)
    for i in np.flatnonzero(~bobs.rejected):
        want = _pair_sums(np.sort(t[first[i] : first[i + 1]]).tolist())
        unit = (int(bobs.k[i]) + 5) * Fraction(EPS)
        for got, exact in zip((bobs.L1[i], bobs.L3[i]), want):
            if Fraction(got) != exact:
                worst = max(worst, abs(Fraction(got) - exact) / (unit * exact))
    return worst


def _assert_oracles(shape, lines):
    """Check every accepted line of the kernel against independent oracles.

    The kernel observes each line's chord a -> b of a covering circle as the
    line through a and b, the line line_oracle.segment_events scans. Per
    line: membership flips at each of those events (chord midpoints inside,
    gap and outer-stretch midpoints outside); the kernel's chords are the
    differences of the events, within eps (|b - a| + chord) of rounding in
    moving them to a; and its L1 and L3 lie within batch's error model of
    the exact pair sums of its own events.
    """
    a, b = _chords_of(shape, lines)
    cs = shape.derived("kernel", batch.CompiledShape)
    theta, p = _lines_through(shape, a, b)
    bobs = batch.observe_segments(cs, theta, p)
    counts, t, _ = batch._scan([(cs, theta.size)], theta, p)
    assert _sums_error(bobs, counts, t) <= 1
    per_line = np.split(bobs.chords_flat, np.cumsum(bobs.k)[:-1])
    for i in np.flatnonzero(~bobs.rejected):
        ts = np.array([e.t for e in segment_events(shape, a[i], b[i])])
        length = math.hypot(*(b[i] - a[i]))
        u = (b[i] - a[i]) / length
        cuts = np.concatenate([[0.0], ts, [length]])
        for j, mid in enumerate(0.5 * (cuts[:-1] + cuts[1:])):
            assert contains(shape, Point(*(a[i] + mid * u))) == (j % 2 == 1)
        assert bobs.k[i] == len(ts) // 2
        want = ts[1::2] - ts[0::2]
        assert np.all(np.abs(per_line[i] - want) <= EPS * (length + want))
    return bobs


@pytest.mark.parametrize("name", shapes.BUILTIN_NAMES)
def test_batch_matches_scalar_observe(name):
    shape = shapes.builtin(name)
    seed = zlib.crc32(name.encode()) % 1000
    for lines in (_random_lines(shape, 400, seed), _billiard_lines(shape, 400, seed)):
        bobs = _assert_oracles(shape, lines)
        assert not bobs.rejected.any()


def _star_ring(angles, radii):
    """Star-shaped ring about the origin; angle jitters in [0, 0.5] keep it simple."""
    n = len(radii)
    theta = 2.0 * math.pi * (np.arange(n) + np.asarray(angles)) / n
    return np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])


@st.composite
def holed_stars(draw):
    """A star-shaped polygon with one star-shaped hole, rotated and translated.

    Outer vertices lie at radius >= 1 and at most 1.5 * 2pi/6 apart, so every
    outer edge stays farther than cos(pi/4) > 0.6 from the centre, where the
    hole's vertices end.
    """
    n_out = draw(st.integers(6, 20))
    n_in = draw(st.integers(3, 10))
    jitter = st.floats(0.0, 0.5)
    outer = _star_ring(
        draw(st.lists(jitter, min_size=n_out, max_size=n_out)),
        np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=n_out, max_size=n_out))),
    )
    hole = _star_ring(
        draw(st.lists(jitter, min_size=n_in, max_size=n_in)),
        np.array(draw(st.lists(st.floats(0.1, 0.6), min_size=n_in, max_size=n_in))),
    )
    far = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
    motion = RigidTransform(draw(st.floats(0.0, 2.0 * math.pi)), Point(draw(far), draw(far)))
    # validated at the origin; a rigid motion keeps it valid
    return transform(Shape([outer, hole]), motion)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shape=holed_stars(), seed=st.integers(0, 2**32 - 1))
def test_batch_matches_scalar_on_generated_holed_stars(shape, seed):
    bobs = _assert_oracles(shape, _random_lines(shape, 60, seed))
    assert bobs.k.max() >= 1


def test_batch_matches_scalar_on_many_chord_word():
    # the running sums behind L3 grow with the chord count; GENERATIONS
    # reaches 15 chords on one line
    shape = reading.word_shape("GENERATIONS", 1.0).shape
    bobs = _assert_oracles(shape, _random_lines(shape, 1000, seed=3))
    assert int(bobs.k.max()) == 15
    bobs = _assert_oracles(shape, _billiard_lines(shape, 1000, seed=3))
    assert int(bobs.k.max()) >= 10


def _assert_same_lines_in_blocks(name, n_lines, size):
    # 6000 lines through the annulus' 64-gon rings span several ring-scan
    # sub-blocks; the first n_lines observed `size` at a time must give the same
    # per-line results, bit for bit: the stop loop's result must not depend
    # on its draw sizes, nor calibrate's entry on its take sizes
    shape = shapes.annulus() if name == "annulus" else reading.word_shape(name, 1.0).shape
    cshape = batch.CompiledShape(shape)
    theta, p = _random_lines(shape, 6000, seed=8)
    full = batch.observe_segments(cshape, theta, p)
    n_chords = int(np.cumsum(full.k)[n_lines - 1])
    whole = dataclasses.replace(
        full,
        chords_flat=full.chords_flat[:n_chords],
        **{f: getattr(full, f)[:n_lines] for f in ("k", "rejected", "L1", "L3", "chord_cube_sum")},
    )
    parts = [
        batch.observe_segments(cshape, theta[i : i + size], p[i : i + size])
        for i in range(0, n_lines, size)
    ]
    for field in ("k", "rejected", "L1", "L3", "chord_cube_sum", "chords_flat"):
        want = np.concatenate([getattr(p, field) for p in parts])
        assert np.array_equal(getattr(whole, field), want), field


def test_batch_results_do_not_depend_on_batch_size():
    _assert_same_lines_in_blocks("annulus", 6000, 100)


@pytest.mark.parametrize("name", ["annulus", "GENERATIONS"])
def test_lone_line_observed_as_in_a_block(name):
    # alone, a line's candidate edges make a block of their own, and a
    # many-chord line's sums would take numpy's pairwise column sum
    _assert_same_lines_in_blocks(name, 300, 1)


@pytest.mark.parametrize("name", ["statue", "GENERATIONS"])
def test_sub_blocks_do_not_change_bits(monkeypatch, name):
    # with a tiny block the ring scan and the per-line sums run a few lines
    # at a time, each sub-block of sums up to its own longest line; every
    # line's results must stay the same, bit for bit
    shape = shapes.statue() if name == "statue" else reading.word_shape(name, 1.0).shape
    cshape = batch.CompiledShape(shape)
    lines = _random_lines(shape, 700, seed=4)
    want = batch.observe_segments(cshape, *lines)
    monkeypatch.setattr(batch, "_BLOCK", 64)
    got = batch.observe_segments(cshape, *lines)
    rows = 64 // (2 * int(want.k.max()))
    assert 2 <= rows < np.count_nonzero(want.k) // 10
    for field in ("k", "rejected", "L1", "L3", "chord_cube_sum", "chords_flat"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_batch_chord_cube_sums():
    shape = shapes.annulus()
    bobs = batch.observe_segments(batch.CompiledShape(shape), *_random_lines(shape, 300, seed=3))
    per_line = np.split(bobs.chords_flat, np.cumsum(bobs.k)[:-1])
    # the kernel's sum and numpy's each lie within (k + 1) eps / 2 of the exact
    # sum of the cubed chords, inside batch's (k + 5) eps for the line sums
    for i, mine in enumerate(per_line):
        want = float(np.sum(mine**3))
        assert abs(bobs.chord_cube_sum[i] - want) <= (mine.size + 5) * EPS * want


def _padded_line_sums(t, n_ev):
    """(L1, chord cube sum, L3, chords) of lines with n_ev events each, t line by line.

    The reduction as the kernel ran it before lines were grouped by event
    count, kept as the oracle of batch._reduce: every line padded to the
    longest line's count with the largest event, sorted row by row, and
    summed across the whole padded grid.
    """
    n = n_ev.size
    cmax = int(n_ev.max())
    row_start = np.cumsum(n_ev) - n_ev
    flat = np.arange(t.size) + np.repeat(np.arange(n) * cmax - row_start, n_ev)
    grid = np.full((n, cmax), t.max())
    grid.ravel()[flat] = t
    grid.sort(axis=1)
    ev = np.ascontiguousarray(grid.T)
    ch = ev[1::2] - ev[0::2]
    ch3 = ch * ch * ch
    mid_step = 0.5 * (ch[:-1] + ch[1:]) + (ev[2::2] - ev[1:-1:2])
    so_far = ch[0].copy()
    cube_sum = ch3[0].copy()
    weighted_gap = np.zeros(n)
    pair_terms = np.zeros(n)
    for j in range(1, cmax // 2):
        weighted_gap += so_far * mid_step[j - 1]
        pair_terms += ch[j] * weighted_gap
        so_far += ch[j]
        cube_sum += ch3[j]
    ch_valid = np.arange(cmax // 2) < (n_ev // 2)[:, None]
    return so_far, cube_sum, cube_sum + 6.0 * pair_terms, ch.T[ch_valid]


def _padded_reduce(counts, t, rejected):
    """The oracle's record: odd-parity lines join the rejected, whose events go."""
    rejected = rejected | (counts % 2 == 1)
    t = t[np.repeat(~rejected, counts)]
    counts = np.where(rejected, 0, counts)
    L1, L3, cube = (np.zeros(counts.size) for _ in range(3))
    hit = np.flatnonzero(counts)
    chords_flat = np.empty(0)
    if hit.size:
        L1[hit], cube[hit], L3[hit], chords_flat = _padded_line_sums(t, counts[hit])
    return {"k": counts // 2, "L1": L1, "L3": L3, "chord_cube_sum": cube,
            "chords_flat": chords_flat, "rejected": rejected}


@st.composite
def event_blocks(draw):
    """(event counts, event positions line by line in no order, vertex-rejected mask).

    Counts run 0-30 with most lines even and some odd, in any order; a few
    lines are vertex-rejected, and their events stay in the block, as the
    ring scan leaves them.
    """
    n = draw(st.integers(1, 60))
    count = st.one_of(st.integers(0, 15).map(lambda k: 2 * k), st.integers(0, 30))
    counts = np.array(draw(st.lists(count, min_size=n, max_size=n)), dtype=np.intp)
    rejected = draw(hnp.arrays(bool, n, elements=st.sampled_from([False] * 7 + [True])))
    t = draw(hnp.arrays(float, int(counts.sum()), elements=st.floats(0.0, 50.0)))
    return counts, t, rejected


def _block(counts, seed, rejected=()):
    counts = np.asarray(counts, dtype=np.intp)
    t = np.random.default_rng(seed).uniform(0.0, 50.0, int(counts.sum()))
    mask = np.zeros(counts.size, dtype=bool)
    mask[list(rejected)] = True
    return counts, t, mask


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block=event_blocks(), size=st.sampled_from([64, batch._BLOCK]))
@example(block=_block([2] * 500, 1), size=64)  # one chord on every line
@example(block=_block([2] * 500, 1), size=batch._BLOCK)
@example(block=_block([30], 2), size=64)  # a lone line of 30 events
@example(block=_block([0, 30, 2, 0, 4, 30, 2, 6], 3), size=batch._BLOCK)
# one-chord lines among vertex-rejected (lines 1, 3, 8) and odd-parity lines
@example(block=_block([2, 3, 2, 4, 2, 1, 2, 6, 2, 5, 0, 2], 4, rejected=[1, 3, 8]), size=64)
@example(block=_block([2, 3, 2, 4, 2, 1, 2, 6, 2, 5, 0, 2], 4, rejected=[1, 3, 8]), size=batch._BLOCK)
@example(block=_block([2] * 40 + [1], 5, rejected=[0, 7, 39]), size=64)  # rejected lone chords
# runs of four- and six-event lines long enough for the sorting networks
@example(block=_block([4, 6, 2] * 900 + [8, 0, 3], 6, rejected=[5, 11]), size=64)
@example(block=_block([4, 6, 2] * 900 + [8, 0, 3], 6, rejected=[5, 11]), size=batch._BLOCK)
@example(block=_block([6] * 770 + [4] * 330, 7), size=batch._BLOCK)
def test_reduction_matches_the_padded_grid(block, size):
    # lines grouped by event count, each count sorted on its own, must give
    # the padded grid's numbers bit for bit, whatever sub-blocks they run in
    counts, t, rejected = block
    want = _padded_reduce(counts, t, rejected)
    saved = batch._BLOCK
    batch._BLOCK = size
    try:
        got = batch._reduce(counts.copy(), t.copy(), rejected.copy())
    finally:
        batch._BLOCK = saved
    for field, value in want.items():
        assert np.array_equal(getattr(got, field), value), field


@pytest.mark.parametrize("n", sorted(batch._NETWORKS))
def test_sorting_networks_sort_every_zero_one_input(n):
    # a comparator network that sorts every 0-1 sequence sorts every
    # sequence (Knuth's 0-1 principle): all 2**n of them as columns
    net = batch._NETWORKS[n]
    ev = ((np.arange(2**n)[None, :] >> np.arange(n)[:, None]) & 1).astype(float)
    for i, j in net:
        ev[i], ev[j] = np.minimum(ev[i], ev[j]), np.maximum(ev[i], ev[j])
    assert np.array_equal(ev, np.sort(ev, axis=0))
    assert all(0 <= i < j < n for i, j in net)


def test_vertex_hit_line_rejected():
    sq = shapes.square()
    a = np.array([[-1.0, -1.0], [-1.0, 0.5], [-1.0, 1e-13]])
    # first runs through two corners, third passes inside the tolerance band
    b = np.array([[2.0, 2.0], [2.0, 0.5], [2.0, 1e-13]])
    bobs = batch.observe_segments(batch.CompiledShape(sq), *_lines_through(sq, a, b))
    assert bobs.rejected[0]
    assert not bobs.rejected[1]
    assert bobs.k[1] == 1
    assert bobs.rejected[2]


HOLED_SQUARE = Shape(
    [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)],
    ]
)
NEAR_VERTEX_SHAPES = {
    "square": shapes.square(),
    "holed-square": HOLED_SQUARE,
    "statue": shapes.statue(),
    "far-statue": transform(shapes.statue(), RigidTransform(0.0, Point(3e5, -7e5))),
}


def _near_vertex_lines(shape, dist, seed, per_vertex=5):
    """Lines (theta, p) passing at dist from each vertex, random directions."""
    centre = arena_for(shape).center
    verts = np.concatenate([r.coords for r in shape.rings])
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (len(verts), per_vertex))
    # a normal at phi >= pi is the normal at phi - pi turned round: its line
    # lies dist on the other side
    side = np.where(phi < math.pi, 1.0, -1.0)
    theta = np.where(phi < math.pi, phi, phi - math.pi)
    # offset of the parallel line through the vertex, then moved dist off it
    through = (verts[:, :1] - centre.x) * np.cos(theta)
    through += (verts[:, 1:] - centre.y) * np.sin(theta)
    return theta.ravel(), (through + side * dist).ravel()


def _in_kernel_frame(shape):
    """The shape moved by minus its arena's centre, its arena circle about the
    origin: its coordinates are its kernel's own centre-relative endpoints,
    so its kernel arrays equal the shape's and a line (theta, p) is the same
    line in both. The oracles' membership tests then resolve distances from
    a vertex at the shape's size, not at its distance from the origin (the
    far statue's band, 1.2e-12, lies below the spacing of floats at 7e5)."""
    arena = arena_for(shape, 1.0)
    moved = Shape([r.coords - arena.center.as_array() for r in shape.rings], validate=False)
    moved.derived("arena", lambda _: (Point(0.0, 0.0), arena.radius))
    own, kernel = (s.derived("kernel", batch.CompiledShape) for s in (shape, moved))
    for field in ("zp", "zq", "tol", "reach", "ptr", "edges"):
        assert np.array_equal(getattr(kernel, field), getattr(own, field)), field
    return moved


@pytest.mark.parametrize("name", NEAR_VERTEX_SHAPES)
def test_lines_just_outside_the_vertex_band_accepted(name):
    # 10 to 1e6 band half-widths from the vertices
    shape = _in_kernel_frame(NEAR_VERTEX_SHAPES[name])
    tol = shape.derived("kernel", batch.CompiledShape).tol
    for j in range(6, 12):
        lines = _near_vertex_lines(shape, 10.0 ** (12 - j) * tol, seed=j)
        bobs = _assert_oracles(shape, lines)
        assert not bobs.rejected.any(), j


@pytest.mark.parametrize("name", NEAR_VERTEX_SHAPES)
def test_lines_inside_the_vertex_band_rejected(name):
    # a tenth of the band's half-width; nothing is asserted at the edge
    shape = _in_kernel_frame(NEAR_VERTEX_SHAPES[name])
    cs = shape.derived("kernel", batch.CompiledShape)
    lines = _near_vertex_lines(shape, 0.1 * cs.tol, seed=13)
    bobs = batch.observe_segments(cs, *lines)
    assert bobs.rejected.all()
    a, b = _chords_of(shape, lines)
    assert all(segment_events(shape, a[i], b[i]) is None for i in range(len(a)))


def test_one_call_over_parts_equals_each_parts_own_call():
    # statue, J, GENERATIONS, the annulus and the far statue in one call,
    # each part with lines out of reach and lines 4e-12 from its vertices:
    # inside the vertex band of GENERATIONS (2.2e-11), outside those of the
    # statues (1.2e-12), J (2.9e-12) and the annulus (2e-12), which keep
    # them though the call holds a wider band
    J = reading.letter_shape("J", 1.0)
    word = reading.word_shape("GENERATIONS", 1.0).shape
    parts = []
    for i, shape in enumerate(
        [shapes.statue(), J, word, shapes.annulus(), NEAR_VERTEX_SHAPES["far-statue"]]
    ):
        theta, p = _random_lines(shape, 300, seed=i)
        near_theta, near_p = _near_vertex_lines(shape, 4e-12, seed=10 + i, per_vertex=2)
        far = 10.0 * arena_for(shape).radius
        theta = np.concatenate([theta, near_theta, [0.3, 2.0]])
        p = np.concatenate([p, near_p, [far, -far]])
        parts.append((shape.derived("kernel", batch.CompiledShape), theta, p))
    tols = [cs.tol for cs, _, _ in parts]
    assert max(tols[:2] + tols[3:]) < 4e-12 < tols[2]
    joint = batch.observe_segments(*(list(col) for col in zip(*parts)))
    ends = np.cumsum([0] + [len(t) for _, t, _ in parts])
    for i, part in enumerate(parts):
        view = joint.select(np.arange(ends[i], ends[i + 1]))
        own = batch.observe_segments(*part)
        for field in ("k", "rejected", "L1", "L3", "chord_cube_sum", "chords_flat", "theta", "p"):
            assert np.array_equal(getattr(view, field), getattr(own, field)), (i, field)
        # the near-vertex lines, then the two far lines
        assert not own.k[-2:].any() and not own.rejected[-2:].any()
        near = own.rejected[300:-2]
        assert near.all() if part[0].tol > 4e-12 else not near.any(), i


def _vertex_scan(shape, theta, p):
    """Every vertex of every ring against every line: the scan before the table.

    Kept as the oracle of the candidate-edge table. Returns the sorted
    (line, t, kappa) events and the rejected mask, by the kernel's rules: a
    vertex within tol of a line rejects it, an edge whose endpoints lie on
    opposite sides is crossed, and t is interpolated between the endpoints,
    along (-sin theta, cos theta) from the foot of the arena's centre, from
    which p is measured; kappa = 1 + |x2 - x1| / |s1 - s2| is the crossing's
    conditioning.
    """
    tol = shape.derived("kernel", batch.CompiledShape).tol
    centre = arena_for(shape).center.as_array()
    nx, ny = np.cos(theta), np.sin(theta)
    ux, uy = -ny, nx
    lines, ts, kappas = [], [], []
    rejected = np.zeros(len(theta), dtype=bool)
    for ring in shape.rings:
        mid = 0.5 * (ring.coords.min(axis=0) + ring.coords.max(axis=0))
        rx, ry = (ring.coords - mid).T
        s = (rx * nx[:, None] + ry * ny[:, None]) + (
            (mid[0] - centre[0]) * nx + (mid[1] - centre[1]) * ny - p
        )[:, None]
        x = rx * ux[:, None] + ry * uy[:, None]
        s_next, x_next = np.roll(s, -1, axis=1), np.roll(x, -1, axis=1)
        rejected |= (np.abs(s) <= tol).any(axis=1)
        i, j = np.nonzero((s > 0.0) != (s_next > 0.0))
        s1, s2, x1, x2 = s[i, j], s_next[i, j], x[i, j], x_next[i, j]
        t = ((mid[0] - centre[0]) * ux + (mid[1] - centre[1]) * uy)[i]
        lines.append(i)
        ts.append(t + (x1 + (x2 - x1) * (s1 / (s1 - s2))))
        kappas.append(1.0 + np.abs(x2 - x1) / np.abs(s1 - s2))
    lines, ts, kappas = np.concatenate(lines), np.concatenate(ts), np.concatenate(kappas)
    order = np.lexsort((ts, lines))
    return lines[order], ts[order], kappas[order], rejected


@st.composite
def oracle_cases(draw):
    """A far holed star or GENERATIONS, with random lines and lines inside and
    just outside the vertex band."""
    if draw(st.booleans()):
        shape = draw(holed_stars())
    else:
        word = reading.word_shape("GENERATIONS", 1.0).shape
        far = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
        motion = RigidTransform(draw(st.floats(0.0, 2.0 * math.pi)), Point(draw(far), draw(far)))
        shape = transform(word, motion)
    seed = draw(st.integers(0, 2**32 - 1))
    tol = shape.derived("kernel", batch.CompiledShape).tol
    parts = [_random_lines(shape, 200, seed)]
    for dist in (0.1 * tol, 10.0 * tol, 1e4 * tol):
        parts.append(_near_vertex_lines(shape, dist, seed, per_vertex=2))
    theta, p = (np.concatenate([part[i] for part in parts]) for i in (0, 1))
    return shape, theta, p


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=oracle_cases())
def test_table_scan_matches_the_vertex_scan(case):
    # the table must hand every line each edge that the all-vertex scan
    # finds crossed or within the band, and the arithmetic stays close. The
    # scans round differently, each within about 4 eps R kappa of the exact
    # crossing (batch's model for the table scan; R the table's reach, at
    # least every centre-relative coordinate), so they agree within
    # 8 eps R kappa, capped at the vertex band's half-width, which these
    # examples also meet where kappa is large
    shape, theta, p = case
    want_lines, want_t, kappa, want_rejected = _vertex_scan(shape, theta, p)
    cs = batch.CompiledShape(shape)
    counts, t, rejected = batch._scan([(cs, theta.size)], theta, p)
    assert np.array_equal(rejected, want_rejected)
    assert 0 < rejected.sum() < len(theta)
    keep = ~rejected
    assert np.array_equal(counts[keep], np.bincount(want_lines, minlength=len(theta))[keep])
    # the events come grouped by line, in line order
    lines = np.repeat(np.arange(len(theta)), counts)
    t = t[np.lexsort((t, lines))]
    t_keep, want_keep = keep[lines], keep[want_lines]
    bound = np.minimum(8.0 * EPS * cs.reach * kappa, cs.tol)
    assert np.all(np.abs(t[t_keep] - want_t[want_keep]) <= bound[want_keep])


BAND_SHAPES = {
    **{name: shapes.builtin(name) for name in shapes.BUILTIN_NAMES},
    "GENERATIONS": reading.word_shape("GENERATIONS", 1.0).shape,
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(list(BAND_SHAPES)),
    angle=st.floats(0.0, 2.0 * math.pi),
    mirror=st.booleans(),
    offset=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
)
def test_vertex_band_does_not_move_with_the_shape(name, angle, mirror, offset):
    # 1e-12 * max(1, R), R the arena's radius: a rigid motion changes it only
    # by the rounding of the moved coordinates, about eps * 1e6 relative
    shape = BAND_SHAPES[name]
    moved = transform(shape, RigidTransform(angle, Point(*offset), mirror))
    want = shape.derived("kernel", batch.CompiledShape).tol
    assert batch.CompiledShape(moved).tol == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("mode", ["iur", "billiard-cos"])
def test_far_statue_rejects_no_line_of_a_million(mode):
    # the statue's band stays 1.2e-12 at (1e6, -2e6), so a million lines
    # meet it no more often than at the origin, where none does; a band of
    # 1e-12 times the largest absolute coordinate, 2e-6 here, rejects 25
    # IUR and 27 billiard-cos lines of these
    far = transform(shapes.statue(), RigidTransform(0.3, Point(1e6, -2e6)))
    assert explore(far, 1_000_000, SamplerConfig(mode=mode, seed=3)).rejected == 0


def _exact_lines(cs, theta, p):
    """Each line's crossings (t, kappa) in exact arithmetic, sorted by t, and
    the least distance of a vertex from it.

    The inputs are the scan's own floats, taken as exact: each line's cos and
    sin from batch._sincos and its offset p from the centre O as drawn, and
    every edge's centre-relative endpoints. Every edge and every vertex is
    tested; kappa = 1 + |x2 - x1| / |s1 - s2| is the crossing's
    conditioning, large where the line grazes the edge.
    """
    cos, sin = batch._sincos(theta)
    exact = {z: (Fraction(z.real), Fraction(z.imag)) for z in [*cs.zp.tolist(), *cs.zq.tolist()]}
    ends = list(zip(cs.zp.tolist(), cs.zq.tolist()))
    out = []
    for lc, ls, lo in zip(map(Fraction, cos), map(Fraction, sin), map(Fraction, p)):
        s = {z: x * lc + y * ls - lo for z, (x, y) in exact.items()}
        found = []
        for zp, zq in ends:
            s1, s2 = s[zp], s[zq]
            if (s1 > 0) != (s2 > 0):
                (px, py), (qx, qy) = exact[zp], exact[zq]
                x1, x2 = py * lc - px * ls, qy * lc - qx * ls
                found.append((x1 + (x2 - x1) * (s1 / (s1 - s2)), 1 + abs(x2 - x1) / abs(s1 - s2)))
        out.append((sorted(found), min(map(abs, s.values()))))
    return out


@pytest.mark.parametrize("name", ["statue", "far statue", "far GENERATIONS"])
def test_scan_matches_exact_arithmetic(name):
    # random lines, and lines 0.1, 0.75 and 1.25 times the vertex band's
    # half-width tol from vertices. Every line's count equals the exact one,
    # and each crossing lies within 4 eps E kappa of its exact position, E
    # the largest centre-relative endpoint coordinate (0.89 eps E kappa at
    # most on these lines, far GENERATIONS). Each accepted line's L1 and L3 lie
    # within relative (k + 5) eps of the exact pair sums of its own events.
    # The vertex rule holds: a rejected line has a vertex within tol + 4 eps E
    # of it, an accepted one has none within tol - 4 eps E, which bounds the
    # rounding of the scan's vertex distances.
    shape = {
        "statue": shapes.statue(),
        "far statue": transform(shapes.statue(), RigidTransform(0.0, Point(3e5, -7e5))),
        "far GENERATIONS": transform(
            reading.word_shape("GENERATIONS", 1.0).shape, RigidTransform(0.7, Point(-2e5, 5e5))
        ),
    }[name]
    cs = batch.CompiledShape(shape)
    theta, p = _random_lines(shape, 150, seed=17)
    for j, f in enumerate((0.1, 0.75, 1.25)):
        near_theta, near_p = _near_vertex_lines(shape, f * cs.tol, seed=18 + j, per_vertex=1)
        every = max(1, near_theta.size // 24)
        theta, p = np.concatenate([theta, near_theta[::every]]), np.concatenate([p, near_p[::every]])
    counts, t, rejected = batch._scan([(cs, theta.size)], theta, p)
    want = _exact_lines(cs, theta, p)
    assert counts.tolist() == [len(w) for w, _ in want]
    assert counts.sum() > 150
    unit = np.finfo(float).eps * max(np.abs(cs.zp.real).max(), np.abs(cs.zp.imag).max())
    lines = np.repeat(np.arange(len(theta)), counts)
    t_sorted = t[np.lexsort((t, lines))]
    for got, (t_exact, kappa) in zip(t_sorted.tolist(), [e for w, _ in want for e in w]):
        assert abs(Fraction(got) - t_exact) <= 4 * Fraction(unit) * kappa, (got, float(t_exact), float(kappa))
    bobs = batch.observe_segments(cs, theta, p)
    assert np.array_equal(bobs.rejected, rejected)
    assert _sums_error(bobs, counts, t) <= 1
    assert bobs.k.max() >= 3
    band = Fraction(cs.tol), 4 * Fraction(unit)
    for i, (_, nearest) in enumerate(want):
        assert nearest <= band[0] + band[1] if rejected[i] else nearest > band[0] - band[1], i
    assert 0 < rejected.sum() < len(theta)


@pytest.mark.parametrize("name", ["triangle", "J", "far GENERATIONS"])
def test_tables_are_keyed_to_the_arena_centre(name):
    # a shape has one centre, its arena's: the table's endpoints are taken
    # from it, so a sampler's p is the scan's offset as drawn. The triangle's
    # box and J's cell box are centred elsewhere.
    shape = {
        "triangle": shapes.triangle(),
        "J": reading.letter_shape("J", 1.0),
        "far GENERATIONS": transform(
            reading.word_shape("GENERATIONS", 1.0).shape, RigidTransform(0.7, Point(-2e5, 5e5))
        ),
    }[name]
    cs = batch.CompiledShape(shape)
    centre = arena_for(shape).center
    assert cs.center == centre
    verts = np.concatenate([r.coords for r in shape.rings])
    assert np.array_equal(cs.zp.real, verts[:, 0] - centre.x)
    assert np.array_equal(cs.zp.imag, verts[:, 1] - centre.y)


def test_sincos_is_within_eps_of_cos_and_sin():
    # a dense grid over [0, pi), every table node and one ulp either side of
    # it, 0, and the largest float below pi, whose node may round to 1024
    nodes = np.arange(1025) * (math.pi / 1024)
    theta = np.concatenate(
        [
            np.linspace(0.0, math.pi, 1 << 20, endpoint=False),
            nodes,
            np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf),
            [0.0, np.nextafter(math.pi, 0.0)],
        ]
    )
    theta = theta[(theta >= 0.0) & (theta < math.pi)]
    cos, sin = batch._sincos(theta)
    eps = np.finfo(float).eps
    assert np.abs(cos - np.cos(theta)).max() <= eps
    assert np.abs(sin - np.sin(theta)).max() <= eps
    assert np.abs(cos * cos + sin * sin - 1.0).max() <= 2.0 * eps
    # exact at 0, where sin is +0
    cos, sin = batch._sincos(np.zeros(1))
    assert cos.tolist() == [1.0] and sin.tolist() == [0.0] and math.copysign(1.0, sin[0]) == 1.0


TABLE_SHAPES = {
    **NEAR_VERTEX_SHAPES,
    "disk": shapes.disk(),
    "triangle": shapes.triangle(),
    "annulus": shapes.annulus(),
    "GENERATIONS": reading.word_shape("GENERATIONS", 1.0).shape,
    # a vertex at the table's centre, whose offset 0 is a bin edge: only the
    # band's widening lists its edges in the cells on both sides
    "notch": Shape([[(0.0, 0.0), (0.2, 0.0), (0.2, 2.0), (0.0, 2.0), (0.1, 1.0)]]),
}


@pytest.mark.parametrize("name", TABLE_SHAPES)
def test_every_cell_lists_the_edges_its_corner_and_centre_lines_reach(name):
    # lines at the corners of every (angle, offset) cell, on its bin edges
    # exactly, and at its centre: every edge such a line crosses, or passes
    # within the band of an endpoint of, must be listed for the cell
    cs = batch.CompiledShape(TABLE_SHAPES[name])
    assert name != "notch" or cs.n_c % 2 == 0
    n_cells = cs.n_phi * cs.n_c
    listed = np.zeros((n_cells + 1, cs.zp.size), dtype=bool)
    listed[np.repeat(np.arange(n_cells + 1), np.diff(cs.ptr)), cs.edges] = True
    assert not listed[n_cells].any()
    listed = listed[:n_cells].reshape(cs.n_phi, cs.n_c, -1)
    px, py, qx, qy = cs.zp.real, cs.zp.imag, cs.zq.real, cs.zq.imag
    dphi, dc = math.pi / cs.n_phi, 2.0 * cs.reach / cs.n_c
    # offsets on every bin edge and bin centre
    c = -cs.reach + 0.5 * dc * np.arange(2 * cs.n_c + 1)
    for i in range(cs.n_phi):
        reached = []
        for phi in (i * dphi, (i + 0.5) * dphi, (i + 1) * dphi):
            nx, ny = math.cos(phi), math.sin(phi)
            s1 = (px * nx + py * ny) - c[:, None]
            s2 = (qx * nx + qy * ny) - c[:, None]
            near = (np.abs(s1) <= cs.tol) | (np.abs(s2) <= cs.tol)
            reached.append(near | ((s1 > 0.0) != (s2 > 0.0)))
        lo, mid, hi = reached
        corners = lo[0:-1:2] | lo[2::2] | hi[0:-1:2] | hi[2::2]
        missing = (corners | mid[1::2]) & ~listed[i]
        assert not missing.any(), (i, np.argwhere(missing)[:5])


@pytest.mark.parametrize("name", ["annulus", "GENERATIONS"])
def test_observing_a_chunk_holds_little_memory(name):
    # the scan expands candidate pairs a bounded sub-block at a time: a
    # 16,384-line chunk peaks under 3.2 MB of temporaries (tracemalloc), no
    # higher than the all-vertex scan did (3.5 and 3.4 MB)
    shape = TABLE_SHAPES[name]
    cs = batch.CompiledShape(shape)
    lines = _random_lines(shape, 16384, seed=6)
    batch.observe_segments(cs, *lines)
    tracemalloc.start()
    try:
        batch.observe_segments(cs, *lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6


def test_table_build_holds_the_table_once():
    # a 4,096-gon annulus lists about 4.7M entries (9.6 MB); the build counts
    # them first and fills the table where it lies, so it peaks at the table
    # plus one chunk's keys, not at two copies of it. validate=False skips
    # the quadratic ring checks.
    rings = [shapes._circle_ring((0.0, 0.0), r, 4096) for r in (2.0, 1.0)]
    shape = Shape(rings, validate=False)
    tracemalloc.start()
    try:
        cs = batch.CompiledShape(shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = cs.ptr.nbytes + cs.edges.nbytes
    assert table > 9e6
    assert peak <= 1.25 * table


def test_prefilter_keeps_the_vertex_band_far_from_the_origin():
    # the band's half-width here is 1e-12 * R, R = sqrt(2) * 1e6 the arena's
    # radius, far past the table's 1e-9 pad: a line 5e-7 from the corner
    # reaches the band, so its cell must list the corner's edges, though it
    # lies outside the ring's circle. The lines are perpendicular to the
    # diagonal of the square of side 2e6 at (1e6, 1e6), each the given
    # distance outside its far corner, their offsets taken from the arena's
    # centre in the scan's own cos and sin.
    sq = shapes.square(side=2e6, corner=(1e6, 1e6))
    offsets = np.array([0.0, 5e-7, 2e-6])
    corner = Point(3e6, 3e6)
    cs = batch.CompiledShape(sq)
    assert cs.tol == pytest.approx(math.sqrt(2.0) * 1e-6, rel=1e-9)
    theta = np.full(3, 0.25 * math.pi)
    cos, sin = batch._sincos(theta)
    p = offsets + ((corner.x - cs.center.x) * cos + (corner.y - cs.center.y) * sin)
    _, ts, rejected = batch._scan([(cs, 3)], theta, p)
    assert rejected.tolist() == [True, True, False]
    assert ts.size == 0
    out = np.array([1.0, 1.0]) / math.sqrt(2.0)
    along = np.array([1.0, -1.0]) / math.sqrt(2.0)
    feet = corner.as_array() + offsets[:, None] * out
    a, b = feet - 2.0 * along, feet + 2.0 * along
    assert [segment_events(sq, a[i], b[i]) for i in range(3)] == [None, None, []]


def test_statue_reaches_k6():
    st = shapes.statue()
    # horizontal lines across the tooth band cross all six teeth
    ys = np.linspace(0.2, 0.9, 50) * st.rings[0].coords[:, 1].max()
    cs = batch.CompiledShape(st)
    bobs = batch.observe_segments(cs, np.full(50, 0.5 * math.pi), ys - cs.center.y)
    assert int(bobs.k.max()) == 6


def test_accepted_drops_rejected_lines_and_reindexes_chords():
    sq = shapes.square()
    cs = batch.CompiledShape(sq)
    # one chord each of lengths 1, sqrt(1.04) and 1.25; the middle line runs
    # through two corners and the fourth misses the square
    a = np.array([[-1.0, 0.5], [-1.0, 0.1], [-1.0, -1.0], [0.4, -1.0], [-1.0, 9.0], [-0.25, -1.0]])
    b = np.array([[2.0, 0.5], [2.0, 0.7], [2.0, 2.0], [0.4, 2.0], [2.0, 9.0], [1.25, 2.0]])
    kept = [0, 1, 3, 4, 5]
    full = batch.observe_segments(cs, *_lines_through(sq, a, b))
    assert full.rejected.tolist() == [False, False, True, False, False, False]
    got = full.select(np.flatnonzero(~full.rejected))
    want = batch.observe_segments(cs, *_lines_through(sq, a[kept], b[kept]))
    assert not got.rejected.any() and len(got) == len(kept)
    for field in ("k", "L1", "L3", "chord_cube_sum", "chords_flat"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.k.tolist() == [1, 1, 1, 0, 1]
    # each surviving line's chords sum to its L1
    per_line = np.split(got.chords_flat, np.cumsum(got.k)[:-1])
    assert [float(np.sum(c)) for c in per_line] == got.L1.tolist()
