import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordscan import batch, chords, reading, shapes
from chordscan.geometry import Point, RigidTransform, Shape, contains, transform


def _random_segments(shape, n, seed):
    """Segments across the shape's arena, endpoints outside the shape."""
    from chordscan.sampling import arena_for, sample_iur_batch, _segments_from_lines

    arena = arena_for(shape)
    theta, p = sample_iur_batch(np.random.default_rng(seed), arena, n)
    return _segments_from_lines(theta, p, arena)


def _assert_oracles(shape, a, b):
    """Check every accepted line of the kernel against independent oracles.

    Per line: membership flips at each event of chords.crossings (chord
    midpoints inside, gap and outer-stretch midpoints outside), the kernel's
    chords are the differences of those events, and L1/L3 match the scalar
    pair-sum geometric function.
    """
    bobs = batch.observe_segments(batch.CompiledShape(shape), a, b)
    per_line = np.split(bobs.chords_flat, np.cumsum(bobs.k)[:-1])
    for i in np.flatnonzero(~bobs.rejected):
        seg = (Point(*a[i]), Point(*b[i]))
        events = chords.crossings(shape, seg)
        ts = np.array([e.t for e in events])
        length = math.hypot(*(b[i] - a[i]))
        u = (b[i] - a[i]) / length
        cuts = np.concatenate([[0.0], ts, [length]])
        for j, mid in enumerate(0.5 * (cuts[:-1] + cuts[1:])):
            assert contains(shape, Point(*(a[i] + mid * u))) == (j % 2 == 1)
        assert bobs.k[i] == len(events) // 2
        assert np.allclose(per_line[i], ts[1::2] - ts[0::2], rtol=1e-12, atol=1e-12)
        assert bobs.L1[i] == pytest.approx(
            chords.geometric_function(events, 1), rel=1e-12, abs=1e-12
        )
        assert bobs.L3[i] == pytest.approx(
            chords.geometric_function(events, 3), rel=1e-12, abs=1e-10
        )
    return bobs


@pytest.mark.parametrize("name", shapes.BUILTIN_NAMES)
def test_batch_matches_scalar_observe(name):
    shape = shapes.builtin(name)
    a, b = _random_segments(shape, 400, seed=zlib.crc32(name.encode()) % 1000)
    bobs = _assert_oracles(shape, a, b)
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
    a, b = _random_segments(shape, 60, seed)
    bobs = _assert_oracles(shape, a, b)
    assert bobs.k.max() >= 1


def test_batch_matches_scalar_on_many_chord_word():
    # the running sums behind L3 grow with the chord count; GENERATIONS
    # reaches 15 chords on one line
    shape = reading.word_shape("GENERATIONS", 1.0).shape
    a, b = _random_segments(shape, 1000, seed=3)
    bobs = _assert_oracles(shape, a, b)
    assert int(bobs.k.max()) == 15


def _assert_same_lines_in_blocks(name, n_lines, size):
    # 6000 lines through the annulus' 64-gon rings span several ring-scan
    # blocks; the first n_lines observed `size` at a time must give the same
    # per-line results, bit for bit: replicates that share kernel blocks rely
    # on it
    shape = shapes.annulus() if name == "annulus" else reading.word_shape(name, 1.0).shape
    cshape = batch.CompiledShape(shape)
    a, b = _random_segments(shape, 6000, seed=8)
    whole = batch.observe_segments(cshape, a, b).lines(0, n_lines)
    parts = [
        batch.observe_segments(cshape, a[i : i + size], b[i : i + size])
        for i in range(0, n_lines, size)
    ]
    for field in ("k", "rejected", "L1", "L3", "chord_cube_sum", "chords_flat"):
        want = np.concatenate([getattr(p, field) for p in parts])
        assert np.array_equal(getattr(whole, field), want), field


def test_batch_results_do_not_depend_on_batch_size():
    _assert_same_lines_in_blocks("annulus", 6000, 100)


@pytest.mark.parametrize("name", ["annulus", "GENERATIONS"])
def test_lone_line_observed_as_in_a_block(name):
    # alone, a line's ring scan takes numpy's matrix-vector product, and a
    # many-chord line's sums would take numpy's pairwise column sum
    _assert_same_lines_in_blocks(name, 300, 1)


def test_batch_chord_cube_sums():
    shape = shapes.annulus()
    a, b = _random_segments(shape, 300, seed=3)
    bobs = batch.observe_segments(batch.CompiledShape(shape), a, b)
    per_line = np.split(bobs.chords_flat, np.cumsum(bobs.k)[:-1])
    for i, mine in enumerate(per_line):
        assert bobs.chord_cube_sum[i] == pytest.approx(float(np.sum(mine**3)), rel=1e-12)


def test_vertex_hit_line_rejected():
    sq = shapes.square()
    a = np.array([[-1.0, -1.0], [-1.0, 0.5], [-1.0, 1e-13]])
    # first runs through two corners, third passes inside the tolerance band
    b = np.array([[2.0, 2.0], [2.0, 0.5], [2.0, 1e-13]])
    bobs = batch.observe_segments(batch.CompiledShape(sq), a, b)
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


def _near_vertex_segments(shape, dist, seed, per_vertex=5):
    """Arena segments on lines passing at dist from each vertex, random directions."""
    from chordscan.sampling import ArenaCircle, arena_for, _segments_from_lines

    # widened by dist, so that no line misses the arena
    arena = arena_for(shape)
    arena = ArenaCircle(arena.center, arena.radius + dist)
    verts = np.concatenate([r.coords for r in shape.rings])
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (len(verts), per_vertex))
    # offset of the parallel line through the vertex, then moved dist off it
    through = (verts[:, :1] - arena.center.x) * np.cos(theta)
    through += (verts[:, 1:] - arena.center.y) * np.sin(theta)
    return _segments_from_lines(theta.ravel(), (through + dist).ravel(), arena)


@pytest.mark.parametrize("name", NEAR_VERTEX_SHAPES)
def test_lines_just_outside_the_vertex_band_accepted(name):
    shape = NEAR_VERTEX_SHAPES[name]
    for j in range(6, 12):
        a, b = _near_vertex_segments(shape, 10.0**-j * shape.coordinate_scale(), seed=j)
        bobs = _assert_oracles(shape, a, b)
        assert not bobs.rejected.any(), j


@pytest.mark.parametrize("name", NEAR_VERTEX_SHAPES)
def test_lines_inside_the_vertex_band_rejected(name):
    # the band's half-width is 1e-12 * scale; nothing is asserted at the edge
    shape = NEAR_VERTEX_SHAPES[name]
    a, b = _near_vertex_segments(shape, 1e-13 * shape.coordinate_scale(), seed=13)
    bobs = batch.observe_segments(batch.CompiledShape(shape), a, b)
    assert bobs.rejected.all()
    for i in range(len(a)):
        with pytest.raises(chords.DegenerateLineError):
            chords.observe(shape, (Point(*a[i]), Point(*b[i])))


def test_statue_reaches_k6():
    st = shapes.statue()
    # horizontal lines across the tooth band cross all six teeth
    ys = np.linspace(0.2, 0.9, 50) * st.rings[0].coords[:, 1].max()
    a = np.column_stack([np.full(50, -3.0), ys])
    b = np.column_stack([np.full(50, 3.0), ys])
    bobs = batch.observe_segments(batch.CompiledShape(st), a, b)
    assert int(bobs.k.max()) == 6


def test_zero_length_and_missing_segments():
    sq = shapes.square()
    a = np.array([[-1.0, 0.5], [-1.0, 9.0]])
    b = np.array([[-1.0, 0.5], [2.0, 9.0]])
    bobs = batch.observe_segments(batch.CompiledShape(sq), a, b)
    assert not bobs.rejected.any()
    assert bobs.k.tolist() == [0, 0]
    assert bobs.chords_flat.size == 0


def test_accepted_drops_rejected_lines_and_reindexes_chords():
    sq = shapes.square()
    cs = batch.CompiledShape(sq)
    # one chord each of lengths 1, sqrt(1.04) and 1.25; the middle line runs
    # through two corners and the fourth misses the square
    a = np.array([[-1.0, 0.5], [-1.0, 0.1], [-1.0, -1.0], [0.4, -1.0], [-1.0, 9.0], [-0.25, -1.0]])
    b = np.array([[2.0, 0.5], [2.0, 0.7], [2.0, 2.0], [0.4, 2.0], [2.0, 9.0], [1.25, 2.0]])
    kept = [0, 1, 3, 4, 5]
    full = batch.observe_segments(cs, a, b)
    assert full.rejected.tolist() == [False, False, True, False, False, False]
    got = full.accepted()
    want = batch.observe_segments(cs, a[kept], b[kept])
    assert not got.rejected.any() and len(got) == len(kept)
    for field in ("k", "L1", "L3", "chord_cube_sum", "chords_flat"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.k.tolist() == [1, 1, 1, 0, 1]
    # each surviving line's chords sum to its L1
    per_line = np.split(got.chords_flat, np.cumsum(got.k)[:-1])
    assert [float(np.sum(c)) for c in per_line] == got.L1.tolist()
