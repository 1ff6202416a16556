import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordscan import batch, chords, reading, shapes
from chordscan.geometry import Point, RigidTransform, Shape, transform


def _random_segments(shape, n, seed):
    """Segments across the shape's arena, endpoints outside the shape."""
    from chordscan.sampling import arena_for, sample_iur_batch, _segments_from_lines

    arena = arena_for(shape)
    theta, p = sample_iur_batch(np.random.default_rng(seed), arena, n)
    return _segments_from_lines(theta, p, arena)


@pytest.mark.parametrize("name", shapes.BUILTIN_NAMES)
def test_batch_matches_scalar_observe(name):
    shape = shapes.builtin(name)
    a, b = _random_segments(shape, 400, seed=zlib.crc32(name.encode()) % 1000)
    cshape = batch.CompiledShape(shape)
    bobs = batch.observe_segments(cshape, a, b)
    assert not bobs.rejected.any()
    for i in range(len(a)):
        obs = chords.observe(shape, (Point(*a[i]), Point(*b[i])))
        assert bobs.k[i] == obs.k
        assert bobs.L1[i] == pytest.approx(obs.L1, rel=1e-12, abs=1e-12)
        assert bobs.L3[i] == pytest.approx(obs.L3, rel=1e-12, abs=1e-10)
        got = np.sort(bobs.chords_flat[bobs.chords_line == i])
        assert np.allclose(got, np.sort(obs.chords), rtol=1e-12, atol=1e-12)


def _assert_matches_scalar(shape, a, b):
    bobs = batch.observe_segments(batch.CompiledShape(shape), a, b)
    # lines within tolerance of a vertex are rejected here and resolved by
    # the scalar path; everything else must agree
    for i in np.flatnonzero(~bobs.rejected):
        obs = chords.observe(shape, (Point(*a[i]), Point(*b[i])))
        assert bobs.k[i] == obs.k
        assert bobs.L1[i] == pytest.approx(obs.L1, rel=1e-12, abs=1e-12)
        assert bobs.L3[i] == pytest.approx(obs.L3, rel=1e-12, abs=1e-10)
    return bobs


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
    bobs = _assert_matches_scalar(shape, a, b)
    assert bobs.k.max() >= 1


def test_batch_matches_scalar_on_many_chord_word():
    # the running sums behind L3 grow with the chord count; GENERATIONS
    # reaches 15 chords on one line
    shape = reading.word_shape("GENERATIONS", 1.0).shape
    a, b = _random_segments(shape, 1000, seed=3)
    bobs = _assert_matches_scalar(shape, a, b)
    assert int(bobs.k.max()) == 15


def test_batch_results_do_not_depend_on_batch_size():
    # 6000 lines through the 64-gon rings span several ring-scan blocks; the
    # same lines observed 100 at a time must give the same per-line results
    shape = shapes.annulus()
    cshape = batch.CompiledShape(shape)
    a, b = _random_segments(shape, 6000, seed=8)
    whole = batch.observe_segments(cshape, a, b)
    parts = [
        batch.observe_segments(cshape, a[i : i + 100], b[i : i + 100]) for i in range(0, 6000, 100)
    ]
    assert np.array_equal(whole.k, np.concatenate([p.k for p in parts]))
    assert np.array_equal(whole.rejected, np.concatenate([p.rejected for p in parts]))
    for field in ("L1", "L3", "chord_cube_sum"):
        got = getattr(whole, field)
        want = np.concatenate([getattr(p, field) for p in parts])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_batch_chord_cube_sums():
    shape = shapes.annulus()
    a, b = _random_segments(shape, 300, seed=3)
    bobs = batch.observe_segments(batch.CompiledShape(shape), a, b)
    for i in range(len(a)):
        mine = bobs.chords_flat[bobs.chords_line == i]
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
    for field in ("k", "L1", "L3", "chord_cube_sum", "chords_flat", "chords_line"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.k.tolist() == [1, 1, 1, 0, 1]
    # every chord points at its own surviving line, whose L1 is that chord
    assert got.chords_line.tolist() == [0, 1, 2, 4]
    assert np.array_equal(got.chords_flat, got.L1[got.chords_line])
