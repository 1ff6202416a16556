import math

import numpy as np
import pytest
from scipy import stats

from chordscan import sampling as sp
from chordscan.geometry import Point

ARENA = sp.ArenaCircle(Point(0.0, 0.0), 1.0)
OFFCENTER = sp.ArenaCircle(Point(3.0, -2.0), 2.5)


def test_sample_iur_deterministic():
    a = [sp.sample_iur(np.random.default_rng(42), ARENA) for _ in range(5)]
    b = [sp.sample_iur(np.random.default_rng(42), ARENA) for _ in range(5)]
    assert a == b


def test_scalar_and_batch_iur_share_the_stream():
    rng1 = np.random.default_rng(7)
    scalars = [sp.sample_iur(rng1, OFFCENTER) for _ in range(100)]
    theta, p = sp.sample_iur_batch(np.random.default_rng(7), OFFCENTER, 100)
    assert np.allclose([s.theta for s in scalars], theta)
    assert np.allclose([s.p for s in scalars], p)


def test_theta_uniformity_chi_square():
    theta, p = sp.sample_iur_batch(np.random.default_rng(3), ARENA, 100_000)
    counts, _ = np.histogram(theta, bins=32, range=(0.0, math.pi))
    assert stats.chisquare(counts).pvalue > 0.001
    counts_p, _ = np.histogram(p, bins=32, range=(-1.0, 1.0))
    assert stats.chisquare(counts_p).pvalue > 0.001


def test_mean_arena_chord_is_cauchy_value():
    # mean chord of the arena disk itself must be pi*R/2 (pi*A/P)
    _, p = sp.sample_iur_batch(np.random.default_rng(11), ARENA, 100_000)
    chords = 2.0 * np.sqrt(np.clip(1.0 - p**2, 0.0, None))
    se = chords.std(ddof=1) / math.sqrt(len(chords))
    assert abs(chords.mean() - math.pi / 2) < 3 * se


def test_clip_to_arena_cases():
    diam = sp.clip_to_arena(sp.LineParam(0.0, 0.0, ARENA.center), ARENA)
    assert math.hypot(diam[1].x - diam[0].x, diam[1].y - diam[0].y) == pytest.approx(2.0)
    tang = sp.clip_to_arena(sp.LineParam(0.3, 1.0, ARENA.center), ARENA)
    assert math.hypot(tang[1].x - tang[0].x, tang[1].y - tang[0].y) == pytest.approx(0.0)
    half = sp.clip_to_arena(sp.LineParam(1.1, 0.5, ARENA.center), ARENA)
    assert math.hypot(half[1].x - half[0].x, half[1].y - half[0].y) == pytest.approx(
        math.sqrt(3.0)
    )
    with pytest.raises(sp.LineMissesArenaError):
        sp.clip_to_arena(sp.LineParam(0.0, 1.5, ARENA.center), ARENA)


def test_line_params_roundtrip():
    rng = np.random.default_rng(4)
    theta, p = sp.sample_iur_batch(rng, OFFCENTER, 500)
    a, b = sp._segments_from_lines(theta, p, OFFCENTER)
    theta2, p2 = sp.line_params_of_segments(a, b, OFFCENTER)
    assert np.allclose(theta2, theta, atol=1e-9)
    assert np.allclose(p2, p, atol=1e-9)


def test_billiard_diameter_heading():
    state = sp.BilliardState(Point(1.0, 0.0), math.pi)  # straight through the center
    (a, b), _ = sp.next_billiard(state, np.random.default_rng(0), ARENA)
    assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(2.0, abs=1e-12)


def test_billiard_segments_match_scalar_chain():
    rng1 = np.random.default_rng(21)
    state = sp.initial_billiard_state(rng1, OFFCENTER, "cosine")
    seg_scalar = []
    for _ in range(400):
        seg, state = sp.next_billiard(state, rng1, OFFCENTER, "cosine")
        seg_scalar.append((seg[0].x, seg[0].y, seg[1].x, seg[1].y))
    a, b, _ = sp.billiard_segments(np.random.default_rng(21), OFFCENTER, 400, "cosine")
    batch = np.column_stack([a, b])
    assert np.allclose(np.array(seg_scalar), batch, atol=1e-9)


def test_billiard_stays_on_boundary():
    a, b, end = sp.billiard_segments(np.random.default_rng(2), OFFCENTER, 2000, "cosine")
    r = np.hypot(b[:, 0] - OFFCENTER.center.x, b[:, 1] - OFFCENTER.center.y)
    assert np.allclose(r, OFFCENTER.radius, atol=1e-9)
    assert math.hypot(
        end.position.x - OFFCENTER.center.x, end.position.y - OFFCENTER.center.y
    ) == pytest.approx(OFFCENTER.radius, abs=1e-9)


def test_billiard_chain_keeps_heading_wrapped():
    # a resumed chain must not carry the angle it has turned through: an
    # unwrapped heading doubled on every call until segments had zero length
    rng = np.random.default_rng(11)
    state = None
    for _ in range(60):
        a, b, state = sp.billiard_segments(rng, OFFCENTER, 500, "cosine", state=state)
        assert np.all(np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) > 0.0)
        assert -math.pi <= state.heading <= math.pi


def test_cosine_billiard_reproduces_mean_chord():
    a, b, _ = sp.billiard_segments(np.random.default_rng(5), ARENA, 100_000, "cosine")
    lengths = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    se = lengths.std(ddof=1) / math.sqrt(len(lengths))
    assert abs(lengths.mean() - math.pi / 2) < 3 * se


def test_uniform_billiard_is_biased():
    a, b, _ = sp.billiard_segments(np.random.default_rng(6), ARENA, 100_000, "uniform")
    lengths = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    se = lengths.std(ddof=1) / math.sqrt(len(lengths))
    # analytic mean for uniform reflection is 4R/pi, well below pi*R/2
    assert abs(lengths.mean() - math.pi / 2) > 5 * se
    assert abs(lengths.mean() - 4.0 / math.pi) < 5 * se


def test_cosine_chords_match_iur_distribution_ks():
    n = 100_000
    _, p = sp.sample_iur_batch(np.random.default_rng(8), ARENA, n)
    iur_chords = 2.0 * np.sqrt(np.clip(1.0 - p**2, 0.0, None))
    a, b, _ = sp.billiard_segments(np.random.default_rng(9), ARENA, n, "cosine")
    cos_chords = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    assert stats.ks_2samp(iur_chords, cos_chords).pvalue > 0.001
    a, b, _ = sp.billiard_segments(np.random.default_rng(10), ARENA, n, "uniform")
    uni_chords = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    assert stats.ks_2samp(iur_chords, uni_chords).pvalue < 0.001


def test_billiard_midpoints_isotropic():
    a, b, _ = sp.billiard_segments(np.random.default_rng(12), ARENA, 100_000, "cosine")
    mid = 0.5 * (a + b)
    ang = np.arctan2(mid[:, 1], mid[:, 0])
    counts, _ = np.histogram(ang, bins=24, range=(-math.pi, math.pi))
    assert stats.chisquare(counts).pvalue > 0.001


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        sp.SamplerConfig(mode="noisy")
    assert sp.SamplerConfig(mode="billiard-cos").billiard_policy == "cosine"
    assert sp.SamplerConfig(mode="billiard-uni").billiard_policy == "uniform"
    assert sp.SamplerConfig().billiard_policy is None
    # long-form spellings are accepted and normalized
    assert sp.SamplerConfig(mode="billiard-cosine").mode == "billiard-cos"
    assert sp.SamplerConfig(mode="billiard-uniform").billiard_policy == "uniform"


def test_arena_for_contains_shape():
    from chordscan import shapes
    from chordscan.geometry import bounding_circle

    st = shapes.statue()
    arena = sp.arena_for(st, 1.2)
    c, r = bounding_circle(st)
    gap = math.hypot(c.x - arena.center.x, c.y - arena.center.y)
    assert gap + r <= arena.radius * (1 + 1e-9)
