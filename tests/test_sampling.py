import math

import numpy as np
import pytest
from scipy import stats

from chordscan import sampling as sp
from chordscan.geometry import Point

ARENA = sp.ArenaCircle(Point(0.0, 0.0), 1.0)
OFFCENTER = sp.ArenaCircle(Point(3.0, -2.0), 2.5)


def test_sample_iur_deterministic():
    # the draw order is pinned: one block of n1 + n2 lines is n1 lines then
    # n2 lines from the same generator, bit for bit
    theta, p = sp.sample_iur_batch(np.random.default_rng(7), OFFCENTER, 100)
    rng = np.random.default_rng(7)
    t1, p1 = sp.sample_iur_batch(rng, OFFCENTER, 37)
    t2, p2 = sp.sample_iur_batch(rng, OFFCENTER, 63)
    assert np.array_equal(theta, np.concatenate([t1, t2]))
    assert np.array_equal(p, np.concatenate([p1, p2]))


def test_scalar_and_batch_iur_share_the_stream():
    # a line drawn on its own takes the same draws as its place in a block
    rng1 = np.random.default_rng(7)
    singles = [sp.sample_iur_batch(rng1, OFFCENTER, 1) for _ in range(100)]
    theta, p = sp.sample_iur_batch(np.random.default_rng(7), OFFCENTER, 100)
    assert np.array_equal(np.concatenate([t for t, _ in singles]), theta)
    assert np.array_equal(np.concatenate([q for _, q in singles]), p)


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


def _assert_on_line(a, b, theta, p, arena):
    # both endpoints lie on the line, and theta is in [0, pi)
    assert np.all((theta >= 0.0) & (theta < math.pi))
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    for end in (a, b):
        off = np.sum((end - arena.center.as_array()) * n, axis=1)
        assert np.all(np.abs(off - p) <= 1e-12 * arena.radius)


@pytest.mark.parametrize("arena", [ARENA, OFFCENTER], ids=["centred", "off-centre"])
def test_line_params_of_billiard_chords(arena):
    for policy in ("cosine", "uniform"):
        a, b, _ = sp.billiard_segments(np.random.default_rng(4), arena, 2000, policy)
        _assert_on_line(a, b, *sp.line_params_of_segments(a, b, arena.center), arena)
    # horizontal, vertical and through-centre chords, each both ways
    c, r = arena.center.as_array(), arena.radius
    ends = [((-r, 0.3), (r, 0.3)), ((0.2, -r), (0.2, r)), ((-r, 0.0), (r, 0.0)),
            ((0.0, -r), (0.0, r)), ((-0.6 * r, -0.8 * r), (0.6 * r, 0.8 * r))]
    a = np.array([e[0] for e in ends] + [e[1] for e in ends]) + c
    b = np.array([e[1] for e in ends] + [e[0] for e in ends]) + c
    theta, p = sp.line_params_of_segments(a, b, arena.center)
    _assert_on_line(a, b, theta, p, arena)
    assert theta[[0, 2]] == pytest.approx([0.5 * math.pi] * 2)
    assert theta[[1, 3]].tolist() == [0.0, 0.0]
    # a chord and its reverse are one line
    assert np.array_equal(theta[:5], theta[5:])
    assert p == pytest.approx([0.3, 0.2, 0.0, 0.0, 0.0] * 2, abs=1e-15 * r)


def test_line_params_fold_a_near_vertical_chord_to_zero():
    # the normal of a downward chord a rounding off vertical is (-1, tiny),
    # whose angle rounds to pi: it is the line at angle 0
    a = np.array([[0.0, 1.0]])
    b = np.array([[-4e-16, -1.0]])
    theta, p = sp.line_params_of_segments(a, b, ARENA.center)
    assert theta.tolist() == [0.0]
    _assert_on_line(a, b, theta, p, ARENA)


def test_billiard_diameter_heading():
    state = sp.BilliardState(Point(1.0, 0.0), math.pi)  # straight through the center
    a, b, _ = sp.billiard_segments(np.random.default_rng(0), ARENA, 1, state=state)
    assert math.hypot(*(b[0] - a[0])) == pytest.approx(2.0, abs=1e-12)


def test_billiard_segments_split_across_calls():
    # a fresh chain draws n + 2 uniforms and a resumed one n, in the same
    # order, so n1 + n2 segments at once are n1 then n2 from chained calls
    a, b, end = sp.billiard_segments(np.random.default_rng(21), OFFCENTER, 400, "cosine")
    rng = np.random.default_rng(21)
    a1, b1, state = sp.billiard_segments(rng, OFFCENTER, 150, "cosine")
    a2, b2, end2 = sp.billiard_segments(rng, OFFCENTER, 250, "cosine", state=state)
    assert np.allclose(np.concatenate([a1, a2]), a, atol=1e-9)
    assert np.allclose(np.concatenate([b1, b2]), b, atol=1e-9)
    assert end2.heading == pytest.approx(end.heading, abs=1e-9)
    assert rng.random() == np.random.default_rng(21).random(403)[-1]


def test_billiard_reflection_law():
    # each segment leaves the wall at arcsin(2u - 1) from the inward normal,
    # u being that bounce's uniform: the second draw of the chain for the
    # first segment, then one draw per bounce
    n = 400
    a, b, _ = sp.billiard_segments(np.random.default_rng(22), OFFCENTER, n, "cosine")
    u = np.random.default_rng(22).random(n + 2)[1 : n + 1]
    c = np.array([OFFCENTER.center.x, OFFCENTER.center.y])
    assert np.array_equal(a[1:], b[:-1])
    for ends in (a, b):
        assert np.allclose(np.hypot(*(ends - c).T), OFFCENTER.radius, atol=1e-9)
    inward = c - a
    d = b - a
    phi = np.arctan2(inward[:, 0] * d[:, 1] - inward[:, 1] * d[:, 0], np.sum(inward * d, axis=1))
    assert np.allclose(phi, np.arcsin(2.0 * u - 1.0), atol=1e-9)


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


def test_arena_for_contains_shape():
    from chordscan import shapes
    from chordscan.geometry import bounding_circle

    st = shapes.statue()
    arena = sp.arena_for(st, 1.2)
    c, r = bounding_circle(st)
    gap = math.hypot(c.x - arena.center.x, c.y - arena.center.y)
    assert gap + r <= arena.radius * (1 + 1e-9)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_substreams_differ_from_each_other_and_the_seed(seed):
    # default_rng([seed, 0]) would repeat default_rng(seed): numpy ignores
    # trailing zero words of the entropy
    sites = (sp.WORKER, sp.REPLICATE, sp.SLOT, sp.LETTER, sp.WORD)
    assert len(set(sites)) == len(sites)
    draws = [np.random.default_rng(seed).random(4)]
    draws += [
        np.random.default_rng(sp.substream(seed, site, i)).random(4)
        for site in sites
        for i in range(64)
    ]
    assert len({d.tobytes() for d in draws}) == len(draws)
