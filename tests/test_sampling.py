import math

import numpy as np
import pytest
from scipy import stats

from chordscan import sampling as sp
from chordscan.geometry import Point
from conftest import arena_chords
from line_oracle import fold_at_pi, line_params_of_segments

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


# each billiard mode's bounce angle from the inward normal, from its uniform
DRAWS = {
    "billiard-cos": lambda u: np.arcsin(2.0 * u - 1.0),
    "billiard-uni": lambda u: (u - 0.5) * math.pi,
}


def _wall_points(seed, arena, n, mode):
    """The n + 1 wall points of a fresh chain, from its uniforms.

    Wall angle beta_0 = 2*pi*u_0, then beta_i+1 = beta_i + pi + 2*phi_i, one
    angle phi_i per chord from the uniforms after u_0. Wall point i is at
    beta_i = gamma_i + i*pi, gamma_i summing the 2*phi alone, so it is
    centre + (-1)^i * R * (cos gamma_i, sin gamma_i).
    """
    u = np.random.default_rng(seed).random(n + 2)
    gammas = np.empty(n + 1)
    gammas[0] = 2.0 * math.pi * u[0]
    gammas[1:] = gammas[0] + np.cumsum(2.0 * DRAWS[mode](u[1 : n + 1]))
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)[:, None]
    return arena.center.as_array() + sign * arena.radius * np.column_stack([np.cos(gammas), np.sin(gammas)])


def _wall_points_of(theta, p, arena):
    """The n + 1 wall points a chain of n lines visits, checking that the chords share them.

    Line i's chord of the arena ends where line i + 1's starts, and line
    i + 1's chord leaves from its other end.
    """
    a, b = arena_chords(theta, p, arena)
    ends = np.stack([a, b], axis=1)  # line, end, (x, y)
    # gap[i, j, k] from end j of line i to end k of line i + 1
    gap = np.linalg.norm(ends[:-1, :, None] - ends[1:, None, :], axis=-1).reshape(-1, 4)
    assert np.all(gap.min(axis=1) <= 1e-9 * arena.radius)
    j, k = np.divmod(gap.argmin(axis=1), 2)
    assert np.array_equal(j[1:], 1 - k[:-1])
    return np.vstack([ends[0, 1 - j[0]], ends[np.arange(len(j)), j], ends[-1, 1 - k[-1]]])


def _assert_same_lines(theta, p, theta_ref, p_ref, tol, arena):
    """theta within tol and p within tol * R, as one line up to (theta, p) ~ (theta - pi, -p)."""
    d_theta = np.abs(theta - theta_ref)
    seam = d_theta > 0.5 * math.pi
    d_theta[seam] = math.pi - d_theta[seam]
    d_p = np.where(seam, p + p_ref, p - p_ref)
    assert np.all(d_theta <= tol)
    assert np.all(np.abs(d_p) <= tol * arena.radius)


def _chord_lengths(p, arena):
    return 2.0 * np.sqrt(arena.radius**2 - p**2)


@pytest.mark.parametrize("arena", [ARENA, OFFCENTER], ids=["centred", "off-centre"])
def test_line_params_of_billiard_chords(arena):
    for mode in DRAWS:
        w = _wall_points(4, arena, 2000, mode)
        a, b = w[:-1], w[1:]
        _assert_on_line(a, b, *line_params_of_segments(a, b, arena.center), arena)
    # horizontal, vertical and through-centre chords, each both ways
    c, r = arena.center.as_array(), arena.radius
    ends = [((-r, 0.3), (r, 0.3)), ((0.2, -r), (0.2, r)), ((-r, 0.0), (r, 0.0)),
            ((0.0, -r), (0.0, r)), ((-0.6 * r, -0.8 * r), (0.6 * r, 0.8 * r))]
    a = np.array([e[0] for e in ends] + [e[1] for e in ends]) + c
    b = np.array([e[1] for e in ends] + [e[0] for e in ends]) + c
    theta, p = line_params_of_segments(a, b, arena.center)
    _assert_on_line(a, b, theta, p, arena)
    assert theta[[0, 2]] == pytest.approx([0.5 * math.pi] * 2)
    assert theta[[1, 3]].tolist() == [0.0, 0.0]
    # a chord and its reverse are one line
    assert np.array_equal(theta[:5], theta[5:])
    assert p == pytest.approx([0.3, 0.2, 0.0, 0.0, 0.0] * 2, abs=1e-15 * r)


@pytest.mark.parametrize("mode", list(DRAWS))
@pytest.mark.parametrize("arena", [ARENA, OFFCENTER], ids=["centred", "off-centre"])
def test_billiard_lines_are_the_lines_through_the_wall_points(arena, mode):
    # the lines worked out from the bounce angles are those of the chords
    # between the chain's wall points, over a whole 16,384-line take: the
    # angles round at the size of the bounce angles' walk, not of the take
    n = 16_384
    theta, p, _ = sp.billiard_lines(np.random.default_rng(4), arena, n, mode)
    w = _wall_points(4, arena, n, mode)
    want_theta, want_p = line_params_of_segments(w[:-1], w[1:], arena.center)
    long = np.hypot(*(w[1:] - w[:-1]).T) > 0.1 * arena.radius
    assert np.count_nonzero(long) > 0.9 * n
    _assert_same_lines(theta[long], p[long], want_theta[long], want_p[long], 1e-13, arena)


def test_line_params_fold_a_near_vertical_chord_to_zero():
    # the normal of a downward chord a rounding off vertical is (-1, tiny),
    # whose angle rounds to pi: it is the line at angle 0
    a = np.array([[0.0, 1.0]])
    b = np.array([[-4e-16, -1.0]])
    theta, p = line_params_of_segments(a, b, ARENA.center)
    assert theta.tolist() == [0.0]
    _assert_on_line(a, b, theta, p, ARENA)


def test_billiard_diameter_heading():
    state = sp.BilliardState(beta=0.0, phi=0.0)  # straight through the center
    theta, p, _ = sp.billiard_lines(np.random.default_rng(0), ARENA, 1, "billiard-cos", state)
    assert p.tolist() == [0.0]
    assert theta == pytest.approx([0.5 * math.pi])


def test_billiard_lines_split_across_calls():
    # a fresh chain draws n + 2 uniforms and a resumed one n, in the same
    # order, so n1 + n2 lines at once are n1 then n2 from chained calls
    theta, p, end = sp.billiard_lines(np.random.default_rng(21), OFFCENTER, 400, "billiard-cos")
    rng = np.random.default_rng(21)
    t1, p1, state = sp.billiard_lines(rng, OFFCENTER, 150, "billiard-cos")
    t2, p2, end2 = sp.billiard_lines(rng, OFFCENTER, 250, "billiard-cos", state)
    _assert_same_lines(np.concatenate([t1, t2]), np.concatenate([p1, p2]), theta, p, 1e-9, OFFCENTER)
    assert end2.beta == pytest.approx(end.beta, abs=1e-9)
    assert end2.phi == end.phi
    assert rng.random() == np.random.default_rng(21).random(403)[-1]


def test_billiard_reflection_law():
    # consecutive chords share their wall points, and each leaves the wall at
    # arcsin(2u - 1) from the inward normal, u being that bounce's uniform:
    # the second draw of the chain for the first chord, then one per bounce
    n = 400
    theta, p, _ = sp.billiard_lines(np.random.default_rng(22), OFFCENTER, n, "billiard-cos")
    u = np.random.default_rng(22).random(n + 2)[1 : n + 1]
    w = _wall_points_of(theta, p, OFFCENTER)
    inward = OFFCENTER.center.as_array() - w[:-1]
    d = w[1:] - w[:-1]
    phi = np.arctan2(inward[:, 0] * d[:, 1] - inward[:, 1] * d[:, 0], np.sum(inward * d, axis=1))
    assert np.allclose(phi, np.arcsin(2.0 * u - 1.0), atol=1e-9)


def test_billiard_stays_on_boundary():
    # every line crosses the arena, and the state resumes from the last wall point
    theta, p, end = sp.billiard_lines(np.random.default_rng(2), OFFCENTER, 2000, "billiard-cos")
    assert np.all(np.abs(p) < OFFCENTER.radius)
    last = _wall_points_of(theta, p, OFFCENTER)[-1]
    wall = OFFCENTER.center.as_array() + OFFCENTER.radius * np.array(
        [math.cos(end.beta), math.sin(end.beta)]
    )
    assert np.allclose(last, wall, atol=1e-9)
    assert abs(end.phi) <= 0.5 * math.pi


def test_billiard_chain_keeps_heading_wrapped():
    # a resumed chain must not carry the angle it has turned through: its wall
    # angle would grow by about 500 pi a call, and its lines lose precision
    rng = np.random.default_rng(11)
    state = None
    for _ in range(60):
        theta, p, state = sp.billiard_lines(rng, OFFCENTER, 500, "billiard-cos", state)
        assert np.all(np.abs(p) < OFFCENTER.radius)
        assert -math.pi <= state.beta <= math.pi


def test_billiard_sign_parity_holds_where_half_turns_go_negative():
    # p turns sign with the normal at every half turn and at every odd line:
    # the lines equal those of the float rule (turns + i) % 2.0 == 0.0 bit for
    # bit, on a resumed chain whose half-turn counts fall below zero
    n, state = 3000, sp.BilliardState(beta=-3.0, phi=-1.2)
    theta, p, _ = sp.billiard_lines(np.random.default_rng(31), OFFCENTER, n, "billiard-uni", state)
    phis = np.concatenate([[state.phi], DRAWS["billiard-uni"](np.random.default_rng(31).random(n - 1))])
    gammas = state.beta + np.concatenate([[0.0], np.cumsum(2.0 * phis[:-1])])
    turns, want_theta = np.divmod(gammas + (0.5 * math.pi + phis), math.pi)
    want_p = OFFCENTER.radius * np.sin(phis)
    np.negative(want_p, out=want_p, where=(turns + np.arange(n)) % 2.0 == 0.0)
    want_theta, want_p = fold_at_pi(want_theta, want_p)
    assert {-1.0, -2.0} <= set(turns.tolist())
    assert np.array_equal(theta, want_theta) and np.array_equal(p, want_p)
    # the cosine law draws sin(phi) = 2u - 1 itself: past the state's line, p
    # is R (2u - 1) times the sign, bit for bit, and theta is np.divmod's
    theta, p, _ = sp.billiard_lines(np.random.default_rng(32), OFFCENTER, n, "billiard-cos", state)
    sin_phis = np.concatenate([[np.sin(state.phi)], 2.0 * np.random.default_rng(32).random(n - 1) - 1.0])
    phis = np.concatenate([[state.phi], np.arcsin(sin_phis[1:])])
    gammas = state.beta + np.concatenate([[0.0], np.cumsum(2.0 * phis[:-1])])
    turns, want_theta = np.divmod(gammas + (0.5 * math.pi + phis), math.pi)
    want_p = OFFCENTER.radius * sin_phis * np.where((turns + np.arange(n)) % 2.0 == 0.0, -1.0, 1.0)
    want_theta, want_p = fold_at_pi(want_theta, want_p)
    assert {-1.0, -2.0} <= set(turns.tolist())
    assert np.array_equal(theta, want_theta) and np.array_equal(p, want_p)


def test_mod_pi_is_divmods_remainder():
    # next to every multiple of pi, where the quotient may round up and a
    # negative remainder may round to pi, at signed zeros and tiny angles,
    # and at random: np.divmod's quotient and remainder bit for bit, with a
    # remainder of pi folded to 0 of the next half turn
    near = [np.arange(-3000.0, 3000.0) * math.pi]
    for way in (-np.inf, np.inf):
        step = near[0]
        for _ in range(3):
            step = np.nextafter(step, way)
            near.append(step)
    rng = np.random.default_rng(33)
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-20, -1e-20]
    mu = np.concatenate([*near, tiny, rng.uniform(-4e5, 4e5, 100_000), rng.uniform(-10.0, 10.0, 100_000)])
    turns, theta = sp._mod_pi(mu)
    want_turns, want_theta = np.divmod(mu, math.pi)
    at_pi = want_theta == math.pi
    want_theta[at_pi], want_turns[at_pi] = 0.0, want_turns[at_pi] + 1.0
    assert at_pi.any() and np.any(np.floor(mu / math.pi) != want_turns)
    assert np.array_equal(theta, want_theta) and np.array_equal(turns, want_turns)
    assert np.all((theta >= 0.0) & (theta < math.pi))


def test_cosine_billiard_reproduces_mean_chord():
    _, p, _ = sp.billiard_lines(np.random.default_rng(5), ARENA, 100_000, "billiard-cos")
    lengths = _chord_lengths(p, ARENA)
    se = lengths.std(ddof=1) / math.sqrt(len(lengths))
    assert abs(lengths.mean() - math.pi / 2) < 3 * se


def test_uniform_billiard_is_biased():
    _, p, _ = sp.billiard_lines(np.random.default_rng(6), ARENA, 100_000, "billiard-uni")
    lengths = _chord_lengths(p, ARENA)
    se = lengths.std(ddof=1) / math.sqrt(len(lengths))
    # analytic mean for uniform reflection is 4R/pi, well below pi*R/2
    assert abs(lengths.mean() - math.pi / 2) > 5 * se
    assert abs(lengths.mean() - 4.0 / math.pi) < 5 * se


def test_cosine_chords_match_iur_distribution_ks():
    n = 100_000
    _, p = sp.sample_iur_batch(np.random.default_rng(8), ARENA, n)
    iur_chords = 2.0 * np.sqrt(np.clip(1.0 - p**2, 0.0, None))
    _, p, _ = sp.billiard_lines(np.random.default_rng(9), ARENA, n, "billiard-cos")
    assert stats.ks_2samp(iur_chords, _chord_lengths(p, ARENA)).pvalue > 0.001
    _, p, _ = sp.billiard_lines(np.random.default_rng(10), ARENA, n, "billiard-uni")
    assert stats.ks_2samp(iur_chords, _chord_lengths(p, ARENA)).pvalue < 0.001


def test_billiard_midpoints_isotropic():
    theta, p, _ = sp.billiard_lines(np.random.default_rng(12), ARENA, 100_000, "billiard-cos")
    ang = np.arctan2(p * np.sin(theta), p * np.cos(theta))  # of each chord's midpoint
    counts, _ = np.histogram(ang, bins=24, range=(-math.pi, math.pi))
    assert stats.chisquare(counts).pvalue > 0.001


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        sp.SamplerConfig(mode="noisy")
    with pytest.raises(ValueError, match="unknown billiard mode"):
        sp.billiard_lines(np.random.default_rng(0), ARENA, 10, "iur")


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
