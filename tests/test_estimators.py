import math

import numpy as np
import pytest

from chordscan import estimators as est
from chordscan import shapes
from chordscan.batch import BatchObservations
from chordscan.chords import ArenaTooSmallError, CrossingEvent, LineObservation, ZERO_OBSERVATION
from chordscan.explore import convergence_series, explore, explore_per_line
from chordscan.geometry import Point, Ring, Shape, exact_area, exact_perimeter, union_disjoint
from chordscan.sampling import ArenaCircle, SamplerConfig


def obs_from_chords(*chords, gap=5.0):
    """Observation with the given chord lengths, spaced far apart."""
    events = []
    t = 0.0
    for c in chords:
        events.append(CrossingEvent(t, "in"))
        events.append(CrossingEvent(t + c, "out"))
        t += c + gap
    from chordscan.chords import geometric_function

    return LineObservation(
        events=tuple(events),
        chords=tuple(chords),
        k=len(chords),
        L1=geometric_function(events, 1),
        L3=geometric_function(events, 3),
    )


def one_line(obs):
    """One-line block record of a single line's observation."""
    chords = np.array(obs.chords, dtype=float)
    return BatchObservations(
        k=np.array([obs.k]),
        L1=np.array([obs.L1]),
        L3=np.array([obs.L3]),
        chord_cube_sum=np.array([np.sum(chords**3)]),
        chords_flat=chords,
        rejected=np.zeros(1, dtype=bool),
    )


def single_chord_acc(values, l_cap=10.0, n_batches=4):
    acc = est.Accumulator(l_cap=l_cap, n_batches=n_batches)
    for v in values:
        acc.ingest(one_line(obs_from_chords(v)))
    return acc


def test_accumulate_zero_observation_counts_lines_only():
    acc = est.Accumulator(l_cap=2.0)
    acc.ingest(one_line(ZERO_OBSERVATION))
    assert acc.n_lines == 1 and acc.n_hit == 0 and acc.sum_L1 == 0.0


def test_accumulate_single_chord():
    acc = est.Accumulator(l_cap=10.0)
    acc.ingest(one_line(obs_from_chords(2.0)))
    assert acc.sum_L1 == pytest.approx(2.0)
    assert acc.sum_L3 == pytest.approx(8.0)
    assert acc.chord_count == 1


def test_accumulate_spec_two_chord_example():
    # events at 0,1,3,6: order-1 value 4, order-3 value 100, two chords
    events = (
        CrossingEvent(0, "in"),
        CrossingEvent(1, "out"),
        CrossingEvent(3, "in"),
        CrossingEvent(6, "out"),
    )
    from chordscan.chords import geometric_function

    obs = LineObservation(
        events=events,
        chords=(1.0, 3.0),
        k=2,
        L1=geometric_function(events, 1),
        L3=geometric_function(events, 3),
    )
    acc = est.Accumulator(l_cap=10.0)
    acc.ingest(one_line(obs))
    assert acc.sum_L1 == pytest.approx(4.0)
    assert acc.sum_L3 == pytest.approx(100.0)
    assert acc.chord_count == 2


def test_merge_identity_and_commutativity():
    acc = single_chord_acc([1.0, 2.0, 3.0])
    empty = est.Accumulator(l_cap=10.0, n_batches=4)
    merged = est.merge(acc, empty)
    assert merged.n_lines == acc.n_lines
    assert merged.sum_L3 == acc.sum_L3
    a = single_chord_acc([1.0])
    b = single_chord_acc([2.0])
    ab, ba = est.merge(a, b), est.merge(b, a)
    assert ab.sum_L1 == ba.sum_L1 and ab.chord_count == ba.chord_count
    assert np.array_equal(ab.hist, ba.hist)


def test_merge_partition_matches_sequential():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 9.0, size=1000)
    seq = single_chord_acc(values, n_batches=7)
    parts = [
        single_chord_acc(values[i::8], n_batches=7) for i in range(8)
    ]
    out = parts[0]
    for p in parts[1:]:
        out = est.merge(out, p)
    assert out.n_lines == seq.n_lines
    assert out.chord_count == seq.chord_count
    assert out.sum_L1 == pytest.approx(seq.sum_L1, rel=1e-12)
    assert out.sum_L3 == pytest.approx(seq.sum_L3, rel=1e-12)
    assert np.array_equal(out.hist, seq.hist)


def test_merge_layout_mismatch():
    with pytest.raises(ValueError):
        est.merge(est.Accumulator(l_cap=2.0), est.Accumulator(l_cap=3.0))
    with pytest.raises(ValueError):
        est.merge(est.Accumulator(l_cap=2.0, n_batches=10), est.Accumulator(l_cap=2.0))


def test_estimate_area_from_disk_closed_form_moments():
    # closed-form unit-disk chord moments: <l> = pi/2, <l^3> = 3*pi/2
    acc = est.Accumulator(l_cap=2.0)
    acc.n_lines = acc.n_hit = 1000
    acc.sum_L1 = 1000 * math.pi / 2
    acc.sum_L3 = 1000 * 3 * math.pi / 2
    assert est.estimate_area(acc) == pytest.approx(math.pi, rel=1e-12)


def test_estimate_area_from_square_theorem_moments():
    # Cauchy pi*A/P = pi/4 and third-moment 3*A^2/P = 3/4 for the unit square
    acc = est.Accumulator(l_cap=2.0)
    acc.n_lines = acc.n_hit = 500
    acc.sum_L1 = 500 * math.pi / 4
    acc.sum_L3 = 500 * 3.0 / 4
    assert est.estimate_area(acc) == pytest.approx(1.0, rel=1e-12)


def test_estimate_area_empty_is_error():
    with pytest.raises(est.InsufficientDataError):
        est.estimate_area(est.Accumulator(l_cap=2.0))
    with pytest.raises(est.InsufficientDataError):
        est.estimate_mean_chord(est.Accumulator(l_cap=2.0))
    with pytest.raises(est.InsufficientDataError):
        est.convex_third_moment_area(est.Accumulator(l_cap=2.0))


def _mc_acc(shape, n, seed):
    return explore(shape, n, SamplerConfig(seed=seed))


def test_mean_chord_disk_square_annulus():
    disk = shapes.disk()
    acc = _mc_acc(disk, 40_000, 1)
    expected = math.pi * exact_area(disk) / exact_perimeter(disk)
    se_a, _ = est.stderrs(acc)
    assert est.estimate_mean_chord(acc) == pytest.approx(expected, rel=0.01)

    acc = _mc_acc(shapes.square(), 40_000, 2)
    assert est.estimate_mean_chord(acc) == pytest.approx(math.pi / 4, rel=0.01)

    ann = shapes.annulus()
    acc = _mc_acc(ann, 40_000, 3)
    expected = math.pi * exact_area(ann) / exact_perimeter(ann)  # ~ pi/2
    assert est.estimate_mean_chord(acc) == pytest.approx(expected, rel=0.01)


def test_estimate_perimeter_cases():
    disk = shapes.disk()
    acc = _mc_acc(disk, 40_000, 4)
    assert est.estimate_perimeter(acc) == pytest.approx(exact_perimeter(disk), rel=0.01)

    two = union_disjoint([shapes.square(), shapes.square(corner=(2.0, 0.0))])
    acc = _mc_acc(two, 60_000, 5)
    assert est.estimate_perimeter(acc) == pytest.approx(8.0, rel=0.02)

    acc = _mc_acc(shapes.square(), 40_000, 6)
    assert est.estimate_perimeter(acc) == pytest.approx(4.0, rel=0.01)


def test_convex_baseline_agrees_on_convex_only():
    acc = _mc_acc(shapes.square(), 40_000, 7)
    # for convex shapes each line has one chord, so the two routes coincide
    assert est.convex_third_moment_area(acc) == pytest.approx(
        est.estimate_area(acc), rel=1e-12
    )
    acc = _mc_acc(shapes.disk(), 40_000, 8)
    assert est.convex_third_moment_area(acc) == pytest.approx(math.pi, rel=0.02)


def test_convex_baseline_fails_on_annulus():
    ann = shapes.annulus()
    acc = _mc_acc(ann, 50_000, 9)
    a_true = exact_area(ann)
    a_ch = est.convex_third_moment_area(acc)
    se_ch = est.convex_baseline_stderr(acc)
    assert abs(a_ch - a_true) > 5 * se_ch
    assert est.estimate_area(acc) == pytest.approx(a_true, rel=0.03)


def test_stderr_zero_for_identical_batches():
    acc = est.Accumulator(l_cap=10.0, n_batches=5)
    for _ in range(5 * 6):
        acc.ingest(one_line(obs_from_chords(2.0)))
    se_a, se_p = est.stderrs(acc)
    assert se_a == pytest.approx(0.0, abs=1e-12)
    assert se_p == pytest.approx(0.0, abs=1e-12)


def test_stderr_needs_two_batches():
    acc = est.Accumulator(l_cap=10.0, n_batches=5)
    acc.ingest(one_line(obs_from_chords(2.0)))
    with pytest.raises(est.InsufficientDataError):
        est.stderrs(acc)


def test_stderr_magnitude_on_disk():
    acc = _mc_acc(shapes.disk(), 10_000, 10)
    se_a, se_p = est.stderrs(acc)
    rel = se_a / est.estimate_area(acc)
    assert 0.001 < rel < 0.05


def test_stderr_shrinks_with_n():
    a1 = _mc_acc(shapes.disk(), 10_000, 11)
    a4 = _mc_acc(shapes.disk(), 40_000, 11)
    r = est.stderrs(a4)[0] / est.stderrs(a1)[0]
    assert 0.35 < r < 0.65  # 1/sqrt(N): expect about 0.5


def test_zero_lines_do_not_change_estimates():
    acc = single_chord_acc([1.0, 2.0, 3.0])
    a0, p0 = est.estimate_area(acc), est.estimate_perimeter(acc)
    for _ in range(500):
        acc.ingest(one_line(ZERO_OBSERVATION))
    assert est.estimate_area(acc) == a0
    assert est.estimate_perimeter(acc) == p0


def test_normalized_histogram_single_value():
    acc = single_chord_acc([2.0] * 50)
    h = est.normalized_histogram(acc)
    assert h.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(h) == 1
    # all chords equal the maximum, so the mass sits at the top (up to the
    # half-bin offset of rebinning by accumulation-bin centers)
    assert np.argmax(h) >= len(h) - 2


def test_normalized_histogram_disk_rises():
    acc = _mc_acc(shapes.disk(), 50_000, 12)
    h = est.normalized_histogram(acc)
    assert h.sum() == pytest.approx(1.0, abs=1e-12)
    q = len(h) // 4
    assert h[-q:].sum() > h[:q].sum()


def test_kl_divergence_properties(rng):
    p = rng.dirichlet(np.ones(64))
    assert est.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
    for _ in range(20):
        a = rng.dirichlet(np.ones(64))
        b = rng.dirichlet(np.ones(64))
        assert est.kl_divergence(a, b) >= -1e-12
    with pytest.raises(ValueError):
        est.kl_divergence(np.ones(8) / 8, np.ones(9) / 9)


def test_kl_square_vs_disk_positive():
    disk_h = est.normalized_histogram(_mc_acc(shapes.disk(), 50_000, 13))
    square_h = est.normalized_histogram(_mc_acc(shapes.square(), 50_000, 14))
    assert est.kl_divergence(square_h, disk_h) > est.kl_divergence(disk_h, disk_h)
    assert est.kl_divergence(square_h, disk_h) > 0.01


def test_fit_power_exact_law():
    n = np.array([100, 1000, 10_000, 100_000], dtype=float)
    pref, expo = est.fit_power(n, 3.0 / np.sqrt(n))
    assert expo == pytest.approx(-0.5, abs=1e-12)
    assert pref == pytest.approx(3.0, rel=1e-12)


def test_fit_power_constant_series():
    n = np.array([10, 100, 1000], dtype=float)
    pref, expo = est.fit_power(n, np.full(3, 2.0))
    assert expo == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        est.fit_power(n, np.array([1.0, -1.0, 2.0]))


@pytest.mark.parametrize("name", shapes.BUILTIN_NAMES)
def test_estimator_consistency_all_builtins(name):
    shape = shapes.builtin(name)
    acc = explore(shape, 100_000, SamplerConfig(seed=24))
    se_a, se_p = est.stderrs(acc)
    assert abs(est.estimate_area(acc) - exact_area(shape)) <= 3 * se_a
    assert abs(est.estimate_perimeter(acc) - exact_perimeter(shape)) <= 3 * se_p


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_power_rejects_non_finite_sigma(bad):
    n = np.array([10, 100, 1000], dtype=float)
    with pytest.raises(ValueError, match="finite"):
        est.fit_power(n, np.array([1.0, bad, 2.0]))


def test_convergence_series_without_chords_raises():
    # some of the statue's 1-line prefixes hold no chord: 0/0, not a sigma
    with pytest.raises(est.InsufficientDataError, match="no chord in the first 1 lines"):
        convergence_series(shapes.statue(), [1, 10, 100], 5, SamplerConfig(seed=1))


def test_convergence_series_disk_quick():
    series = convergence_series(
        shapes.disk(), [200, 800, 3200], replicates=60, config=SamplerConfig(seed=15)
    )
    assert -0.65 < series.exponent_a < -0.35
    assert -0.65 < series.exponent_p < -0.35


@pytest.mark.parametrize("radius, covers", [(1.0001, True), (0.9999, False)])
def test_arena_check_covers_vertices(radius, covers):
    # a 2 x 0.01 bar standing on the x-axis: its top corners lie 1.00005 from
    # the origin, but its enclosing circle's centre sits 0.005 above it
    bar = Shape([Ring([(-1.0, 0.0), (1.0, 0.0), (1.0, 0.01), (-1.0, 0.01)])])
    arena = ArenaCircle(Point(0.0, 0.0), radius)
    if covers:
        assert explore(bar, 1000, arena=arena).n_lines == 1000
    else:
        with pytest.raises(ArenaTooSmallError):
            explore(bar, 1000, arena=arena)


def test_prefix_estimates_match_full_run():
    obs = explore_per_line(shapes.square(), 5000, SamplerConfig(seed=16))
    a, p = est.prefix_estimates(obs, [5000])
    acc = explore(shapes.square(), 5000, SamplerConfig(seed=16))
    assert a[0] == pytest.approx(est.estimate_area(acc), rel=1e-9)
    assert p[0] == pytest.approx(est.estimate_perimeter(acc), rel=1e-9)


@pytest.mark.parametrize(
    "n_lines, checkpoints",
    [(100, [0]), (100, [-1]), (100, [101]), (0, [1])],
    ids=["checkpoint-0", "checkpoint-negative", "checkpoint-past-end", "no-lines"],
)
def test_line_counts_out_of_range_raise(n_lines, checkpoints):
    with pytest.raises(ValueError, match="checkpoints must lie|n_lines must be positive"):
        obs = explore_per_line(shapes.square(), n_lines, SamplerConfig(seed=20))
        est.prefix_estimates(obs, checkpoints)


def test_accumulator_state_size_constant():
    acc = est.Accumulator(l_cap=4.0)
    size0 = acc.state_scalar_count()
    for shape_n in (100, 5000):
        a = explore(shapes.disk(), shape_n, SamplerConfig(seed=17))
        assert a.state_scalar_count() == size0
    a1 = explore(shapes.disk(), 100, SamplerConfig(seed=18))
    a2 = explore(shapes.disk(), 5000, SamplerConfig(seed=18))
    assert a1.state_scalar_count() == a2.state_scalar_count()
    assert size0 == est.Accumulator(l_cap=4.0).state_scalar_count()


def test_report_roundtrip_fields():
    acc = _mc_acc(shapes.square(), 5000, 19)
    rep = est.report(acc)
    doc = rep.to_dict()
    assert set(doc) == {
        "N",
        "area_hat",
        "perim_hat",
        "mean_chord",
        "stderr_a",
        "stderr_p",
        "n_hit",
        "rejected_lines",
    }
    assert doc["N"] == 5000
