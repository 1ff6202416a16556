import importlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chordscan import estimators as est
from chordscan import batch, shapes
from chordscan.batch import BatchObservations, CompiledShape
from chordscan.explore import (
    LineStream,
    convergence_series,
    explore,
    running_sums_all,
    take_all,
)
from chordscan.geometry import Ring, Shape, exact_area, exact_perimeter, union_disjoint
from chordscan.sampling import REPLICATE, SAMPLER_MODES, SamplerConfig, substream

from conftest import record_sums
from line_oracle import alternating, geometric_function


def one_line(*chords, gap=5.0):
    """One-line block record of a line with the given chord lengths, spaced
    gap apart; L1 and L3 are the pair sums of its events."""
    times = []
    t = 0.0
    for c in chords:
        times += [t, t + c]
        t += c + gap
    events = alternating(times)
    lengths = np.array(chords, dtype=float)
    return BatchObservations(
        k=np.array([len(chords)]),
        L1=np.array([geometric_function(events, 1)], dtype=float),
        L3=np.array([geometric_function(events, 3)], dtype=float),
        chord_cube_sum=np.array([np.sum(lengths**3)]),
        chords_flat=lengths,
        rejected=np.zeros(1, dtype=bool),
    )


def single_chord_acc(values, l_cap=10.0, n_batches=4):
    acc = est.Accumulator(l_cap, len(values), n_batches)
    for v in values:
        acc.ingest(one_line(v))
    return acc


def test_accumulate_zero_observation_counts_lines_only():
    acc = est.Accumulator(l_cap=2.0, n_planned=1)
    acc.ingest(one_line())
    assert acc.n_lines == 1 and acc.n_hit == 0 and acc.sum_L1 == 0.0


def test_accumulate_single_chord():
    acc = est.Accumulator(l_cap=10.0, n_planned=1)
    acc.ingest(one_line(2.0))
    assert acc.sum_L1 == pytest.approx(2.0)
    assert acc.sum_L3 == pytest.approx(8.0)
    assert acc.chord_count == 1


def test_accumulate_spec_two_chord_example():
    # events at 0,1,3,6: order-1 value 4, order-3 value 100, two chords
    obs = one_line(1.0, 3.0, gap=2.0)
    acc = est.Accumulator(l_cap=10.0, n_planned=1)
    acc.ingest(obs)
    assert acc.sum_L1 == pytest.approx(4.0)
    assert acc.sum_L3 == pytest.approx(100.0)
    assert acc.chord_count == 2


def test_merge_identity_and_commutativity():
    acc = single_chord_acc([1.0, 2.0, 3.0])
    empty = est.Accumulator(l_cap=10.0, n_planned=0, n_batches=4)
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
        est.merge(est.Accumulator(2.0, 0), est.Accumulator(3.0, 0))
    with pytest.raises(ValueError):
        est.merge(est.Accumulator(2.0, 0, n_batches=10), est.Accumulator(2.0, 0))


def test_estimate_area_from_disk_closed_form_moments():
    # closed-form unit-disk chord moments: <l> = pi/2, <l^3> = 3*pi/2
    acc = est.Accumulator(l_cap=2.0, n_planned=1000)
    acc.n_lines = acc.n_hit = 1000
    acc.sum_L1 = 1000 * math.pi / 2
    acc.sum_L3 = 1000 * 3 * math.pi / 2
    assert est.estimate_area(acc) == pytest.approx(math.pi, rel=1e-12)


def test_estimate_area_from_square_theorem_moments():
    # Cauchy pi*A/P = pi/4 and third-moment 3*A^2/P = 3/4 for the unit square
    acc = est.Accumulator(l_cap=2.0, n_planned=500)
    acc.n_lines = acc.n_hit = 500
    acc.sum_L1 = 500 * math.pi / 4
    acc.sum_L3 = 500 * 3.0 / 4
    assert est.estimate_area(acc) == pytest.approx(1.0, rel=1e-12)


def test_estimate_area_empty_is_error():
    with pytest.raises(est.InsufficientDataError):
        est.estimate_area(est.Accumulator(l_cap=2.0, n_planned=0))
    with pytest.raises(est.InsufficientDataError):
        est.estimate_mean_chord(est.Accumulator(l_cap=2.0, n_planned=0))
    with pytest.raises(est.InsufficientDataError):
        est.convex_third_moment_area(est.Accumulator(l_cap=2.0, n_planned=0))


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
    acc = est.Accumulator(l_cap=10.0, n_planned=5 * 6, n_batches=5)
    for _ in range(5 * 6):
        acc.ingest(one_line(2.0))
    se_a, se_p = est.stderrs(acc)
    assert se_a == pytest.approx(0.0, abs=1e-12)
    assert se_p == pytest.approx(0.0, abs=1e-12)


def test_stderr_needs_two_batches():
    acc = est.Accumulator(l_cap=10.0, n_planned=1, n_batches=5)
    acc.ingest(one_line(2.0))
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


@pytest.mark.parametrize(
    "mode, n_lines, key",
    [("iur", 300, [5, 3]), ("iur", 1000, [5, 3]), ("billiard-cos", 10_000, [31, 2])],
)
def test_stderr_matches_replicate_spread(mode, n_lines, key):
    # the spread of 400 independent estimates over the RMS of their reported
    # stderrs, for A and P: each ratio has a standard error of about 3.5%.
    # At 300 lines a batch holds 3 lines; billiard bounces are correlated.
    shape = shapes.statue()
    config = SamplerConfig(mode=mode)
    values, errors = [], []
    for r in range(400):
        acc = explore(shape, n_lines, replace(config, seed=np.random.SeedSequence(key + [r])))
        values.append((est.estimate_area(acc), est.estimate_perimeter(acc)))
        errors.append(est.stderrs(acc))
    ratio = np.std(values, axis=0, ddof=1) / np.sqrt(np.mean(np.square(errors), axis=0))
    assert np.all((0.9 <= ratio) & (ratio <= 1.1)), ratio


def test_batches_are_contiguous_and_even():
    # line i of N goes to batch floor(i * nb / N); batches without a line
    # (N < nb) stay out of the spread
    acc = explore(shapes.disk(), 250, SamplerConfig(seed=6), n_batches=100)
    lines = acc.batch[:, 4]
    assert set(lines) == {2.0, 3.0} and lines.sum() == 250
    few = explore(shapes.disk(), 30, SamplerConfig(seed=6), n_batches=100)
    assert np.count_nonzero(few.batch[:, 4]) == 30
    assert len(est.batch_influence(few)[0]) == 30
    # 40,000 lines are taken 16,384 at a time: a batch split between two
    # takes sums both parts
    config = SamplerConfig(seed=6)
    acc = explore(shapes.disk(), 40_000, config)
    obs = LineStream(shapes.disk(), config).take(40_000)
    cols = (obs.L1, obs.L3, obs.k, obs.chord_cube_sum)
    want = np.column_stack([np.add.reduceat(c, np.arange(0, 40_000, 400)) for c in cols])
    np.testing.assert_allclose(acc.batch[:, :4], want, rtol=1e-12)
    assert set(acc.batch[:, 4]) == {400.0}
    # the plan is a bound
    full = est.Accumulator(l_cap=10.0, n_planned=1)
    full.ingest(one_line(2.0))
    with pytest.raises(ValueError, match="2 lines ingested, 1 planned"):
        full.ingest(one_line(2.0))


def test_zero_lines_do_not_change_estimates():
    acc = est.Accumulator(l_cap=10.0, n_planned=503)
    for v in (1.0, 2.0, 3.0):
        acc.ingest(one_line(v))
    a0, p0 = est.estimate_area(acc), est.estimate_perimeter(acc)
    for _ in range(500):
        acc.ingest(one_line())
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
    # one N, however often, fixes no slope
    for same_n in (n[:1], np.full(3, 100.0)):
        with pytest.raises(ValueError, match="need at least two distinct N to fit"):
            est.fit_power(same_n, np.full(len(same_n), 2.0))


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
    # some of the statue's 1-line prefixes hold no chord: 0/0, not a sigma.
    # An IUR line hits the statue with probability 0.635, so all 60 first
    # lines hit with probability 1.5e-12, whatever the streams.
    with pytest.raises(est.InsufficientDataError, match="no chord in the first 1 lines"):
        convergence_series(shapes.statue(), [1, 10, 100], 60, SamplerConfig(seed=1))


@pytest.mark.parametrize("mode", SAMPLER_MODES)
def test_convergence_series_compiles_once_and_equals_per_replicate_records(monkeypatch, mode):
    compiled = []
    compile_shape = CompiledShape.__init__

    def counting_compile(self, shape):
        compiled.append(shape)
        compile_shape(self, shape)

    monkeypatch.setattr(CompiledShape, "__init__", counting_compile)
    # 40,000 lines are summed 16,384 at a time: the grid reads sums of the
    # first, second and third take
    config, n_grid, replicates = SamplerConfig(mode=mode, seed=4), [50, 16_384, 20_000, 40_000], 5
    series = convergence_series(shapes.square(), n_grid, replicates, config)
    assert len(compiled) == 1
    idx = np.asarray(n_grid) - 1
    estimates = []
    for rep in range(replicates):
        sub = replace(config, seed=substream(config.seed, REPLICATE, rep))
        sums = record_sums(shapes.square(), n_grid[-1], sub)
        estimates.append(est.area_perimeter(*(run[idx] for run in sums)))
    areas, perims = np.array(estimates).transpose(1, 0, 2)
    assert np.array_equal(series.sigma_a, np.std(areas, axis=0, ddof=1))
    assert np.array_equal(series.sigma_p, np.std(perims, axis=0, ddof=1))


def test_convergence_series_memory_does_not_grow_with_n():
    # a replicate holds one take of running sums, not a record of its lines
    shape, config = shapes.statue(), SamplerConfig(seed=3)
    convergence_series(shape, [100, 200], 2, config)  # fills the shape's kernel and circle
    tracemalloc.start()
    try:
        convergence_series(shape, [1000, 200_000], 2, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("mode", ["iur", "billiard-cos"])
def test_stream_on_a_cached_shape_reports_the_same_bits(mode):
    config = SamplerConfig(mode=mode, seed=8)
    warm = shapes.statue()
    explore(warm, 500, config)  # fills the shape's kernel and circle
    reports = [est.report(explore(s, 3000, config)) for s in (warm, shapes.statue())]
    fields = ("area_hat", "perim_hat", "stderr_a", "stderr_p")
    cached, fresh = ([float(getattr(r, f)).hex() for f in fields] for r in reports)
    assert cached == fresh


def test_shape_with_filled_cache_pickles():
    # a shape with its compiled kernel and circle can be sent to another process
    shape = shapes.annulus()
    config = SamplerConfig(seed=2)
    before = est.report(explore(shape, 2000, config))
    copy = pickle.loads(pickle.dumps(shape))
    assert [r.coords.tolist() for r in copy.rings] == [r.coords.tolist() for r in shape.rings]
    assert copy.name == shape.name
    assert est.report(explore(copy, 2000, config)) == before


def test_convergence_series_disk_quick():
    series = convergence_series(
        shapes.disk(), [200, 800, 3200], replicates=60, config=SamplerConfig(seed=15)
    )
    assert -0.65 < series.exponent_a < -0.35
    assert -0.65 < series.exponent_p < -0.35


@pytest.mark.parametrize(
    "scale, covers",
    [(1.0, True), (0.9999, False), (0.0, False), (math.nan, False), (math.inf, False)],
)
def test_arena_scale_covers_the_shape(scale, covers):
    # a 2 x 0.01 bar standing on the x-axis: at scale 1 its arena is its
    # enclosing circle, centred 0.005 above the origin, which covers every
    # corner. A smaller scale would clip the bar, and a scale of 0, NaN or
    # infinity makes no arena, so the config refuses them all
    bar = Shape([Ring([(-1.0, 0.0), (1.0, 0.0), (1.0, 0.01), (-1.0, 0.01)])])
    if covers:
        assert explore(bar, 1000, SamplerConfig(arena_scale=scale)).n_lines == 1000
    else:
        with pytest.raises(ValueError, match="arena_scale"):
            SamplerConfig(arena_scale=scale)


def test_take_all_keeps_each_streams_own_take_under_rejections(monkeypatch):
    # a 1e-2 vertex band rejects about 40% of the disk's lines, so the six
    # streams refill over several rounds, the first round in two calls. The
    # record must hold each stream's lines together, as its own take gives them
    monkeypatch.setattr(batch, "ONLINE_TOL", 1e-2)
    disk, n = shapes.disk(), 3000
    configs = [SamplerConfig(mode, seed) for mode in ("iur", "billiard-cos") for seed in range(3)]
    streams = [LineStream(disk, c) for c in configs]
    got = take_all(streams, n)
    owns = [LineStream(disk, c) for c in configs]
    want = [own.take(n) for own in owns]
    assert all(0.3 < own.rejected_total / (n + own.rejected_total) < 0.5 for own in owns)
    for field in ("k", "L1", "L3", "chord_cube_sum", "chords_flat", "rejected", "theta", "p"):
        assert np.array_equal(getattr(got, field), np.concatenate([getattr(w, field) for w in want])), field
    assert [s.rejected_total for s in streams] == [own.rejected_total for own in owns]


def test_prefix_estimates_match_full_run():
    stream = LineStream(shapes.square(), SamplerConfig(seed=16))
    runs = [running_sums_all([stream], n) for n in (1000, 4000)]
    a, p = est.area_perimeter(*(run[0, -1] for run in runs[-1]))
    acc = explore(shapes.square(), 5000, SamplerConfig(seed=16))
    assert a == pytest.approx(est.estimate_area(acc), rel=1e-9)
    assert p == pytest.approx(est.estimate_perimeter(acc), rel=1e-9)


@pytest.mark.parametrize(
    "n_grid",
    [[0, 100], [100, -1], []],
    ids=["checkpoint-0", "checkpoint-negative", "no-lines"],
)
def test_line_counts_out_of_range_raise(n_grid):
    with pytest.raises(ValueError, match="n_grid must be a non-empty list of positive N"):
        convergence_series(shapes.square(), n_grid, 3, SamplerConfig(seed=20))


@pytest.mark.parametrize("cpus", [1, 2])
def test_parallel_explore_of_no_lines_raises(monkeypatch, cpus):
    # on one CPU or two, an explore of no lines has no take to observe
    monkeypatch.setattr(sys.modules["chordscan.explore"], "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="n_lines must be positive"):
        explore(shapes.square(), 0, SamplerConfig(seed=20))


def test_parallel_pool_has_no_more_processes_than_shares(monkeypatch):
    # an explore's shares are its takes: two full takes and a line make 3,
    # and map_jobs forks a child for each share but the caller's, no more
    # than the usable CPUs allow
    ex = sys.modules["chordscan.explore"]
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(ex, "POOL_LINES", 0)
    children = []
    for cpus in (2, 64):
        monkeypatch.setattr(ex, "_usable_cpus", lambda: cpus)
        acc = explore(shapes.square(), 2 * ex.DEFAULT_CHUNK + 1, SamplerConfig(seed=20))
        assert acc.n_lines == 2 * ex.DEFAULT_CHUNK + 1
        children.append(len(forked) - sum(children))
    assert children == [1, 2]


def test_import_loads_no_process_pool():
    # map_jobs forks with os.fork: a fresh import loads no process pool
    src = os.path.dirname(os.path.dirname(importlib.import_module("chordscan").__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, chordscan; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_accumulator_state_size_constant():
    acc = est.Accumulator(l_cap=4.0, n_planned=0)
    size0 = acc.state_scalar_count()
    for shape_n in (100, 5000):
        a = explore(shapes.disk(), shape_n, SamplerConfig(seed=17))
        assert a.state_scalar_count() == size0
    a1 = explore(shapes.disk(), 100, SamplerConfig(seed=18))
    a2 = explore(shapes.disk(), 5000, SamplerConfig(seed=18))
    assert a1.state_scalar_count() == a2.state_scalar_count()
    assert size0 == est.Accumulator(l_cap=4.0, n_planned=0).state_scalar_count()


@pytest.mark.parametrize("n_batches", [1, 100])
def test_accumulator_state_count_is_every_stored_number(n_batches):
    # 11 scalars (l_cap, n_batches, n_planned, n_lines, n_hit, rejected,
    # sum_L1, sum_L3, chord_count, chord_cube_sum, l_max_seen), the chord
    # histogram and 5 sums per batch
    acc = explore(shapes.disk(), 300, SamplerConfig(seed=17), n_batches=n_batches)
    assert acc.state_scalar_count() == 11 + est.DEFAULT_BINS + 5 * n_batches


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
