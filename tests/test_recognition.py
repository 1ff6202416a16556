import dataclasses
import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordscan import batch
from chordscan import estimators as est
from chordscan import reading as rd
from chordscan import recognition as rec
from chordscan import shapes
from chordscan.estimators import EstimateReport
from chordscan.explore import LineStream, explore, take_all
from chordscan.geometry import exact_area, exact_perimeter
from chordscan.sampling import SAMPLER_MODES, SamplerConfig

from conftest import record_sums

# the module, which the package's explore function shadows as an attribute
explore_module = importlib.import_module("chordscan.explore")


def make_report(p, a, n=1000, se_p=float("nan"), se_a=float("nan")):
    return EstimateReport(
        area_hat=a,
        perim_hat=p,
        mean_chord=float("nan"),
        stderr_a=se_a,
        stderr_p=se_p,
        n_lines=n,
        n_hit=n,
        rejected=0,
    )


def two_entries(d=4.0, s=1.0):
    return [
        rec.DictEntry("left", p_ref=10.0 - d / 2, a_ref=5.0, sigma0_a=s, sigma0_p=s),
        rec.DictEntry("right", p_ref=10.0 + d / 2, a_ref=5.0, sigma0_a=s, sigma0_p=s),
    ]


def test_dict_entry_validation():
    with pytest.raises(ValueError):
        rec.DictEntry("x", p_ref=-1, a_ref=1, sigma0_a=1, sigma0_p=1)
    with pytest.raises(ValueError):
        rec.DictEntry("x", p_ref=1, a_ref=1, sigma0_a=0, sigma0_p=1)
    with pytest.raises(ValueError):
        rec.DictEntry("x", p_ref=1, a_ref=1, sigma0_a=1, sigma0_p=1, corr=1.0)


@pytest.mark.parametrize("field", ["p_ref", "a_ref", "sigma0_a", "sigma0_p"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_dictionary_rejects_non_finite(tmp_path, field, value):
    # NaN fails every ordered comparison, so it needs its own check
    doc = {"name": "disk", "p_ref": 6.28, "a_ref": 3.14, "sigma0_a": 1.0, "sigma0_p": 1.0}
    path = tmp_path / "dict.json"
    path.write_text(json.dumps([{**doc, field: value}]))  # NaN / Infinity tokens
    with pytest.raises(ValueError, match="finite"):
        rec.load_dictionary(path)


def test_calibrate_disk_reference_values():
    disk = shapes.disk()
    entry = rec.calibrate(disk, 1000, 40, SamplerConfig(seed=1), name="disk")
    assert entry.a_ref == exact_area(disk)  # exact oracle, within ~0.2% of pi
    assert entry.p_ref == exact_perimeter(disk)
    assert abs(entry.a_ref - math.pi) / math.pi < 0.005
    assert abs(entry.p_ref - 2 * math.pi) / (2 * math.pi) < 0.005
    assert entry.sigma0_a > 0 and entry.sigma0_p > 0
    assert -1 < entry.corr < 1


def test_calibrate_stability_across_seeds():
    disk = shapes.disk()
    e1 = rec.calibrate(disk, 1000, 60, SamplerConfig(seed=2))
    e2 = rec.calibrate(disk, 1000, 60, SamplerConfig(seed=3))
    assert abs(e1.sigma0_a - e2.sigma0_a) / e1.sigma0_a < 0.30
    assert abs(e1.sigma0_p - e2.sigma0_p) / e1.sigma0_p < 0.30


def test_calibrate_budget_is_lines_times_replicates():
    # replicates only sizes the budget: one replicate of 1,000 lines is the
    # same 1,000 lines as two of 500
    config = SamplerConfig(seed=4)
    one = rec.calibrate(shapes.disk(), 1000, 1, config)
    assert one == rec.calibrate(shapes.disk(), 500, 2, config)


def _entry_from_record(shape, m_lines, replicates, config):
    """calibrate's batch rule applied to the first whole batches of explore's stream."""
    b = rec.CALIBRATION_BATCH
    n = m_lines * replicates // b * b
    obs = take_all([LineStream(shape, config)], n)
    sums = [np.add.reduceat(col, np.arange(0, n, b)) for col in (obs.L1, obs.L3, obs.k)]
    if_a, if_p = est.ratio_influence(*sums)
    corr = float(np.corrcoef(if_p, if_a)[0, 1])
    return rec.DictEntry(
        name=shape.name,
        p_ref=exact_perimeter(shape),
        a_ref=exact_area(shape),
        sigma0_a=float(np.std(if_a, ddof=1)) * math.sqrt(b),
        sigma0_p=float(np.std(if_p, ddof=1)) * math.sqrt(b),
        corr=max(-rec._CORR_CLAMP, min(rec._CORR_CLAMP, corr)),
    )


@pytest.mark.parametrize("mode", SAMPLER_MODES)
@pytest.mark.parametrize(
    "m_lines, replicates, online_tol",
    [(7, 160, None), (1000, 9, None), (1000, 9, 1e-3)],
    ids=["part-batch", "three-takes", "top-up"],
)
def test_calibrate_equals_batch_rule_on_explore_record(
    monkeypatch, mode, m_lines, replicates, online_tol
):
    # 1,120 lines make 11 whole batches; 9,000 lines make 90; a wide vertex
    # band rejects about 2% of the statue's lines, which calibrate and explore
    # both replace from the stream
    if online_tol is not None:
        monkeypatch.setattr(batch, "ONLINE_TOL", online_tol)
    shape = shapes.statue()
    config = SamplerConfig(mode=mode, seed=31)
    want = _entry_from_record(shape, m_lines, replicates, config)
    got = rec.calibrate(shape, m_lines, replicates, config)
    if online_tol is not None:
        assert explore(shape, m_lines * replicates, config).rejected > 0
    assert got == want


def test_ratio_influence_is_the_linearized_ratio():
    # each value is the derivative of area_perimeter at the means, in the
    # direction of that element's offset from them
    rng = np.random.default_rng(5)
    cols = [rng.uniform(lo, hi, 50) for lo, hi in ((0.5, 2.0), (1.0, 5.0), (0.5, 3.0))]
    means = [c.mean() for c in cols]
    h = 1e-6
    base = est.area_perimeter(*means)
    for i, got in enumerate(est.ratio_influence(*cols)):
        moved = [
            est.area_perimeter(*(m + h * (c[j] - m) for m, c in zip(means, cols)))[i]
            for j in range(50)
        ]
        want = (np.array(moved) - base[i]) / h
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


def test_calibrate_short_budget_is_error():
    with pytest.raises(est.InsufficientDataError):
        rec.calibrate(shapes.statue(), 1, 50, SamplerConfig(seed=1))
    with pytest.raises(ValueError, match="at least 1 line"):
        rec.calibrate(shapes.statue(), 0, 50, SamplerConfig(seed=1))
    # a unit disk in an arena of radius 1e6: no line of 200 meets it
    with pytest.raises(est.InsufficientDataError, match="no chord"):
        rec.calibrate(shapes.disk(), 100, 2, SamplerConfig(seed=1, arena_scale=1e6))


@pytest.mark.parametrize(
    "name, mode, m_lines",
    [("statue", "iur", 1000), ("statue", "billiard-cos", 1000), ("E", "iur", 800)],
)
def test_calibrate_sigma0_matches_replicate_spread(name, mode, m_lines):
    # sigma0 from one 400k-line stream against sqrt(m) times the spread of
    # 1,000 independent m-line explorations, whose own standard error is
    # about 2%
    config = SamplerConfig(mode=mode, seed=17)
    shape = rd.letter_shape("E", 1.0) if name == "E" else shapes.builtin(name)
    entry = rec.calibrate(shape, m_lines, 400_000 // m_lines, config)
    a_vals, p_vals = [], []
    for r in range(1000):
        sub = dataclasses.replace(config, seed=np.random.SeedSequence([config.seed, 1, r]))
        acc = explore(shape, m_lines, sub)
        a_vals.append(est.estimate_area(acc))
        p_vals.append(est.estimate_perimeter(acc))
    root_m = math.sqrt(m_lines)
    assert 0.9 <= entry.sigma0_a / (np.std(a_vals, ddof=1) * root_m) <= 1.1
    assert 0.9 <= entry.sigma0_p / (np.std(p_vals, ddof=1) * root_m) <= 1.1


def test_classify_at_entry_dominates():
    entries = two_entries(d=4.0, s=1.0)
    post = rec.classify(make_report(entries[0].p_ref, entries[0].a_ref, n=1000), entries)
    assert post.top == "left"
    assert post.top_prob > 0.999


def test_classify_midpoint_is_even():
    entries = two_entries(d=2.0, s=1.0)
    post = rec.classify(make_report(10.0, 5.0, n=500), entries)
    assert post.probs["left"] == pytest.approx(0.5, abs=1e-9)
    assert post.probs["right"] == pytest.approx(0.5, abs=1e-9)


def test_classify_nearest_wins_at_large_n():
    entries = two_entries(d=2.0, s=1.0)
    post = rec.classify(make_report(10.4, 5.0, n=10**9), entries)
    assert post.top == "right"
    assert post.top_prob > 0.999999


def test_classify_argmax_invariant_under_common_scale():
    entries = two_entries(d=2.0, s=1.0)
    scaled = [
        rec.DictEntry(e.name, e.p_ref, e.a_ref, e.sigma0_a * 7, e.sigma0_p * 7, e.corr)
        for e in entries
    ]
    for p, a in [(9.2, 5.3), (10.8, 4.4), (10.1, 5.05)]:
        t1 = rec.classify(make_report(p, a, n=200), entries).top
        t2 = rec.classify(make_report(p, a, n=200), scaled).top
        assert t1 == t2


def test_classify_normalization():
    entries = two_entries()
    post = rec.classify(make_report(3.0, 9.0, n=50), entries)
    assert sum(post.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_classify_uses_report_errors_when_available():
    entries = two_entries(d=2.0, s=100.0)  # calibrated noise is huge
    # with its own tight stderrs the report resolves the nearest entry
    post = rec.classify(make_report(10.6, 5.0, se_p=0.05, se_a=0.05, n=100), entries)
    assert post.top == "right" and post.top_prob > 0.999


def test_classify_empty_dictionary():
    with pytest.raises(ValueError):
        rec.classify(make_report(1.0, 1.0), [])


def test_should_stop_thresholds():
    post = rec.Posterior({"a": 0.96, "b": 0.04}, "a", 0.96)
    assert rec.should_stop(post, 0.95)
    post = rec.Posterior({"a": 0.94, "b": 0.06}, "a", 0.94)
    assert not rec.should_stop(post, 0.95)
    post = rec.Posterior({"a": 0.5, "b": 0.5}, "a", 0.5)
    assert not rec.should_stop(post, 0.95)


def test_confidence_ellipse_chi2_radius():
    e = rec.DictEntry("x", 10.0, 5.0, sigma0_a=1.0, sigma0_p=1.0)
    ell = rec.confidence_ellipse(e, 100, 0.95)
    assert ell.mahal_sq == pytest.approx(5.991, abs=2e-3)  # chi-square(2) table
    ell75 = rec.confidence_ellipse(e, 100, 0.75)
    assert ell75.mahal_sq == pytest.approx(2.773, abs=2e-3)
    ell99 = rec.confidence_ellipse(e, 100, 0.99)
    assert ell99.mahal_sq == pytest.approx(9.210, abs=2e-3)


@pytest.mark.parametrize("level", [1e-6, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999999])
def test_confidence_ellipse_matches_scipy_chi2(level):
    from scipy import stats

    e = rec.DictEntry("x", 10.0, 5.0, sigma0_a=2.0, sigma0_p=1.0, corr=-0.4)
    ell = rec.confidence_ellipse(e, 50, level)
    assert ell.mahal_sq == pytest.approx(stats.chi2.ppf(level, df=2), rel=1e-12)


def test_confidence_ellipse_axes_halve_at_4n():
    e = rec.DictEntry("x", 10.0, 5.0, sigma0_a=2.0, sigma0_p=1.0, corr=0.3)
    e1 = rec.confidence_ellipse(e, 100, 0.95)
    e4 = rec.confidence_ellipse(e, 400, 0.95)
    assert e4.semi_major == pytest.approx(e1.semi_major / 2, rel=1e-9)
    assert e4.semi_minor == pytest.approx(e1.semi_minor / 2, rel=1e-9)


def test_confidence_ellipse_axis_aligned_when_uncorrelated():
    e = rec.DictEntry("x", 10.0, 5.0, sigma0_a=2.0, sigma0_p=1.0, corr=0.0)
    ell = rec.confidence_ellipse(e, 100, 0.95)
    assert math.sin(2 * ell.angle) == pytest.approx(0.0, abs=1e-9)


def test_confidence_ellipse_invalid_inputs():
    e = rec.DictEntry("x", 10.0, 5.0, sigma0_a=1.0, sigma0_p=1.0)
    with pytest.raises(ValueError):
        rec.confidence_ellipse(e, 100, 1.5)
    with pytest.raises(ValueError):
        rec.confidence_ellipse(e, 0, 0.95)


def test_ellipse_contains_from_its_own_axes():
    # a correlated entry tilts the ellipse: points just inside and just
    # outside each axis end, and random points against the entry's own
    # quadratic form at n lines
    e = rec.DictEntry("x", 10.0, 5.0, sigma0_a=2.0, sigma0_p=1.0, corr=0.6)
    n = 100
    ell = rec.confidence_ellipse(e, n, 0.95)
    for semi, angle in ((ell.semi_major, ell.angle), (ell.semi_minor, ell.angle + math.pi / 2)):
        for sign in (1.0, -1.0):
            for scale, inside in ((1 - 1e-9, True), (1 + 1e-9, False)):
                r = sign * scale * semi
                p, a = ell.center_p + r * math.cos(angle), ell.center_a + r * math.sin(angle)
                assert ell.contains(p, a) == inside, (semi, sign, scale)
    rng = np.random.default_rng(3)
    p, a = (c + rng.uniform(-1.5, 1.5, 2000) * ell.semi_major for c in (e.p_ref, e.a_ref))
    dp, da = (p - e.p_ref) / (e.sigma0_p / math.sqrt(n)), (a - e.a_ref) / (e.sigma0_a / math.sqrt(n))
    q = (dp * dp - 2 * e.corr * dp * da + da * da) / (1 - e.corr**2) / ell.mahal_sq
    far = np.abs(q - 1.0) > 1e-9
    assert 200 < np.count_nonzero(q[far] <= 1.0) < far.sum() - 200
    assert [ell.contains(x, y) for x, y in zip(p[far], a[far])] == (q[far] <= 1.0).tolist()


def test_landscape_labels_entry_cell():
    entries = two_entries(d=6.0, s=1.0)
    grid = rec.landscape(entries, 400, resolution=41)
    # locate the cell nearest to the left entry
    i = int(np.argmin(np.abs(grid.p_axis - entries[0].p_ref)))
    j = int(np.argmin(np.abs(grid.a_axis - entries[0].a_ref)))
    assert grid.labels[i][j] == "left"


def test_landscape_regions_grow_with_n():
    # noise scale chosen so the sub-threshold band spans several grid cells
    # at N=200 and collapses inside one cell by N=1000
    entries = two_entries(d=2.0, s=7.5)
    p_axis = np.linspace(6, 14, 61)
    a_axis = np.linspace(2, 8, 61)
    g200 = rec.landscape(entries, 200, p_axis=p_axis, a_axis=a_axis)
    g1000 = rec.landscape(entries, 1000, p_axis=p_axis, a_axis=a_axis)
    for name in ("left", "right"):
        cells200 = {
            (i, j)
            for i in range(61)
            for j in range(61)
            if g200.labels[i][j] == name
        }
        cells1000 = {
            (i, j)
            for i in range(61)
            for j in range(61)
            if g1000.labels[i][j] == name
        }
        assert cells200 <= cells1000
        assert len(cells1000) > len(cells200)


def test_landscape_far_cell_still_labeled():
    # posteriors are relative: a far-off estimate still picks the nearest entry
    entries = two_entries(d=6.0, s=1.0)
    grid = rec.landscape(
        entries, 1000, p_axis=np.array([40.0]), a_axis=np.array([30.0])
    )
    assert grid.labels[0][0] == "right"


def test_landscape_empty_dictionary():
    with pytest.raises(ValueError):
        rec.landscape([], 100)


def test_landscape_rejects_an_empty_map():
    # no lines, or an axis without a point, leaves nothing to classify
    entries = two_entries()
    for n_lines in (0, -5):
        with pytest.raises(ValueError, match="at least 1 line"):
            rec.landscape(entries, n_lines)
    with pytest.raises(ValueError, match="non-empty axes"):
        rec.landscape(entries, 1000, resolution=0)
    axis = np.linspace(4.0, 9.0, 5)
    for p_axis, a_axis in ((axis, np.array([])), (np.array([]), axis)):
        with pytest.raises(ValueError, match="non-empty axes"):
            rec.landscape(entries, 1000, p_axis=p_axis, a_axis=a_axis)


def test_explore_until_stop_threshold_zero():
    entries = two_entries()
    res = rec.explore_until_stop(
        shapes.disk(), entries, SamplerConfig(seed=5), threshold=0.0, n_max=1000
    )
    assert not res.censored
    assert res.n_stop <= 5  # first prefix with a defined estimate


def test_identical_entries_never_stop():
    e = rec.DictEntry("twin-a", 6.28, 3.14, sigma0_a=1.0, sigma0_p=1.0)
    twin = rec.DictEntry("twin-b", 6.28, 3.14, sigma0_a=1.0, sigma0_p=1.0)
    res = rec.explore_until_stop(
        shapes.disk(), [e, twin], SamplerConfig(seed=6), n_max=2000
    )
    assert res.censored
    assert res.n_stop == 2000


def test_stop_estimates_equal_one_draw_prefix(builtin_dictionary):
    # against a 2% larger twin the square stops after several draws; the
    # estimates at the stop are still those of its first n_stop lines
    square = builtin_dictionary[shapes.BUILTIN_NAMES.index("square")]
    twin = dataclasses.replace(
        square, name="twin", p_ref=1.02 * square.p_ref, a_ref=1.02**2 * square.a_ref
    )
    for seed in range(6):
        cfg = SamplerConfig(seed=seed)
        res = rec.explore_until_stop(shapes.square(), [square, twin], cfg)
        sums = record_sums(shapes.square(), res.n_stop, cfg)
        assert (res.area_hat, res.perim_hat) == est.area_perimeter(*(s[-1] for s in sums))


def _stop_by_walking_prefixes(shape, entries, cfg, *, threshold, warm_up, confirm, n_max):
    """explore_until_stop's (label, n_stop, censored, area, perimeter), found by
    walking every prefix of one n_max-line record in order."""
    l1, l3, kk = record_sums(shape, n_max, cfg)
    min_n = 1 if threshold <= 0.0 else max(1, warm_up)
    confirm = 1 if threshold <= 0.0 else max(1, confirm)
    ns = [n for n in range(min_n, n_max + 1) if l1[n - 1] > 0.0 and kk[n - 1] > 0]
    idx = np.asarray(ns) - 1
    a, p = est.area_perimeter(l1[idx], l3[idx], kk[idx])
    _, top, top_prob = rec._posteriors(rec._log_likelihoods(p, a, ns, rec._entry_arrays(entries)))
    streak, label = 0, -1
    for i, n in enumerate(ns):
        if top_prob[i] < threshold:
            streak = 0
            continue
        streak = streak + 1 if top[i] == label else 1
        label = top[i]
        if streak >= confirm:
            return entries[top[i]].name, n, False, a[i], p[i]
    return entries[top[-1]].name, n_max, True, a[-1], p[-1]


def _square_and_twin(builtin_dictionary):
    square = builtin_dictionary[shapes.BUILTIN_NAMES.index("square")]
    return [square, dataclasses.replace(
        square, name="twin", p_ref=1.02 * square.p_ref, a_ref=1.02**2 * square.a_ref
    )]


def _assert_slots_walk(slots, entries, **kw):
    """Each slot of one lockstep loop equals the walk over its own record's prefixes."""
    results = rec.explore_slots_until_stop(slots, entries, **kw)
    for (shape, cfg), res in zip(slots, results):
        expected = _stop_by_walking_prefixes(shape, entries, cfg, **kw)
        assert (res.label, res.n_stop, res.censored, res.area_hat, res.perim_hat) == expected
    return results


@pytest.mark.parametrize(
    "case, threshold, warm_up, confirm, n_max",
    [
        ("threshold zero", 0.0, 30, 1, 1000),
        ("later draw", 0.95, 30, 1, 3000),
        ("read-style", 0.95, 30, 30, 3000),
        ("streak across draws", 0.95, 30, 300, 3000),
        ("censored", 0.9999, 30, 30, 600),
    ],
)
def test_stop_equals_per_prefix_walk(builtin_dictionary, case, threshold, warm_up, confirm, n_max):
    # IUR lines do not depend on the draw sizes, so the stop loop must agree
    # bit for bit with a walk over one record's prefixes, each seed alone
    # and the four seeds as four slots of one loop
    entries = _square_and_twin(builtin_dictionary)
    first_draw = max(warm_up + confirm - 1, rec.STOP_CHUNK)
    kw = dict(threshold=threshold, warm_up=warm_up, confirm=confirm, n_max=n_max)
    slots = [(shapes.square(), SamplerConfig(seed=seed)) for seed in range(4)]
    stops = []
    for shape, cfg in slots:
        res = rec.explore_until_stop(shape, entries, cfg, **kw)
        expected = _stop_by_walking_prefixes(shape, entries, cfg, **kw)
        assert (res.label, res.n_stop, res.censored, res.area_hat, res.perim_hat) == expected
        stops.append(res.n_stop)
    assert [r.n_stop for r in _assert_slots_walk(slots, entries, **kw)] == stops
    if case == "threshold zero":
        assert max(stops) <= 5
    elif case == "censored":
        assert stops == [n_max] * 4
    else:
        # a stop after the first draw; with confirm > STOP_CHUNK its streak
        # spans at least one draw boundary
        assert max(stops) > first_draw
    if case == "later draw":
        # the slots leave the loop in different rounds
        assert len({(n - first_draw - 1) // (4 * rec.STOP_CHUNK) for n in stops}) > 1


def test_lockstep_slots_of_mixed_fates_equal_their_walks(builtin_dictionary):
    # square slots against the square's twin stop, while a disk slot
    # between two identical disk entries stays censored
    disk = builtin_dictionary[shapes.BUILTIN_NAMES.index("disk")]
    entries = _square_and_twin(builtin_dictionary) + [disk, dataclasses.replace(disk, name="same")]
    slots = [(shapes.square(), SamplerConfig(seed=s)) for s in (0, 5)]
    slots.insert(1, (shapes.disk(), SamplerConfig(seed=3)))
    results = _assert_slots_walk(slots, entries, threshold=0.95, warm_up=30, confirm=30, n_max=3000)
    assert [r.censored for r in results] == [False, True, False]


def test_lockstep_shapes_of_three_vertex_tolerances_equal_their_walks():
    # the vertex bands of E (2.9e-12), the annulus (2e-12) and GENERATIONS
    # (2.2e-11) follow their arenas' radii: the slots share each kernel
    # call, and each line keeps its own shape's band
    targets = {
        "E": rd.letter_shape("E", 1.0),
        "annulus": shapes.annulus(),
        "GENERATIONS": rd.word_shape("GENERATIONS", 1.0).shape,
    }
    entries = [
        rec.calibrate(shape, 200, 10, SamplerConfig(seed=70 + i), name=name)
        for i, (name, shape) in enumerate(targets.items())
    ]
    assert len({t.derived("kernel", batch.CompiledShape).tol for t in targets.values()}) == 3
    order = ["E", "GENERATIONS", "annulus", "E"]
    slots = [(targets[name], SamplerConfig(seed=80 + i)) for i, name in enumerate(order)]
    results = _assert_slots_walk(slots, entries, threshold=0.95, warm_up=30, confirm=30, n_max=3000)
    assert not all(r.censored for r in results)


def test_lockstep_top_up_refills_only_the_short_slots(monkeypatch, builtin_dictionary):
    # a wide vertex band rejects about one line in 200 of the square's, and
    # a round refills just the slots that lost lines, in a call of their own
    monkeypatch.setattr(batch, "ONLINE_TOL", 1e-3)
    calls = []
    observe = explore_module.observe_segments

    def recording_observe(cshape, theta, p):
        calls.append([len(t) for t in theta])
        return observe(cshape, theta, p)

    monkeypatch.setattr(explore_module, "observe_segments", recording_observe)
    slots = [(shapes.square(), SamplerConfig(seed=seed)) for seed in range(6)]
    entries = _square_and_twin(builtin_dictionary)
    _assert_slots_walk(slots, entries, threshold=0.95, warm_up=30, confirm=30, n_max=3000)
    refills = [sizes for sizes in calls[1:] if max(sizes) < rec.STOP_CHUNK]
    assert calls[0] == [rec.STOP_CHUNK] * len(slots)
    assert refills and min(len(sizes) for sizes in refills) < len(slots)


@st.composite
def run_grids(draw):
    """(over, top, streak, label) for _runs: a few slots' rows of one length,
    each slot carrying in a streak of a label."""
    slots, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    cells = st.lists(st.booleans(), min_size=slots * n, max_size=slots * n)
    over = np.array(draw(cells), dtype=bool).reshape(slots, n)
    labels = st.lists(st.integers(0, 2), min_size=slots * n, max_size=slots * n)
    top = np.array(draw(labels)).reshape(slots, n)
    streak = np.array(draw(st.lists(st.integers(0, 6), min_size=slots, max_size=slots)))
    label = np.array(draw(st.lists(st.integers(0, 2), min_size=slots, max_size=slots)))
    return over, top, streak, label


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=run_grids())
def test_runs_equal_a_walk_over_each_slots_rows(case):
    # the lockstep loop's vector streaks against one slot's row at a time
    over, top, streaks, labels = case
    want = np.zeros(over.shape, dtype=int)
    for r, (streak, label) in enumerate(zip(streaks, labels)):
        for i in range(over.shape[1]):
            streak = (streak + 1 if streak > 0 and top[r, i] == label else 1) if over[r, i] else 0
            label = top[r, i]
            want[r, i] = streak
    assert rec._runs(over, top, streaks, labels).tolist() == want.tolist()


def _record_draws(monkeypatch) -> list[int]:
    """The draw sizes the stop loop asks of explore.take_all, in order."""
    takes = []
    take_all = explore_module.take_all

    def counting_take_all(streams, n):
        takes.append(n)
        return take_all(streams, n)

    monkeypatch.setattr(explore_module, "take_all", counting_take_all)
    return takes


def test_read_style_stop_at_earliest_prefix_takes_one_draw(builtin_dictionary, monkeypatch):
    # the disk is told from the other built-ins at once, so it stops at the
    # first prefix allowed, warm_up + confirm - 1, and the first draw ends there
    takes = _record_draws(monkeypatch)
    res = rec.explore_until_stop(
        shapes.disk(), builtin_dictionary, SamplerConfig(seed=1), warm_up=500, confirm=30
    )
    assert (res.label, res.n_stop, res.censored) == ("disk", 529, False)
    assert takes == [529]


def test_later_draws_are_four_stop_chunks(builtin_dictionary, monkeypatch):
    # against its 2% twin, the square at seed 5 stops at line 2018, two
    # draws after the first
    square = builtin_dictionary[shapes.BUILTIN_NAMES.index("square")]
    twin = dataclasses.replace(
        square, name="twin", p_ref=1.02 * square.p_ref, a_ref=1.02**2 * square.a_ref
    )
    takes = _record_draws(monkeypatch)
    res = rec.explore_until_stop(shapes.square(), [square, twin], SamplerConfig(seed=5))
    assert (res.label, res.n_stop, res.censored) == ("square", 2018, False)
    assert takes == [256, 1024, 1024]
    # an exact twin never clears the threshold: the last draw ends at n_max
    takes.clear()
    same = dataclasses.replace(square, name="same")
    res = rec.explore_until_stop(shapes.square(), [square, same], SamplerConfig(seed=5), n_max=3000)
    assert res.censored and takes == [256, 1024, 1024, 696]


def _reference_log_likelihoods(p_hat, a_hat, n, entries, shared_sigma=None):
    """The bivariate-Gaussian log-density as written, sigma0/sqrt(N) and the
    normaliser computed per element."""
    p_hat = np.atleast_1d(np.asarray(p_hat, dtype=float))[:, None]
    a_hat = np.atleast_1d(np.asarray(a_hat, dtype=float))[:, None]
    n = np.atleast_1d(np.asarray(n, dtype=float))[:, None]
    pr, ar, s0p, s0a, rho = (
        np.array([(e.p_ref, e.a_ref, e.sigma0_p, e.sigma0_a, e.corr) for e in entries]).T
    )
    if shared_sigma is None:
        sp, sa = s0p / np.sqrt(n), s0a / np.sqrt(n)
    else:
        sp, sa = np.full_like(pr, shared_sigma[0]), np.full_like(pr, shared_sigma[1])
        rho = np.zeros_like(pr)
    dp = (p_hat - pr) / sp
    da = (a_hat - ar) / sa
    z = (dp * dp - 2.0 * rho * dp * da + da * da) / (1.0 - rho * rho)
    return -np.log(2.0 * math.pi * sp * sa * np.sqrt(1.0 - rho * rho)) - 0.5 * z


def _reference_posteriors(loglik):
    w = np.exp(loglik - loglik.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def _assert_posteriors_match(got_probs, got_top, got_top_prob, want_probs):
    assert np.max(np.abs(got_probs - want_probs)) <= 1e-12
    assert np.array_equal(got_top, np.argmax(want_probs, axis=1))
    assert np.max(np.abs(got_top_prob - want_probs.max(axis=1))) <= 1e-12


def test_likelihood_matches_the_per_element_density(builtin_dictionary):
    # the lean likelihood leaves out log N, a constant per row: posteriors
    # agree with the density as written, correlated entries included
    square = builtin_dictionary[shapes.BUILTIN_NAMES.index("square")]
    twin = dataclasses.replace(
        square, name="twin", p_ref=1.02 * square.p_ref, a_ref=1.02**2 * square.a_ref
    )
    entries = [*builtin_dictionary, twin]
    assert all(e.corr != 0.0 for e in entries)
    ref = rec._entry_arrays(entries)
    # stop-loop rows: every prefix of a square record from line 30, which
    # the square and its twin contest
    l1, l3, kk = record_sums(shapes.square(), 3000, SamplerConfig(seed=11))
    n = np.arange(30, 3001)
    a, p = est.area_perimeter(l1[n - 1], l3[n - 1], kk[n - 1])
    want = _reference_posteriors(_reference_log_likelihoods(p, a, n, entries))
    _assert_posteriors_match(*rec._posteriors(rec._log_likelihoods(p, a, n, ref)), want)
    assert np.count_nonzero(want.max(axis=1) < 0.9) > 100
    # classify, with the entries' noise and with the report's own stderrs
    for se in (float("nan"), 0.05):
        report = make_report(p=3.9, a=0.97, n=400, se_p=se, se_a=se)
        shared = None if math.isnan(se) else (se, se)
        want = _reference_posteriors(_reference_log_likelihoods(3.9, 0.97, 400, entries, shared))
        post = rec.classify(report, entries)
        got = np.array([[post.probs[e.name] for e in entries]])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert post.top == entries[int(np.argmax(want))].name
        assert abs(post.top_prob - want.max()) <= 1e-12
    # a landscape grid, whose labels follow the reference's tops
    grid = rec.landscape(entries, 200, resolution=40, threshold=0.5)
    pg, ag = np.meshgrid(grid.p_axis, grid.a_axis, indexing="ij")
    n = np.full(pg.size, 200)
    want = _reference_posteriors(_reference_log_likelihoods(pg.ravel(), ag.ravel(), n, entries))
    _assert_posteriors_match(*rec._posteriors(rec._log_likelihoods(pg.ravel(), ag.ravel(), n, ref)), want)
    names = [e.name for e in entries]
    labels = [names[t] if q >= 0.5 else None for t, q in zip(want.argmax(axis=1), want.max(axis=1))]
    assert [label for row in grid.labels for label in row] == labels


def test_posteriors_do_not_depend_on_the_block():
    # a row's posteriors are the same bits alone as in a block of rows: a
    # stop-loop draw or classify may evaluate one row, a lockstep round many
    rng = np.random.default_rng(26)
    entries = [
        rec.DictEntry(
            f"e{i}", *rng.uniform(1.0, 2.0, 2), *rng.uniform(0.5, 2.0, 2), rng.uniform(-0.9, 0.9)
        )
        for i in range(26)
    ]
    ref = rec._entry_arrays(entries)
    p, a, n = rng.uniform(1.0, 2.0, 2500), rng.uniform(1.0, 2.0, 2500), rng.integers(30, 300, 2500)
    probs, top, top_prob = rec._posteriors(rec._log_likelihoods(p, a, n, ref))
    for i in range(p.size):
        row = rec._posteriors(rec._log_likelihoods(p[i : i + 1], a[i : i + 1], n[i : i + 1], ref))
        assert np.array_equal(row[0][0], probs[i]), i
        assert (row[1][0], row[2][0]) == (top[i], top_prob[i]), i
    assert np.count_nonzero(top_prob < 0.9) > 500


@pytest.mark.parametrize("threshold", [1.5, -0.5, math.nan])
def test_threshold_outside_0_1_is_error(threshold):
    # a threshold is a posterior probability: above 1 no read could stop,
    # below 0 every read would stop at once, and NaN clears nothing
    entries, cfg = two_entries(), SamplerConfig(seed=1)
    with pytest.raises(ValueError, match="threshold"):
        rec.explore_until_stop(shapes.disk(), entries, cfg, threshold=threshold, n_max=2000)
    with pytest.raises(ValueError, match="threshold"):
        rec.landscape(entries, 100, resolution=5, threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        rec.should_stop(rec.Posterior({"left": 1.0}, "left", 1.0), threshold)


def test_threshold_ends_are_accepted():
    post = rec.Posterior({"left": 1.0}, "left", 1.0)
    assert rec.should_stop(post, 0.0) and rec.should_stop(post, 1.0)
    for threshold in (0.0, 1.0):
        rec.landscape(two_entries(), 100, resolution=5, threshold=threshold)
        rec.explore_until_stop(
            shapes.disk(), two_entries(), SamplerConfig(seed=1), threshold=threshold, n_max=50
        )


def test_a_budget_below_the_warm_up_scores_nothing(builtin_dictionary, monkeypatch):
    # no prefix reaches the warm-up: every slot is censored at the budget with
    # no estimate, one slot alone and three slots of mixed shapes in lockstep
    def censored(res, n_max):
        assert (res.label, res.n_stop, res.censored, res.top_prob) == (None, n_max, True, 0.0)
        assert math.isnan(res.area_hat) and math.isnan(res.perim_hat)

    censored(rec.explore_until_stop(shapes.square(), builtin_dictionary, SamplerConfig(seed=1), n_max=5), 5)
    slots = [(shapes.builtin(name), SamplerConfig(seed=7)) for name in ("square", "annulus", "statue")]
    for res in rec.explore_slots_until_stop(slots, builtin_dictionary, n_max=29):
        censored(res, 29)
    # at n_max == warm_up exactly the last prefix of each slot is scored
    scored = []
    top_posteriors = rec._top_posteriors

    def counting(p_hat, a_hat, n, ref):
        scored.append(np.asarray(n).tolist())
        return top_posteriors(p_hat, a_hat, n, ref)

    monkeypatch.setattr(rec, "_top_posteriors", counting)
    kw = dict(threshold=0.95, warm_up=30, confirm=1, n_max=30)
    _assert_slots_walk(slots, builtin_dictionary, **kw)
    assert scored == [[30, 30, 30]]


def test_a_slot_with_no_chord_by_the_budget_has_no_estimate():
    # at threshold 0 a slot stops at its first line with a chord; a slot
    # whose one line misses the triangle is censored at the budget, unread
    slots = [(shapes.triangle(), SamplerConfig(seed=s)) for s in range(10)]
    results = rec.explore_slots_until_stop(slots, two_entries(), threshold=0.0, n_max=1)
    missed = [record_sums(shape, 1, cfg)[2][0] == 0 for shape, cfg in slots]
    assert 0 < sum(missed) < len(slots)
    for res, miss in zip(results, missed):
        assert (res.n_stop, res.censored) == (1, miss)
        assert (res.label is None) == miss and math.isnan(res.area_hat) == miss


@pytest.mark.parametrize("n_max", [0, -5])
def test_explore_until_stop_rejects_empty_budget(n_max):
    with pytest.raises(ValueError, match="n_max"):
        rec.explore_until_stop(shapes.disk(), two_entries(), SamplerConfig(seed=1), n_max=n_max)


def test_lines_to_recognize_requires_membership(builtin_dictionary):
    with pytest.raises(ValueError):
        rec.lines_to_recognize(
            shapes.square(side=2.0), # name "square" is present; rename to break
            [e for e in builtin_dictionary if e.name != "square"],
            seeds=[0],
        )


def test_lines_to_recognize_disk(builtin_dictionary):
    study = rec.lines_to_recognize(
        shapes.disk(), builtin_dictionary, seeds=range(10), n_max=10_000
    )
    assert study.wrong_fraction == 0.0
    assert not study.censored.any()
    assert study.median_stop() >= rec.DEFAULT_WARMUP


def test_dictionary_file_roundtrip(tmp_path, builtin_dictionary):
    path = tmp_path / "dict.json"
    rec.save_dictionary(builtin_dictionary, path)
    back = rec.load_dictionary(path)
    assert [e.name for e in back] == [e.name for e in builtin_dictionary]
    assert back[0].sigma0_a == pytest.approx(builtin_dictionary[0].sigma0_a)
    with pytest.raises(ValueError):
        (tmp_path / "bad.json").write_text("{}")
        rec.load_dictionary(tmp_path / "bad.json")
