import dataclasses
import math

import numpy as np
import pytest

from chordscan import batch
from chordscan import estimators as est
from chordscan import recognition as rec
from chordscan import shapes
from chordscan.estimators import EstimateReport, prefix_estimates
from chordscan.explore import explore, explore_per_line
from chordscan.geometry import exact_area, exact_perimeter
from chordscan.sampling import SAMPLER_MODES, SamplerConfig, arena_for


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


def test_calibrate_single_replicate_is_error():
    with pytest.raises(ValueError):
        rec.calibrate(shapes.disk(), 1000, 1, SamplerConfig(seed=4))


def _calibrate_one_explore_per_replicate(shape, m_lines, replicates, config):
    """calibrate's entry as one explore per replicate, and the lines it rejected."""
    arena = arena_for(shape, config.arena_scale)
    a_vals, p_vals, rejected = [], [], 0
    for rep in range(replicates):
        rng = np.random.default_rng([config.seed, rep])
        acc = explore(shape, m_lines, config, arena=arena, rng=rng)
        a_vals.append(est.estimate_area(acc))
        p_vals.append(est.estimate_perimeter(acc))
        rejected += acc.rejected
    corr = float(np.corrcoef(p_vals, a_vals)[0, 1])
    root_m = math.sqrt(m_lines)
    entry = rec.DictEntry(
        name=shape.name,
        p_ref=exact_perimeter(shape),
        a_ref=exact_area(shape),
        sigma0_a=float(np.std(a_vals, ddof=1)) * root_m,
        sigma0_p=float(np.std(p_vals, ddof=1)) * root_m,
        corr=max(-rec._CORR_CLAMP, min(rec._CORR_CLAMP, corr)),
    )
    return entry, rejected


@pytest.mark.parametrize("mode", SAMPLER_MODES)
@pytest.mark.parametrize(
    "name, m_lines, replicates",
    [("annulus", 7, 40), ("statue", 1000, 22), ("square", 16385, 3)],
    ids=["m7", "m1000", "m16385-crosses-a-chunk"],
)
def test_calibrate_equals_one_explore_per_replicate(name, m_lines, replicates, mode):
    # the replicates share kernel blocks (22 of 1,000 lines end in a part
    # block); every bit of the entry stays the same
    shape = shapes.builtin(name)
    config = SamplerConfig(mode=mode, seed=31)
    want, _ = _calibrate_one_explore_per_replicate(shape, m_lines, replicates, config)
    assert rec.calibrate(shape, m_lines, replicates, config) == want


@pytest.mark.parametrize("mode", SAMPLER_MODES)
@pytest.mark.parametrize("m_lines, replicates", [(1000, 10), (16385, 2)])
def test_calibrate_tops_up_rejected_lines_like_explore(monkeypatch, mode, m_lines, replicates):
    # a wide vertex band rejects about 2% of the statue's lines
    monkeypatch.setattr(batch, "ONLINE_TOL", 1e-3)
    shape = shapes.statue()
    config = SamplerConfig(mode=mode, seed=8)
    want, rejected = _calibrate_one_explore_per_replicate(shape, m_lines, replicates, config)
    assert rejected > 0
    assert rec.calibrate(shape, m_lines, replicates, config) == want


def test_calibrate_replicate_without_chord_is_error():
    with pytest.raises(est.InsufficientDataError, match="no chord"):
        rec.calibrate(shapes.statue(), 1, 50, SamplerConfig(seed=1))
    with pytest.raises(ValueError, match="at least 1 line"):
        rec.calibrate(shapes.statue(), 0, 50, SamplerConfig(seed=1))


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
        a, p = prefix_estimates(explore_per_line(shapes.square(), res.n_stop, cfg), [res.n_stop])
        assert (res.area_hat, res.perim_hat) == (a[0], p[0])


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
