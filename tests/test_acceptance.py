"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summaries. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from chordscan import estimators as est
from chordscan import reading as rd
from chordscan import recognition as rec
from chordscan import shapes
from chordscan.batch import CompiledShape, observe_segments
from chordscan.explore import convergence_series, explore
from chordscan.geometry import (
    Point,
    RigidTransform,
    exact_area,
    exact_perimeter,
    transform,
    union_disjoint,
)
from chordscan.sampling import SamplerConfig, arena_for, sample_iur_batch
from conftest import arena_chords
from line_oracle import line_params_of_segments, scratch_scalar_count, segment_events


def _passline(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_disk_consistency():
    disk = shapes.disk()
    a_exact, p_exact = exact_area(disk), exact_perimeter(disk)
    t0 = time.time()
    acc = explore(disk, 100_000, SamplerConfig(seed=0))
    single = time.time() - t0
    a_vals, p_vals = [], []
    for seed in range(20):
        acc = explore(disk, 100_000, SamplerConfig(seed=seed))
        a_vals.append(est.estimate_area(acc))
        p_vals.append(est.estimate_perimeter(acc))
    rel_a = abs(np.mean(a_vals) - a_exact) / a_exact
    rel_p = abs(np.mean(p_vals) - p_exact) / p_exact
    assert rel_a <= 0.01
    assert rel_p <= 0.015
    assert single <= 5.0
    _passline(
        1,
        f"disk 20x1e5: |dA|/A={rel_a:.4%}<=1%, |dP|/P={rel_p:.4%}<=1.5%, "
        f"single run {single:.2f}s<=5s",
    )


def test_criterion_2_convex_reduction():
    acc = explore(shapes.square(), 100_000, SamplerConfig(seed=21))
    a_hat = est.estimate_area(acc)
    a_ch = est.convex_third_moment_area(acc)
    se_a, _ = est.stderrs(acc)
    se_ch = est.convex_baseline_stderr(acc)
    assert 0.99 <= a_hat <= 1.01
    assert abs(a_hat - a_ch) <= 3.0 * math.hypot(se_a, se_ch)
    _passline(
        2,
        f"square 1e5: A={a_hat:.4f} in [0.99,1.01]; |A-A_ch|="
        f"{abs(a_hat - a_ch):.2e} <= 3*combined stderr",
    )


def test_criterion_3_nonconvex_necessity():
    ann = shapes.annulus()
    a_exact, p_exact = exact_area(ann), exact_perimeter(ann)
    acc = explore(ann, 200_000, SamplerConfig(seed=33))
    a_hat, p_hat = est.estimate_area(acc), est.estimate_perimeter(acc)
    a_ch = est.convex_third_moment_area(acc)
    se_ch = est.convex_baseline_stderr(acc)
    assert abs(a_hat - a_exact) / a_exact <= 0.02
    assert abs(p_hat - p_exact) / p_exact <= 0.03
    dev = abs(a_ch - a_exact) / se_ch
    assert dev > 5.0
    _passline(
        3,
        f"annulus 2e5: A within {abs(a_hat - a_exact) / a_exact:.3%}, "
        f"P within {abs(p_hat - p_exact) / p_exact:.3%}; convex baseline "
        f"off by {dev:.0f} stderr (>5)",
    )


def test_criterion_4_additivity_separation():
    results = []
    for gap in (1.0, 10.0):
        two = union_disjoint(
            [shapes.square(), shapes.square(corner=(1.0 + gap, 0.0))]
        )
        acc = explore(two, 200_000, SamplerConfig(seed=44))
        a_hat, p_hat = est.estimate_area(acc), est.estimate_perimeter(acc)
        se_a, _ = est.stderrs(acc)
        assert abs(a_hat - 2.0) / 2.0 <= 0.02
        assert abs(p_hat - 8.0) / 8.0 <= 0.03
        results.append((a_hat, se_a))
    diff = abs(results[0][0] - results[1][0])
    bound = 3.0 * math.hypot(results[0][1], results[1][1])
    assert diff <= bound
    _passline(
        4,
        f"two squares, gaps 1 and 10: A_hat {results[0][0]:.4f} vs "
        f"{results[1][0]:.4f}, |diff|={diff:.4f} <= {bound:.4f}",
    )


def test_criterion_5_rigid_invariance():
    st = shapes.statue()
    t = RigidTransform(rotation=0.83, translation=Point(2.5, -1.25), mirror=True)
    st2 = transform(st, t)
    arena = arena_for(st, 1.4)
    theta, p = sample_iur_batch(np.random.default_rng(55), arena, 200)
    a, b = arena_chords(theta, p, arena)
    a2 = t.apply(a)
    b2 = t.apply(b)
    # the kernel observes each chord's own line; segment_events lists its events
    kernels = [shape.derived("kernel", CompiledShape) for shape in (st, st2)]
    obs = [
        observe_segments(cs, *line_params_of_segments(u, v, cs.center))
        for cs, u, v in zip(kernels, (a, a2), (b, b2))
    ]
    assert not obs[0].rejected.any() and not obs[1].rejected.any()
    chords = [np.split(o.chords_flat, np.cumsum(o.k)[:-1]) for o in obs]
    checked = 0
    for i in range(len(a)):
        assert obs[0].k[i] == obs[1].k[i]
        assert abs(obs[0].L1[i] - obs[1].L1[i]) < 1e-9
        assert abs(obs[0].L3[i] - obs[1].L3[i]) < 1e-9
        # a line's chords run along its own axis, which the mirror turns round
        for c1, c2 in zip(np.sort(chords[0][i]), np.sort(chords[1][i])):
            assert abs(c1 - c2) < 1e-9
        events = segment_events(st, a[i], b[i]), segment_events(st2, a2[i], b2[i])
        assert len(events[0]) == len(events[1]) == 2 * obs[0].k[i]
        for e1, e2 in zip(*events):
            assert abs(e1.t - e2.t) < 1e-9
            assert e1.kind == e2.kind
        checked += int(obs[0].k[i])
    assert checked > 50
    _passline(5, f"200 co-transformed lines on the statue agree to 1e-9 per value")


def test_criterion_6_convergence_law_and_kl_ranks():
    n_grid = [100, 1_000, 10_000, 100_000]
    replicates = 200
    exponents = {}
    prefactors_a, prefactors_p, kls = {}, {}, {}
    disk_hist = est.normalized_histogram(
        explore(shapes.disk(), 100_000, SamplerConfig(seed=66))
    )
    t0 = time.time()
    for i, name in enumerate(shapes.BUILTIN_NAMES):
        shape = shapes.builtin(name)
        series = convergence_series(shape, n_grid, replicates, SamplerConfig(seed=6600 + i))
        exponents[name] = (series.exponent_a, series.exponent_p)
        prefactors_a[name], prefactors_p[name] = series.sigma0_a, series.sigma0_p
        hist = est.normalized_histogram(
            explore(shape, 100_000, SamplerConfig(seed=6700 + i))
        )
        kls[name] = est.kl_divergence(hist, disk_hist)
    for name, (exp_a, exp_p) in exponents.items():
        assert -0.55 <= exp_a <= -0.45, f"{name} area exponent {exp_a}"
        assert -0.55 <= exp_p <= -0.45, f"{name} perimeter exponent {exp_p}"
    names = list(shapes.BUILTIN_NAMES)
    kl_vec = [kls[n] for n in names]
    rho_a = stats.spearmanr([prefactors_a[n] for n in names], kl_vec).statistic
    rho_p = stats.spearmanr([prefactors_p[n] for n in names], kl_vec).statistic
    assert rho_a > 0
    assert rho_p > 0
    _passline(
        6,
        f"exponents all in [-0.55,-0.45] "
        f"({', '.join(f'{n}:{e[0]:.3f}/{e[1]:.3f}' for n, e in exponents.items())}); "
        f"Spearman(sigma0, KL) A={rho_a:.2f} P={rho_p:.2f} (>0) "
        f"[{time.time()-t0:.0f}s]",
    )


def test_criterion_7_few_hundred_lines():
    for name in ("disk", "square", "triangle"):
        shape = shapes.builtin(name)
        a_exact, p_exact = exact_area(shape), exact_perimeter(shape)
        good = 0
        for rep in range(100):
            acc = explore(shape, 300, SamplerConfig(seed=np.random.SeedSequence([77, rep])))
            a_hat = est.estimate_area(acc)
            p_hat = est.estimate_perimeter(acc)
            good += (
                abs(a_hat - a_exact) / a_exact < 0.10
                and abs(p_hat - p_exact) / p_exact < 0.10
            )
        assert good >= 90, f"{name}: only {good}/100 within 10% at N=300"
    _passline(7, "disk/square/triangle at N=300: >=90/100 replicates within 10%")


def test_criterion_8_recognition(builtin_dictionary):
    correct = 0
    for i, name in enumerate(shapes.BUILTIN_NAMES):
        shape = shapes.builtin(name)
        for rep in range(200):
            acc = explore(
                shape,
                1000,
                SamplerConfig(seed=np.random.SeedSequence([88, i, rep])),
            )
            post = rec.classify(est.report(acc), builtin_dictionary)
            correct += post.top == name
    accuracy = correct / 1000.0
    assert accuracy >= 0.95
    medians = {}
    for name in shapes.BUILTIN_NAMES:
        study = rec.lines_to_recognize(
            shapes.builtin(name),
            builtin_dictionary,
            seeds=range(50),
            config=SamplerConfig(seed=0),
            n_max=20_000,
        )
        medians[name] = study.median_stop()
    others = min(v for k, v in medians.items() if k != "disk")
    assert medians["disk"] <= others
    _passline(
        8,
        f"accuracy {accuracy:.1%}>=95% at N=1000; stopping medians "
        f"{ {k: int(v) for k, v in medians.items()} } with disk smallest",
    )


def test_criterion_9_ellipse_coverage(builtin_dictionary):
    disk_entry = next(e for e in builtin_dictionary if e.name == "disk")
    ell = rec.confidence_ellipse(disk_entry, 1000, 0.95)
    inside = 0
    for rep in range(200):
        acc = explore(
            shapes.disk(),
            1000,
            SamplerConfig(seed=np.random.SeedSequence([99, rep])),
        )
        a_hat, p_hat = est.estimate_area(acc), est.estimate_perimeter(acc)
        inside += ell.contains(p_hat, a_hat)
    frac = inside / 200.0
    assert 0.90 <= frac <= 0.99
    _passline(9, f"95% ellipse covers {frac:.1%} of 200 fresh disk replicates")


@pytest.fixture(scope="module")
def letter_dictionary():
    return rd.calibrate_letters(m_lines=800, replicates=30, config=SamplerConfig(seed=42))


@pytest.fixture(scope="module")
def word_dictionary():
    return rd.calibrate_words(
        rd.default_word_list(), m_lines=1500, replicates=25, config=SamplerConfig(seed=77)
    )


def test_criterion_10_reading(letter_dictionary, word_dictionary):
    target = rd.word_shape("FREEDOM", 1.0)
    a_exact = exact_area(target.shape)
    budget = 30_000
    loc_ok = glo_ok = 0
    loc_a, glo_a = [], []
    for seed in range(50):
        cfg = SamplerConfig(seed=seed)
        lr = rd.read_local(target, letter_dictionary, budget // 7, cfg)
        gr = rd.read_global(target, word_dictionary, budget, cfg)
        loc_ok += lr.text == "FREEDOM"
        glo_ok += gr.text == "FREEDOM"
        loc_a.append(lr.area_hat)
        glo_a.append(gr.area_hat)
    assert loc_ok >= 45, f"local read only {loc_ok}/50"
    assert glo_ok >= 45, f"global read only {glo_ok}/50"
    for label, vals in (("local", loc_a), ("global", glo_a)):
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - a_exact) <= 3.0 * sem, (
            f"{label} mean area {mean:.2f} vs exact {a_exact:.2f} (sem {sem:.2f})"
        )
    _passline(
        10,
        f"FREEDOM: local {loc_ok}/50, global {glo_ok}/50 (>=45); both mean "
        f"areas within 3 SEM of exact {a_exact:.0f}",
    )


def test_criterion_11_frugality():
    acc_small = explore(shapes.statue(), 200, SamplerConfig(seed=111))
    acc_large = explore(shapes.statue(), 20_000, SamplerConfig(seed=111))
    assert acc_small.state_scalar_count() == acc_large.state_scalar_count()

    st = shapes.statue()
    arena = arena_for(st)
    theta, p = sample_iur_batch(np.random.default_rng(112), arena, 2000)
    obs = observe_segments(st.derived("kernel", CompiledShape), theta, p)
    assert not obs.rejected.any()
    k_max = int(obs.k.max())
    scratch_max = max(scratch_scalar_count(int(k)) for k in obs.k)
    assert k_max == 6  # the statue produces six-chord lines
    assert scratch_max <= 34  # k*(k-1)+4 at k=6
    _passline(
        11,
        f"accumulator size constant in N ({acc_large.state_scalar_count()} scalars); "
        f"per-line scratch max {scratch_max}<=34 at k={k_max}",
    )


def test_criterion_12_sampler_equivalence():
    from chordscan.sampling import ArenaCircle, billiard_lines

    arena = ArenaCircle(Point(0.0, 0.0), 1.0)
    n = 100_000
    _, p = sample_iur_batch(np.random.default_rng(120), arena, n)
    iur = 2.0 * np.sqrt(np.clip(1.0 - p**2, 0.0, None))
    # a line at offset p cuts the unit arena in a chord of length 2 sqrt(1 - p^2)
    _, p, _ = billiard_lines(np.random.default_rng(121), arena, n, "billiard-cos")
    cos_l = 2.0 * np.sqrt(1.0 - p**2)
    _, p, _ = billiard_lines(np.random.default_rng(122), arena, n, "billiard-uni")
    uni_l = 2.0 * np.sqrt(1.0 - p**2)
    p_cos = stats.ks_2samp(iur, cos_l).pvalue
    p_uni = stats.ks_2samp(iur, uni_l).pvalue
    assert p_cos > 0.001
    assert p_uni < 0.001
    _passline(
        12,
        f"KS vs IUR at 1e5: cosine p={p_cos:.3f}>0.001, uniform p={p_uni:.2e}<0.001",
    )
