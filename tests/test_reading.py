import dataclasses
import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from chordscan import reading as rd
from chordscan import recognition as rec
from chordscan import shapes
from chordscan.estimators import area_perimeter
from chordscan.geometry import (
    Point, RigidTransform, bounding_circle, exact_area, exact_perimeter, transform,
)
from chordscan.sampling import (
    LETTER, SLOT, WORD, ArenaCircle, SamplerConfig, arena_for, substream,
)

from conftest import record_sums

ex = importlib.import_module("chordscan.explore")


def test_letter_I_exact():
    sh = rd.letter_shape("I", 2.0)
    assert exact_area(sh) == pytest.approx(5 * 4.0, abs=1e-12)
    assert exact_perimeter(sh) == pytest.approx(12 * 2.0, abs=1e-12)


def test_letter_L_exact():
    sh = rd.letter_shape("L", 1.0)
    assert exact_area(sh) == pytest.approx(7.0, abs=1e-12)
    assert exact_perimeter(sh) == pytest.approx(16.0, abs=1e-12)


def test_letter_O_exact():
    # outer boundary plus the hole boundary
    sh = rd.letter_shape("O", 1.0)
    assert len(sh.rings) == 2
    assert exact_area(sh) == pytest.approx(12.0, abs=1e-12)
    assert exact_perimeter(sh) == pytest.approx(24.0, abs=1e-12)


def test_unsupported_character():
    with pytest.raises(KeyError):
        rd.letter_shape("a", 1.0)
    with pytest.raises(KeyError):
        rd.word_shape("HI!", 1.0)


def test_alphabet_is_collision_free():
    alphabet = rd.Alphabet(1.0)
    assert alphabet.collisions == []
    assert len(alphabet.table) == 26
    assert alphabet.min_separation() > 0


def test_alphabet_scales_with_cell_side():
    a1 = rd.Alphabet(1.0)
    a2 = rd.Alphabet(2.0)
    for c in "AQZ":
        assert a2.table[c][0] == pytest.approx(4 * a1.table[c][0], rel=1e-12)
        assert a2.table[c][1] == pytest.approx(2 * a1.table[c][1], rel=1e-12)


def test_masks_have_no_corner_contact():
    for c, mask in rd.LETTER_MASKS.items():
        rd.mask_to_shape(mask, 1.0)  # raises on pinched outlines


def test_word_ii_additive():
    ws = rd.word_shape("II", 1.0)
    assert exact_area(ws.shape) == pytest.approx(10.0, abs=1e-12)
    assert exact_perimeter(ws.shape) == pytest.approx(24.0, abs=1e-12)


@pytest.mark.parametrize("cell", [1.0, 0.37])
def test_word_letters_are_the_masks_traced_in_place(cell):
    # word_shape translates one cached letter per (letter, cell); slot i's
    # rings must be the mask's boundary loops at x0 + x * cell, y * cell, with
    # x0 = i letter advances, bit for bit
    advance = (rd.GRID_COLS + rd.DEFAULT_GAP_CELLS) * cell
    for c, mask in rd.LETTER_MASKS.items():
        loops = rd._trace_boundary(rd._mask_cells(mask))
        want = [
            np.array([(i * advance + x * cell, y * cell) for x, y in loop])
            for i in range(4)
            for loop in loops
        ]
        got = rd.word_shape(c * 4, cell).shape.rings
        assert len(got) == len(want), c
        for k, (ring, coords) in enumerate(zip(got, want)):
            assert np.array_equal(ring.coords, coords), (c, k)


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        rd.word_shape("", 1.0)


def test_word_additivity_over_letters():
    ws = rd.word_shape("FREEDOM", 1.0)
    a_sum = sum(exact_area(rd.letter_shape(c, 1.0)) for c in ws.word)
    p_sum = sum(exact_perimeter(rd.letter_shape(c, 1.0)) for c in ws.word)
    assert exact_area(ws.shape) == pytest.approx(a_sum, rel=1e-9)
    assert exact_perimeter(ws.shape) == pytest.approx(p_sum, rel=1e-9)


def test_anagram_degeneracy():
    a = rd.word_shape("FREEDOM", 1.0)
    b = rd.word_shape("MODEERF", 1.0)
    assert exact_area(a.shape) == pytest.approx(exact_area(b.shape), rel=1e-9)
    assert exact_perimeter(a.shape) == pytest.approx(exact_perimeter(b.shape), rel=1e-9)


def test_default_word_list_anagram_free():
    words = rd.default_word_list()
    assert len(words) == 20
    assert "FREEDOM" in words
    assert rd.anagram_groups(words) == []


def test_read_local_zero_budget_censored(letter_dict):
    target = rd.word_shape("ON", 1.0)
    res = rd.read_local(target, letter_dict, 0, SamplerConfig(seed=1))
    assert res.censored
    assert res.per_letter_censored == [True, True]
    assert res.n_lines == 0


def test_read_global_zero_budget_censored(letter_dict):
    target = rd.word_shape("ON", 1.0)
    res = rd.read_global(target, letter_dict[:3], 0, SamplerConfig(seed=1))
    assert res.censored


@pytest.mark.parametrize("budget", [0, 5])
@pytest.mark.parametrize("threshold", [1.5, -0.5, math.nan])
def test_read_threshold_outside_0_1_is_error(letter_dict, budget, threshold):
    # the caller's threshold is checked, whatever the budget, and named
    # rather than the root each slot must clear
    target = rd.word_shape("FE", 1.0)
    for read, entries in ((rd.read_local, letter_dict), (rd.read_global, letter_dict[:3])):
        with pytest.raises(ValueError, match=re.escape(f"not {threshold}") + "$"):
            read(target, entries, budget, SamplerConfig(seed=1), threshold=threshold)


@pytest.mark.parametrize("word", ["C", "JUSTICE", "GENERATIONS"])
def test_read_single_letter_equals_classification(letter_dict, word):
    # the slots run in lockstep (GENERATIONS' first round spans two kernel
    # calls), and each slot stops as a one-slot loop from its substream does
    target = rd.word_shape(word, 1.0)
    cfg = SamplerConfig(seed=7)
    res = rd.read_local(target, letter_dict, 3000, cfg)
    kw = dict(
        threshold=rec.DEFAULT_THRESHOLD ** (1.0 / len(word)), n_max=3000,
        warm_up=rd._read_warmup(3000), confirm=rd.READ_CONFIRM,
    )
    slots = [
        (rd.letter_shape(c, 1.0), dataclasses.replace(cfg, seed=substream(cfg.seed, SLOT, i)))
        for i, c in enumerate(word)
    ]
    direct = [rec.explore_until_stop(shape, letter_dict, c, **kw) for shape, c in slots]
    together = rec.explore_slots_until_stop(slots, letter_dict, **kw)
    fields = [(r.label, r.n_stop, r.censored, r.area_hat, r.perim_hat) for r in direct]
    assert [(r.label, r.n_stop, r.censored, r.area_hat, r.perim_hat) for r in together] == fields
    assert res.text == "".join("?" if r.label is None else r.label for r in direct)
    assert res.per_letter_n == [r.n_stop for r in direct]
    assert res.per_letter_censored == [r.censored for r in direct]
    assert res.area_hat == float(np.sum([r.area_hat for r in direct]))
    assert res.n_lines == sum(r.n_stop for r in direct)
    if word == "GENERATIONS":
        first_draw = max(rd._read_warmup(3000) + rd.READ_CONFIRM - 1, rec.STOP_CHUNK)
        assert len(word) * first_draw > ex.DEFAULT_CHUNK


def test_read_global_equals_classification():
    # the whole-word twin of the single-letter test: one slot at the full
    # threshold, the word's own arena and lines seeded by the config
    words = rd.calibrate_words(["ON", "IN", "OF", "TO"], m_lines=200, replicates=5,
                               config=SamplerConfig(seed=43))
    target = rd.word_shape("ON", 1.0)
    cfg = SamplerConfig(seed=7)
    res = rd.read_global(target, words, 3000, cfg)
    direct = rec.explore_until_stop(
        target.shape, words, cfg, n_max=3000, warm_up=rd._read_warmup(3000), confirm=rd.READ_CONFIRM
    )
    label = "?" if direct.label is None else direct.label
    assert (res.text, res.n_lines, res.correct, res.censored) == (
        label, direct.n_stop, label == "ON", direct.censored
    )
    assert (res.area_hat, res.perim_hat) == (direct.area_hat, direct.perim_hat)
    assert res.per_letter_n == [] and res.per_letter_censored == []


@pytest.mark.parametrize("kind", ["letters", "words"])
def test_calibrated_entry_i_draws_its_site_substream(kind):
    # entry i is recognition.calibrate on its own shape from substream(seed, site, i),
    # letters and words each in the arena their shape carries
    cell, cfg = 2.0, SamplerConfig(seed=5, arena_scale=1.5)
    if kind == "letters":
        names, site = sorted(rd.LETTER_MASKS), LETTER
        entries = rd.calibrate_letters(cell, 100, 3, cfg)
        shapes_ = [rd.letter_shape(c, cell) for c in names]
    else:
        names, site = ["FREEDOM", "ON", "LIFE"], WORD
        entries = rd.calibrate_words(iter(names), cell, 100, 3, cfg)
        shapes_ = [rd.word_shape(w, cell).shape for w in names]
    assert [e.name for e in entries] == names
    for i, (name, shape, entry) in enumerate(zip(names, shapes_, entries)):
        sub = dataclasses.replace(cfg, seed=substream(cfg.seed, site, i))
        assert entry == rec.calibrate(shape, 100, 3, sub, name=name)


def test_calibrate_words_keeps_one_word_shape_at_a_time():
    # each word's shape and compiled kernel are freed before the next word is
    # built, so the peak does not grow with the number of words
    words, cfg = rd.default_word_list(), SamplerConfig(seed=1)
    rd.calibrate_words(words[:1], m_lines=100, replicates=2, config=cfg)
    peaks = []
    for n in (5, 20):
        tracemalloc.start()
        try:
            rd.calibrate_words(words[:n], m_lines=100, replicates=2, config=cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_substream_sites_draw_distinct_streams(monkeypatch, letter_dict):
    # one call of every site that draws substreams, all from seed 3:
    # convergence replicates, read slots, letter and word entries. No two of
    # their streams agree, and none is the plain seed's. An explore that
    # runs on every CPU draws the seed's one stream, no substream.
    firsts = []

    def spy(seed, *key):
        stream = substream(seed, *key)
        firsts.append(np.random.default_rng(stream).random())
        return stream

    monkeypatch.setattr(ex, "substream", spy)
    monkeypatch.setattr(rd, "substream", spy)
    cfg = SamplerConfig(seed=3)
    ex.explore(shapes.disk(), ex.POOL_LINES, cfg, n_batches=10)
    ex.convergence_series(shapes.disk(), [50, 100], 3, cfg)
    rd.read_local(rd.word_shape("FREEDOM", 1.0), letter_dict, 300, cfg)
    rd.calibrate_letters(m_lines=100, replicates=2, config=cfg)
    rd.calibrate_words(["FREEDOM", "GENERATIONS"], m_lines=100, replicates=2, config=cfg)
    assert len(firsts) == 3 + 7 + 26 + 2
    assert len(set(firsts + [np.random.default_rng(3).random()])) == len(firsts) + 1


def test_substream_seeded_config_seeds_every_site(letter_dict):
    # a seed that is already a substream is keyed further, as SeedSequence.spawn does
    assert np.array_equal(
        np.random.default_rng(substream(substream(3, 1), 2)).random(8),
        np.random.default_rng(substream(3, 1, 2)).random(8),
    )
    cfg = SamplerConfig(seed=substream(3, 1, 2))
    rd.calibrate_letters(m_lines=100, replicates=2, config=cfg)
    rd.calibrate_words(["ON", "IN"], m_lines=100, replicates=2, config=cfg)
    rd.read_local(rd.word_shape("ON", 1.0), letter_dict, 300, cfg)
    ex.convergence_series(shapes.disk(), [50, 100], 2, cfg)
    ex.explore(shapes.disk(), ex.POOL_LINES, cfg, n_batches=10)


def test_letter_stop_estimates_equal_one_draw_prefix(letter_dict):
    # the read-style warm-up sizes the first draw; the estimates at the stop
    # are still those of the letter's first n_stop lines
    letter = rd.letter_shape("E", 1.0)
    for seed in range(5):
        cfg = SamplerConfig(seed=seed)
        res = rec.explore_until_stop(
            letter,
            letter_dict,
            cfg,
            n_max=3000,
            warm_up=rd._read_warmup(3000),
            confirm=rd.READ_CONFIRM,
        )
        sums = record_sums(letter, res.n_stop, cfg)
        assert (res.area_hat, res.perim_hat) == area_perimeter(*(s[-1] for s in sums))


def test_read_local_freedom(letter_dict):
    target = rd.word_shape("FREEDOM", 1.0)
    ok = 0
    for seed in range(8):
        res = rd.read_local(target, letter_dict, 30_000 // 7, SamplerConfig(seed=seed))
        ok += res.text == "FREEDOM"
    assert ok >= 7


def test_read_global_anagram_dictionary_warns():
    entries = [
        rec.DictEntry("ON", 10.0, 5.0, 1.0, 1.0),
        rec.DictEntry("NO", 10.0, 5.0, 1.0, 1.0),
    ]
    target = rd.word_shape("ON", 1.0)
    with pytest.warns(UserWarning, match="anagram"):
        res = rd.read_global(target, entries, 500, SamplerConfig(seed=2))
    assert res.censored  # posterior is pinned at 1/2 between the twins


def _count_builds(monkeypatch):
    """Shapes passed to each CompiledShape build and bounding_circle call, in order."""
    from chordscan import batch, sampling

    compiled, circled = [], []
    compile_shape, circle = batch.CompiledShape.__init__, sampling.bounding_circle

    def counting_compile(self, shape):
        compiled.append(shape)
        compile_shape(self, shape)

    def counting_circle(shape):
        circled.append(shape)
        return circle(shape)

    monkeypatch.setattr(batch.CompiledShape, "__init__", counting_compile)
    monkeypatch.setattr(sampling, "bounding_circle", counting_circle)
    return compiled, circled


def test_read_local_after_calibration_builds_nothing(monkeypatch):
    # calibrate_letters compiles each cached letter at its cell; a local read
    # at that cell explores those letters, in the letter arena
    cell = 1.7
    entries = rd.calibrate_letters(cell, 100, 2, SamplerConfig(seed=2))
    compiled, circled = _count_builds(monkeypatch)
    first = rd.read_local(rd.word_shape("FREEDOM", cell), entries, 300, SamplerConfig(seed=5))
    second = rd.read_local(rd.word_shape("FREEDOM", cell), entries, 300, SamplerConfig(seed=5))
    assert compiled == [] and circled == []
    assert first == second


def test_read_local_compiles_a_repeated_letter_once(monkeypatch, letter_dict):
    # with nothing calibrated at the cell, both slots of EE explore the one
    # cached E, compiled once
    cell = 2.9
    compiled, circled = _count_builds(monkeypatch)
    rd.read_local(rd.word_shape("EE", cell), letter_dict, 300, SamplerConfig(seed=5))
    assert [id(s) for s in compiled] == [id(rd.letter_shape("E", cell))]
    assert circled == []


def test_read_global_compiles_and_circles_the_word_once(monkeypatch):
    compiled, circled = _count_builds(monkeypatch)
    target = rd.word_shape("ON", 1.0)
    entries = [
        rec.DictEntry("ON", 36.0, 22.0, 30.0, 20.0),
        rec.DictEntry("IT", 30.0, 12.0, 30.0, 20.0),
    ]
    first = rd.read_global(target, entries, 300, SamplerConfig(seed=5))
    second = rd.read_global(target, entries, 300, SamplerConfig(seed=5))
    assert [id(s) for s in compiled] == [id(target.shape)]
    assert [id(s) for s in circled] == [id(target.shape)]
    assert first == second


def test_letter_arena_is_the_cell_box_circle():
    # every letter carries the circle through the corners of its 3 x 5 cell
    # box at the origin, whatever its outline; arena_for scales it, bit for
    # bit the box formula, and it covers the letter
    for cell in (1.0, 0.37):
        w, h = 3 * cell, 5 * cell
        for scale in (1.2, 1.5):
            want = ArenaCircle(Point(w / 2, h / 2), math.hypot(w, h) / 2 * scale)
            for c in rd.LETTER_MASKS:
                letter = rd.letter_shape(c, cell)
                assert arena_for(letter, scale) == want, (c, cell, scale)
                coords = np.vstack([r.coords for r in letter.rings])
                assert coords.min() >= 0.0 and np.all(coords <= (w, h))
                reach = np.hypot(coords[:, 0] - w / 2, coords[:, 1] - h / 2)
                assert reach.max() <= math.hypot(w, h) / 2 * (1 + 1e-15)


def test_transformed_letter_gets_its_own_bounding_circle():
    # a moved copy of a letter carries nothing cached: its arena is its own
    # minimal enclosing circle, for I much smaller than the cell box's
    letter = rd.letter_shape("I", 1.0)
    moved = transform(letter, RigidTransform(rotation=0.3, translation=Point(4.0, -2.0)))
    center, radius = bounding_circle(moved)
    assert arena_for(moved, 1.2) == ArenaCircle(center, radius * 1.2)
    assert radius == pytest.approx(math.hypot(1.0, 5.0) / 2, rel=1e-12)
    assert arena_for(letter, 1.2).radius == pytest.approx(math.hypot(3.0, 5.0) / 2 * 1.2, rel=1e-15)


def test_parallel_workers_explore_a_letter_in_its_arena(monkeypatch):
    # an explore of POOL_LINES lines on two CPUs: the forked child draws the
    # lines explore draws in the cell box's circle, the histogram spans that
    # circle's diameter, and every slot is as one process's loop leaves it
    letter, cfg = rd.letter_shape("I", 1.0), SamplerConfig(seed=12)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    got = ex.explore(letter, ex.POOL_LINES, cfg)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 1)
    want = ex.explore(letter, ex.POOL_LINES, cfg)
    assert got.l_cap == pytest.approx(math.hypot(3.0, 5.0) * 1.2, rel=1e-15)
    for field in ("l_cap", "sum_L1", "sum_L3", "chord_count", "rejected"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("batch", "hist"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_local_word_error_grows_like_sqrt_letters(letter_dict):
    # at a fixed per-letter line count, the spread of the summed word area
    # over seeds is about sqrt(n_letters) times one letter's spread
    word = "FREEDOM"
    target = rd.word_shape(word, 1.0)
    single = rd.word_shape("F", 1.0)
    n_per_letter = 400
    word_sums, singles = [], []
    for seed in range(24):
        cfg = SamplerConfig(seed=100 + seed)
        # no posterior reaches 1 in 400 lines, so every letter uses the full budget
        rw = rd.read_local(target, letter_dict, n_per_letter, cfg, threshold=1.0)
        rs = rd.read_local(single, letter_dict, n_per_letter, cfg, threshold=1.0)
        assert rw.per_letter_n + rs.per_letter_n == [n_per_letter] * (len(word) + 1)
        word_sums.append(rw.area_hat)
        singles.append(rs.area_hat)
    ratio = np.std(word_sums, ddof=1) / np.std(singles, ddof=1)
    assert 1.3 < ratio < 5.3  # sqrt(7) ~ 2.65, generous Monte Carlo band


def test_read_local_slots_explore_independent_lines(letter_dict):
    # two slots of the same letter must not be probed by the same lines: with
    # a shared line set, the word's area would be exactly twice one slot's
    cfg = SamplerConfig(seed=3)
    pair = rd.read_local(rd.word_shape("EE", 1.0), letter_dict, 400, cfg, threshold=1.0)
    one = rd.read_local(rd.word_shape("E", 1.0), letter_dict, 400, cfg, threshold=1.0)
    assert pair.per_letter_n + one.per_letter_n == [400] * 3
    assert abs(pair.area_hat - 2.0 * one.area_hat) > 1e-3
