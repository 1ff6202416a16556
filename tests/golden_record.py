"""A golden record of seeded estimates, stops and reads, and its generator.

    PYTHONPATH=src python3 tests/golden_record.py          # write the record
    PYTHONPATH=src python3 tests/golden_record.py --check  # compare with it

writes golden_record.json next to this file from the chordscan on the path,
or compares the chordscan on the path with it and exits 1 on a mismatch.
Integers, booleans and labels compare exactly; floats, stored as float.hex,
bit for bit in test_golden_record on the platform the file names and within
a relative REL_TOL elsewhere, and always within REL_TOL under --check, which
needs numpy only: a build of numpy may fuse the kernel's complex multiply
and differ in the last bits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from chordscan import batch, estimators, reading, recognition, shapes
from chordscan.explore import convergence_series, explore
from chordscan.sampling import SamplerConfig, arena_for, billiard_lines
from dictionaries import calibrated_builtins, calibrated_letters

PATH = Path(__file__).with_name("golden_record.json")
REL_TOL = 1e-12
RECOGNIZE_SEEDS = range(60)
RECOGNIZE_N_MAX = 20_000
STOP_CASES = {
    "threshold-0": dict(threshold=0.0, n_max=3000),
    "0.95": dict(threshold=0.95, n_max=3000),
    "0.99-confirm-7": dict(threshold=0.99, confirm=7, n_max=3000),
    "censored": dict(threshold=0.9999, confirm=30, n_max=250),
}
READ_WORDS = ("FREEDOM", "GENERATIONS")
WORD_LIST = ("FREEDOM", "GENERATIONS", "PEOPLES", "NATIONS", "DETERMINED")
SAMPLERS = ("iur", "billiard-cos")
EXPLORE_LINES = 3000
# the built-ins explored at a 1e-2 vertex band, rejection counts recorded
REJECTING_SHAPES = ("disk", "square", "triangle", "annulus")
# a replicate takes its 20,000 lines in two takes (explore.DEFAULT_CHUNK)
CONVERGE_GRID = (500, 5000, 20_000)
BILLIARD_LINES = 64


def platform_tag() -> dict:
    """What float results may depend on: the machine, its OS and numpy."""
    return {"machine": platform.machine(), "system": platform.system(), "numpy": np.__version__}


def encode(x):
    """x as JSON values, every float as its float.hex string."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, (np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return encode(x.tolist())
    return x


def _is_hex(x) -> bool:
    return isinstance(x, str) and (x.lstrip("-").startswith("0x") or x.lstrip("-") in ("inf", "nan"))


def same(got, want, exact: bool) -> bool:
    """got equals want, floats bit for bit if exact, else within REL_TOL."""
    if _is_hex(got) and _is_hex(want) and not exact:
        a, b = float.fromhex(got), float.fromhex(want)
        return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(same(g, w, exact) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def mismatches(got: dict, want: dict, exact: bool) -> list[str]:
    """The keys whose records differ: every key if the two list different keys."""
    if list(got) != list(want):
        return list(dict.fromkeys([*want, *got]))
    return [k for k in want if not same(got[k], want[k], exact)]


def records(builtins, letters) -> dict:
    """The recorded outputs, from the shared built-in and letter dictionaries."""
    out = {
        "builtin_dictionary": [dataclasses.astuple(e) for e in builtins],
        "letter_dictionary": [dataclasses.astuple(e) for e in letters],
    }
    bulk = {name: shapes.builtin(name) for name in shapes.BUILTIN_NAMES}
    bulk.update((word, reading.word_shape(word, 1.0).shape) for word in READ_WORDS)
    for name, shape in bulk.items():
        for mode in SAMPLERS:
            acc = explore(shape, EXPLORE_LINES, SamplerConfig(mode=mode, seed=5))
            out[f"explore/{name}/{mode}"] = dataclasses.astuple(estimators.report(acc))
    series = convergence_series(
        shapes.builtin("statue"), CONVERGE_GRID, 3, SamplerConfig(mode="billiard-cos", seed=6)
    )
    out["convergence_series/statue/billiard-cos"] = dataclasses.astuple(series)
    arena = arena_for(shapes.builtin("statue"))
    for mode in ("billiard-cos", "billiard-uni"):
        rng = np.random.default_rng(8)
        theta, p, state = billiard_lines(rng, arena, BILLIARD_LINES, mode)
        out[f"billiard_lines/{mode}/fresh"] = [theta, p, dataclasses.astuple(state)]
        theta, p, state = billiard_lines(rng, arena, BILLIARD_LINES, mode, state)
        out[f"billiard_lines/{mode}/resumed"] = [theta, p, dataclasses.astuple(state)]
    for name in shapes.BUILTIN_NAMES:
        for mode in SAMPLERS:
            study = recognition.lines_to_recognize(
                shapes.builtin(name), builtins, RECOGNIZE_SEEDS, SamplerConfig(mode=mode),
                n_max=RECOGNIZE_N_MAX,
            )
            out[f"lines_to_recognize/{name}/{mode}"] = [
                study.stop_n.tolist(), study.censored.tolist(), study.labels
            ]
    slots = [(shapes.builtin(name), SamplerConfig(seed=s)) for name in shapes.BUILTIN_NAMES for s in range(4)]
    for case, kw in STOP_CASES.items():
        results = recognition.explore_slots_until_stop(slots, builtins, **kw)
        out[f"explore_slots_until_stop/{case}"] = [dataclasses.astuple(r) for r in results]
    # a 1e-2 vertex band rejects up to 40% of the lines: each report counts
    # its rejections, and slots refill
    tol, batch.ONLINE_TOL = batch.ONLINE_TOL, 1e-2
    try:
        for name in REJECTING_SHAPES:
            for mode in SAMPLERS:
                acc = explore(shapes.builtin(name), EXPLORE_LINES, SamplerConfig(mode=mode, seed=5))
                out[f"explore/{name}/{mode}/rejecting"] = dataclasses.astuple(estimators.report(acc))
        fresh = [(shapes.builtin(shape.name), cfg) for shape, cfg in slots]
        results = recognition.explore_slots_until_stop(fresh, builtins, threshold=0.99, confirm=7)
    finally:
        batch.ONLINE_TOL = tol
    out["explore_slots_until_stop/rejecting"] = [dataclasses.astuple(r) for r in results]
    words = reading.calibrate_words(WORD_LIST, m_lines=300, replicates=10, config=SamplerConfig(seed=7))
    out["word_dictionary"] = [dataclasses.astuple(e) for e in words]
    for word in READ_WORDS:
        target = reading.word_shape(word, 1.0)
        for seed in range(3):
            cfg = SamplerConfig(seed=seed)
            local = reading.read_local(target, letters, 4000, cfg)
            out[f"read_local/{word}/{seed}"] = dataclasses.astuple(local)
            whole = reading.read_global(target, words, 30_000, cfg)
            out[f"read_global/{word}/{seed}"] = dataclasses.astuple(whole)
        # a budget too small for some letters to stop
        out[f"read_local/{word}/censored"] = dataclasses.astuple(
            reading.read_local(target, letters, 300, SamplerConfig(seed=3))
        )
    return encode(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Write the golden record, or check against it.")
    ap.add_argument("--check", action="store_true", help="compare within REL_TOL; exit 1 on a mismatch")
    args = ap.parse_args(argv)
    got = records(calibrated_builtins(), calibrated_letters())
    if args.check:
        bad = mismatches(got, json.loads(PATH.read_text())["records"], exact=False)
        print(f"golden record: {len(bad)} of {len(got)} records differ {bad}")
        return 1 if bad else 0
    # one record a line
    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in got.items())
    PATH.write_text(f'{{"platform": {json.dumps(platform_tag())},\n"records": {{\n{body}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
