"""Command-line harness: seeded, file-driven experiments with CSV/JSON artifacts.

Every command writes a machine-readable artifact and prints a one-line
summary; identical flags and seed give byte-identical artifacts. Exit codes:
0 success, 1 runtime/estimation failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import estimators, reading, recognition, shapes, svgplot
from .explore import convergence_series, explore
from .geometry import InvalidShapeError, Shape, load_shape
from .sampling import DEFAULT_ARENA_SCALE, SAMPLER_MODES, SamplerConfig

BATCHES_HELP = "contiguous batches of lines behind the standard errors (default %(default)s)"


def _resolve_shape(spec: str) -> Shape:
    if spec in shapes.BUILTIN_NAMES:
        return shapes.builtin(spec)
    if not os.path.exists(spec):
        raise FileNotFoundError(
            f"shape {spec!r} is neither a built-in {shapes.BUILTIN_NAMES} nor a file"
        )
    return load_shape(spec)


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        mode=args.sampler,
        seed=args.seed,
        arena_scale=args.arena_scale,
    )


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _checked(kind, ok, what):
    def parse(text):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(f"{text!r} must be {what}")
        return value

    return parse


POSITIVE_INT = _checked(int, lambda v: v > 0, "positive")
POSITIVE_FLOAT = _checked(float, lambda v: v > 0, "positive")
THRESHOLD = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
ARENA_SCALE = _checked(float, lambda v: 1.0 <= v < float("inf"), "finite and at least 1")
SEED = _checked(int, lambda v: v >= 0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chordscan",
        description="Estimate area/perimeter of shapes from random line crossings, "
        "recognize them from a dictionary, and read block-letter words.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, lines_default=None):
        p.add_argument("--seed", type=SEED, default=0, help="RNG seed, non-negative (default 0)")
        p.add_argument(
            "--sampler",
            choices=sorted(SAMPLER_MODES),
            default="iur",
            help="line generator (default iur)",
        )
        p.add_argument(
            "--arena-scale",
            type=ARENA_SCALE,
            default=DEFAULT_ARENA_SCALE,
            help="arena radius / bounding radius, at least 1; for letters, of the cell box's "
            "circle (default 1.2)",
        )
        if lines_default is not None:
            p.add_argument(
                "--lines",
                type=POSITIVE_INT,
                default=lines_default,
                help=f"number of exploration lines (default {lines_default})",
            )

    p = sub.add_parser("estimate", help="estimate area and perimeter of one shape")
    p.add_argument("--shape", required=True, help="built-in name or shape JSON path")
    common(p, lines_default=10_000)
    p.add_argument(
        "--batches", type=POSITIVE_INT, default=estimators.DEFAULT_BATCHES, help=BATCHES_HELP
    )
    p.add_argument("--out", default="report.json")
    p.add_argument("--dump-observations", default=None, metavar="PATH")

    p = sub.add_parser(
        "calibrate", help="build dictionary entries from one stream of lines x replicates lines"
    )
    p.add_argument("--shape", action="append", required=True, help="repeatable")
    common(p, lines_default=1_000)
    p.add_argument("--replicates", type=POSITIVE_INT, default=50)
    p.add_argument("--out", default="dictionary.json")

    p = sub.add_parser("classify", help="explore a shape and classify it")
    p.add_argument("--shape", required=True)
    p.add_argument("--dict", required=True, dest="dict_path")
    common(p, lines_default=1_000)
    p.add_argument(
        "--batches", type=POSITIVE_INT, default=estimators.DEFAULT_BATCHES, help=BATCHES_HELP
    )
    p.add_argument("--threshold", type=THRESHOLD, default=0.95)
    p.add_argument("--out", default="posterior.json")

    p = sub.add_parser("landscape", help="classification map over the (P, A) plane")
    p.add_argument("--dict", required=True, dest="dict_path")
    common(p, lines_default=1_000)
    p.add_argument(
        "--grid",
        default="60",
        help="RES or PMIN:PMAX:AMIN:AMAX:RES (default auto range, 60 cells)",
    )
    p.add_argument("--threshold", type=THRESHOLD, default=0.95)
    p.add_argument("--out", default="landscape.csv")
    p.add_argument("--svg", default=None)

    p = sub.add_parser("converge", help="replicate spread of the estimates vs N")
    p.add_argument("--shape", required=True)
    common(p)
    p.add_argument("--replicates", type=POSITIVE_INT, default=100)
    p.add_argument("--grid", default="100,1000,10000", help="comma list of N values")
    p.add_argument("--out", default="convergence.csv")

    p = sub.add_parser("read", help="read a block-letter word")
    p.add_argument("--word", required=True)
    p.add_argument("--strategy", choices=("local", "global"), default="global")
    p.add_argument("--dict", required=True, dest="dict_path")
    common(p, lines_default=30_000)
    p.add_argument("--threshold", type=THRESHOLD, default=0.95)
    p.add_argument("--cell", type=POSITIVE_FLOAT, default=1.0)
    p.add_argument("--out", default="read.json")

    p = sub.add_parser("letters", help="dump the block alphabet's exact values")
    p.add_argument("--cell", type=POSITIVE_FLOAT, default=1.0)
    p.add_argument("--out", default="letters.csv")
    p.add_argument("--svg", default=None)
    return ap


def _cmd_estimate(args) -> int:
    shape = _resolve_shape(args.shape)
    config = _sampler_config(args)
    dump_rows = [] if args.dump_observations else None
    acc = explore(shape, args.lines, config, n_batches=args.batches, dump_rows=dump_rows)
    rep = estimators.report(acc)
    _write_json(rep.to_dict(), args.out)
    if dump_rows is not None:
        _write_csv(
            args.dump_observations,
            ("theta", "p", "k", "L1", "L3", "chords"),
            dump_rows,
        )
    print(
        f"estimate: {shape.name or args.shape}: N={rep.n_lines} "
        f"A={rep.area_hat:.6g} (+-{rep.stderr_a:.2g}) "
        f"P={rep.perim_hat:.6g} (+-{rep.stderr_p:.2g}) -> {args.out}"
    )
    return 0


def _cmd_calibrate(args) -> int:
    config = _sampler_config(args)
    entries = []
    for spec in args.shape:
        shape = _resolve_shape(spec)
        entries.append(
            recognition.calibrate(
                shape, args.lines, args.replicates, config, name=shape.name or spec
            )
        )
    recognition.save_dictionary(entries, args.out)
    print(
        f"calibrate: {len(entries)} entries at M={args.lines}, "
        f"R={args.replicates} -> {args.out}"
    )
    return 0


def _cmd_classify(args) -> int:
    shape = _resolve_shape(args.shape)
    entries = recognition.load_dictionary(args.dict_path)
    config = _sampler_config(args)
    acc = explore(shape, args.lines, config, n_batches=args.batches)
    rep = estimators.report(acc)
    post = recognition.classify(rep, entries)
    stop = recognition.should_stop(post, args.threshold)
    _write_json(
        {
            "report": rep.to_dict(),
            "probs": post.probs,
            "top": post.top,
            "top_prob": post.top_prob,
            "threshold": args.threshold,
            "should_stop": stop,
        },
        args.out,
    )
    print(
        f"classify: top={post.top} prob={post.top_prob:.4f} "
        f"stop={'yes' if stop else 'no'} -> {args.out}"
    )
    return 0


def _cmd_landscape(args) -> int:
    entries = recognition.load_dictionary(args.dict_path)
    parts = args.grid.split(":")
    if len(parts) == 1:
        grid = recognition.landscape(
            entries, args.lines, resolution=int(parts[0]), threshold=args.threshold
        )
    elif len(parts) == 5:
        pmin, pmax, amin, amax = map(float, parts[:4])
        res = int(parts[4])
        grid = recognition.landscape(
            entries,
            args.lines,
            p_axis=np.linspace(pmin, pmax, res),
            a_axis=np.linspace(amin, amax, res),
            threshold=args.threshold,
        )
    else:
        raise ValueError("--grid must be RES or PMIN:PMAX:AMIN:AMAX:RES")
    rows = [
        (p, a, grid.labels[i][j] or "")
        for i, p in enumerate(grid.p_axis)
        for j, a in enumerate(grid.a_axis)
    ]
    _write_csv(args.out, ("p", "a", "label"), rows)
    if args.svg:
        svgplot.landscape_svg(grid, args.svg)
        svgplot.dictionary_svg(entries, args.lines, args.svg + ".entries.svg")
    labeled = sum(1 for r in rows if r[2])
    print(
        f"landscape: {len(rows)} cells, {labeled} labeled at N={args.lines} -> {args.out}"
    )
    return 0


def _cmd_converge(args) -> int:
    shape = _resolve_shape(args.shape)
    config = _sampler_config(args)
    n_grid = [int(x) for x in args.grid.split(",") if x]
    series = convergence_series(shape, n_grid, args.replicates, config)
    _write_csv(
        args.out,
        ("N", "sigma_A", "sigma_P"),
        list(zip(series.n_values.astype(int), series.sigma_a, series.sigma_p)),
    )
    print(
        f"converge: {shape.name or args.shape}: exponents "
        f"A={series.exponent_a:.3f} P={series.exponent_p:.3f}, prefactors "
        f"A={series.sigma0_a:.3g} P={series.sigma0_p:.3g} -> {args.out}"
    )
    return 0


def _cmd_read(args) -> int:
    entries = recognition.load_dictionary(args.dict_path)
    config = _sampler_config(args)
    target = reading.word_shape(args.word, args.cell)
    if args.strategy == "global":
        res = reading.read_global(
            target, entries, args.lines, config, threshold=args.threshold
        )
    else:
        per_letter = max(1, args.lines // len(args.word))
        res = reading.read_local(
            target, entries, per_letter, config, threshold=args.threshold
        )
    _write_json(
        {
            "word": args.word,
            "strategy": args.strategy,
            "text": res.text,
            "n_lines": res.n_lines,
            "correct": res.correct,
            "censored": res.censored,
            "area_hat": res.area_hat,
            "perim_hat": res.perim_hat,
            "per_letter_n": res.per_letter_n,
            "per_letter_censored": res.per_letter_censored,
        },
        args.out,
    )
    if res.censored:
        slots = [f"slot {i} ({args.word[i]})" for i, c in enumerate(res.per_letter_censored) if c]
        what = ", ".join(slots) or "the word"
        print(f"read: censored: {what} did not clear the threshold", file=sys.stderr)
    print(res.text)
    return 0


def _cmd_letters(args) -> int:
    alphabet = reading.Alphabet(args.cell)
    rows = [
        (c, a / args.cell**2, p / args.cell)
        for c, (a, p) in sorted(alphabet.table.items())
    ]
    _write_csv(args.out, ("letter", "area_cells", "perimeter_cells"), rows)
    if args.svg:
        svgplot.letters_svg(alphabet.table, args.cell, args.svg)
    print(
        f"letters: 26 glyphs, min (A/s^2, P/s) separation "
        f"{alphabet.min_separation():.3g}, collisions={len(alphabet.collisions)} "
        f"-> {args.out}"
    )
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
    "classify": _cmd_classify,
    "landscape": _cmd_landscape,
    "converge": _cmd_converge,
    "read": _cmd_read,
    "letters": _cmd_letters,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        InvalidShapeError,
        estimators.InsufficientDataError,
        FileNotFoundError,
        KeyError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print(f"chordscan {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
