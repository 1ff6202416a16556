"""chordscan benchmark: runs one workload in this process and reports on it.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Workloads are defined in workloads.py. A run imports the program and sets
the workload up wl.SETUP_REPEATS times (the first import is this process's own,
the others are timed in fresh interpreters), then repeats whole passes over
the workload's rounds while one more pass still fits in --seconds (at least
one pass). Operation and set-up times are scaled to the nominal speed of
reference kernels timed around them (pace.py), which takes out the shared
machine's drift in speed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones from
tracing.py, and the spans are written to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("shapes", "sampling", "estimators", "explore", "recognition", "reading")
SETUP_PACE = "small"  # imports and set-ups are interpreted Python and short explorations

# name -> unit; BENCHMARK.json lists the same metrics (test_perfbench.py checks)
END_TO_END = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "lines_per_op": "lines",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sampling.segments_s": "s",
    "sampling.line_params_s": "s",
    "sampling.zero_length_segments": "count",
    "batch.observe_s": "s",
    "batch.observe_calls": "count",
    "batch.lines_per_call": "lines",
    "batch.chords": "count",
    "batch.k_max": "count",
    "batch.hit_fraction": "fraction",
    "batch.rejected_lines": "count",
    "batch.compile_s": "s",
    "batch.compile_calls": "count",
    "geometry.bounding_circle_s": "s",
    "geometry.bounding_circle_calls": "count",
    "estimators.ingest_s": "s",
    "estimators.ingest_calls": "count",
    "estimators.report_s": "s",
    "explore.take_s": "s",
    "explore.stream_setup_s": "s",
    "explore.stream_setups": "count",
    "recognition.calibrate_s": "s",
    "recognition.stop_loop_s": "s",
    "recognition.posterior_checks": "count",
    "reading.read_local_s": "s",
    "reading.read_global_s": "s",
    "reading.calibrate_letters_s": "s",
    "reading.calibrate_words_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("bulk", "replicates", "read-words"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def import_program() -> dict:
    """The chordscan modules of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        cs = {m: importlib.import_module(f"chordscan.{m}") for m in MODULES}
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import chordscan from {SRC}: {exc}")
    if SRC.resolve() not in Path(cs["explore"].__file__).resolve().parents:
        raise SystemExit(f"perfbench: chordscan was imported from {cs['explore'].__file__}, not {SRC}")
    return cs


def fresh_import_s() -> float:
    """Time to import the program's modules in a new interpreter."""
    code = (
        f"import sys, time; t = time.perf_counter(); sys.path.insert(0, {str(SRC)!r}); "
        + "".join(f"import chordscan.{m}; " for m in MODULES)
        + "print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def run_pass(wl, records: list, tracer=None) -> float:
    """Rounds 0 .. wl.ROUNDS-1; returns the time the operations took.

    Each operation runs between two runs of its reference kernel, which give
    the machine's speed at that moment (see pace.py).
    """
    from workloads import Record

    total = 0.0
    last = (None, 0.0)  # the kernel timed after the previous operation
    for rnd in range(wl.ROUNDS):
        for j, op in enumerate(wl.ops(rnd)):
            before = last[1] if last[0] == op.pace else pace.time_kernel(op.pace)
            if tracer is not None:
                tracer.op_id += 1
                span = tracer.open(f"op.{op.kind}")
            t = time.perf_counter()
            out = op.call()
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.close(span)
            last = (op.pace, pace.time_kernel(op.pace))
            adjusted = pace.adjust(dt, op.pace, before, last[1])
            lines, problems = op.check(out)
            records.append(Record(op.kind, (rnd, j), dt, adjusted, lines, problems, op.in_metrics))
            total += dt
    return total


def timed_passes(seconds: float):
    """Yield once per pass: always once, then while one more pass as long as
    the longest so far still ends within `seconds`."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        yield
        now = time.perf_counter()
        longest = max(longest, now - t)
        if now - start + longest > seconds:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def end_to_end(records: list, setup_s: float) -> dict:
    """Metrics from each operation's median adjusted time over the passes.

    Adjusted times (pace.py) remove the machine's drift in speed; the median
    over passes removes what is left of short bursts. A workload mixes kinds
    of operation in fixed proportion, and a percentile of pooled times can
    land between two kinds and jump from one to the other, so each kind gets
    its own percentile and op_p50_ms / op_p90_ms are their geometric means.
    """
    by_key: dict = {}
    for r in records:
        if r.in_metrics:
            by_key.setdefault(r.key, []).append(r)
    times: dict[str, list[float]] = {}
    lines = seconds = 0.0
    for rs in by_key.values():
        t = statistics.median(r.adjusted for r in rs)
        times.setdefault(rs[0].kind, []).append(t)
        lines += rs[0].lines
        seconds += t
    n_ops = len(by_key)
    return {
        "setup_s": setup_s,
        "lines_per_s": lines / seconds,
        "op_p50_ms": 1e3 * statistics.geometric_mean([float(np.percentile(v, 50)) for v in times.values()]),
        "op_p90_ms": 1e3 * statistics.geometric_mean([float(np.percentile(v, 90)) for v in times.values()]),
        "lines_per_op": lines / n_ops,
        "peak_rss_mb": peak_rss_mb(),
    }


def untraced(wl, seconds: float, import_s: float) -> tuple[list, dict]:
    setups = []
    for i in range(wl.SETUP_REPEATS):
        before = pace.time_kernel(SETUP_PACE)
        imp = import_s if i == 0 else fresh_import_s()
        t = time.perf_counter()
        wl.setup()
        took = imp + time.perf_counter() - t
        setups.append(pace.adjust(took, SETUP_PACE, before, pace.time_kernel(SETUP_PACE)))
    wl.references()
    records: list = []
    for _ in timed_passes(seconds):
        run_pass(wl, records)
    return records, end_to_end(records, statistics.median(setups))


def traced(wl, cs, seconds: float, name: str, seed: int) -> tuple[list, dict]:
    """Passes alternately without and with wrappers until the time is up.

    Every pass does the same work, so per-round values, counts included,
    repeat exactly from one run of a given seed to the next. The set-up is
    traced once. The overhead compares the best pass of each kind.
    """
    from tracing import ROUND, Tracer, install, per_layer

    tracer = Tracer()
    install(tracer, cs)
    wl.setup()
    tracer.uninstall()
    wl.references()
    tracer.phase_id = ROUND
    records: list = []
    plain, passes = [], []
    for _ in timed_passes(seconds):
        plain.append(run_pass(wl, records))
        install(tracer, cs)
        passes.append(run_pass(wl, records, tracer))
        tracer.uninstall()
    for missing in sorted(set(tracer.missing)):
        print(f"perfbench: not traced, the program has no {missing}", file=sys.stderr)
    metrics = per_layer(tracer, len(passes) * wl.ROUNDS)
    metrics["trace.overhead_pct"] = 100.0 * (min(passes) / min(plain) - 1.0)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}-seed{seed}.npz", T_START)
    return records, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cs = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](cs, args.seed)
    if args.trace:
        records, metrics = traced(wl, cs, args.seconds, args.workload, args.seed)
        units = PER_LAYER
    else:
        records, metrics = untraced(wl, args.seconds, import_s)
        units = END_TO_END
    run_problems = wl.problems + wl.run_checks()
    failed = [r for r in records if r.problems]
    shown = set()
    for r in failed:
        if r.kind not in shown:
            shown.add(r.kind)
            print(f"FAILED {r.kind}: {'; '.join(r.problems)}")
    for p in run_problems:
        print(f"CHECK {p}")
    print(f"{args.workload}: attempted {len(records)} operations, {len(failed)} failed")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")
    speed = statistics.median(r.adjusted / r.seconds for r in records)
    print(f"  (operations ran at {speed:.3g} of the reference kernels' nominal speed)")
    result = {
        "correct": not run_problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
