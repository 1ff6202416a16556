"""Spans and counters for the traced run, recorded from outside the program.

`install` replaces the program's layer entry points, at the names the calling
modules look them up, with wrappers that open a span around each call and,
for some calls, count what the call returned. Spans are kept in memory as
flat arrays (name, start, end, parent span, operation id, phase) and written
out once, when the run ends. The untraced run never calls `install`.

A layer's self time is its span's duration minus the durations of its direct
children; calls in one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP, ROUND = 0, 1  # phases: the workload's set-up, or one of its rounds


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.phase_id = SETUP
        self.counts = (defaultdict(float), defaultdict(float))
        self.maxima = (defaultdict(float), defaultdict(float))
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, span: str) -> int:
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.phase.append(self.phase_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[self.phase_id][key] += value

    def peak(self, key: str, value: float) -> None:
        m = self.maxima[self.phase_id]
        m[key] = max(m[key], value)

    def patch(self, owner, attr: str, span: str | None, count=None) -> None:
        """Wrap owner.attr; a name the program no longer has is reported, not fatal."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span is None:
                out = original(*args, **kwargs)
            else:
                idx = tracer.open(span)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if count is not None:
                count(tracer, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def save(self, path, t0: float) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start) - t0,
            end=np.frombuffer(self.end) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            phase=np.frombuffer(self.phase, dtype=np.int8),
        )


def _count_segments(tracer: Tracer, args, out) -> None:
    a, b = out[0], out[1]
    tracer.add("zero_length_segments", int(np.count_nonzero(np.all(a == b, axis=1))))


def _count_observe(tracer: Tracer, args, out) -> None:
    k = out.k
    tracer.add("observe_calls", 1)
    tracer.add("observe_lines", len(k))
    tracer.add("chords", int(k.sum()))
    tracer.add("hit_lines", int(np.count_nonzero(k)))
    tracer.add("rejected_lines", int(np.count_nonzero(out.rejected)))
    if len(k):
        tracer.peak("k_max", int(k.max()))


def _count_posterior(tracer: Tracer, args, out) -> None:
    tracer.add("posterior_checks", int(np.size(args[0])))


def install(tracer: Tracer, cs) -> None:
    """Wrap the entry points of each layer; cs maps module names to modules."""
    explore, sampling = cs["explore"], cs["sampling"]
    estimators, recognition, reading = cs["estimators"], cs["recognition"], cs["reading"]
    stream = getattr(explore, "LineStream", None)
    acc = getattr(estimators, "Accumulator", None)
    p = tracer.patch
    p(explore, "sample_iur_batch", "sampling.segments")
    p(explore, "_segments_from_lines", "sampling.segments", _count_segments)
    p(explore, "billiard_segments", "sampling.segments", _count_segments)
    p(explore, "line_params_of_segments", "sampling.line_params")
    p(explore, "observe_segments", "batch.observe", _count_observe)
    p(explore, "CompiledShape", "batch.compile")
    p(explore, "bounding_circle", "geometry.bounding_circle")
    p(sampling, "bounding_circle", "geometry.bounding_circle")
    if acc is not None:
        p(acc, "ingest", "estimators.ingest")
    p(estimators, "report", "estimators.report")
    if stream is not None:
        p(stream, "__init__", "explore.stream_setup")
        p(stream, "take", "explore.take")
    p(recognition, "calibrate", "recognition.calibrate")
    p(recognition, "explore_until_stop", "recognition.explore_until_stop")
    p(recognition, "_log_likelihoods", None, _count_posterior)
    for name in ("read_local", "read_global", "calibrate_letters", "calibrate_words"):
        p(reading, name, f"reading.{name}")


# metric -> (span, statistic); "total" sums durations, "self" subtracts children
SPAN_METRICS = {
    "sampling.segments_s": ("sampling.segments", "total"),
    "sampling.line_params_s": ("sampling.line_params", "total"),
    "batch.observe_s": ("batch.observe", "total"),
    "batch.observe_calls": ("batch.observe", "calls"),
    "batch.compile_s": ("batch.compile", "total"),
    "batch.compile_calls": ("batch.compile", "calls"),
    "geometry.bounding_circle_s": ("geometry.bounding_circle", "total"),
    "geometry.bounding_circle_calls": ("geometry.bounding_circle", "calls"),
    "estimators.ingest_s": ("estimators.ingest", "total"),
    "estimators.ingest_calls": ("estimators.ingest", "calls"),
    "estimators.report_s": ("estimators.report", "total"),
    "explore.take_s": ("explore.take", "self"),
    "explore.stream_setup_s": ("explore.stream_setup", "total"),
    "explore.stream_setups": ("explore.stream_setup", "calls"),
    "recognition.calibrate_s": ("recognition.calibrate", "total"),
    "recognition.stop_loop_s": ("recognition.explore_until_stop", "self"),
    "reading.read_local_s": ("reading.read_local", "total"),
    "reading.read_global_s": ("reading.read_global", "total"),
    "reading.calibrate_letters_s": ("reading.calibrate_letters", "total"),
    "reading.calibrate_words_s": ("reading.calibrate_words", "total"),
}
# Dictionaries are calibrated in read-words' set-up; these two metrics add the
# set-up's spans to one round's. Every other metric describes one round.
WITH_SETUP = ("reading.calibrate_letters_s", "reading.calibrate_words_s")


def per_layer(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer values for one round (averaged over `rounds` traced rounds)."""
    n = len(tracer.start)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    phase = np.frombuffer(tracer.phase, dtype=np.int8)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    covered = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    stats = {"total": dur, "self": dur - covered, "calls": np.ones(n)}
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        nid = tracer._ids.get(span, -1)
        sel = name == nid
        value = float(stats[stat][sel & (phase == ROUND)].sum()) / rounds
        if metric in WITH_SETUP:
            value += float(stats[stat][sel & (phase == SETUP)].sum())
        out[metric] = value
    c = tracer.counts[ROUND]
    calls = c["observe_calls"]
    accepted = c["observe_lines"] - c["rejected_lines"]
    out.update(
        {
            "sampling.zero_length_segments": c["zero_length_segments"] / rounds,
            "batch.lines_per_call": c["observe_lines"] / calls if calls else 0.0,
            "batch.chords": c["chords"] / rounds,
            "batch.k_max": tracer.maxima[ROUND]["k_max"],
            "batch.hit_fraction": c["hit_lines"] / accepted if accepted else 0.0,
            "batch.rejected_lines": c["rejected_lines"] / rounds,
            "recognition.posterior_checks": c["posterior_checks"] / rounds,
        }
    )
    return out
