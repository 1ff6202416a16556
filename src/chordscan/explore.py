"""Drivers that turn a sampler and a shape into accumulated observations.

LineStream produces accepted line statistics in sampling order, as
batch.BatchObservations records, transparently resampling the (measure-zero)
degenerate lines and counting them. Its lines are fixed by its shape, which
carries its arena circle, and its SamplerConfig, whose seed is the only randomness.
Everything else - one-shot estimates, convergence studies that read its
running sums one take at a time, parallel workers - is built on top of it.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np

from . import estimators
from .batch import BatchObservations, CompiledShape, observe_segments
from .geometry import Shape
from .sampling import (
    REPLICATE,
    WORKER,
    BilliardState,
    SamplerConfig,
    arena_for,
    billiard_lines,
    sample_iur_batch,
    substream,
)

DEFAULT_CHUNK = 16384


class LineStream:
    """Seeded stream of accepted line observations for one shape."""

    def __init__(self, shape: Shape, config: SamplerConfig | None = None):
        self.config = config or SamplerConfig()
        self.cshape = shape.derived("kernel", CompiledShape)
        self.arena = arena_for(shape, self.config.arena_scale)
        self.rng = np.random.default_rng(self.config.seed)
        self._billiard_state: BilliardState | None = None
        self.rejected_total = 0
        self._totals = (0.0, 0.0, 0)  # L1, L3, k over the lines running_sums_all summed

    def _lines(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next n lines (theta, p), p measured from the arena's centre."""
        if self.config.mode == "iur":
            return sample_iur_batch(self.rng, self.arena, n)
        theta, p, self._billiard_state = billiard_lines(
            self.rng, self.arena, n, self.config.mode, self._billiard_state
        )
        return theta, p

    def take(self, n: int) -> BatchObservations:
        """Exactly n accepted lines; degenerate ones are resampled and counted.

        The one-stream case of take_all.
        """
        return take_all([self], [n])[0]


def take_all(streams: list[LineStream], sizes: list[int]) -> list[BatchObservations]:
    """Exactly sizes[i] accepted lines from streams[i], each as its own take.

    The streams refill in rounds: each stream short of lines draws as many as
    it misses, at most DEFAULT_CHUNK, and its degenerate lines are counted
    and drawn again in the next round. A round's draws are observed together,
    in observe_segments calls of whole draws that hold at most DEFAULT_CHUNK
    lines.
    """
    parts: list[list[BatchObservations]] = [[] for _ in streams]
    missing = list(sizes)
    while any(n > 0 for n in missing):
        draws = [
            (i, *streams[i]._lines(min(n, DEFAULT_CHUNK))) for i, n in enumerate(missing) if n > 0
        ]
        calls, size = [[]], 0
        for draw in draws:
            if size + draw[1].size > DEFAULT_CHUNK:
                calls.append([])
                size = 0
            calls[-1].append(draw)
            size += draw[1].size
        for call in calls:
            bobs = observe_segments(
                [streams[i].cshape for i, _, _ in call],
                [theta for _, theta, _ in call],
                [p for _, _, p in call],
                [streams[i].arena.center for i, _, _ in call],
            )
            for (i, theta, _), part in zip(call, bobs.split([theta.size for _, theta, _ in call])):
                streams[i].rejected_total += int(np.count_nonzero(part.rejected))
                parts[i].append(part.accepted())
                missing[i] -= len(parts[i][-1])
    return [BatchObservations.concatenate(p) for p in parts]


def running_sums_all(
    streams: list[LineStream], sizes: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The running totals (L1, L3, k) of streams[i] after each of its next
    sizes[i] lines, stream after stream, the lines taken by one take_all.

    Each stream's totals carry on from its last call (sequential sums seeded
    with its last total), so a prefix's sums do not depend on how calls split
    the stream; lines drawn by take() are not counted. Row i of a grid holds
    stream i's last totals, then its lines' values, and one cumsum along the
    rows adds each stream's values in order.
    """
    records = take_all(streams, sizes)
    width = max(sizes) + 1
    sums = np.zeros((2, len(streams), width))
    counts = np.zeros((len(streams), width), dtype=np.intp)
    for i, (stream, obs) in enumerate(zip(streams, records)):
        sums[0, i, 0], sums[1, i, 0], counts[i, 0] = stream._totals
        sums[0, i, 1 : len(obs) + 1] = obs.L1
        sums[1, i, 1 : len(obs) + 1] = obs.L3
        counts[i, 1 : len(obs) + 1] = obs.k
    np.cumsum(sums, axis=2, out=sums)
    np.cumsum(counts, axis=1, out=counts)
    for i, (stream, n) in enumerate(zip(streams, sizes)):
        stream._totals = (sums[0, i, n], sums[1, i, n], counts[i, n])
    line = np.arange(width)
    lines = (line > 0) & (line <= np.array(sizes)[:, None])
    return sums[0][lines], sums[1][lines], counts[lines]


def explore(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    n_batches: int = estimators.DEFAULT_BATCHES,
    dump_rows: list | None = None,
) -> estimators.Accumulator:
    """Accumulate n_lines accepted observations of the shape, in n_batches contiguous batches."""
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    stream = LineStream(shape, config)
    acc = estimators.Accumulator(2.0 * stream.arena.radius, n_lines, n_batches)
    done = 0
    while done < n_lines:
        obs = stream.take(min(DEFAULT_CHUNK, n_lines - done))
        acc.ingest(obs)
        if dump_rows is not None:
            _append_dump_rows(dump_rows, obs)
        done += len(obs)
    acc.rejected = stream.rejected_total
    return acc


def _append_dump_rows(rows: list, obs: BatchObservations) -> None:
    per_line = np.split(obs.chords_flat, np.cumsum(obs.k)[:-1])
    for i, line_chords in enumerate(per_line):
        chords = ";".join(f"{c:.12g}" for c in line_chords)
        rows.append(
            (obs.theta[i], obs.p[i], int(obs.k[i]), obs.L1[i], obs.L3[i], chords)
        )


def explore_parallel(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    workers: int = 1,
    n_batches: int = estimators.DEFAULT_BATCHES,
) -> estimators.Accumulator:
    """Split lines over worker substreams; merge in worker-index order.

    Worker w explores its share with seed substream(seed, WORKER, w). The
    pickled shape carries what it has cached, a letter's arena circle with it.
    """
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    config = config or SamplerConfig()
    if workers <= 1:
        return explore(shape, n_lines, config, n_batches=n_batches)
    # equal shares, the remainder one line each to the first workers
    shares = [
        n_lines // workers + (w < n_lines % workers) for w in range(min(workers, n_lines))
    ]
    configs = [
        dataclasses.replace(config, seed=substream(config.seed, WORKER, w))
        for w in range(len(shares))
    ]
    from concurrent.futures import ProcessPoolExecutor  # importing chordscan loads no pool

    job = functools.partial(explore, shape, n_batches=n_batches)
    # a pool forks all its processes at once: no more than there are shares or CPUs
    with ProcessPoolExecutor(max_workers=min(len(shares), os.cpu_count() or 1)) as pool:
        accs = list(pool.map(job, shares, configs))
    out = accs[0]
    for acc in accs[1:]:
        out = estimators.merge(out, acc)
    return out


def convergence_series(
    shape: Shape,
    n_grid,
    replicates: int,
    config: SamplerConfig | None = None,
) -> estimators.ConvergenceSeries:
    """Replicate spread of (area, perimeter) estimates at each N in n_grid.

    Each replicate runs max(n_grid) lines once from substream(seed, REPLICATE, rep);
    smaller N values read its running sums, which keeps replicates independent
    of each other at every N. A replicate holds one take at a time, keeping
    only the sums at the grid. The shape is compiled, and its arena found,
    once for all replicates.
    """
    config = config or SamplerConfig()
    grid = np.sort(np.asarray([int(n) for n in n_grid], dtype=np.int64))
    if replicates < 2:
        raise ValueError("need at least two replicates")
    if grid.size == 0 or grid[0] < 1:
        raise ValueError(f"n_grid must be a non-empty list of positive N, not {grid.tolist()}")
    n_max = int(grid[-1])
    areas = np.empty((replicates, grid.size))
    perims = np.empty((replicates, grid.size))
    sums = np.empty((3, grid.size))  # L1, L3, k at each N
    for rep in range(replicates):
        sub = dataclasses.replace(config, seed=substream(config.seed, REPLICATE, rep))
        stream = LineStream(shape, sub)
        for done in range(0, n_max, DEFAULT_CHUNK):
            runs = running_sums_all([stream], [min(DEFAULT_CHUNK, n_max - done)])
            at = (grid > done) & (grid <= done + DEFAULT_CHUNK)
            sums[:, at] = [run[grid[at] - done - 1] for run in runs]
        sum_L1, sum_L3, chords = sums
        empty = (sum_L1 <= 0.0) | (chords <= 0)
        if empty.any():
            raise estimators.InsufficientDataError(f"no chord in the first {grid[empty][0]} lines")
        areas[rep], perims[rep] = estimators.area_perimeter(sum_L1, sum_L3, chords)
    return estimators.ConvergenceSeries(
        n_values=grid.astype(float),
        sigma_a=np.std(areas, axis=0, ddof=1),
        sigma_p=np.std(perims, axis=0, ddof=1),
    ).fit()
