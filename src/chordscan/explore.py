"""Drivers that turn a sampler and a shape into accumulated observations.

LineStream produces accepted line statistics in sampling order, as
batch.BatchObservations records, transparently resampling the (measure-zero)
degenerate lines and counting them. Its lines are fixed by its shape, which
carries its arena circle, and its SamplerConfig, whose seed is the only randomness.
Everything else - one-shot estimates, convergence studies that read its
running sums one take at a time, parallel workers - is built on top of it.
Loops of seeded jobs run through map_jobs, on every usable CPU.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading

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
# A 2-process pool takes about 8 ms to fork, feed and join (2 vCPUs), the
# time of some 27k kernel lines: jobs that draw fewer than POOL_LINES lines
# in all run in this process, where the pool would cost them over ~15%.
POOL_LINES = 200_000


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
        return take_all([self], n)


def take_all(streams: list[LineStream], n: int) -> BatchObservations:
    """Exactly n accepted lines from each stream, in one record, stream after stream.

    The streams refill in rounds: each stream short of lines draws as many as
    it misses, at most DEFAULT_CHUNK, and its degenerate lines are counted
    and drawn again in the next round. A round's draws are observed together,
    in observe_segments calls of whole draws that hold at most DEFAULT_CHUNK
    lines. A stream's lines keep its draw order, as its own take(n) gives them.
    """
    records, owner, sizes = [], [], []  # each call's record; each draw's stream and size
    missing = [n] * len(streams)
    while any(missing):
        draws = [(i, *streams[i]._lines(min(m, DEFAULT_CHUNK))) for i, m in enumerate(missing) if m]
        calls, size = [[]], 0
        for draw in draws:
            if size + draw[1].size > DEFAULT_CHUNK:
                calls.append([])
                size = 0
            calls[-1].append(draw)
            size += draw[1].size
        for call in calls:
            who, theta, p = (list(col) for col in zip(*call))
            bobs = observe_segments([streams[i].cshape for i in who], theta, p)
            drawn = [t.size for t in theta]
            lost = [0] * len(who)
            if bobs.rejected.any():
                starts = np.cumsum([0, *drawn[:-1]])
                lost = np.add.reduceat(bobs.rejected, starts, dtype=np.intp).tolist()
            for i, m, r in zip(who, drawn, lost):
                streams[i].rejected_total += r
                missing[i] -= m - r
            records.append(bobs)
            owner += who
            sizes += drawn
    obs = BatchObservations.concatenate(records)
    if n <= DEFAULT_CHUNK and not obs.rejected.any():
        return obs  # drawn in one round, stream after stream
    # the accepted lines, stream after stream, each stream's in draw order
    lines = np.flatnonzero(~obs.rejected)
    return obs.select(lines[np.argsort(np.repeat(owner, sizes)[lines], kind="stable")])


def running_sums_all(streams: list[LineStream], n: int) -> tuple[np.ndarray, ...]:
    """The running totals (L1, L3, k) of each stream after each of its next n
    lines, the lines taken by one take_all: row i of each (streams, n) grid
    is stream i's.

    Each stream's totals carry on from its last call (sequential sums seeded
    with its last total), so a prefix's sums do not depend on how calls split
    the stream; lines drawn by take() are not counted. Column 0 of a grid
    holds the streams' last totals, and one cumsum along its rows adds each
    stream's values in order.
    """
    obs = take_all(streams, n)
    sums = np.empty((2, len(streams), n + 1))
    counts = np.empty((len(streams), n + 1), dtype=np.intp)
    for i, stream in enumerate(streams):
        sums[0, i, 0], sums[1, i, 0], counts[i, 0] = stream._totals
    sums[0, :, 1:] = obs.L1.reshape(-1, n)
    sums[1, :, 1:] = obs.L3.reshape(-1, n)
    counts[:, 1:] = obs.k.reshape(-1, n)
    np.cumsum(sums, axis=2, out=sums)
    np.cumsum(counts, axis=1, out=counts)
    for i, stream in enumerate(streams):
        stream._totals = (sums[0, i, -1], sums[1, i, -1], counts[i, -1])
    return sums[0, :, 1:], sums[1, :, 1:], counts[:, 1:]


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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_jobs(fn, jobs, n_jobs: int, lines: int) -> list:
    """[fn(*job) for job in jobs], each result at its job's index.

    The n_jobs jobs, which draw about `lines` lines in all, run over a fork
    pool of min(n_jobs, usable CPUs) processes. They run in this process, in
    order and one at a time from the iterable, when there is one CPU or one
    job, when they draw fewer than POOL_LINES lines, while other threads run
    (a forked child would inherit the locks they hold), inside a pool's
    worker, or where the platform cannot fork. Each job seeds its own
    stream, so the results do not depend on where it runs. A job's exception
    reaches the caller as raised.
    """
    procs = min(n_jobs, _usable_cpus())
    if procs > 1 and lines >= POOL_LINES and threading.active_count() == 1:
        import multiprocessing as mp  # importing chordscan loads no pool

        if mp.parent_process() is None and "fork" in mp.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(procs, mp_context=mp.get_context("fork")) as pool:
                futures = [pool.submit(fn, *job) for job in jobs]
                return [future.result() for future in futures]
    return [fn(*job) for job in jobs]


def explore_parallel(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    workers: int = 1,
    n_batches: int = estimators.DEFAULT_BATCHES,
) -> estimators.Accumulator:
    """Split lines over worker substreams; merge in worker-index order.

    Worker w explores its share with seed substream(seed, WORKER, w); the
    shares run as map_jobs' jobs.
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
    jobs = [
        (share, dataclasses.replace(config, seed=substream(config.seed, WORKER, w)))
        for w, share in enumerate(shares)
    ]
    explore_share = functools.partial(explore, shape, n_batches=n_batches)
    return functools.reduce(estimators.merge, map_jobs(explore_share, jobs, len(jobs), n_lines))


def convergence_series(
    shape: Shape,
    n_grid,
    replicates: int,
    config: SamplerConfig | None = None,
) -> estimators.ConvergenceSeries:
    """Replicate spread of (area, perimeter) estimates at each N in n_grid.

    Each replicate runs max(n_grid) lines once from substream(seed, REPLICATE, rep);
    smaller N values read its running sums, which keeps replicates independent
    of each other at every N. Replicates are map_jobs' jobs. The shape is
    compiled, and its arena found, once for all of them, in this process.
    """
    config = config or SamplerConfig()
    grid = np.sort(np.asarray([int(n) for n in n_grid], dtype=np.int64))
    if replicates < 2:
        raise ValueError("need at least two replicates")
    if grid.size == 0 or grid[0] < 1:
        raise ValueError(f"n_grid must be a non-empty list of positive N, not {grid.tolist()}")
    shape.derived("kernel", CompiledShape)  # a pool's workers get the table with the shape
    jobs = (
        (shape, dataclasses.replace(config, seed=substream(config.seed, REPLICATE, rep)), grid)
        for rep in range(replicates)
    )
    rows = map_jobs(_replicate, jobs, replicates, replicates * int(grid[-1]))
    areas, perims = np.array(rows).transpose(1, 0, 2)
    return estimators.ConvergenceSeries(
        n_values=grid.astype(float),
        sigma_a=np.std(areas, axis=0, ddof=1),
        sigma_p=np.std(perims, axis=0, ddof=1),
    ).fit()


def _replicate(shape: Shape, config: SamplerConfig, grid) -> tuple[np.ndarray, np.ndarray]:
    """(area, perimeter) estimates at each N of the sorted grid, from one
    stream that holds one take of running sums at a time."""
    stream = LineStream(shape, config)
    n_max = int(grid[-1])
    sums = np.empty((3, grid.size))  # L1, L3, k at each N
    for done in range(0, n_max, DEFAULT_CHUNK):
        runs = running_sums_all([stream], min(DEFAULT_CHUNK, n_max - done))
        at = (grid > done) & (grid <= done + DEFAULT_CHUNK)
        sums[:, at] = [run[0, grid[at] - done - 1] for run in runs]
    sum_L1, sum_L3, chords = sums
    empty = (sum_L1 <= 0.0) | (chords <= 0)
    if empty.any():
        raise estimators.InsufficientDataError(f"no chord in the first {grid[empty][0]} lines")
    return estimators.area_perimeter(sum_L1, sum_L3, chords)
