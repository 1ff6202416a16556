"""Drivers that turn a sampler and a shape into accumulated observations.

LineStream produces accepted line statistics in sampling order, as
batch.BatchObservations records, transparently resampling the (measure-zero)
degenerate lines and counting them. Its lines are fixed by its shape, which
carries its arena circle, and its SamplerConfig, whose seed is the only randomness.
Everything else - one-shot estimates, convergence studies that read its
running sums one take at a time - is built on top of it. Loops of seeded
jobs, and the takes of a long explore, run through map_jobs, on every
usable CPU.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import signal
import threading

import numpy as np

from . import estimators
from .batch import BatchObservations, CompiledShape, observe_segments
from .geometry import Shape
from .sampling import (
    REPLICATE,
    BilliardState,
    SamplerConfig,
    arena_for,
    billiard_lines,
    sample_iur_batch,
    substream,
)

DEFAULT_CHUNK = 16384
# Jobs that draw fewer than POOL_LINES lines in all run in this process. A
# fork, its pipe and its reaping take 2-3 ms (2 vCPUs, 45 MB resident), two
# busy processes run at about 70% of their solo speed, and each of explore's
# processes draws every take: on annulus, statue and disk explores, the
# forked path broke even at 57k-65k lines (0.9-1.1x the time in this process;
# 50k lines: 1.1x; 100k lines: 0.8x).
POOL_LINES = 65_536


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
    """Accumulate n_lines accepted observations of the shape, in n_batches contiguous batches.

    The stream's lines are taken DEFAULT_CHUNK at a time. With no dump, at
    least POOL_LINES lines run as map_jobs' jobs, one per process: each
    process draws every take of the one seeded stream but observes only its
    own, takes j = w (mod processes), and the caller adds their blocks
    (Accumulator.block) in take order, so every slot has the bits of the
    loop in this process. A take that holds a rejected line draws more lines
    and shifts the stream: the processes give it up, and the loop runs here.
    """
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    stream = LineStream(shape, config)
    acc = estimators.Accumulator(2.0 * stream.arena.radius, n_lines, n_batches)
    sizes = [min(DEFAULT_CHUNK, n_lines - done) for done in range(0, n_lines, DEFAULT_CHUNK)]
    procs = _procs(len(sizes), n_lines) if dump_rows is None else 1
    if procs > 1:
        observe_share = functools.partial(_observe_share, shape, config, acc, sizes, procs)
        shares = map_jobs(observe_share, [(w,) for w in range(procs)], procs, n_lines)
        if all(share is not None for share in shares):
            for j in range(len(sizes)):
                acc.add(shares[j % procs][j // procs])
            return acc
    for size in sizes:
        obs = stream.take(size)
        acc.ingest(obs)
        if dump_rows is not None:
            _append_dump_rows(dump_rows, obs)
    acc.rejected = stream.rejected_total
    return acc


def _observe_share(shape, config, acc, sizes, procs, w) -> list | None:
    """acc's blocks of takes w, w + procs, ... of explore's stream, whose
    takes hold sizes[j] lines if none is rejected; None at a rejected line.
    Each take up to the last of them is drawn, the others only to move the
    stream on."""
    stream = LineStream(shape, config)
    blocks = []
    for j in range(w + (len(sizes) - 1 - w) // procs * procs + 1):
        theta, p = stream._lines(sizes[j])
        if j % procs == w:
            obs = observe_segments(stream.cshape, theta, p)
            if obs.rejected.any():
                return None
            blocks.append(acc.block(obs, j * DEFAULT_CHUNK))
    return blocks


def _append_dump_rows(rows: list, obs: BatchObservations) -> None:
    per_line = np.split(obs.chords_flat, np.cumsum(obs.k)[:-1])
    for i, line_chords in enumerate(per_line):
        chords = ";".join(f"{c:.12g}" for c in line_chords)
        rows.append(
            (obs.theta[i], obs.p[i], int(obs.k[i]), obs.L1[i], obs.L3[i], chords)
        )


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_mapping = False  # in a forked child of map_jobs, or in its caller's own share


def _procs(n_jobs: int, lines: int) -> int:
    """How many processes map_jobs runs n_jobs jobs on that draw `lines` lines in all."""
    if _mapping or lines < POOL_LINES or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(n_jobs, _usable_cpus())


def map_jobs(fn, jobs, n_jobs: int, lines: int) -> list:
    """[fn(*job) for job in jobs], each result at its job's index.

    The n_jobs jobs, which draw about `lines` lines in all, run on p =
    min(n_jobs, usable CPUs) processes: this one runs jobs i = 0 (mod p),
    and p - 1 forked children run the others, child w jobs i = w (mod p),
    each from its own copy of the iterable, and pickle their results back
    over a pipe. Each job seeds its own stream, so the results do not depend
    on where it runs. The first job to raise, in job order, raises its
    exception here, as raised; a child that ends without its results raises
    ChildProcessError. Every child is reaped before map_jobs returns or raises.

    The jobs run here, one at a time, when there is one CPU or one job, when
    they draw fewer than POOL_LINES lines, inside map_jobs' jobs (no fork
    nests), while other threads run (a forked child would inherit the locks
    they hold) or where the platform cannot fork.
    """
    procs = _procs(n_jobs, lines)
    if procs == 1:
        return [fn(*job) for job in jobs]
    global _mapping
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(1, procs):
            children.append(_fork_share(fn, jobs, w, procs))
        _mapping = True
        shares = [_share(fn, jobs, 0, procs)]
        _mapping = False
        for pid, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"job process {pid} ended without its results")
            shares.append(pickle.loads(data))
    finally:
        _mapping = False
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)  # ended already, but for an error here
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[i % procs][0][i // procs] for i in range(sum(len(r) for r, _ in shares))]


def _share(fn, jobs, w: int, procs: int) -> tuple[list, tuple | None]:
    """The results of jobs i = w (mod procs), and (i, exception) if job i, or
    the iterable at job i, raised; the jobs after it do not run."""
    results, i = [], 0
    try:
        for job in jobs:
            if i % procs == w:
                results.append(fn(*job))
            i += 1
    except Exception as exc:
        return results, (i, exc)
    return results, None


def _fork_share(fn, jobs, w: int, procs: int) -> tuple[int, int]:
    """Fork a child that runs _share(fn, jobs, w, procs) and pickles it into
    a pipe; (its pid, the pipe's read end)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    global _mapping
    _mapping = True
    try:
        os.close(read)
        share = _share(fn, jobs, w, procs)
        try:
            data = pickle.dumps(share, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result or an exception that does not pickle
            data = pickle.dumps(([], (w, exc)))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


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
    shape.derived("kernel", CompiledShape)  # forked children inherit the table
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
