"""Drivers that turn a sampler and a shape into accumulated observations.

LineStream produces accepted line statistics in sampling order, as
batch.BatchObservations records, transparently resampling the (measure-zero)
degenerate lines and counting them. Everything else - one-shot estimates,
per-line records for convergence studies, parallel workers - is built on top
of it.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import estimators
from .batch import BatchObservations, CompiledShape, observe_segments
from .chords import ArenaTooSmallError
from .geometry import Shape
from .sampling import (
    ArenaCircle,
    BilliardState,
    SamplerConfig,
    _segments_from_lines,
    arena_for,
    billiard_segments,
    line_params_of_segments,
    sample_iur_batch,
)

DEFAULT_CHUNK = 16384
# Lines per kernel call when replicates share one. numpy's fixed cost per
# call is spread thin by this size already, and the call's temporaries stay
# small: blocks of DEFAULT_CHUNK lines of a word shape raised the peak memory
# of a dictionary build by about 9 MB.
REPLICATE_BLOCK = 4096


class LineStream:
    """Seeded stream of accepted line observations for one shape."""

    def __init__(
        self,
        shape: Shape,
        config: SamplerConfig | None = None,
        arena: ArenaCircle | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or SamplerConfig()
        self.shape = shape
        self.cshape = CompiledShape(shape)
        self.arena = arena if arena is not None else arena_for(shape, self.config.arena_scale)
        _check_arena(shape, self.arena)
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self._billiard_state: BilliardState | None = None
        self.rejected_total = 0

    def fork(self, rng: np.random.Generator) -> "LineStream":
        """A fresh stream over the same compiled shape and arena, drawing from rng."""
        sub = copy.copy(self)
        sub.rng = rng
        sub._billiard_state = None
        sub.rejected_total = 0
        return sub

    def _segments(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        policy = self.config.billiard_policy
        if policy is None:
            theta, p = sample_iur_batch(self.rng, self.arena, n)
            return _segments_from_lines(theta, p, self.arena)
        a, b, self._billiard_state = billiard_segments(
            self.rng, self.arena, n, policy=policy, state=self._billiard_state
        )
        return a, b

    def take(self, n: int, _line_params: bool = False) -> BatchObservations:
        """Exactly n accepted lines; degenerate ones are resampled and counted.

        Each line's (theta, p) is recovered only with _line_params, which
        the observation dump needs and nothing else does.
        """
        return self._top_up(self._observe(n, _line_params), n, _line_params)

    def _observe(self, n: int, line_params: bool) -> BatchObservations:
        a, b = self._segments(n)
        bobs = observe_segments(self.cshape, a, b)
        if line_params:
            bobs.theta, bobs.p = line_params_of_segments(a, b, self.arena)
        return bobs

    def _top_up(
        self, bobs: BatchObservations, n: int, line_params: bool = False
    ) -> BatchObservations:
        """bobs, n lines just drawn from this stream, with its rejected lines
        counted and replaced: each refill draws as many lines as are missing."""
        parts: list[BatchObservations] = []
        got = 0
        while True:
            self.rejected_total += int(np.count_nonzero(bobs.rejected))
            parts.append(bobs.accepted())
            got += len(parts[-1])
            if got >= n:
                return BatchObservations.concatenate(parts)
            bobs = self._observe(n - got, line_params)


def _check_arena(shape: Shape, arena: ArenaCircle) -> None:
    # the arena disk is convex: it covers the shape iff it covers every vertex
    pts = np.vstack([r.coords for r in shape.rings])
    reach = float(np.max(np.hypot(pts[:, 0] - arena.center.x, pts[:, 1] - arena.center.y)))
    if reach > arena.radius * (1.0 + 1e-9):
        raise ArenaTooSmallError(
            f"arena radius {arena.radius:.6g} does not cover the shape "
            f"(needs {reach:.6g})"
        )


def explore(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    arena: ArenaCircle | None = None,
    n_batches: int = estimators.DEFAULT_BATCHES,
    rng: np.random.Generator | None = None,
    dump_rows: list | None = None,
) -> estimators.Accumulator:
    """Accumulate n_lines accepted observations of the shape."""
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    stream = LineStream(shape, config, arena=arena, rng=rng)
    acc = estimators.Accumulator(l_cap=2.0 * stream.arena.radius, n_batches=n_batches)
    done = 0
    while done < n_lines:
        obs = stream.take(min(DEFAULT_CHUNK, n_lines - done), dump_rows is not None)
        acc.ingest(obs)
        if dump_rows is not None:
            _append_dump_rows(dump_rows, obs)
        done += len(obs)
    acc.note_rejections(stream.rejected_total)
    return acc


def replicate_sums(
    shape: Shape,
    m_lines: int,
    replicates: int,
    config: SamplerConfig | None = None,
    *,
    arena: ArenaCircle | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-replicate (sum L1, sum L3, chord count) of m_lines accepted lines.

    Replicate r draws from substream (seed, r), and its sums are bit for bit
    those of explore(shape, m_lines, config, arena=arena, rng=that stream):
    the same lines, summed per chunk of DEFAULT_CHUNK and added in order.
    Replicates are observed together, as many per kernel call as fit in
    REPLICATE_BLOCK lines; the shape is compiled and the arena checked once.
    """
    if m_lines < 1:
        raise ValueError("m_lines must be positive")
    config = config or SamplerConfig()
    base = LineStream(shape, config, arena=arena)
    group = max(1, REPLICATE_BLOCK // m_lines)
    sums = (np.zeros(replicates), np.zeros(replicates), np.zeros(replicates, dtype=np.int64))
    for lo in range(0, replicates, group):
        reps = range(lo, min(lo + group, replicates))
        streams = [base.fork(np.random.default_rng([config.seed, r])) for r in reps]
        done = 0
        while done < m_lines:
            n = min(DEFAULT_CHUNK, m_lines - done)
            for total, part in zip(sums, _chunk_sums(streams, n)):
                total[reps.start : reps.stop] += part
            done += n
    return sums


def _chunk_sums(streams: list[LineStream], n: int) -> list[np.ndarray]:
    """(sum L1, sum L3, chord count) of each stream's next n accepted lines.

    The streams' lines are observed in one kernel call; a stream whose share
    holds rejected lines is topped up from its own stream.
    """
    drawn = [s._segments(n) for s in streams]
    obs = observe_segments(
        streams[0].cshape,
        np.concatenate([a for a, _ in drawn]),
        np.concatenate([b for _, b in drawn]),
    )
    # a row sum of the (streams, n) reshape is each row's own sum, bit for bit
    sums = [col.reshape(len(streams), n).sum(axis=1) for col in (obs.L1, obs.L3, obs.k)]
    for r in np.flatnonzero(obs.rejected.reshape(len(streams), n).any(axis=1)):
        full = streams[r]._top_up(obs.lines(r * n, (r + 1) * n), n)
        for total, col in zip(sums, (full.L1, full.L3, full.k)):
            total[r] = col.sum()
    return sums


def _append_dump_rows(rows: list, obs: BatchObservations) -> None:
    per_line = np.split(obs.chords_flat, np.cumsum(obs.k)[:-1])
    for i, line_chords in enumerate(per_line):
        chords = ";".join(f"{c:.12g}" for c in line_chords)
        rows.append(
            (obs.theta[i], obs.p[i], int(obs.k[i]), obs.L1[i], obs.L3[i], chords)
        )


def explore_per_line(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    arena: ArenaCircle | None = None,
    rng: np.random.Generator | None = None,
) -> BatchObservations:
    """Record of n_lines accepted lines in sampling order (for prefix studies)."""
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    stream = LineStream(shape, config, arena=arena, rng=rng)
    parts: list[BatchObservations] = []
    done = 0
    while done < n_lines:
        parts.append(stream.take(min(DEFAULT_CHUNK, n_lines - done)))
        done += len(parts[-1])
    return BatchObservations.concatenate(parts)


def _worker_explore(args) -> estimators.Accumulator:
    shape, n_lines, config, arena, n_batches, worker_idx = args
    rng = np.random.default_rng([config.seed, worker_idx])
    return explore(shape, n_lines, config, arena=arena, n_batches=n_batches, rng=rng)


def explore_parallel(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    workers: int = 1,
    n_batches: int = estimators.DEFAULT_BATCHES,
) -> estimators.Accumulator:
    """Split lines over worker substreams; merge in worker-index order."""
    config = config or SamplerConfig()
    if workers <= 1:
        return explore(shape, n_lines, config, n_batches=n_batches)
    arena = arena_for(shape, config.arena_scale)
    shares = [n_lines // workers] * workers
    for i in range(n_lines % workers):
        shares[i] += 1
    jobs = [
        (shape, shares[w], config, arena, n_batches, w)
        for w in range(workers)
        if shares[w] > 0
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        accs = list(pool.map(_worker_explore, jobs))
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

    Each replicate runs max(n_grid) lines once; smaller N values reuse its
    prefixes, which keeps replicates independent of each other at every N.
    """
    config = config or SamplerConfig()
    n_grid = sorted(int(n) for n in n_grid)
    if replicates < 2:
        raise ValueError("need at least two replicates")
    n_max = n_grid[-1]
    arena = arena_for(shape, config.arena_scale)
    areas = np.empty((replicates, len(n_grid)))
    perims = np.empty((replicates, len(n_grid)))
    for rep in range(replicates):
        rng = np.random.default_rng([config.seed, rep])
        obs = explore_per_line(shape, n_max, config, arena=arena, rng=rng)
        areas[rep], perims[rep] = estimators.prefix_estimates(obs, n_grid)
        del obs  # freed before the next replicate's record is built
    return estimators.ConvergenceSeries(
        n_values=np.asarray(n_grid, dtype=float),
        sigma_a=np.std(areas, axis=0, ddof=1),
        sigma_p=np.std(perims, axis=0, ddof=1),
    ).fit()
