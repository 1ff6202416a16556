"""Drivers that turn a sampler and a shape into accumulated observations.

LineStream produces accepted line statistics in sampling order, transparently
resampling the (measure-zero) degenerate lines and counting them. Everything
else - one-shot estimates, per-line ledgers for convergence studies, parallel
workers - is built on top of it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estimators
from .batch import BatchObservations, CompiledShape, observe_segments
from .chords import ArenaTooSmallError
from .geometry import Shape, bounding_circle
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


@dataclass
class TakeResult:
    """Per-line data for a block of accepted lines, in sampling order."""

    theta: np.ndarray | None  # line parameters, only when asked for
    p: np.ndarray | None
    k: np.ndarray
    L1: np.ndarray
    L3: np.ndarray
    chord_cube_sum: np.ndarray
    chords_flat: np.ndarray
    chords_line: np.ndarray  # index into this block's lines
    n_rejected: int


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

    def _segments(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        policy = self.config.billiard_policy
        if policy is None:
            theta, p = sample_iur_batch(self.rng, self.arena, n)
            return _segments_from_lines(theta, p, self.arena)
        a, b, self._billiard_state = billiard_segments(
            self.rng, self.arena, n, policy=policy, state=self._billiard_state
        )
        return a, b

    def take(self, n: int, _line_params: bool = False) -> TakeResult:
        """Exactly n accepted lines; degenerate ones are resampled and counted.

        Each line's (theta, p) is recovered only with _line_params, which
        the observation dump needs and nothing else does.
        """
        parts: list[tuple[np.ndarray | None, ...]] = []
        got = n_rejected = 0
        while got < n:
            a, b = self._segments(n - got)
            bobs = observe_segments(self.cshape, a, b)
            params = line_params_of_segments(a, b, self.arena) if _line_params else (None, None)
            cols = [*params, bobs.k, bobs.L1, bobs.L3, bobs.chord_cube_sum]
            cf, cl = bobs.chords_flat, bobs.chords_line
            n_bad = int(np.count_nonzero(bobs.rejected))
            if n_bad:
                keep = ~bobs.rejected
                cols = [None if c is None else c[keep] for c in cols]
                ok = keep[cl]
                cf, cl = cf[ok], (np.cumsum(keep) - 1)[cl[ok]]
            parts.append((*cols, cf, cl + got))
            n_rejected += n_bad
            got += len(bobs) - n_bad
        self.rejected_total += n_rejected
        if len(parts) > 1:
            parts = [tuple(None if c[0] is None else np.concatenate(c) for c in zip(*parts))]
        return TakeResult(*parts[0], n_rejected)

def _check_arena(shape: Shape, arena: ArenaCircle) -> None:
    center, radius = bounding_circle(shape)
    gap = np.hypot(center.x - arena.center.x, center.y - arena.center.y)
    if gap + radius > arena.radius * (1.0 + 1e-9):
        raise ArenaTooSmallError(
            f"arena radius {arena.radius:.6g} does not cover the shape "
            f"(needs {gap + radius:.6g})"
        )


def _ingest_take(acc: estimators.Accumulator, tk: TakeResult) -> None:
    bobs = BatchObservations(
        k=tk.k,
        L1=tk.L1,
        L3=tk.L3,
        chord_cube_sum=tk.chord_cube_sum,
        chords_flat=tk.chords_flat,
        chords_line=tk.chords_line,
        rejected=np.zeros(len(tk.k), dtype=bool),
    )
    acc.ingest(bobs)
    acc.note_rejections(tk.n_rejected)


def explore(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    arena: ArenaCircle | None = None,
    n_batches: int = estimators.DEFAULT_BATCHES,
    n_bins: int = estimators.DEFAULT_BINS,
    rng: np.random.Generator | None = None,
    chunk: int = DEFAULT_CHUNK,
    dump_rows: list | None = None,
) -> estimators.Accumulator:
    """Accumulate n_lines accepted observations of the shape."""
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    stream = LineStream(shape, config, arena=arena, rng=rng)
    acc = estimators.Accumulator(
        l_cap=2.0 * stream.arena.radius, n_batches=n_batches, n_bins=n_bins
    )
    done = 0
    while done < n_lines:
        tk = stream.take(min(chunk, n_lines - done), dump_rows is not None)
        _ingest_take(acc, tk)
        if dump_rows is not None:
            _append_dump_rows(dump_rows, tk)
        done += len(tk.k)
    return acc


def _append_dump_rows(rows: list, tk: TakeResult) -> None:
    by_line: dict[int, list[float]] = {}
    for val, line in zip(tk.chords_flat, tk.chords_line):
        by_line.setdefault(int(line), []).append(float(val))
    for i in range(len(tk.k)):
        chords = ";".join(f"{c:.12g}" for c in by_line.get(i, []))
        rows.append(
            (tk.theta[i], tk.p[i], int(tk.k[i]), tk.L1[i], tk.L3[i], chords)
        )


@dataclass
class PerLineLedger:
    """Line-indexed statistics; prefix sums give estimates at any N."""

    k: np.ndarray
    L1: np.ndarray
    L3: np.ndarray
    chord_cube_sum: np.ndarray
    n_rejected: int

    def prefix_estimates(self, checkpoints) -> tuple[np.ndarray, np.ndarray]:
        """(area, perimeter) estimates using only the first N lines, per N."""
        cum_L1 = np.cumsum(self.L1)
        cum_L3 = np.cumsum(self.L3)
        cum_k = np.cumsum(self.k)
        idx = np.asarray(checkpoints, dtype=int) - 1
        a = estimators.AREA_COEFF * cum_L3[idx] / cum_L1[idx]
        mean_chord = cum_L1[idx] / cum_k[idx]
        p = np.pi * a / mean_chord
        return a, p


def explore_per_line(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    arena: ArenaCircle | None = None,
    rng: np.random.Generator | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> PerLineLedger:
    """Collect per-line statistics (for convergence/prefix studies)."""
    stream = LineStream(shape, config, arena=arena, rng=rng)
    ks, l1s, l3s, cubes = [], [], [], []
    done = 0
    while done < n_lines:
        tk = stream.take(min(chunk, n_lines - done))
        ks.append(tk.k)
        l1s.append(tk.L1)
        l3s.append(tk.L3)
        cubes.append(tk.chord_cube_sum)
        done += len(tk.k)
    return PerLineLedger(
        np.concatenate(ks),
        np.concatenate(l1s),
        np.concatenate(l3s),
        np.concatenate(cubes),
        stream.rejected_total,
    )


def _worker_explore(args) -> estimators.Accumulator:
    shape, n_lines, config, arena, n_batches, n_bins, worker_idx = args
    rng = np.random.default_rng([config.seed, worker_idx])
    return explore(
        shape,
        n_lines,
        config,
        arena=arena,
        n_batches=n_batches,
        n_bins=n_bins,
        rng=rng,
    )


def explore_parallel(
    shape: Shape,
    n_lines: int,
    config: SamplerConfig | None = None,
    *,
    workers: int = 1,
    arena: ArenaCircle | None = None,
    n_batches: int = estimators.DEFAULT_BATCHES,
    n_bins: int = estimators.DEFAULT_BINS,
) -> estimators.Accumulator:
    """Split lines over worker substreams; merge in worker-index order."""
    config = config or SamplerConfig()
    if workers <= 1:
        return explore(
            shape, n_lines, config, arena=arena, n_batches=n_batches, n_bins=n_bins
        )
    if arena is None:
        arena = arena_for(shape, config.arena_scale)
    shares = [n_lines // workers] * workers
    for i in range(n_lines % workers):
        shares[i] += 1
    jobs = [
        (shape, shares[w], config, arena, n_batches, n_bins, w)
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
    *,
    arena: ArenaCircle | None = None,
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
    areas = np.empty((replicates, len(n_grid)))
    perims = np.empty((replicates, len(n_grid)))
    for rep in range(replicates):
        rng = np.random.default_rng([config.seed, rep])
        ledger = explore_per_line(shape, n_max, config, arena=arena, rng=rng)
        areas[rep], perims[rep] = ledger.prefix_estimates(n_grid)
    return estimators.ConvergenceSeries(
        n_values=np.asarray(n_grid, dtype=float),
        sigma_a=np.std(areas, axis=0, ddof=1),
        sigma_p=np.std(perims, axis=0, ddof=1),
    ).fit()
