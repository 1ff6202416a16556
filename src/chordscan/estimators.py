"""Streaming accumulation of line observations and the derived estimators.

The accumulator ingests batch.BatchObservations records and keeps
constant-size running sums (plus a fixed-bin chord histogram and per-batch
partials for batch-means error bars), so memory never grows with the number of
explored lines. Estimates are ratios of sums, which makes them insensitive to
lines that miss the shape entirely; area_perimeter writes both ratio formulas
once for arrays of sums: per batch, per prefix of a per-line record, and per
line of the stopping loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import BatchObservations

# Area estimator coefficient in A_hat = C * sum(L3) / sum(L1). Fixed by the
# closed-form unit-disk chord moments <l> = pi/2 and <l^3> = 3*pi/2, which
# give C * 3 = pi, and equivalently by the convex reduction of the mean-chord
# (pi*A/P) and third-moment (3*A^2/P) identities.
AREA_COEFF = math.pi / 3.0

DEFAULT_BATCHES = 100
DEFAULT_BINS = 64
KL_EPSILON = 1e-9


class InsufficientDataError(ValueError):
    """Not enough observed lines/chords to form the requested estimate."""


class Accumulator:
    """Constant-memory running sums over observed lines; mergeable."""

    __slots__ = (
        "l_cap",
        "n_batches",
        "n_lines",
        "n_hit",
        "rejected",
        "sum_L1",
        "sum_L3",
        "chord_count",
        "chord_cube_sum",
        "l_max_seen",
        "hist",
        "batch",
    )

    def __init__(self, l_cap: float, n_batches: int = DEFAULT_BATCHES):
        if l_cap <= 0.0:
            raise ValueError("l_cap (histogram upper edge) must be positive")
        if n_batches < 1:
            raise ValueError("batch count must be positive")
        self.l_cap = float(l_cap)
        self.n_batches = int(n_batches)
        self.n_lines = 0
        self.n_hit = 0
        self.rejected = 0
        self.sum_L1 = 0.0
        self.sum_L3 = 0.0
        self.chord_count = 0
        self.chord_cube_sum = 0.0
        self.l_max_seen = 0.0
        self.hist = np.zeros(DEFAULT_BINS, dtype=np.int64)
        # per-batch partial sums: L1 (a line's L1 is its chord sum), L3, chord
        # count, chord cube sum
        self.batch = np.zeros((self.n_batches, 4))

    def same_layout(self, other: "Accumulator") -> bool:
        return self.l_cap == other.l_cap and self.n_batches == other.n_batches

    def _bin_of(self, lengths: np.ndarray) -> np.ndarray:
        b = np.floor(lengths / self.l_cap * DEFAULT_BINS).astype(np.int64)
        return np.clip(b, 0, DEFAULT_BINS - 1)

    def note_rejections(self, n: int) -> None:
        self.rejected += int(n)

    def ingest(self, bobs: BatchObservations) -> None:
        """Accumulate a block of per-line statistics in line order; rejected lines only count."""
        self.note_rejections(np.count_nonzero(bobs.rejected))
        bobs = bobs.accepted()
        n = len(bobs)
        if n == 0:
            return
        k, L1, L3, cube = bobs.k, bobs.L1, bobs.L3, bobs.chord_cube_sum
        chords = bobs.chords_flat
        nb = self.n_batches
        bids = (self.n_lines + np.arange(n)) % nb
        self.n_lines += n
        self.n_hit += int(np.count_nonzero(k))
        self.sum_L1 += float(L1.sum())
        self.sum_L3 += float(L3.sum())
        self.chord_count += int(k.sum())
        self.chord_cube_sum += float(cube.sum())
        for col, values in enumerate((L1, L3, k, cube)):
            self.batch[:, col] += np.bincount(bids, weights=values, minlength=nb)
        if chords.size:
            self.hist += np.bincount(self._bin_of(chords), minlength=DEFAULT_BINS)
            self.l_max_seen = max(self.l_max_seen, float(chords.max()))

    def state_scalar_count(self) -> int:
        """Number of stored numeric values; constant in the line count."""
        return 9 + self.hist.size + self.batch.size


def merge(a: Accumulator, b: Accumulator) -> Accumulator:
    """Field-wise sum of two compatible accumulators (commutative, associative)."""
    if not a.same_layout(b):
        raise ValueError("accumulator layouts differ (l_cap / batches)")
    out = Accumulator(a.l_cap, a.n_batches)
    out.n_lines = a.n_lines + b.n_lines
    out.n_hit = a.n_hit + b.n_hit
    out.rejected = a.rejected + b.rejected
    out.sum_L1 = a.sum_L1 + b.sum_L1
    out.sum_L3 = a.sum_L3 + b.sum_L3
    out.chord_count = a.chord_count + b.chord_count
    out.chord_cube_sum = a.chord_cube_sum + b.chord_cube_sum
    out.l_max_seen = max(a.l_max_seen, b.l_max_seen)
    out.hist = a.hist + b.hist
    out.batch = a.batch + b.batch
    return out


def _ratio_area(sum_L1, sum_L3):
    """The area ratio; given chord cube sums for sum_L3, the convex baseline."""
    return AREA_COEFF * sum_L3 / sum_L1


def area_perimeter(sum_L1, sum_L3, chord_count):
    """Ratio estimates (A, P) from summed L1 and L3 and the chord count.

    A = (pi/3) sum(L3) / sum(L1), and P from the mean-chord identity
    <l> = pi*A/P with <l> = sum(L1) / chord_count (a line's L1 is its chord
    sum). Elementwise on arrays, so it serves batches and prefixes alike.
    """
    area = _ratio_area(sum_L1, sum_L3)
    return area, math.pi * area / (sum_L1 / chord_count)


def estimate_area(acc: Accumulator) -> float:
    if acc.sum_L1 <= 0.0:
        raise InsufficientDataError("no in-shape intercept accumulated yet")
    return _ratio_area(acc.sum_L1, acc.sum_L3)


def estimate_mean_chord(acc: Accumulator) -> float:
    if acc.chord_count <= 0:
        raise InsufficientDataError("no chords accumulated yet")
    return acc.sum_L1 / acc.chord_count


def estimate_perimeter(acc: Accumulator) -> float:
    """Mean-chord identity <l> = pi*A/P, rearranged with the estimated area."""
    if acc.sum_L1 <= 0.0 or acc.chord_count <= 0:
        raise InsufficientDataError("no chords accumulated yet")
    return area_perimeter(acc.sum_L1, acc.sum_L3, acc.chord_count)[1]


def convex_third_moment_area(acc: Accumulator) -> float:
    """Area from raw third chord moments; consistent only for convex shapes."""
    if acc.chord_count <= 0:
        raise InsufficientDataError("no chords accumulated yet")
    return _ratio_area(acc.sum_L1, acc.chord_cube_sum)


def prefix_estimates(obs: BatchObservations, checkpoints) -> tuple[np.ndarray, np.ndarray]:
    """(area, perimeter) estimates using only the first N lines of obs, per N."""
    idx = np.asarray(checkpoints, dtype=int) - 1
    if np.any((idx < 0) | (idx >= len(obs))):
        raise ValueError(f"checkpoints must lie in [1, {len(obs)}]")
    sum_L1, sum_L3, chords = (np.cumsum(col)[idx] for col in (obs.L1, obs.L3, obs.k))
    empty = (sum_L1 <= 0.0) | (chords <= 0)
    if empty.any():
        raise InsufficientDataError(f"no chord in the first {np.min(idx[empty]) + 1} lines")
    return area_perimeter(sum_L1, sum_L3, chords)


def _batch_values(acc: Accumulator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-batch (area, perimeter, convex-baseline area) for non-empty batches."""
    L1, L3, cnt, cube = acc.batch.T
    ok = (L1 > 0.0) & (cnt > 0.0)
    if int(ok.sum()) < 2:
        raise InsufficientDataError("need at least 2 non-empty batches for errors")
    a, p = area_perimeter(L1[ok], L3[ok], cnt[ok])
    return a, p, _ratio_area(L1[ok], cube[ok])


def stderrs(acc: Accumulator) -> tuple[float, float]:
    """Batch-means standard errors of (area, perimeter).

    Batches are the accumulator's round-robin groups; the spread of per-batch
    estimates over sqrt(B) estimates the error of the pooled estimate.
    """
    a, p, _ = _batch_values(acc)
    nb = len(a)
    return (
        float(np.std(a, ddof=1) / math.sqrt(nb)),
        float(np.std(p, ddof=1) / math.sqrt(nb)),
    )


def convex_baseline_stderr(acc: Accumulator) -> float:
    """Batch-means standard error of the convex-only area baseline."""
    _, _, ach = _batch_values(acc)
    return float(np.std(ach, ddof=1) / math.sqrt(len(ach)))


@dataclass(frozen=True)
class EstimateReport:
    """A point in the perimeter-area representation space, with error bars."""

    area_hat: float
    perim_hat: float
    mean_chord: float
    stderr_a: float
    stderr_p: float
    n_lines: int
    n_hit: int
    rejected: int

    def to_dict(self) -> dict:
        return {
            "N": self.n_lines,
            "area_hat": self.area_hat,
            "perim_hat": self.perim_hat,
            "mean_chord": self.mean_chord,
            "stderr_a": self.stderr_a,
            "stderr_p": self.stderr_p,
            "n_hit": self.n_hit,
            "rejected_lines": self.rejected,
        }


def report(acc: Accumulator) -> EstimateReport:
    se_a, se_p = stderrs(acc)
    return EstimateReport(
        area_hat=estimate_area(acc),
        perim_hat=estimate_perimeter(acc),
        mean_chord=estimate_mean_chord(acc),
        stderr_a=se_a,
        stderr_p=se_p,
        n_lines=acc.n_lines,
        n_hit=acc.n_hit,
        rejected=acc.rejected,
    )


def normalized_histogram(acc: Accumulator) -> np.ndarray:
    """Chord-length distribution over l / l_max, as a probability vector.

    Accumulation bins are fixed at [0, l_cap] for streaming; this rebins the
    counts onto [0, 1] using the largest chord actually seen.
    """
    if acc.chord_count <= 0:
        raise InsufficientDataError("no chords accumulated yet")
    centers = (np.arange(DEFAULT_BINS) + 0.5) * (acc.l_cap / DEFAULT_BINS)
    target = np.floor(centers / acc.l_max_seen * DEFAULT_BINS).astype(np.int64)
    target = np.clip(target, 0, DEFAULT_BINS - 1)
    out = np.zeros(DEFAULT_BINS)
    np.add.at(out, target, acc.hist.astype(float))
    return out / out.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Relative entropy sum(p * ln(p/q)) with q smoothed by KL_EPSILON per bin."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"histogram binning mismatch: {p.shape} vs {q.shape}")
    q = q + KL_EPSILON
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass
class ConvergenceSeries:
    """Replicate spread of the estimators at increasing line counts."""

    n_values: np.ndarray
    sigma_a: np.ndarray
    sigma_p: np.ndarray
    sigma0_a: float = float("nan")
    exponent_a: float = float("nan")
    sigma0_p: float = float("nan")
    exponent_p: float = float("nan")

    def fit(self) -> "ConvergenceSeries":
        self.sigma0_a, self.exponent_a = fit_power(self.n_values, self.sigma_a)
        self.sigma0_p, self.exponent_p = fit_power(self.n_values, self.sigma_p)
        return self


def fit_power(n_values, sigmas) -> tuple[float, float]:
    """Least-squares fit sigma = prefactor * N**exponent in log-log space."""
    n_values = np.asarray(n_values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if len(n_values) < 2:
        raise ValueError("need at least two samples to fit")
    if not (np.all(np.isfinite(sigmas) & (sigmas > 0.0)) and np.all(n_values > 0.0)):
        raise ValueError("power-law fit needs positive N and finite positive sigma")
    slope, intercept = np.polyfit(np.log(n_values), np.log(sigmas), 1)
    return float(np.exp(intercept)), float(slope)
