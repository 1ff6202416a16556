"""Streaming accumulation of line observations and the derived estimators.

An accumulator is filled one block of batch.BatchObservations lines at a
time, acc.add(acc.block(obs, first)), and keeps constant-size running sums
(plus a fixed-bin chord histogram and the sums of contiguous batches of
lines), so memory never grows with the number of explored lines. Estimates
are ratios of sums, which makes them insensitive to
lines that miss the shape entirely; area_perimeter writes both ratio formulas
once for arrays of sums: at the grid of a convergence series and per line of
the stopping loop. ratio_influence is the one variance formula: the delta method
applied to the batch sums gives the report's standard errors and the
dictionary's calibrated noise alike.
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
    """Constant-memory running sums over observed lines; mergeable.

    Line i of the n_planned lines goes to batch floor(i * n_batches /
    n_planned): contiguous batches whose sizes differ by at most one.
    """

    __slots__ = (
        "l_cap",
        "n_batches",
        "n_planned",
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

    def __init__(self, l_cap: float, n_planned: int, n_batches: int = DEFAULT_BATCHES):
        if l_cap <= 0.0:
            raise ValueError("l_cap (histogram upper edge) must be positive")
        if n_batches < 1:
            raise ValueError("batch count must be positive")
        self.l_cap = float(l_cap)
        self.n_batches = int(n_batches)
        self.n_planned = int(n_planned)
        self.n_lines = 0
        self.n_hit = 0
        self.rejected = 0  # lines the stream resampled; explore sets it
        self.sum_L1 = 0.0
        self.sum_L3 = 0.0
        self.chord_count = 0
        self.chord_cube_sum = 0.0
        self.l_max_seen = 0.0
        self.hist = np.zeros(DEFAULT_BINS, dtype=np.int64)
        # per-batch sums: L1 (a line's L1 is its chord sum), L3, chord count,
        # chord cube sum, lines
        self.batch = np.zeros((self.n_batches, 5))

    def _bin_of(self, lengths: np.ndarray) -> np.ndarray:
        b = np.floor(lengths / self.l_cap * DEFAULT_BINS).astype(np.int64)
        return np.clip(b, 0, DEFAULT_BINS - 1)

    def block(self, bobs: BatchObservations, first: int) -> "Accumulator":
        """An accumulator of this layout that holds a block of accepted lines
        alone, the first of them line `first` of the planned lines. This one
        is left as it is, so blocks may be summed anywhere and added in line
        order (add)."""
        n = len(bobs)
        out = Accumulator(self.l_cap, self.n_planned, self.n_batches)
        k, L1, L3, cube = bobs.k, bobs.L1, bobs.L3, bobs.chord_cube_sum
        chords = bobs.chords_flat
        # where each batch starts in this block: batch b at line ceil(b * n_planned / nb)
        nb = self.n_batches
        starts = np.clip(-(-np.arange(nb) * self.n_planned // nb) - first, 0, n)
        sizes = np.diff(starts, append=n)
        held = sizes > 0
        out.n_lines = n
        out.n_hit = int(np.count_nonzero(k))
        out.sum_L1 = float(L1.sum())
        out.sum_L3 = float(L3.sum())
        out.chord_count = int(k.sum())
        out.chord_cube_sum = float(cube.sum())
        for col, values in enumerate((L1, L3, k, cube)):
            out.batch[held, col] = np.add.reduceat(values, starts[held])
        out.batch[:, 4] = sizes
        if chords.size:
            out.hist = np.bincount(self._bin_of(chords), minlength=DEFAULT_BINS)
            out.l_max_seen = float(chords.max())
        return out

    def add(self, other: "Accumulator") -> None:
        """Add another accumulator of this layout, slot by slot; one of
        another l_cap or batch count, whose bins and batches are others,
        raises ValueError. Past the layout (l_cap, n_batches, n_planned)
        every slot is a sum but l_max_seen, a maximum. Sums are added in the
        order of the calls."""
        if (self.l_cap, self.n_batches) != (other.l_cap, other.n_batches):
            raise ValueError("accumulator layouts differ (l_cap / batches)")
        if self.n_lines + other.n_lines > self.n_planned:
            raise ValueError(f"{self.n_lines + other.n_lines} lines ingested, {self.n_planned} planned")
        l_max = max(self.l_max_seen, other.l_max_seen)
        for slot in Accumulator.__slots__[3:]:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))
        self.l_max_seen = l_max

    def state_scalar_count(self) -> int:
        """Number of stored numeric values; constant in the line count."""
        return sum(np.size(getattr(self, slot)) for slot in self.__slots__)


def merge(a: Accumulator, b: Accumulator) -> Accumulator:
    """Field-wise sum of two accumulators of one layout (commutative, associative)."""
    out = Accumulator(a.l_cap, a.n_planned + b.n_planned, a.n_batches)
    out.add(a)
    out.add(b)
    return out


def _ratio_area(sum_L1, sum_L3):
    """The area ratio; given chord cube sums for sum_L3, the convex baseline."""
    return AREA_COEFF * sum_L3 / sum_L1


def area_perimeter(sum_L1, sum_L3, chord_count):
    """Ratio estimates (A, P) from summed L1 and L3 and the chord count.

    A = (pi/3) sum(L3) / sum(L1), and P from the mean-chord identity
    <l> = pi*A/P with <l> = sum(L1) / chord_count (a line's L1 is its chord
    sum). Elementwise on arrays, so it serves prefixes and the stopping loop alike.
    """
    area = _ratio_area(sum_L1, sum_L3)
    return area, math.pi * area / (sum_L1 / chord_count)


def ratio_influence(L1, L3, k):
    """Influence values (IF_A, IF_P) of area_perimeter's ratios, per element.

    The delta method for ratio estimators (Cochran, Sampling Techniques,
    1977, ch. 6) around the means m1, m3, mk of L1, L3 and k:
    IF_A = C (L3 - (m3/m1) L1) / m1 and
    IF_P = pi C (mk L3 + m3 k - 2 m3 mk L1 / m1) / m1^2, up to constants.
    Both are linear in (L1, L3, k) and unchanged when the inputs are scaled
    together, so on the sums of nb batches of N lines they are nb/N times
    each batch's sum of per-line values: its mean when it holds N/nb lines.
    """
    m1, m3, mk = L1.mean(), L3.mean(), k.mean()
    if_a = AREA_COEFF * (L3 - (m3 / m1) * L1) / m1
    if_p = math.pi * AREA_COEFF * (mk * L3 + m3 * k - 2.0 * m3 * mk * L1 / m1) / (m1 * m1)
    return if_a, if_p


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


def batch_influence(acc: Accumulator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ratio_influence of area, perimeter and convex baseline on the batches with lines.

    To first order the pooled estimate is the mean of a batch's values, so
    their SD over sqrt(batches) is its standard error. Contiguous batches
    (Fishman & Yarberry, INFORMS J. Comput. 9(3), 1997) also hold the
    correlation of consecutive billiard bounces.
    """
    L1, L3, k, cube, _ = acc.batch[acc.batch[:, 4] > 0].T
    if L1.size < 2:
        raise InsufficientDataError("need lines in at least 2 batches for errors")
    if not L1.any():
        raise InsufficientDataError(f"no chord in {acc.n_lines} lines")
    if_a, if_p = ratio_influence(L1, L3, k)
    return if_a, if_p, ratio_influence(L1, cube, k)[0]


def _stderr(influence: np.ndarray) -> float:
    return float(np.std(influence, ddof=1) / math.sqrt(len(influence)))


def stderrs(acc: Accumulator) -> tuple[float, float]:
    """Batch-means standard errors of (area, perimeter), by linearization."""
    if_a, if_p, _ = batch_influence(acc)
    return _stderr(if_a), _stderr(if_p)


def convex_baseline_stderr(acc: Accumulator) -> float:
    """Batch-means standard error of the convex-only area baseline."""
    return _stderr(batch_influence(acc)[2])


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
    if np.unique(n_values).size < 2:
        raise ValueError("need at least two distinct N to fit")
    if not (np.all(np.isfinite(sigmas) & (sigmas > 0.0)) and np.all(n_values > 0.0)):
        raise ValueError("power-law fit needs positive N and finite positive sigma")
    slope, intercept = np.polyfit(np.log(n_values), np.log(sigmas), 1)
    return float(np.exp(intercept)), float(slope)
