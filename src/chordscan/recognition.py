"""Dictionary-based shape recognition in the perimeter-area plane.

Each dictionary entry is a reference (P, A) point with a calibrated noise
model: standard deviations scaling as sigma0/sqrt(N) plus a correlation.
Classification is a bivariate-Gaussian likelihood with a uniform prior; the
exploration stops once the top posterior clears a threshold.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import estimators
from .estimators import EstimateReport
from .explore import LineStream, explore, running_sums_all
from .geometry import Shape, exact_area, exact_perimeter
from .sampling import SamplerConfig

DEFAULT_THRESHOLD = 0.95
# The sigma0/sqrt(N) noise model is a central-limit approximation; confidence
# claims below this many lines would trust Gaussian tails that do not exist
# yet, so stopping decisions only begin here (unless threshold == 0, which
# claims no confidence at all).
DEFAULT_WARMUP = 30
# The fewest lines of explore_until_stop's first draw, which ends at the
# earliest possible stop (warm-up plus confirmation window); later draws are
# 4 * STOP_CHUNK. The stop is checked after every line, so the sizes only
# bound how far a draw runs past it.
STOP_CHUNK = 256
_CORR_CLAMP = 0.999
# Lines per batch of calibrate's influence values. Consecutive billiard
# bounces share an endpoint and are correlated, so per-line values read
# sigma0 7-14% low for billiard-cos (statue, letter E); contiguous batches of
# 100 lines hold that correlation and match a 300-replicate spread within a
# few percent, for IUR too.
CALIBRATION_BATCH = 100


@dataclass(frozen=True)
class DictEntry:
    name: str
    p_ref: float
    a_ref: float
    sigma0_a: float
    sigma0_p: float
    corr: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p_ref, self.a_ref, self.sigma0_a, self.sigma0_p))):
            raise ValueError("reference values and noise prefactors must be finite")
        if self.p_ref <= 0 or self.a_ref <= 0:
            raise ValueError("reference perimeter/area must be positive")
        if self.sigma0_a <= 0 or self.sigma0_p <= 0:
            raise ValueError("noise prefactors must be positive")
        if not -1.0 < self.corr < 1.0:
            raise ValueError("correlation must be in (-1, 1)")


@dataclass(frozen=True)
class Posterior:
    probs: dict[str, float]
    top: str
    top_prob: float


@dataclass(frozen=True)
class Ellipse:
    center_p: float
    center_a: float
    semi_major: float
    semi_minor: float
    angle: float  # radians of the major axis from the +P direction
    level: float
    mahal_sq: float

    def contains(self, p: float, a: float) -> bool:
        """Whether (p, a) lies in the ellipse, its boundary included."""
        cos, sin = math.cos(self.angle), math.sin(self.angle)
        dp, da = p - self.center_p, a - self.center_a
        u = (cos * dp + sin * da) / self.semi_major  # along the major axis
        v = (cos * da - sin * dp) / self.semi_minor
        return u * u + v * v <= 1.0


def calibrate(
    shape: Shape,
    m_lines: int,
    replicates: int,
    config: SamplerConfig | None = None,
    *,
    name: str | None = None,
) -> DictEntry:
    """Reference values from the exact oracles, noise by linearization.

    m_lines * replicates is only a budget: calibrate runs explore(shape, n,
    config) over it, rounded down to whole batches, with one batch per
    CALIBRATION_BATCH lines. The prefactors are sqrt(CALIBRATION_BATCH) times
    the spread of the batches' influence values (estimators.batch_influence),
    and the correlation is that of the two influence values.
    """
    if m_lines < 1:
        raise ValueError("calibration needs at least 1 line per replicate")
    n_batches = m_lines * replicates // CALIBRATION_BATCH
    if n_batches < 2:
        raise estimators.InsufficientDataError(
            f"{m_lines * replicates} lines hold fewer than 2 batches of {CALIBRATION_BATCH}"
        )
    acc = explore(shape, n_batches * CALIBRATION_BATCH, config, n_batches=n_batches)
    if_a, if_p, _ = estimators.batch_influence(acc)
    corr = float(np.corrcoef(if_p, if_a)[0, 1])
    if not math.isfinite(corr):
        corr = 0.0
    corr = max(-_CORR_CLAMP, min(_CORR_CLAMP, corr))
    root_b = math.sqrt(CALIBRATION_BATCH)
    return DictEntry(
        name=name or shape.name or "shape",
        p_ref=exact_perimeter(shape),
        a_ref=exact_area(shape),
        sigma0_a=float(np.std(if_a, ddof=1)) * root_b,
        sigma0_p=float(np.std(if_p, ddof=1)) * root_b,
        corr=corr,
    )


def _entry_arrays(entries: list[DictEntry]) -> np.ndarray:
    """The entries' p_ref, a_ref, 1/sigma0_p, 1/sigma0_a and corr as rows, one column per entry."""
    return np.array([(e.p_ref, e.a_ref, 1 / e.sigma0_p, 1 / e.sigma0_a, e.corr) for e in entries]).T


def _log_likelihoods(
    p_hat: np.ndarray, a_hat: np.ndarray, n: np.ndarray, ref: np.ndarray
) -> np.ndarray:
    """Log-density of each observation (rows) under each entry (columns of
    _entry_arrays), exact up to a constant per row.

    With sigma = sigma0/sqrt(N) the squared Mahalanobis distance is N times
    its value at N = 1, and the normaliser's log N term, the same for every
    entry, is left out: the softmax of _posteriors cancels it. So the block
    takes one per-entry normaliser and is updated in place. It is the
    transpose of an entry-major array, so numpy's inner loops run along the
    observations.
    """
    pr, ar, inv_p, inv_a, rho = ref[:, :, None]
    one_minus = 1.0 - rho * rho
    dp = np.asarray(p_hat, dtype=float).ravel() - pr
    dp *= inv_p
    da = np.asarray(a_hat, dtype=float).ravel() - ar
    da *= inv_a
    cross = dp * da
    cross *= 2.0 * rho
    z = np.square(dp, out=dp)
    z += np.square(da, out=da)
    z -= cross
    z *= -0.5 / one_minus
    z *= np.asarray(n, dtype=float).ravel()
    z += np.log(inv_p * inv_a / (2.0 * math.pi * np.sqrt(one_minus)))
    return z.T


def _posteriors(loglik: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax posteriors (uniform prior), top entries and their
    probabilities; the posteriors take loglik's place. An entry less likely
    than e^-700 times the top reads as that fraction of it."""
    w = loglik.T  # entry-major, as _log_likelihoods lays it out
    # numpy's argmax does not vectorise along the strided entry axis, but the
    # comparison and a boolean argmax do: the first entry at the maximum
    top_w = w.max(axis=0)
    top = (w == top_w).argmax(axis=0)
    w -= top_w
    # exp is many times slower where it underflows, and a weight under
    # e^-700 cannot move a sum that holds 1
    np.maximum(w, -700.0, out=w)
    np.exp(w, out=w)
    # summed in entry order, whatever the block: numpy sums a lone row pairwise
    total = w[0].copy()
    for weights in w[1:]:
        total += weights
    w /= total
    # the top's weight is exp(0) = 1
    return loglik, top, 1.0 / total


def classify(report: EstimateReport, entries: list[DictEntry]) -> Posterior:
    """Posterior over dictionary entries for one estimate report.

    The noise is the report's own batch stderrs, uncorrelated, when they are
    finite and positive, otherwise each entry's calibrated sigma0/sqrt(N).
    """
    if not entries:
        raise ValueError("dictionary is empty")
    own = (
        math.isfinite(report.stderr_p)
        and math.isfinite(report.stderr_a)
        and report.stderr_p > 0.0
        and report.stderr_a > 0.0
    )
    ref, n = _entry_arrays(entries), report.n_lines
    if own:
        # every entry's noise is the report's stderrs, as sigma0 at N = 1
        ref[2], ref[3], ref[4], n = 1.0 / report.stderr_p, 1.0 / report.stderr_a, 0.0, 1
    probs, top, top_prob = _posteriors(_log_likelihoods(report.perim_hat, report.area_hat, n, ref))
    return Posterior(
        probs={e.name: float(pv) for e, pv in zip(entries, probs[0])},
        top=entries[top[0]].name,
        top_prob=float(top_prob[0]),
    )


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], not {threshold}")


def should_stop(post: Posterior, threshold: float = DEFAULT_THRESHOLD) -> bool:
    _check_threshold(threshold)
    return post.top_prob >= threshold


def confidence_ellipse(entry: DictEntry, n: int, level: float) -> Ellipse:
    """Level-set ellipse of the entry's Gaussian at n lines (2-dof chi-square)."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    if n <= 0:
        raise ValueError("n must be positive")
    r2 = -2.0 * math.log1p(-level)  # chi-square quantile at 2 dof
    sp = entry.sigma0_p / math.sqrt(n)
    sa = entry.sigma0_a / math.sqrt(n)
    cov = np.array(
        [
            [sp * sp, entry.corr * sp * sa],
            [entry.corr * sp * sa, sa * sa],
        ]
    )
    vals, vecs = np.linalg.eigh(cov)  # ascending
    major = math.sqrt(vals[1] * r2)
    minor = math.sqrt(max(vals[0], 0.0) * r2)
    angle = math.atan2(vecs[1, 1], vecs[0, 1])
    return Ellipse(entry.p_ref, entry.a_ref, major, minor, angle, level, r2)


@dataclass
class LandscapeGrid:
    """Winning entry (or None) above threshold at each (P, A) grid cell."""

    p_axis: np.ndarray
    a_axis: np.ndarray
    labels: list[list[str | None]]  # [i_p][i_a]
    n_lines: int
    threshold: float


def landscape(
    entries: list[DictEntry],
    n_lines: int,
    p_axis: np.ndarray | None = None,
    a_axis: np.ndarray | None = None,
    resolution: int = 60,
    threshold: float = DEFAULT_THRESHOLD,
) -> LandscapeGrid:
    """Classify a synthetic estimate at every grid point with N-scaled noise."""
    if not entries:
        raise ValueError("dictionary is empty")
    _check_threshold(threshold)
    ref = _entry_arrays(entries)
    if p_axis is None or a_axis is None:
        pr, ar = ref[0], ref[1]
        pad_p = 0.25 * (pr.max() - pr.min() + 1.0)
        pad_a = 0.25 * (ar.max() - ar.min() + 1.0)
        if p_axis is None:
            p_axis = np.linspace(max(pr.min() - pad_p, 1e-9), pr.max() + pad_p, resolution)
        if a_axis is None:
            a_axis = np.linspace(max(ar.min() - pad_a, 1e-9), ar.max() + pad_a, resolution)
    if n_lines < 1 or np.size(p_axis) == 0 or np.size(a_axis) == 0:
        raise ValueError("a landscape needs at least 1 line and non-empty axes")
    pg, ag = np.meshgrid(p_axis, a_axis, indexing="ij")
    loglik = _log_likelihoods(pg.ravel(), ag.ravel(), np.full(pg.size, n_lines), ref)
    _, top, top_prob = _posteriors(loglik)
    names = [e.name for e in entries]
    flat = [
        names[t] if q >= threshold else None for t, q in zip(top, top_prob)
    ]
    labels = [
        list(flat[i * len(a_axis) : (i + 1) * len(a_axis)]) for i in range(len(p_axis))
    ]
    return LandscapeGrid(np.asarray(p_axis), np.asarray(a_axis), labels, n_lines, threshold)


@dataclass(frozen=True)
class StopResult:
    label: str | None
    n_stop: int
    censored: bool
    area_hat: float
    perim_hat: float
    top_prob: float


def explore_until_stop(
    shape: Shape,
    entries: list[DictEntry],
    config: SamplerConfig | None = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    n_max: int = 100_000,
    warm_up: int = DEFAULT_WARMUP,
    confirm: int = 1,
) -> StopResult:
    """Explore line by line until the posterior top clears the threshold.

    Classification uses the dictionary's calibrated noise at each prefix N,
    checked after every line; threshold is a posterior level, not a bound on
    wrong stops (README, Stopping). Confidence stopping starts at warm_up lines;
    threshold == 0 instead stops at the first prefix with a defined estimate.
    With confirm > 1 the same top label must clear the threshold on that many
    consecutive lines, which counters the multiple-comparison inflation of
    checking after every line: a prefix below the threshold ends the streak,
    while one without a defined estimate neither extends nor ends it. Lines
    are drawn from config's seed. The first draw ends at the earliest
    possible stop, warm_up + confirm - 1 lines (at least STOP_CHUNK), later
    ones are 4 * STOP_CHUNK lines; the prefix sums and the streak run on
    across draws, so the result does not depend on the draw sizes. The
    one-slot case of explore_slots_until_stop.
    """
    return explore_slots_until_stop(
        [(shape, config)], entries, threshold=threshold, n_max=n_max, warm_up=warm_up,
        confirm=confirm,
    )[0]


def explore_slots_until_stop(
    slots: list[tuple[Shape, SamplerConfig | None]],
    entries: list[DictEntry],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    n_max: int = 100_000,
    warm_up: int = DEFAULT_WARMUP,
    confirm: int = 1,
) -> list[StopResult]:
    """explore_until_stop of each (shape, config) slot, the slots in lockstep.

    The running slots share one draw schedule: a round takes the next draw of
    every running slot, all of one size, in one explore.take_all, and scores
    its (slots x prefixes) block of the grid from the warm-up on in one pass
    of the posterior, at most 4 * STOP_CHUNK cells at a time; each slot's
    streak runs along its row from the streak it carried in. A slot keeps its
    own stream, running sums and streak, and leaves the rounds when it stops;
    the rest leave together at n_max, censored (with no estimate if n_max is
    below the warm-up). Its result is the one explore_until_stop gives it alone.
    """
    if not entries:
        raise ValueError("dictionary is empty")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    _check_threshold(threshold)
    streams = [LineStream(shape, config) for shape, config in slots]
    ref = _entry_arrays(entries)
    min_n = 1 if threshold <= 0.0 else max(1, warm_up)
    confirm = 1 if threshold <= 0.0 else max(1, confirm)
    first = max(min_n + confirm - 1, STOP_CHUNK)
    results = [StopResult(None, n_max, True, math.nan, math.nan, 0.0)] * len(slots)
    # each slot's confirmation streak, and its label, at the end of its last
    # scored prefix
    streak, streak_label = np.zeros((2, len(slots)), dtype=np.intp)
    running, done = np.arange(len(slots)), 0
    while running.size and done < n_max:
        n = min(4 * STOP_CHUNK if done else first, n_max - done)
        l1, l3, kk = running_sums_all([streams[s] for s in running], n)
        lo = max(0, min_n - 1 - done)  # the round's first column at or past the warm-up
        n_col = np.arange(done + lo + 1, done + n + 1)
        done += n
        if not n_col.size:
            continue
        l1, l3, kk = l1[:, lo:], l3[:, lo:], kk[:, lo:]
        # a prefix with no chord has no estimate: its 0/0 cell is never over,
        # so its run is 0 and its top is never read
        defined = (l1 > 0.0) & (kk > 0)
        with np.errstate(invalid="ignore"):
            a_hat, p_hat = estimators.area_perimeter(l1, l3, kk)
        top, top_prob = _top_posteriors(p_hat.ravel(), a_hat.ravel(), np.tile(n_col, len(l1)), ref)
        top, top_prob = top.reshape(l1.shape), top_prob.reshape(l1.shape)
        run = _runs(defined & (top_prob >= threshold), top, streak[running], streak_label[running])
        hits = run >= confirm
        stop = hits.any(axis=1)
        # the stop, or at n_max a censored result from the slot's last prefix, n_max
        rows = np.flatnonzero(stop | defined[:, -1] if done >= n_max else stop)
        cols = np.where(stop, hits.argmax(axis=1), -1)[rows]
        for s, r, c in zip(running[rows].tolist(), rows.tolist(), cols.tolist()):
            results[s] = StopResult(
                label=entries[int(top[r, c])].name,
                n_stop=int(n_col[c]),
                censored=not stop[r],
                area_hat=float(a_hat[r, c]),
                perim_hat=float(p_hat[r, c]),
                top_prob=float(top_prob[r, c]),
            )
        streak[running], streak_label[running] = run[:, -1], top[:, -1]
        running = running[~stop]
    return results


def _runs(over: np.ndarray, top: np.ndarray, streak: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Each grid cell's confirmation run: the cells up to it, in its row, that
    clear the threshold (over) with its top label one after another; 0 for a
    cell that does not clear it.

    Row r carries in a streak[r] >= 0 of label[r] from before its first
    cell. A cell starts a run unless the cell before it (for the first cell,
    the carried streak) cleared the threshold with the same label. A run
    starts at its first cell's column, the carried one at -streak[r], so each
    cell's run start is a running maximum along axis 1.
    """
    same = np.empty(over.shape, dtype=bool)
    same[:, 1:] = over[:, :-1] & (top[:, 1:] == top[:, :-1])
    same[:, 0] = (streak > 0) & (top[:, 0] == label)
    pos = np.arange(over.shape[1])
    starts = np.maximum.accumulate(np.where(over & ~same, pos, -streak[:, None]), axis=1)
    return np.where(over, pos - starts + 1, 0)


def _top_posteriors(p_hat, a_hat, n, ref) -> tuple[np.ndarray, np.ndarray]:
    """_posteriors' top entries and top probabilities of rows (p_hat, a_hat, n),
    4 * STOP_CHUNK rows at a time."""
    step = 4 * STOP_CHUNK
    tops = [
        _posteriors(_log_likelihoods(p_hat[rows], a_hat[rows], n[rows], ref))[1:]
        for rows in (slice(lo, lo + step) for lo in range(0, p_hat.size, step))
    ]
    return tuple(np.concatenate(col) for col in zip(*tops))


@dataclass
class StoppingStudy:
    stop_n: np.ndarray
    censored: np.ndarray
    labels: list[str | None]
    wrong_fraction: float

    def median_stop(self) -> float:
        return float(np.median(self.stop_n))


def lines_to_recognize(
    shape: Shape,
    entries: list[DictEntry],
    seeds,
    config: SamplerConfig | None = None,
    *,
    n_max: int = 100_000,
) -> StoppingStudy:
    """Stopping-N distribution over seeds, plus the wrong-label fraction; the
    seeds run as the slots of one explore_slots_until_stop."""
    truth = shape.name
    if truth is not None and truth not in {e.name for e in entries}:
        raise ValueError(f"shape {truth!r} is not in the dictionary")
    config = config or SamplerConfig()
    slots = [(shape, dataclasses.replace(config, seed=int(seed))) for seed in seeds]
    results = explore_slots_until_stop(slots, entries, n_max=n_max)
    labels = [res.label for res in results]
    wrong = sum(truth is not None and label != truth for label in labels)
    return StoppingStudy(
        stop_n=np.array([res.n_stop for res in results]),
        censored=np.array([res.censored for res in results], dtype=bool),
        labels=labels,
        wrong_fraction=wrong / max(len(labels), 1),
    )


def save_dictionary(entries: list[DictEntry], path) -> None:
    with open(path, "w") as fh:
        json.dump([dataclasses.asdict(e) for e in entries], fh, indent=2)
        fh.write("\n")


def load_dictionary(path) -> list[DictEntry]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, list) or not all(isinstance(e, dict) for e in doc):
        raise ValueError("dictionary file must hold an array of entry objects")
    numbers = ("p_ref", "a_ref", "sigma0_a", "sigma0_p")
    try:
        entries = [
            DictEntry(str(e["name"]), *(float(e[k]) for k in numbers), float(e.get("corr", 0.0)))
            for e in doc
        ]
    except TypeError as exc:  # a value such as null or a list, where a number belongs
        raise ValueError(f"dictionary values must be numbers: {exc}") from None
    names = [e.name for e in entries]
    if len(set(names)) < len(names):
        raise ValueError(f"dictionary names {max(names, key=names.count)!r} more than once")
    return entries
