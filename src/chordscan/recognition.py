"""Dictionary-based shape recognition in the perimeter-area plane.

Each dictionary entry is a reference (P, A) point with a replicate-calibrated
noise model: standard deviations scaling as sigma0/sqrt(N) plus a correlation.
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
from .explore import LineStream, replicate_sums
from .geometry import Shape, exact_area, exact_perimeter
from .sampling import ArenaCircle, SamplerConfig

DEFAULT_THRESHOLD = 0.95
# The sigma0/sqrt(N) noise model is a central-limit approximation; confidence
# claims below this many lines would trust Gaussian tails that do not exist
# yet, so stopping decisions only begin here (unless threshold == 0, which
# claims no confidence at all).
DEFAULT_WARMUP = 30
# Lines per draw after the first; the stop is checked after every line, so
# this only bounds how far the draws run past it.
STOP_CHUNK = 256
_CORR_CLAMP = 0.999


@dataclass(frozen=True)
class DictEntry:
    name: str
    p_ref: float
    a_ref: float
    sigma0_a: float
    sigma0_p: float
    corr: float = 0.0

    def __post_init__(self):
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

    def contains(self, p: float, a: float, entry: DictEntry, n: int) -> bool:
        sp = entry.sigma0_p / math.sqrt(n)
        sa = entry.sigma0_a / math.sqrt(n)
        dp = (p - entry.p_ref) / sp
        da = (a - entry.a_ref) / sa
        return _mahalanobis_sq(dp, da, entry.corr) <= self.mahal_sq


def _mahalanobis_sq(dp, da, rho):
    """Squared Mahalanobis distance of standardized offsets with correlation rho."""
    return (dp * dp - 2.0 * rho * dp * da + da * da) / (1.0 - rho * rho)


def calibrate(
    shape: Shape,
    m_lines: int,
    replicates: int,
    config: SamplerConfig | None = None,
    *,
    name: str | None = None,
    arena: ArenaCircle | None = None,
) -> DictEntry:
    """Reference values from the exact oracles, noise from replicate spread.

    Replicate r explores m_lines with substream (seed, r); the spread of the
    (area, perimeter) cloud scaled by sqrt(m_lines) gives the prefactors.
    The replicates are observed together in shared kernel blocks
    (explore.replicate_sums); their substreams, and so the entry, are the
    same as when each replicate runs its own explore.
    """
    config = config or SamplerConfig()
    if replicates < 2:
        raise ValueError("calibration needs at least 2 replicates")
    if m_lines < 1:
        raise ValueError("calibration needs at least 1 line per replicate")
    sum_l1, sum_l3, chords = replicate_sums(shape, m_lines, replicates, config, arena=arena)
    empty = np.flatnonzero((sum_l1 <= 0.0) | (chords <= 0))
    if empty.size:
        raise estimators.InsufficientDataError(
            f"replicate {empty[0]} has no chord in its {m_lines} lines"
        )
    a_vals, p_vals = estimators.area_perimeter(sum_l1, sum_l3, chords)
    corr = float(np.corrcoef(p_vals, a_vals)[0, 1])
    if not math.isfinite(corr):
        corr = 0.0
    corr = max(-_CORR_CLAMP, min(_CORR_CLAMP, corr))
    root_m = math.sqrt(m_lines)
    return DictEntry(
        name=name or shape.name or "shape",
        p_ref=exact_perimeter(shape),
        a_ref=exact_area(shape),
        sigma0_a=float(np.std(a_vals, ddof=1)) * root_m,
        sigma0_p=float(np.std(p_vals, ddof=1)) * root_m,
        corr=corr,
    )


def _log_likelihoods(
    p_hat: np.ndarray,
    a_hat: np.ndarray,
    n: np.ndarray,
    entries: list[DictEntry],
    shared_sigma: tuple[float, float] | None = None,
) -> np.ndarray:
    """Log-density of each observation (rows) under each entry (columns)."""
    p_hat = np.atleast_1d(np.asarray(p_hat, dtype=float))[:, None]
    a_hat = np.atleast_1d(np.asarray(a_hat, dtype=float))[:, None]
    n = np.atleast_1d(np.asarray(n, dtype=float))[:, None]
    pr = np.array([e.p_ref for e in entries])[None, :]
    ar = np.array([e.a_ref for e in entries])[None, :]
    if shared_sigma is None:
        sp = np.array([e.sigma0_p for e in entries])[None, :] / np.sqrt(n)
        sa = np.array([e.sigma0_a for e in entries])[None, :] / np.sqrt(n)
        rho = np.array([e.corr for e in entries])[None, :]
    else:
        sp = np.full((1, len(entries)), shared_sigma[0])
        sa = np.full((1, len(entries)), shared_sigma[1])
        rho = np.zeros((1, len(entries)))
    dp = (p_hat - pr) / sp
    da = (a_hat - ar) / sa
    z = _mahalanobis_sq(dp, da, rho)
    return -np.log(2.0 * math.pi * sp * sa * np.sqrt(1.0 - rho * rho)) - 0.5 * z


def _posteriors(loglik: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax posteriors (uniform prior), top entries and their probabilities."""
    w = np.exp(loglik - loglik.max(axis=1, keepdims=True))
    probs = w / w.sum(axis=1, keepdims=True)
    top = np.argmax(probs, axis=1)
    return probs, top, probs[np.arange(len(top)), top]


def classify(report: EstimateReport, entries: list[DictEntry]) -> Posterior:
    """Posterior over dictionary entries for one estimate report.

    The noise is the report's own batch stderrs when they are finite and
    positive, otherwise each entry's calibrated sigma0/sqrt(N).
    """
    if not entries:
        raise ValueError("dictionary is empty")
    own = (
        math.isfinite(report.stderr_p)
        and math.isfinite(report.stderr_a)
        and report.stderr_p > 0.0
        and report.stderr_a > 0.0
    )
    shared = (report.stderr_p, report.stderr_a) if own else None
    loglik = _log_likelihoods(
        report.perim_hat, report.area_hat, report.n_lines, entries, shared_sigma=shared
    )
    probs, top, top_prob = _posteriors(loglik)
    return Posterior(
        probs={e.name: float(pv) for e, pv in zip(entries, probs[0])},
        top=entries[top[0]].name,
        top_prob=float(top_prob[0]),
    )


def should_stop(post: Posterior, threshold: float = DEFAULT_THRESHOLD) -> bool:
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
    if p_axis is None or a_axis is None:
        pr = np.array([e.p_ref for e in entries])
        ar = np.array([e.a_ref for e in entries])
        pad_p = 0.25 * (pr.max() - pr.min() + 1.0)
        pad_a = 0.25 * (ar.max() - ar.min() + 1.0)
        if p_axis is None:
            p_axis = np.linspace(max(pr.min() - pad_p, 1e-9), pr.max() + pad_p, resolution)
        if a_axis is None:
            a_axis = np.linspace(max(ar.min() - pad_a, 1e-9), ar.max() + pad_a, resolution)
    pg, ag = np.meshgrid(p_axis, a_axis, indexing="ij")
    loglik = _log_likelihoods(
        pg.ravel(), ag.ravel(), np.full(pg.size, n_lines), entries
    )
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
    arena: ArenaCircle | None = None,
    rng: np.random.Generator | None = None,
) -> StopResult:
    """Explore line by line until the posterior top clears the threshold.

    Classification uses the dictionary's calibrated noise at each prefix N,
    checked after every line. Confidence stopping starts at warm_up lines;
    threshold == 0 instead stops at the first prefix with a defined estimate.
    With confirm > 1 the same top label must clear the threshold on that many
    consecutive lines, which counters the multiple-comparison inflation of
    checking after every line. Lines come from rng when given, otherwise from
    a generator seeded by config. The first draw reaches the warm-up (no
    shorter prefix can stop), later ones are STOP_CHUNK lines; the prefix sums
    run on across draws, so the result does not depend on the draw sizes.
    """
    if not entries:
        raise ValueError("dictionary is empty")
    stream = LineStream(shape, config, arena=arena, rng=rng)
    # running sums; each draw continues from the previous draw's last prefix
    l1 = l3 = np.zeros(1)
    kk = np.zeros(1, dtype=np.int64)
    done = 0
    min_n = 1 if threshold <= 0.0 else max(1, warm_up)
    confirm = 1 if threshold <= 0.0 else max(1, confirm)
    streak_label: int = -1
    streak = 0
    last = StopResult(None, n_max, True, float("nan"), float("nan"), 0.0)
    while done < n_max:
        take_n = min(STOP_CHUNK if done else max(min_n, STOP_CHUNK), n_max - done)
        obs = stream.take(take_n)
        l1 = np.cumsum(np.concatenate((l1[-1:], obs.L1)))[1:]
        l3 = np.cumsum(np.concatenate((l3[-1:], obs.L3)))[1:]
        kk = np.cumsum(np.concatenate((kk[-1:], obs.k)))[1:]
        n_prefix = done + np.arange(1, take_n + 1)
        idx = np.flatnonzero((l1 > 0.0) & (kk > 0) & (n_prefix >= min_n))
        if idx.size:
            a_hat, p_hat = estimators.area_perimeter(l1[idx], l3[idx], kk[idx])
            _, top, top_prob = _posteriors(_log_likelihoods(p_hat, a_hat, n_prefix[idx], entries))
            over = top_prob >= threshold
            for pos in range(len(idx)):
                if not over[pos]:
                    streak = 0
                    continue
                t = int(top[pos])
                streak = streak + 1 if t == streak_label else 1
                streak_label = t
                if streak >= confirm:
                    return StopResult(
                        label=entries[t].name,
                        n_stop=int(n_prefix[idx[pos]]),
                        censored=False,
                        area_hat=float(a_hat[pos]),
                        perim_hat=float(p_hat[pos]),
                        top_prob=float(top_prob[pos]),
                    )
            last = StopResult(
                label=entries[int(top[-1])].name,
                n_stop=n_max,
                censored=True,
                area_hat=float(a_hat[-1]),
                perim_hat=float(p_hat[-1]),
                top_prob=float(top_prob[-1]),
            )
        done += take_n
    return last


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
    """Stopping-N distribution over seeds, plus the wrong-label fraction."""
    truth = shape.name
    if truth is not None and truth not in {e.name for e in entries}:
        raise ValueError(f"shape {truth!r} is not in the dictionary")
    config = config or SamplerConfig()
    stop_n, censored, labels = [], [], []
    wrong = 0
    for seed in seeds:
        res = explore_until_stop(
            shape, entries, dataclasses.replace(config, seed=int(seed)), n_max=n_max
        )
        stop_n.append(res.n_stop)
        censored.append(res.censored)
        labels.append(res.label)
        if truth is not None and res.label != truth:
            wrong += 1
    return StoppingStudy(
        stop_n=np.array(stop_n),
        censored=np.array(censored, dtype=bool),
        labels=labels,
        wrong_fraction=wrong / max(len(labels), 1),
    )


def save_dictionary(entries: list[DictEntry], path) -> None:
    doc = [
        {
            "name": e.name,
            "p_ref": e.p_ref,
            "a_ref": e.a_ref,
            "sigma0_a": e.sigma0_a,
            "sigma0_p": e.sigma0_p,
            "corr": e.corr,
        }
        for e in entries
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_dictionary(path) -> list[DictEntry]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("dictionary file must hold an array of entries")
    return [
        DictEntry(
            name=str(e["name"]),
            p_ref=float(e["p_ref"]),
            a_ref=float(e["a_ref"]),
            sigma0_a=float(e["sigma0_a"]),
            sigma0_p=float(e["sigma0_p"]),
            corr=float(e.get("corr", 0.0)),
        )
        for e in doc
    ]
