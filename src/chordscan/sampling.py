"""Exploration line generators: IUR lines and billiard bounces in a circular arena.

A line is (theta, p): the angle theta in [0, pi) of its normal
n = (cos theta, sin theta) and its offset p along n from the arena's centre,
the coordinates in which IUR lines are uniform (dG = dp dtheta). It is the
one line format from the samplers to the ring scan, keyed to that centre.

Lines are drawn a block at a time, in a fixed order so runs are reproducible
from the seed: sample_iur_batch draws n (theta, p) pairs, one row of two
uniforms per line, and billiard_lines works each line of a bounce chain out
from its bounce angles. The cosine law draws sin(phi) = 2u - 1 uniformly,
which is the line's offset over the radius up to sign, and phi is its
arcsine; theta is the exact remainder of the normal's angle modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Shape, bounding_circle

SAMPLER_MODES = ("iur", "billiard-cos", "billiard-uni")
DEFAULT_ARENA_SCALE = 1.2


@dataclass(frozen=True)
class ArenaCircle:
    center: Point
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("arena radius must be positive")


@dataclass(frozen=True)
class BilliardState:
    beta: float  # wall angle of the next bounce point about the centre, in [-pi, pi]
    phi: float  # angle of the next heading from the inward normal there


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "iur"
    seed: int | np.random.SeedSequence = 0  # an int, or a SeedSequence from substream
    arena_scale: float = DEFAULT_ARENA_SCALE

    def __post_init__(self):
        if self.mode not in SAMPLER_MODES:
            raise ValueError(f"sampler mode must be one of {SAMPLER_MODES}")
        if not 1.0 <= self.arena_scale < math.inf:
            raise ValueError(f"arena_scale must be finite and at least 1, not {self.arena_scale}")


# First word of the substream key of each site that draws substreams, so that
# no two sites share a stream: substream(seed, LETTER, i) for letter i.
WORKER, REPLICATE, SLOT, LETTER, WORD = range(5)


def substream(seed: int | np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Substream `key` of `seed`, for np.random.default_rng.

    Unlike default_rng([seed, 0]), which draws what default_rng(seed) draws,
    a spawn key repeats neither the seed's stream nor another key's. A seed
    that is itself a substream is keyed further, as SeedSequence.spawn does:
    substream(substream(s, i), j) is substream(s, i, j).
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed, spawn_key=key)


def arena_for(shape: Shape, scale: float = DEFAULT_ARENA_SCALE) -> ArenaCircle:
    """The shape's arena: the circle it carries (letter_shape's) or its bounding circle, scaled."""
    center, radius = shape.derived("arena", bounding_circle)
    return ArenaCircle(center, radius * scale)


def sample_iur_batch(
    rng: np.random.Generator, arena: ArenaCircle, n: int
) -> tuple[np.ndarray, np.ndarray]:
    u = rng.random((n, 2))
    return u[:, 0] * math.pi, (2.0 * u[:, 1] - 1.0) * arena.radius


# pi = _PI_HI + _PI_LO: _PI_HI has 36 bits, so t * _PI_HI is exact for |t| < 2**17
_PI_HI = float.fromhex("0x1.921fb54440000p+1")
_PI_LO = math.pi - _PI_HI


def _mod_pi(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, theta) with mu = t*pi + theta, theta in [0, pi): np.divmod(mu, pi)'s
    quotient and remainder, but a remainder that rounds to pi is 0 of the
    next half turn.

    theta is mu - t*pi for t = floor(mu / pi), taken in two steps: both
    products t*_PI_HI and t*_PI_LO are exact while |t| < 2**17, and
    mu - t*_PI_HI is exact or rounded onto the remainder's own ulp grid, on
    which _PI_LO lies, so theta is rounded once, as np.divmod's remainder is,
    and equals it. Where the quotient rounded up to the next integer, or the
    remainder of a negative mu rounds to pi, theta moves by a half turn.
    """
    turns = np.floor(mu / math.pi)
    theta = turns * -_PI_HI
    theta += mu
    theta -= turns * _PI_LO
    if theta.min() < 0.0 or theta.max() >= math.pi:
        low = theta < 0.0
        theta[low] += math.pi
        turns[low] -= 1.0
        high = theta >= math.pi
        theta[high] -= math.pi
        turns[high] += 1.0
    return turns, theta


def _draw_bounces(u: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Outgoing angles phi from the inward normal, one per uniform, and sin(phi)."""
    if mode == "billiard-cos":
        # sin(phi) uniform on [-1, 1] is phi's density prop. to cos(phi)
        sin_phi = 2.0 * u - 1.0
        return np.arcsin(sin_phi), sin_phi
    if mode == "billiard-uni":
        phi = (u - 0.5) * math.pi
        return phi, np.sin(phi)
    raise ValueError(f"unknown billiard mode {mode!r}")


def billiard_lines(
    rng: np.random.Generator,
    arena: ArenaCircle,
    n: int,
    mode: str,
    state: BilliardState | None = None,
) -> tuple[np.ndarray, np.ndarray, BilliardState]:
    """The lines (theta, p) of n consecutive bounce chords, and the chain's state.

    A chord leaving wall angle beta at phi from the inward normal ends at
    beta + pi + 2*phi, so the chain is a cumulative sum of independent
    increments. Its normal points at its midpoint, at angle
    mu = beta + pi/2 + phi and distance -R*sin(phi); theta is mu mod pi,
    exactly (_mod_pi), p turning sign with the normal at odd multiples of pi. The sum drops the
    half turns, gamma_i = beta_i - i*pi, so theta rounds at the size of the
    walk of the 2*phi, not of the chain; each half turn flips p's sign.

    A fresh chain draws a uniform for its first wall angle and one per bounce
    angle, the last for the state it returns: n + 2 in that order. A resumed
    chain starts from the state and draws n. So n1 + n2 lines at once equal
    n1 then n2 from two chained calls, up to rounding.
    """
    if n < 1:
        raise ValueError("need at least one line")
    phis, sin_phis = np.empty(n), np.empty(n)
    if state is None:
        beta0 = 2.0 * math.pi * rng.random()
        phis[0], sin_phis[0] = _draw_bounces(np.asarray(rng.random()), mode)
    else:
        beta0, phis[0] = state.beta, state.phi
        sin_phis[0] = np.sin(state.phi)
    if n > 1:
        phis[1:], sin_phis[1:] = _draw_bounces(rng.random(n - 1), mode)
    gammas = np.empty(n + 1)
    gammas[0] = beta0
    gammas[1:] = beta0 + np.cumsum(2.0 * phis)
    turns, theta = _mod_pi(gammas[:-1] + (0.5 * math.pi + phis))
    # p is -R sin(phi) at even (turns + i), R sin(phi) at odd
    p = ((turns.astype(np.int64) + np.arange(n)) & 1) * (2.0 * arena.radius) - arena.radius
    p *= sin_phis
    phi_next = float(_draw_bounces(np.asarray(rng.random()), mode)[0])
    # wrapped, the wall angle does not grow over a chain of resumed calls
    end = BilliardState(math.remainder(gammas[-1] + (n % 2) * math.pi, 2.0 * math.pi), phi_next)
    return theta, p, end
