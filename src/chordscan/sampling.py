"""Exploration line generators: IUR lines and billiard bounces in a circular arena.

A line is (theta, p): the angle theta in [0, pi) of its normal
n = (cos theta, sin theta) and its offset p along n from the arena's centre,
the coordinates in which IUR lines are uniform (dG = dp dtheta). This is the
one line format from the samplers to the ring scan.

Lines are drawn a block at a time, in a fixed order so runs are reproducible
from the seed. sample_iur_batch draws n (theta, p) pairs, one row of two
uniforms per line. billiard_segments draws a bounce chain as arena chords:
two uniforms for the initial position and heading of a fresh chain, one per
further bounce, and one for the heading it hands on to the next call;
line_params_of_segments turns chords into lines.
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
    position: Point  # on the arena boundary
    heading: float  # radians, pointing into the arena


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "iur"
    seed: int | np.random.SeedSequence = 0  # an int, or a SeedSequence from substream
    arena_scale: float = DEFAULT_ARENA_SCALE

    def __post_init__(self):
        if self.mode not in SAMPLER_MODES:
            raise ValueError(f"sampler mode must be one of {SAMPLER_MODES}")

    @property
    def billiard_policy(self) -> str | None:
        return {"billiard-cos": "cosine", "billiard-uni": "uniform"}.get(self.mode)


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
    """Arena containing the shape with margin, so no chord is ever clipped."""
    center, radius = shape.derived("bounding_circle", bounding_circle)
    return ArenaCircle(center, radius * scale)


def sample_iur_batch(
    rng: np.random.Generator, arena: ArenaCircle, n: int
) -> tuple[np.ndarray, np.ndarray]:
    u = rng.random((n, 2))
    return u[:, 0] * math.pi, (2.0 * u[:, 1] - 1.0) * arena.radius


def line_params_of_segments(
    a: np.ndarray, b: np.ndarray, origin: Point
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, p) of each segment's carrier line, p measured from origin.

    theta lies in [0, pi): the normal is the segment's direction turned by
    -90 or +90 degrees, whichever lands there, before the one arctan2, so
    theta is rounded once.
    """
    d = b - a
    # the normal (dy, -dx), turned round where -dx < 0
    nx = np.where(d[:, 0] > 0.0, -d[:, 1], d[:, 1])
    ny = np.abs(d[:, 0])
    theta = np.arctan2(ny, nx)
    p = (a[:, 0] - origin.x) * nx + (a[:, 1] - origin.y) * ny
    p /= np.sqrt(nx * nx + ny * ny)
    # an angle that rounds to pi is the line at 0 with its normal turned round
    at_pi = theta == math.pi
    theta[at_pi] = 0.0
    np.negative(p, out=p, where=at_pi)
    return theta, p


def _draw_normal_angle(u: np.ndarray, policy: str) -> np.ndarray:
    """Outgoing angle from the inward normal for one bounce, from a uniform."""
    if policy == "cosine":
        return np.arcsin(2.0 * u - 1.0)  # density prop. to cos(phi)
    if policy == "uniform":
        return (u - 0.5) * math.pi
    raise ValueError(f"unknown billiard policy {policy!r}")


def billiard_segments(
    rng: np.random.Generator,
    arena: ArenaCircle,
    n: int,
    policy: str = "cosine",
    state: BilliardState | None = None,
) -> tuple[np.ndarray, np.ndarray, BilliardState]:
    """n consecutive bounce segments, vectorized over the whole chain.

    On a circle the bounce map is a rotation: beta' = beta + pi + 2*phi, so the
    chain is a cumulative sum of independent increments. A fresh chain draws
    one uniform for its initial position and one for its initial heading,
    then one per further bounce and one for the heading of the returned
    state: n + 2 uniforms in that order. A resumed chain takes its first
    heading from the state and draws the other n. So n1 + n2 segments drawn
    at once equal n1 then n2 drawn by two chained calls, up to rounding.
    """
    if state is None:
        u0 = rng.random()
        beta0 = 2.0 * math.pi * u0
        phi0 = float(_draw_normal_angle(np.asarray(rng.random()), policy))
    else:
        beta0 = math.atan2(
            state.position.y - arena.center.y, state.position.x - arena.center.x
        )
        # wrap to (-pi, pi]: unwrapped, the angle doubles on every resumed call
        phi0 = math.remainder(state.heading - beta0 - math.pi, 2.0 * math.pi)
    if n < 1:
        raise ValueError("need at least one segment")
    phis = np.empty(n)
    phis[0] = phi0
    if n > 1:
        phis[1:] = _draw_normal_angle(rng.random(n - 1), policy)
    betas = np.empty(n + 1)
    betas[0] = beta0
    betas[1:] = beta0 + np.cumsum(math.pi + 2.0 * phis)
    cx, cy, r = arena.center.x, arena.center.y, arena.radius
    pts = np.column_stack([cx + r * np.cos(betas), cy + r * np.sin(betas)])
    # heading for the state after the last segment
    phi_next = float(_draw_normal_angle(np.asarray(rng.random()), policy))
    heading = math.remainder(betas[-1] + math.pi + phi_next, 2.0 * math.pi)
    end = BilliardState(Point(*pts[-1]), heading)
    return pts[:-1], pts[1:], end
