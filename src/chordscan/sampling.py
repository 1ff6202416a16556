"""Exploration line generators: IUR lines and billiard bounces in a circular arena.

Random draws follow a fixed order so runs are reproducible from the seed:
each IUR line consumes (theta, offset) in that order, each billiard bounce one
uniform for the outgoing angle (plus two draws for the initial state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Shape, bounding_circle

SAMPLER_MODES = ("iur", "billiard-cos", "billiard-uni")
_MODE_ALIASES = {"billiard-cosine": "billiard-cos", "billiard-uniform": "billiard-uni"}
DEFAULT_ARENA_SCALE = 1.2


class LineMissesArenaError(ValueError):
    """The requested line lies entirely outside the arena circle."""


@dataclass(frozen=True)
class ArenaCircle:
    center: Point
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("arena radius must be positive")


@dataclass(frozen=True)
class LineParam:
    """A line as (normal angle, signed offset) about the arena center."""

    theta: float
    p: float
    arena_center: Point


@dataclass(frozen=True)
class BilliardState:
    position: Point  # on the arena boundary
    heading: float  # radians, pointing into the arena


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "iur"
    seed: int = 0
    arena_scale: float = DEFAULT_ARENA_SCALE

    def __post_init__(self):
        mode = _MODE_ALIASES.get(self.mode, self.mode)
        if mode not in SAMPLER_MODES:
            raise ValueError(f"sampler mode must be one of {SAMPLER_MODES}")
        object.__setattr__(self, "mode", mode)

    @property
    def billiard_policy(self) -> str | None:
        return {"billiard-cos": "cosine", "billiard-uni": "uniform"}.get(self.mode)


def arena_for(shape: Shape, scale: float = DEFAULT_ARENA_SCALE) -> ArenaCircle:
    """Arena containing the shape with margin, so no chord is ever clipped."""
    center, radius = bounding_circle(shape)
    return ArenaCircle(center, radius * scale)


def sample_iur(rng: np.random.Generator, arena: ArenaCircle) -> LineParam:
    u = rng.random(2)
    return LineParam(u[0] * math.pi, (2.0 * u[1] - 1.0) * arena.radius, arena.center)


def sample_iur_batch(
    rng: np.random.Generator, arena: ArenaCircle, n: int
) -> tuple[np.ndarray, np.ndarray]:
    u = rng.random((n, 2))
    return u[:, 0] * math.pi, (2.0 * u[:, 1] - 1.0) * arena.radius


def clip_to_arena(line: LineParam, arena: ArenaCircle) -> tuple[Point, Point]:
    """Intersection segment of the line with the arena, ordered along the tangent."""
    if abs(line.p) > arena.radius:
        raise LineMissesArenaError(f"|p|={abs(line.p)} exceeds arena radius {arena.radius}")
    a, b = _segments_from_lines(
        np.array([line.theta]), np.array([line.p]), arena
    )
    return Point(*a[0]), Point(*b[0])


def _segments_from_lines(
    theta: np.ndarray, p: np.ndarray, arena: ArenaCircle
) -> tuple[np.ndarray, np.ndarray]:
    nx, ny = np.cos(theta), np.sin(theta)
    half = np.sqrt(np.maximum(arena.radius**2 - p**2, 0.0))
    foot_x = arena.center.x + p * nx
    foot_y = arena.center.y + p * ny
    # tangent = normal rotated +90 degrees
    a = np.column_stack([foot_x - half * -ny, foot_y - half * nx])
    b = np.column_stack([foot_x + half * -ny, foot_y + half * nx])
    return a, b


def line_params_of_segments(
    a: np.ndarray, b: np.ndarray, arena: ArenaCircle
) -> tuple[np.ndarray, np.ndarray]:
    """Recover (theta, p) of each segment's carrier line, theta in [0, pi)."""
    d = b - a
    theta = np.arctan2(d[:, 1], d[:, 0]) - 0.5 * math.pi  # normal angle
    theta = np.mod(theta, math.pi)
    nx, ny = np.cos(theta), np.sin(theta)
    p = (a[:, 0] - arena.center.x) * nx + (a[:, 1] - arena.center.y) * ny
    return theta, p


def _draw_normal_angle(u: np.ndarray, policy: str) -> np.ndarray:
    """Outgoing angle from the inward normal for one bounce, from a uniform."""
    if policy == "cosine":
        return np.arcsin(2.0 * u - 1.0)  # density prop. to cos(phi)
    if policy == "uniform":
        return (u - 0.5) * math.pi
    raise ValueError(f"unknown billiard policy {policy!r}")


def initial_billiard_state(
    rng: np.random.Generator, arena: ArenaCircle, policy: str = "cosine"
) -> BilliardState:
    beta = 2.0 * math.pi * rng.random()
    phi = float(_draw_normal_angle(np.asarray(rng.random()), policy))
    pos = Point(
        arena.center.x + arena.radius * math.cos(beta),
        arena.center.y + arena.radius * math.sin(beta),
    )
    return BilliardState(pos, beta + math.pi + phi)


def next_billiard(
    state: BilliardState, rng: np.random.Generator, arena: ArenaCircle, policy: str = "cosine"
) -> tuple[tuple[Point, Point], BilliardState]:
    """Straight run to the next wall hit, then a fresh random reflection."""
    px = state.position.x - arena.center.x
    py = state.position.y - arena.center.y
    dx, dy = math.cos(state.heading), math.sin(state.heading)
    travel = -2.0 * (px * dx + py * dy)
    if travel < 0.0:
        raise ValueError("billiard heading points out of the arena")
    end = Point(state.position.x + travel * dx, state.position.y + travel * dy)
    beta_end = math.atan2(end.y - arena.center.y, end.x - arena.center.x)
    phi = float(_draw_normal_angle(np.asarray(rng.random()), policy))
    new_state = BilliardState(end, beta_end + math.pi + phi)
    return (state.position, end), new_state


def billiard_segments(
    rng: np.random.Generator,
    arena: ArenaCircle,
    n: int,
    policy: str = "cosine",
    state: BilliardState | None = None,
) -> tuple[np.ndarray, np.ndarray, BilliardState]:
    """n consecutive bounce segments, vectorized over the whole chain.

    On a circle the bounce map is a rotation: beta' = beta + pi + 2*phi, so the
    chain is a cumulative sum of independent increments. Draw order matches the
    scalar path (initial position+heading, then one uniform per bounce).
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
