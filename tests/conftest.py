import numpy as np
import pytest

from chordscan.explore import LineStream, take_all
from dictionaries import calibrated_builtins, calibrated_letters


@pytest.fixture(scope="session")
def builtin_dictionary():
    return calibrated_builtins()


@pytest.fixture(scope="session")
def letter_dict():
    return calibrated_letters()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def arena_chords(theta, p, arena):
    """Each line (theta, p)'s chord of the arena circle, as (M, 2) endpoint arrays.

    a runs to b along (-sin theta, cos theta), the direction the ring scan
    measures along. Lines past the circle get zero-length chords.
    """
    nx, ny = np.cos(theta), np.sin(theta)
    half = np.sqrt(np.maximum(arena.radius**2 - p**2, 0.0))
    foot_x = arena.center.x + p * nx
    foot_y = arena.center.y + p * ny
    a = np.column_stack([foot_x - half * -ny, foot_y - half * nx])
    b = np.column_stack([foot_x + half * -ny, foot_y + half * nx])
    return a, b


def record_sums(shape, n_max, config):
    """Running (L1, L3, k) totals of one whole n_max-line record, one cumsum per column.

    The oracle for explore.running_sums_all, which sums a stream take by take.
    """
    obs = take_all([LineStream(shape, config)], n_max)
    return [np.cumsum(col) for col in (obs.L1, obs.L3, obs.k)]
