"""Statistical-geometry exploration: areas and perimeters from random chords.

Estimate the area and perimeter of arbitrary 2D shapes (non-convex, with
holes, disconnected) purely from the in/out crossing events along randomly
sampled lines or billiard trajectories, then recognize shapes and read
block-letter words from a (perimeter, area) dictionary.
"""

from .estimators import (
    AREA_COEFF,
    Accumulator,
    ConvergenceSeries,
    EstimateReport,
    InsufficientDataError,
    convex_third_moment_area,
    estimate_area,
    estimate_mean_chord,
    estimate_perimeter,
    fit_power,
    kl_divergence,
    merge,
    normalized_histogram,
    report,
    stderrs,
)
from .explore import convergence_series, explore, explore_parallel
from .geometry import (
    InvalidShapeError,
    Point,
    RigidTransform,
    Ring,
    Shape,
    bounding_circle,
    contains,
    exact_area,
    exact_perimeter,
    load_shape,
    save_shape,
    transform,
    union_disjoint,
)
from .reading import Alphabet, WordShape, letter_shape, read_global, read_local, word_shape
from .recognition import (
    DictEntry,
    Posterior,
    calibrate,
    classify,
    confidence_ellipse,
    landscape,
    lines_to_recognize,
    load_dictionary,
    save_dictionary,
    should_stop,
)
from .sampling import (
    ArenaCircle,
    BilliardState,
    SamplerConfig,
    arena_for,
)
from .shapes import BUILTIN_NAMES, annulus, builtin, disk, square, statue, triangle

__version__ = "0.1.0"
