"""The calibrated dictionaries the tests and the golden record share.

Plain functions, importable without pytest: conftest.py serves them as
session fixtures, and golden_record.py calls them when run as a script.
"""

from chordscan import reading, recognition, shapes
from chordscan.sampling import SamplerConfig


def calibrated_builtins():
    """The calibrated five-shape dictionary the tests share."""
    return [
        recognition.calibrate(
            shapes.builtin(name),
            m_lines=1000,
            replicates=100,
            config=SamplerConfig(seed=9000 + i),
            name=name,
        )
        for i, name in enumerate(shapes.BUILTIN_NAMES)
    ]


def calibrated_letters():
    """The calibrated alphabet the tests share."""
    return reading.calibrate_letters(m_lines=800, replicates=30, config=SamplerConfig(seed=42))
