"""Reference kernels that measure how fast the machine runs right now.

The shared machine the benchmark runs on changes speed by up to half again
for minutes at a time (other tenants on the same cores), and all code slows
together: a fixed numpy operation timed every few seconds for five minutes
read from 0.65 to 1.5 of its median, with CPU time tracking wall time, so
neither the best of several passes nor CPU time removes the drift.

Each operation is therefore timed between two runs of a reference kernel,
and its time is scaled to the kernel's nominal speed:

    adjusted = seconds * NOMINAL_S[pace] / (mean of the kernel's two times)

Interpreted Python and vectorised numpy do not slow down by the same
factor. Measured on the reference machine, as powers of each kernel's
factor: bulk explorations and convergence studies slow by the vector
kernel's to the power 0.9-1.1 (the small kernel's: 0.5); reads and
calibrations by the small kernel's to the power 0.8-0.9 (the vector
kernel's: 1.5-1.7). So each operation names the kernel that matches its
kind of work. With the matching kernel, the median adjusted time of one
operation varied by 2-4% between 20 s windows, against 11-22% unadjusted.

The kernels use numpy only and never call the program, so a change to the
program moves the adjusted times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# Typical time of each kernel on the reference machine (2-core sandbox,
# CPython 3.11, numpy 2.4); adjusted times are "seconds at this speed".
NOMINAL_S = {"vector": 0.010, "small": 0.004}


def vector_kernel() -> float:
    """Whole-array work on 16,384 elements, like one bulk chunk."""
    rng = np.random.default_rng(12345)
    s = 0.0
    for _ in range(4):
        x = rng.random(16384)
        y = np.sin(6.0 * x) * np.cos(3.0 * x) + x * x
        z = np.cumsum(y[np.argsort(y, kind="stable")])
        s += float(z[z > z[len(z) // 2]].sum())
    return s


def small_kernel() -> float:
    """Many numpy calls on 64 elements with Python in between, like the
    per-line stop loop and short explorations."""
    x = np.random.default_rng(12345).random(64)
    s = 0.0
    for i in range(400):
        y = np.sin(x) * x + i
        s += float(y[y > 0.5].sum()) + float(np.max(y))
        d = {"a": s, "b": i}
        s += d["a"] * 1e-9 + len([j for j in range(8)])
    return s


KERNELS = {"vector": vector_kernel, "small": small_kernel}


def time_kernel(pace: str) -> float:
    t = time.perf_counter()
    KERNELS[pace]()
    return time.perf_counter() - t


def adjust(seconds: float, pace: str, before: float, after: float) -> float:
    """`seconds` at the nominal speed, from the kernel's times around it."""
    return seconds * NOMINAL_S[pace] / (0.5 * (before + after))
