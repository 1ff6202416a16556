"""explore.map_jobs: seeded job loops give the same bits in a fork pool and in this process."""

import dataclasses
import multiprocessing
import os
import sys
import threading

import pytest

import chordscan  # noqa: F401
from chordscan import estimators as est
from chordscan import reading as rd
from chordscan import shapes
from chordscan.sampling import SamplerConfig
from golden_record import encode

ex = sys.modules["chordscan.explore"]  # `chordscan.explore` is also the function


@pytest.fixture
def pools(monkeypatch):
    """The sizes of the pools opened, on two CPUs with POOL_LINES at 0, so
    any two jobs fork a pool; no call may leave a process behind."""
    import concurrent.futures

    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(ex, "POOL_LINES", 0)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    yield opened
    assert multiprocessing.active_children() == []


def _in_process(monkeypatch):
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 1)


def _slots(acc):
    return [getattr(acc, slot) for slot in est.Accumulator.__slots__]


CALLS = {
    "convergence-iur": lambda: dataclasses.astuple(
        ex.convergence_series(shapes.annulus(), [100, 1000, 20_000], 5, SamplerConfig(seed=31))
    ),
    "convergence-billiard-cos": lambda: dataclasses.astuple(
        ex.convergence_series(
            shapes.statue(), [100, 1000, 20_000], 5, SamplerConfig(mode="billiard-cos", seed=32)
        )
    ),
    "calibrate_letters": lambda: [
        dataclasses.astuple(e) for e in rd.calibrate_letters(1.0, 100, 10, SamplerConfig(seed=33))
    ],
    "calibrate_words": lambda: [
        dataclasses.astuple(e)
        for e in rd.calibrate_words(["FREEDOM", "ON", "LIFE"], 1.0, 200, 10, SamplerConfig(seed=34))
    ],
    "explore_parallel": lambda: _slots(
        ex.explore_parallel(
            shapes.statue(), 5001, SamplerConfig(mode="billiard-cos", seed=35), workers=2
        )
    ),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_pool_equals_in_process_bit_for_bit(pools, monkeypatch, name):
    pooled = encode(CALLS[name]())
    assert pools == [2]
    assert multiprocessing.active_children() == []
    _in_process(monkeypatch)
    assert encode(CALLS[name]()) == pooled
    assert pools == [2]


def test_a_jobs_error_reaches_the_caller_unchanged(pools, monkeypatch):
    # all 60 first lines of the statue hit with probability 1.5e-12: some
    # replicate raises (test_convergence_series_without_chords_raises)
    def raised():
        with pytest.raises(est.InsufficientDataError) as err:
            ex.convergence_series(shapes.statue(), [1, 10, 100], 60, SamplerConfig(seed=1))
        return type(err.value), err.value.args

    pooled = raised()
    assert pools == [2]
    assert multiprocessing.active_children() == []
    _in_process(monkeypatch)
    assert raised() == pooled


def _pid():
    return os.getpid()


def _map_in_worker():
    return os.getpid(), ex.map_jobs(_pid, [(), ()], 2, 0)


def test_a_worker_maps_in_its_own_process(pools):
    # a worker inherits POOL_LINES 0 and two CPUs, yet opens no pool
    got = ex.map_jobs(_map_in_worker, [(), ()], 2, 0)
    assert pools == [2] and len(got) == 2
    for worker, inner in got:
        assert worker != os.getpid()
        assert inner == [worker, worker]


def test_few_lines_one_job_or_other_threads_run_in_this_process(monkeypatch):
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    assert ex.map_jobs(_pid, [(), ()], 2, ex.POOL_LINES - 1) == [os.getpid()] * 2
    assert ex.map_jobs(_pid, [()], 1, 10 * ex.POOL_LINES) == [os.getpid()]
    # a pool leaves no thread behind, and a thread running forks no pool
    pids = ex.map_jobs(_pid, [(), ()], 2, ex.POOL_LINES)
    assert len(pids) == 2 and os.getpid() not in pids
    assert threading.active_count() == 1 and multiprocessing.active_children() == []
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert ex.map_jobs(_pid, [(), ()], 2, ex.POOL_LINES) == [os.getpid()] * 2
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    # in this process the jobs may be any iterable
    assert ex.map_jobs(divmod, iter([(7, 2), (9, 4)]), 2, 0) == [(3, 1), (2, 1)]
