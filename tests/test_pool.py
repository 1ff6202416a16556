"""explore.map_jobs: seeded job loops, and the takes of a long explore, give
the same bits in forked children and in this process."""

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

import chordscan  # noqa: F401
from chordscan import batch
from chordscan import estimators as est
from chordscan import reading as rd
from chordscan import shapes
from chordscan.sampling import SamplerConfig
from golden_record import encode

ex = sys.modules["chordscan.explore"]  # `chordscan.explore` is also the function


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks, on two CPUs with
    POOL_LINES at 0, so any two jobs fork; no call may leave a child behind."""
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(ex, "POOL_LINES", 0)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    yield forked
    _no_child_left()


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
    # two takes, the second of one line
    "explore": lambda: _slots(
        ex.explore(shapes.statue(), ex.DEFAULT_CHUNK + 1, SamplerConfig(mode="billiard-cos", seed=35))
    ),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_pool_equals_in_process_bit_for_bit(forks, monkeypatch, name):
    forked = encode(CALLS[name]())
    assert len(forks) == 1
    _no_child_left()
    _in_process(monkeypatch)
    assert encode(CALLS[name]()) == forked
    assert len(forks) == 1


def _word():
    return rd.word_shape("GENERATIONS", 1.0).shape


@pytest.mark.parametrize("mode", ["iur", "billiard-cos"])
@pytest.mark.parametrize("make", [shapes.annulus, _word], ids=["annulus", "word"])
def test_long_explore_on_two_cpus_equals_one_cpu_bit_for_bit(forks, monkeypatch, make, mode):
    # 100,001 lines are 7 takes, the last of one line: this process observes
    # takes 0, 2, 4 and 6, the child 1, 3 and 5, and every slot is as one
    # process's loop leaves it
    cfg = SamplerConfig(mode=mode, seed=36)
    forked = ex.explore(make(), 100_001, cfg)
    assert len(forks) == 1
    _in_process(monkeypatch)
    alone = ex.explore(make(), 100_001, cfg)
    assert encode(_slots(forked)) == encode(_slots(alone))
    assert forked.n_lines == 100_001 and forked.rejected == 0


@pytest.mark.parametrize("mode", ["iur", "billiard-cos"])
def test_long_explore_with_rejected_lines_equals_one_cpu_bit_for_bit(forks, monkeypatch, mode):
    # a 1e-2 vertex band, set before the shapes compile, rejects about 40% of
    # the disk's lines: the replays give up, and this process explores alone
    monkeypatch.setattr(batch, "ONLINE_TOL", 1e-2)
    cfg = SamplerConfig(mode=mode, seed=37)
    forked = ex.explore(shapes.disk(), 100_001, cfg)
    assert len(forks) == 1
    _in_process(monkeypatch)
    alone = ex.explore(shapes.disk(), 100_001, cfg)
    assert encode(_slots(forked)) == encode(_slots(alone))
    assert 0.3 < forked.rejected / (forked.n_lines + forked.rejected) < 0.5


def test_a_jobs_error_reaches_the_caller_unchanged(forks, monkeypatch):
    # all 60 first lines of the statue hit with probability 1.5e-12: some
    # replicate raises (test_convergence_series_without_chords_raises)
    def raised():
        with pytest.raises(est.InsufficientDataError) as err:
            ex.convergence_series(shapes.statue(), [1, 10, 100], 60, SamplerConfig(seed=1))
        return type(err.value), err.value.args

    forked = raised()
    assert len(forks) == 1
    _no_child_left()
    _in_process(monkeypatch)
    assert raised() == forked


def _raise_at_3_and_4(i):
    if i in (3, 4):
        raise (ValueError if i == 3 else KeyError)("job", i)
    return i


def test_the_first_jobs_error_in_job_order_is_raised(forks):
    # the child fails at job 3 with a ValueError, this process at job 4 with
    # a KeyError: job 3 comes first, as in one process's loop
    with pytest.raises(ValueError) as err:
        ex.map_jobs(_raise_at_3_and_4, [(i,) for i in range(6)], 6, 0)
    assert err.value.args == ("job", 3)
    assert len(forks) == 1


def _die_in_a_child(caller):
    if os.getpid() != caller:
        os._exit(3)
    return caller


def test_a_child_that_dies_raises_in_the_caller(forks):
    with pytest.raises(ChildProcessError, match="without its results"):
        ex.map_jobs(_die_in_a_child, [(os.getpid(),)] * 4, 4, 0)
    assert len(forks) == 1


def _pid():
    return os.getpid()


def _map_in_worker():
    return os.getpid(), ex.map_jobs(_pid, [(), ()], 2, 0)


def test_a_worker_maps_in_its_own_process(forks):
    # a child inherits POOL_LINES 0 and two CPUs, yet forks nothing; nor does
    # a map in this process's own share
    got = ex.map_jobs(_map_in_worker, [(), ()], 2, 0)
    assert len(forks) == 1
    assert got == [(os.getpid(), [os.getpid()] * 2), (forks[0], [forks[0]] * 2)]
    assert not ex._mapping


def test_few_lines_one_job_or_other_threads_run_in_this_process(monkeypatch):
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    assert ex.map_jobs(_pid, [(), ()], 2, ex.POOL_LINES - 1) == [os.getpid()] * 2
    assert ex.map_jobs(_pid, [()], 1, 10 * ex.POOL_LINES) == [os.getpid()]
    # this process runs job 0, a child job 1; a thread running forks nothing
    pids = ex.map_jobs(_pid, [(), ()], 2, ex.POOL_LINES)
    assert pids[0] == os.getpid() != pids[1]
    assert threading.active_count() == 1
    _no_child_left()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert ex.map_jobs(_pid, [(), ()], 2, ex.POOL_LINES) == [os.getpid()] * 2
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    # the jobs may be any iterable, in this process and in a child
    assert ex.map_jobs(divmod, iter([(7, 2), (9, 4)]), 2, 0) == [(3, 1), (2, 1)]
    assert ex.map_jobs(divmod, iter([(7, 2), (9, 4)]), 2, ex.POOL_LINES) == [(3, 1), (2, 1)]
    _no_child_left()


def test_explore_sums_its_takes_in_take_order(forks):
    # three takes' blocks, added in any other order, give other bits
    cfg = SamplerConfig(seed=38)
    acc = ex.explore(shapes.annulus(), 3 * ex.DEFAULT_CHUNK, cfg)
    stream = ex.LineStream(shapes.annulus(), cfg)
    takes = [ex.take_all([stream], ex.DEFAULT_CHUNK) for _ in range(3)]
    blocks = [acc.block(obs, j * ex.DEFAULT_CHUNK) for j, obs in enumerate(takes)]
    orders = [(0, 1, 2), (2, 1, 0), (1, 0, 2)]
    got = []
    for order in orders:
        other = est.Accumulator(acc.l_cap, acc.n_planned, acc.n_batches)
        for j in order:
            other.add(blocks[j])
        got.append(other)
    assert encode(_slots(got[0])) == encode(_slots(acc))
    assert any(other.sum_L1 != acc.sum_L1 or not np.array_equal(other.batch, acc.batch) for other in got[1:])
