import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stwcr import parallel, simulation
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.simulation import ScenarioSpec, compute_truths, gen_dataset
from test_eif import PARAMS, assert_batches_equal, both_batches, risk_oracle


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_thread_count_is_affinity():
    assert parallel.thread_count() == len(os.sched_getaffinity(0))


def test_replication_workers_single_threaded():
    with simulation._replication_pool(2) as pool:
        futures = [pool.submit(parallel.thread_count) for _ in range(4)]
        assert [f.result(timeout=60) for f in futures] == [1, 1, 1, 1]
    # the initializer ran in the workers only
    assert parallel._thread_limit is None


def test_map_threaded_keeps_order(thread_pools):
    thread_pools.use(3)
    assert parallel.map_threaded(lambda i, j: i * j, range(20), range(20), tasks=20) == [
        i * i for i in range(20)]
    assert thread_pools.made == [3]


def test_map_threaded_raises_first_failure_in_input_order(thread_pools):
    thread_pools.use(2)
    late_failed = threading.Event()

    def task(i):
        if i == 1:
            assert late_failed.wait(timeout=30)  # fails after task 3 has
            raise ValueError("task 1")
        if i == 3:
            late_failed.set()
            raise ValueError("task 3")
        return i

    with pytest.raises(ValueError, match="task 1"):
        parallel.map_threaded(task, range(5), tasks=5)
    assert late_failed.is_set()


def test_serial_when_one_thread(thread_pools):
    thread_pools.use(1)
    assert parallel.map_threaded(str, range(3), tasks=3) == ["0", "1", "2"]
    thread_pools.use(4)
    assert parallel.map_threaded(str, range(1), tasks=1) == ["0"]
    assert thread_pools.made == []


@given(lo=st.integers(0, 10**6), length=st.integers(1, 3000), size=st.integers(2, 500))
def test_row_blocks_tile_the_range(lo, length, size):
    hi = lo + length
    blocks = parallel.row_blocks(lo, hi, size)
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    # full blocks from lo on, then the rest, which takes a one-row remainder
    assert all(stop - start == size for start, stop in blocks[:-1])
    assert all((start - lo) % size == 0 for start, _ in blocks)
    if length == 1:
        assert blocks == [(lo, hi)]
    else:
        assert all(stop - start > 1 for start, stop in blocks)
        assert blocks[-1][1] - blocks[-1][0] <= size + 1


def test_grid_blocks_under_thread_switching(monkeypatch, thread_pools):
    # more threads than cores and a short switch interval: a block written
    # to the wrong rows, or not at all, breaks equality with the serial pass
    ds = gen_dataset(ScenarioSpec("I", 203, 46))
    thread_pools.use(1)
    oracle = risk_oracle()
    monkeypatch.setattr(parallel, "_BLOCK_ROWS", 4)
    serial = both_batches(ds)
    thread_pools.use(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_batches_equal(serial, both_batches(ds))
        monkeypatch.setattr(parallel, "_BLOCK_ROWS", 16)
        assert risk_oracle() == oracle
    finally:
        sys.setswitchinterval(interval)
    assert thread_pools.made == [4] * 10


def test_compute_truths_starts_no_pool(thread_pools):
    # its baseline grids stay on the calling thread: in the simulate
    # process, threads' malloc arenas would keep memory past the call
    thread_pools.use(2)
    compute_truths("I", (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)), PARAMS)
    assert thread_pools.made == []


forking = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks on Linux only")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pid_rows(lo, hi):
    """Rows lo..hi-1, each (row, id of the process that made it)."""
    return np.column_stack([np.arange(lo, hi), np.full(hi - lo, os.getpid())]).astype(float)


@forking
def test_map_forked_rows_tiles_blocks_across_processes():
    table = parallel.map_forked_rows(pid_rows, [(0, 3), (3, 4), (4, 9)], (9, 2))
    assert table[:, 0].tolist() == list(range(9))
    pids = [set(table[lo:hi, 1]) for lo, hi in [(0, 3), (3, 4), (4, 9)]]
    assert pids[0] == {os.getpid()} and len(set.union(*pids)) == 3
    assert_no_child_left()


@forking
@pytest.mark.parametrize("fault", ["raises", "wrong_shape"])
def test_map_forked_rows_none_when_a_child_fails(fault):
    def rows(lo, hi):
        if lo == 4 and fault == "raises":
            raise ValueError("bad cell")
        return pid_rows(lo, hi)[:, :1] if lo == 4 else pid_rows(lo, hi)

    assert parallel.map_forked_rows(rows, [(0, 3), (3, 4), (4, 9)], (9, 2)) is None
    assert_no_child_left()


@forking
def test_map_forked_rows_raises_first_block_error_after_reaping():
    def rows(lo, hi):
        if lo == 0:
            raise ValueError("first block")
        return pid_rows(lo, hi)

    with pytest.raises(ValueError, match="first block"):
        parallel.map_forked_rows(rows, [(0, 3), (3, 9)], (9, 2))
    assert_no_child_left()


@forking
def test_no_fork_while_another_thread_runs(thread_pools):
    thread_pools.use(3)
    assert parallel.fork_count() == 3
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert parallel.fork_count() == 1
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert parallel.fork_count() == 3
