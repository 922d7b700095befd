"""Thread pools for the two large-n phases, fold fits and grid row blocks,
and forked processes for the CSV parse.

Both are numpy ufunc, LAPACK and BLAS work that releases the interpreter
lock, and each task writes only its own result, so threads change no
value. ``estimators._fold_plan`` fits folds with ``map_threaded``, and
``eif._kernel_integrals_1d`` and ``simulation.oracle_estimand`` evaluate
grids with ``map_row_blocks``; ``simulation.compute_truths`` cuts its grids
by the same rule but keeps them on the calling thread. Every call makes its
own pool and joins it before returning: no thread outlives the call, and a
process forked later (``run_monte_carlo``'s workers) inherits no pool
without threads. ``row_blocks`` cuts both those grids and the fold fits'
training ranges.

``fork_count`` and ``map_forked_rows`` run work that holds the interpreter
lock, ``cli``'s CSV parse, in forked processes instead: each child writes
its rows into one shared table and exits, and the caller reaps every child
before returning.
"""

from __future__ import annotations

import mmap
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Set only by ``single_threaded`` in a replication worker process, whose
# siblings already occupy the other CPUs.
_thread_limit: int | None = None

# Rows per block of an m x quad_nodes grid. At 1024 x 64 nodes an array is
# 512 kB, above glibc's default 128 kB mmap threshold, so every block's
# arrays fault in afresh: 468 minor faults per 1,000 rows measured in
# eif._kernel_integrals_1d, none at 200 rows (100 kB arrays). A multiple of
# 4: OpenBLAS's gemv sums rows in groups of four and rounds a tail row
# differently, so blocks that start on a multiple of 4 keep every row's sum
# as in one call over all m rows.
_BLOCK_ROWS = 1024


def thread_count() -> int:
    """Threads a pool may use: the CPUs in this process's affinity mask."""
    if _thread_limit is not None:
        return _thread_limit
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def single_threaded() -> None:
    """Process-pool initializer: this worker's pools run on one thread."""
    global _thread_limit
    _thread_limit = 1


def map_threaded(fn, *iterables, tasks: int) -> list:
    """``list(map(fn, *iterables))`` on up to ``tasks`` threads.

    Results come back in input order. When calls raise, the first one in
    input order is raised, after every started call has finished.
    """
    threads = min(thread_count(), tasks)
    if threads <= 1:
        return list(map(fn, *iterables))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *iterables))


def row_blocks(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Rows ``lo:hi`` as contiguous ``(start, stop)`` blocks, in order, that
    start at lo plus multiples of ``size``. The last block absorbs a one-row
    remainder, which numpy's vector dot would round differently from gemv,
    so only a one-row range gives a one-row block."""
    starts = range(lo, hi - 1, size) or range(lo, hi)
    return list(zip(starts, [*starts[1:], hi]))


def map_row_blocks(fn, *arrays, threaded: bool = True) -> tuple:
    """``fn(*arrays)`` over blocks of the arrays' rows, on threads unless
    ``threaded`` is false: ``fn`` returns a tuple of per-row arrays, each of
    which comes back whole, in row order, and equal to one unblocked serial
    call's."""
    m = len(arrays[0])
    if m <= _BLOCK_ROWS:
        return fn(*arrays)
    # A thread pays for itself from about a block of rows: 1100 rows stay
    # serial, and 1600 do not.
    blocks = map_threaded(lambda lo, hi: fn(*(arr[lo:hi] for arr in arrays)),
                          *zip(*row_blocks(0, m, _BLOCK_ROWS)),
                          tasks=round(m / _BLOCK_ROWS) if threaded else 1)
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def fork_count() -> int:
    """Processes ``map_forked_rows`` may use: ``thread_count()`` on Linux
    while no other Python thread runs, since a child could inherit a lock
    that another thread holds; otherwise 1."""
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return thread_count()
    return 1


def map_forked_rows(fn, blocks, shape) -> np.ndarray | None:
    """``np.concatenate([fn(lo, hi) for lo, hi in blocks])`` as a float
    array of ``shape``, or None if a forked call fails.

    ``blocks`` are ``(lo, hi)`` row ranges that tile ``range(shape[0])`` in
    order, and ``fn(lo, hi)`` gives rows ``lo:hi``. The first block runs in
    this process and each other one in a forked child, all at once; a child
    writes its rows into a shared anonymous mapping and exits, and every
    child is reaped before this returns or raises. A child that raises, or
    a call whose rows are not of the table's shape, or a fork refused by
    the system gives None; an exception of the first call is raised.
    """
    # an anonymous mapping is shared with the children by default
    table = np.ndarray(shape, dtype=float,
                       buffer=mmap.mmap(-1, max(1, 8 * int(np.prod(shape)))))

    def fill(lo, hi) -> bool:
        rows = fn(lo, hi)
        if rows.shape != table[lo:hi].shape:
            return False
        table[lo:hi] = rows
        return True

    children, ok = [], True
    try:
        for lo, hi in blocks[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                ok = False
                break
            if pid == 0:
                code = 1
                try:
                    code = 0 if fill(lo, hi) else 1
                finally:
                    os._exit(code)  # a child never returns to the caller
            children.append(pid)
        ok = ok and fill(*blocks[0])
    finally:
        for pid in children:
            _, status = os.waitpid(pid, 0)
            ok = ok and os.waitstatus_to_exitcode(status) == 0
    return table if ok else None
