"""Thread pools for the two large-n phases: fold fits and grid blocks.

Both phases are numpy ufunc, LAPACK and BLAS work that releases the
interpreter lock, and each task writes only its own result, so running
them on threads changes no value. Every call makes its own pool and joins
it before returning: no thread outlives the call, and a process forked
later (``run_monte_carlo``'s workers) inherits no pool without threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# Set only by ``single_threaded`` in a replication worker process, whose
# siblings already occupy the other CPUs.
_thread_limit: int | None = None


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
