"""Worker counts of the thread pools, and the BLAS pin of the operator build.

estimate_J runs its path blocks and QuadratureOperator its node tiles on a
thread pool. Both take the size of the pool from the ``threads`` key through
pool_size, which caps it at the cores the process may use and at the number
of tasks. The operator build runs with OpenBLAS on one thread
(one_blas_thread): a pool of Python threads that each call a multithreaded
BLAS runs more threads than there are cores.
"""

from __future__ import annotations

import contextlib
import functools
import os


def pool_size(requested: int, tasks: int) -> int:
    """Threads for a pool of ``tasks`` tasks: ``requested`` (one per available
    core for 0), capped at the available cores and at ``tasks``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested or cores, cores, tasks))


@functools.cache
def _openblas_set_threads():
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with scipy,
    the library behind scipy.linalg.blas, or None where it cannot be found."""
    import ctypes
    import glob

    import scipy

    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            fn = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        return fn
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count;
    yield whether that was done (False, changing nothing, where scipy's
    OpenBLAS setter cannot be found).

    The count is the process's, not the calling thread's (the setter returns
    the previous count, and a worker thread's setting is seen by every
    thread), so it is set once around a whole pool rather than in each worker:
    workers that each set and restored it could leave it at 1.
    """
    set_threads = _openblas_set_threads()
    if set_threads is None:
        yield False
        return
    previous = set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)
