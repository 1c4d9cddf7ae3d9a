"""Worker processes of the ``--threads`` pools, their shared output memory,
the memory check before it is mapped, and the BLAS pin of the operator build.

estimate_J runs its path blocks and QuadratureOperator its node tiles through
fork_map, on forked worker processes rather than threads: each worker has its
own interpreter lock, so the Python between ufuncs, scipy's GEMM wrapper and
the per-path generators run side by side. Both take the number of workers
from the ``threads`` key through pool_size, which caps it at the cores the
process may use and at the number of tasks. fork_map is the standard
library's process pool on the fork start method: the workers are forked, not
spawned, so that they read the caller's operands without pickling them; the
only other threads of a consrate process are OpenBLAS's, which stops them
around a fork itself. A task goes to whichever worker is free, and its small
result comes back pickled; the results are returned in task order, so what
the callers reduce does not depend on which worker ran what. The operator's
rows, which are large, go into a shared mapping (shared_empty) made before
the fork. The operator build runs with OpenBLAS on one thread
(one_blas_thread): workers that each call a multithreaded BLAS run more
threads than there are cores.
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
from pathlib import Path

import numpy as np


def pool_size(requested: int, tasks: int) -> int:
    """Workers for ``tasks`` tasks: ``requested`` (one per available core for
    0), capped at the available cores and at ``tasks``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested or cores, cores, tasks))


def fork_map(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], computed on ``workers`` forked processes.

    The workers are a ProcessPoolExecutor on the fork start method, each
    handed fn and the task list at the fork, so neither is pickled. Each task
    is sent as its index to whichever worker is free, and only its result
    comes back pickled; the results are returned in task order. A task's
    exception is raised here, with a note naming the worker and the worker's
    traceback as its cause. A worker that dies without a result raises
    concurrent.futures.process.BrokenProcessPool. Every worker is joined
    before the call returns or raises. With one worker, or on a platform
    without fork, the tasks run inline. Workers see the caller's memory as it
    was at the fork, and what they write is their own, except in a mapping
    from shared_empty.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    # imported here so that `import consrate.cli` does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (fn, tasks))
    try:
        return list(pool.map(_run, range(len(tasks))))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_job = None  # (fn, tasks) in a fork_map worker, set at its start by _adopt


def _adopt(fn, tasks: list) -> None:
    global _job
    _job = fn, tasks


def _run(index: int):
    """Task ``index`` of the job this worker adopted."""
    fn, tasks = _job
    try:
        return fn(tasks[index])
    except BaseException as exc:
        exc.add_note(f"raised in worker process {os.getpid()}")
        raise


def shared_empty(shape: tuple) -> np.ndarray:
    """A float array on an anonymous shared mapping (zero-filled): what a
    fork_map worker writes there, the caller sees."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * count, 1)), dtype=float, count=count).reshape(shape)


def memory_budget() -> int | None:
    """Bytes the process may still take: the smaller of the system's
    MemAvailable and the room left under its cgroup's memory limit (v2
    memory.max or v1 memory.limit_in_bytes, less current usage); None where
    neither can be read. An unlimited cgroup ("max") sets no bound."""
    budgets = []
    with contextlib.suppress(OSError, ValueError):
        with open("/proc/meminfo", encoding="ascii") as fh:
            budgets += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    with contextlib.suppress(OSError, ValueError):
        for limit, usage in _cgroup_memory_files():
            with contextlib.suppress(OSError, ValueError):
                budgets.append(int(Path(limit).read_text()) - int(Path(usage).read_text()))
    return min(budgets, default=None)


def _cgroup_memory_files():
    """(limit, usage) file pairs of the memory cgroups this process is in."""
    with open("/proc/self/cgroup", encoding="ascii") as fh:
        entries = [line.rstrip("\n/").split(":", 2)[1:] for line in fh]
    for controllers, path in entries:
        if not controllers:  # the v2 hierarchy, mounted alone or beside v1
            for root in ("/sys/fs/cgroup", "/sys/fs/cgroup/unified"):
                yield f"{root}{path}/memory.max", f"{root}{path}/memory.current"
        elif "memory" in controllers.split(","):
            root = f"/sys/fs/cgroup/memory{path}"
            yield f"{root}/memory.limit_in_bytes", f"{root}/memory.usage_in_bytes"


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
    OpenBLAS setter cannot be found). Workers forked inside the block
    inherit the setting."""
    set_threads = _openblas_set_threads()
    if set_threads is None:
        yield False
        return
    previous = set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)
