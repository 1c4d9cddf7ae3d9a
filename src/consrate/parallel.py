"""Worker processes of the ``--threads`` pools, their shared output memory,
the memory check before it is mapped, and the BLAS pin of the operator build.

estimate_J runs its path blocks and QuadratureOperator its node tiles through
fork_map, on forked worker processes rather than threads: each worker has its
own interpreter lock, so the Python between ufuncs, scipy's GEMM wrapper and
the per-path generators run side by side. Both take the number of workers
from the ``threads`` key through pool_size, which caps it at the cores the
process may use and at the number of tasks. The workers are forked, not
spawned, so that they read the caller's operands without pickling them; the
only other threads of a consrate process are OpenBLAS's, which stops them
around a fork itself. A worker returns small results through a pipe; the
operator's rows, which are large, go into a shared mapping (shared_empty)
made before the fork. The operator build runs with OpenBLAS on
one thread (one_blas_thread): workers that each call a multithreaded BLAS run
more threads than there are cores.
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
import pickle
import signal
import traceback
from pathlib import Path

import numpy as np


def pool_size(requested: int, tasks: int) -> int:
    """Workers for ``tasks`` tasks: ``requested`` (one per available core for
    0), capped at the available cores and at ``tasks``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested or cores, cores, tasks))


def fork_map(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], computed on ``workers`` forked processes.

    Worker w runs tasks w, w + workers, ... in turn and pickles each result
    back through its own pipe; the results are read in task order. A task's
    exception is raised here, with the worker's traceback as a note, and no
    worker outlives the call: every worker is ended and reaped before it
    returns or raises. With one worker, or where os.fork is missing, the tasks
    run inline. Workers see the caller's memory as it was at the fork, and
    what they write is their own, except in a mapping from shared_empty.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(fn, tasks[w::workers], read_fd, write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        return [_receive(pipes[i % workers], pids[i % workers]) for i in range(len(tasks))]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so pid is still this worker's
            os.waitpid(pid, 0)


def _serve(fn, tasks: list, read_fd: int, write_fd: int):
    """A worker's life: run the tasks, write (True, result) or, at the first
    failure, (False, exception, traceback text) for each, and leave by
    os._exit, so that nothing of the caller's (its stack, atexit hooks,
    buffered output) runs in the worker."""
    code = 0
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as out:
            for task in tasks:
                try:
                    item = (True, fn(task))
                except BaseException as exc:
                    item = (False, exc, traceback.format_exc())
                try:
                    payload = pickle.dumps(item)
                except Exception:  # a result or exception that does not pickle is sent as its repr
                    payload = pickle.dumps((False, RuntimeError(repr(item[1])), traceback.format_exc()))
                out.write(payload)
                if not item[0]:
                    break
    except BaseException:  # nothing may leave a worker: it would run on in the caller's code
        code = 1
    finally:
        os._exit(code)


def _receive(pipe, pid: int):
    """The next result from worker pid's pipe, raising what its task raised."""
    try:
        item = pickle.load(pipe)
    except EOFError:
        # WNOWAIT leaves the worker to be reaped by fork_map
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        how = f"exit code {info.si_status}" if info.si_code == os.CLD_EXITED else f"signal {info.si_status}"
        raise ChildProcessError(f"worker process {pid} ended without a result ({how})") from None
    if not item[0]:
        item[1].add_note(f"raised in worker process {pid}:\n{item[2]}")
        raise item[1]
    return item[1]


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
