"""Worker processes of the ``--threads`` option, their shared output memory,
the memory check before large arrays are allocated, and the BLAS pin of the
operator build.

estimate_J runs its path blocks and QuadratureOperator its node tiles through
fork_map, on forked worker processes rather than threads: each worker has its
own interpreter lock, so the Python between ufuncs, the GEMM wrapper of
scipy's f2py BLAS module (consrate.blas) and the per-path generators run side
by side. Both take the number of workers from the ``threads`` key through
pool_size, which caps it at the cores the process may use and at the number
of tasks. fork_map forks its workers with os.fork and feeds them through
pipes, without the standard library's process pool, whose import and start
cost every command launch about 25 ms: the workers read the caller's operands
without pickling them, take task indices as they come free, and send back
small pickled results, which are returned in task order, so what the callers
reduce does not depend on which worker ran what. The only other threads of a
consrate process are OpenBLAS's, which stops them around a fork itself. The
operator's rows, which are large, go into a shared mapping (shared_empty)
made before the fork. The operator build runs with OpenBLAS on one thread
(one_blas_thread): workers that each call a multithreaded BLAS run more
threads than there are cores.
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
import pickle
from pathlib import Path

import numpy as np

from .errors import InsufficientMemory


def pool_size(requested: int, tasks: int) -> int:
    """Workers for ``tasks`` tasks: ``requested`` (one per available core for
    0), capped at the available cores and at ``tasks``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested or cores, cores, tasks))


def fork_map(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], computed on ``workers`` forked processes.

    The workers inherit fn and the tasks and take task indices from one pipe
    as they come free; each sends its results pickled once the pipe is empty,
    and they are returned in task order. A task's exception is raised here,
    noted with its worker's pid and traceback; that worker empties the pipe,
    so no task starts after it and the lowest failing task's is the one
    raised. A worker that dies without a result raises BrokenProcessPool
    (concurrent.futures.process); one whose caller died starts no new task.
    Every worker is killed and reaped before the call returns or raises. With
    one worker, or without os.fork, the tasks run inline. What a worker writes
    is its own, except in shared_empty memory.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    parent, pids, done = os.getpid(), [], {}
    queue_read, queue_write = ends = _pipe()  # then each worker's read and write end
    try:
        for _ in range(workers):
            ends += _pipe()
            if (pid := os.fork()) == 0:
                _serve(fn, tasks, parent, ends)
            pids.append(pid)
            ends[-1].close()
        queue_read.close()
        with contextlib.suppress(BrokenPipeError):  # every worker has died, which is reported below
            for index in range(len(tasks)):  # each write (4 bytes, under PIPE_BUF) lands whole
                os.write(queue_write.fileno(), index.to_bytes(4, "little"))
        queue_write.close()
        for read in ends[2::2]:
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # none or part of a dead worker's results
                done.update(map(pickle.loads, pickle.loads(read.readall())))
        for index in range(len(tasks)):
            if index not in done:
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool(f"a fork_map worker died without the result of task {index}")
            if not done[index][0]:
                raise done[index][1]
        return [done[index][1] for index in range(len(tasks))]
    finally:
        import signal  # here, so that `import consrate.cli` does not load it
        for end in ends:
            end.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so pid is still this worker's
            os.waitpid(pid, 0)


def _pipe() -> list:
    """A new pipe's read and write ends as files; the read end is unbuffered,
    so that a worker's read of one task index takes no more than that."""
    read, write = os.pipe()
    return [open(read, "rb", buffering=0), open(write, "wb")]


def _serve(fn, tasks: list, parent: int, ends: list):
    """A fork_map worker: run the tasks indexed in ends[0] while ``parent``
    lives, send their pickled results on ends[-1], and leave by os._exit."""
    try:
        queue, out, sent = ends[0], ends[-1], []
        for end in ends[1:-1]:  # the queue's write end, whose EOF all workers wait for, and the other pipes
            end.close()
        while os.getppid() == parent and len(index := queue.read(4)) == 4:
            index = int.from_bytes(index, "little")
            try:
                sent.append(pickle.dumps((index, (True, fn(tasks[index])))))
            except BaseException as exc:
                import traceback
                exc.add_note(f"raised in worker process {os.getpid()}\n{traceback.format_exc()}")
                while queue.read(1 << 16):  # no task starts after a failed one
                    pass
                try:
                    sent.append(pickle.dumps((index, (False, exc))))
                except Exception:  # an exception that does not pickle is sent as its text, notes included
                    text = RuntimeError("".join(traceback.format_exception_only(exc)))
                    sent.append(pickle.dumps((index, (False, text))))
        with out:
            out.write(pickle.dumps(sent))
        os._exit(0)
    finally:  # nothing may leave a worker: it would run on in the caller's code
        os._exit(1)


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


def check_memory(what: str, need: int, budget: int | None, detail: str, advice: str) -> None:
    """Raise InsufficientMemory, "{what} needs X MiB{detail}, but only Y MiB
    is available; {advice}", if ``need`` bytes exceed ``budget``, the caller's
    memory_budget() (None sets no bound)."""
    if budget is not None and need > budget:
        raise InsufficientMemory(f"{what} needs {mib(need)}{detail}, but only {mib(budget)} is available; {advice}")


def mib(nbytes: float) -> str:
    """``nbytes`` as a message's "X.X MiB"."""
    return f"{nbytes * 2.0**-20:.1f} MiB"


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
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with scipy
    (scipy.libs, found without importing scipy), the library behind the
    routines of consrate.blas, or None where it cannot be found."""
    import ctypes
    import glob

    from .blas import scipy_dir

    root = scipy_dir()
    if root is None:
        return None
    libs = os.path.join(os.path.dirname(root), "scipy.libs")
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
