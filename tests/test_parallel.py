import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from tests.conftest import child_env
from consrate.parallel import fork_map


def test_fork_map_worker_that_dies_breaks_the_pool():
    with pytest.raises(BrokenProcessPool):
        fork_map(lambda task: os._exit(3), range(4), 2)
    # every worker was reaped before fork_map raised
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def test_fork_map_sends_an_exception_that_does_not_pickle_as_its_text():
    def task(index):
        if index == 2:
            raise _Unpicklable(f"task {index} failed")
        return index

    with pytest.raises(RuntimeError, match="_Unpicklable: task 2 failed") as info:
        fork_map(task, range(4), 2)
    assert "raised in worker process" in str(info.value)


def test_fork_map_loads_no_process_pool_modules():
    # fork_map is called directly, so two workers are forked even on one core;
    # the standard library's pool, whose import alone took 15-19 ms, stays unloaded
    code = (
        "import sys, consrate.parallel; "
        "print(consrate.parallel.fork_map(abs, [-1, -2, -3], 2), "
        "[name for name in sys.modules if name.split('.')[0] in ('multiprocessing', 'concurrent')])"
    )
    r = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[1, 2, 3] []"


def test_fork_map_gives_each_task_to_the_free_worker():
    # task 0 holds one worker for about 1 s, so the other runs tasks 1-7
    # meanwhile; a static split would queue half of them behind task 0
    def task(index):
        if index == 0:
            time.sleep(1.0)
        return index, os.getpid()

    results = fork_map(task, range(8), 2)
    assert [index for index, _ in results] == list(range(8))
    assert len({pid for _, pid in results[1:]}) == 1
    assert results[0][1] != results[1][1]


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_fork_map_workers_stop_once_their_caller_is_killed():
    # each task prints its worker's pid; once both workers are known the
    # caller is killed, and its orphaned workers must not run the tasks still
    # queued (about 4 s of them). An orphan may stay a zombie where nothing
    # reaps it, which counts as ended
    code = (
        "import os, time; from consrate.parallel import fork_map; "
        "fork_map(lambda task: (print(os.getpid(), flush=True), time.sleep(0.2)), range(40), 2)"
    )
    caller = subprocess.Popen([sys.executable, "-c", code], env=child_env(), stdout=subprocess.PIPE, text=True)
    pids = set()
    # stdout stays open until the end: a worker whose print failed would stop for that reason
    with caller.stdout:
        try:
            while len(pids) < 2:
                line = caller.stdout.readline()
                assert line, "the caller ended before both workers started"
                pids.add(int(line))
        finally:
            caller.kill()
            caller.wait()
        deadline = time.monotonic() + 3.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids)), f"workers {sorted(filter(_running, pids))} outlived their caller"
