import os
from pathlib import Path

import pytest

import consrate

# directory that holds the consrate package this test process imported
PACKAGE_ROOT = Path(consrate.__file__).resolve().parents[1]


def child_env():
    """Environment for a ``python -m consrate`` child that imports the package under test.

    The CLI tests run the child with ``cwd`` set to a temporary directory, where a
    relative ``PYTHONPATH`` entry such as ``src`` no longer finds the checkout, so
    the absolute package root goes first and any existing entries follow it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    every worker must have been joined by the time its call returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail("a child process is still running" if pid == 0 else f"child process {pid} was left unreaped")
