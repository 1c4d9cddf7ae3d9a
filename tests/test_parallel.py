import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from consrate.parallel import fork_map


def test_fork_map_worker_that_dies_breaks_the_pool():
    with pytest.raises(BrokenProcessPool):
        fork_map(lambda task: os._exit(3), range(4), 2)
    # every worker was reaped before fork_map raised
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
