import os

import pytest

from avledger import forks


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test that leaves a child process unreaped, running or exited,
    fails: the process counterpart of the thread and resource warnings
    that pyproject.toml turns into errors. The process's check helpers
    live until it exits, so forks.close() ends and reaps them first: a
    helper that close() could not reap fails the test too."""
    yield
    forks.close()
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")
