import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process of the test process behind,
    running or unreaped: a sweep reaps every worker it forks."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = f"pid {pid}, wait status {status}" if pid else "still running"
    pytest.fail(f"the test left a child process behind ({left})")
