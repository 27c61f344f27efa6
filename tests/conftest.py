import os

import pytest
from hypothesis import settings

# Every run draws the same examples, so a run's outcome and time do not
# depend on hypothesis's random seed.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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
