"""Session-wide checks of the test suite."""

import multiprocessing


def pytest_sessionfinish(session, exitstatus):
    """A pack worker still running after ``shutdown()`` fails the run instead of outliving it."""
    from tempolm import packworker

    packworker.shutdown()
    assert multiprocessing.active_children() == []
