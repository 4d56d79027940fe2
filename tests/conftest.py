"""Session-wide checks of the test suite."""

import multiprocessing
import os

_SHM = "/dev/shm"
_shm_at_start: set[str] = set()


def _shm() -> set[str]:
    return set(os.listdir(_SHM)) if os.path.isdir(_SHM) else set()


def pytest_sessionstart(session):
    _shm_at_start.update(_shm())


def pytest_sessionfinish(session, exitstatus):
    """A pack worker still running after ``shutdown()``, or an entry left in ``/dev/shm``, fails the run instead of
    outliving it."""
    from tempolm import packworker

    packworker.shutdown()
    assert multiprocessing.active_children() == []
    assert sorted(_shm() - _shm_at_start) == []
