"""Shared test configuration."""
import signal

import pytest
from hypothesis import HealthCheck, settings

from schedlab import oracle

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture
def watchdog():
    """Fail a call still running after 10 s, instead of stalling the suite.
    ``pytest.fail`` raises past ``sched``'s handlers, which catch
    ``OSError`` and so ``TimeoutError``."""
    def expire(signum, frame):
        pytest.fail("still running after 10 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=[0, 2**62], ids=["table", "columns"])
def hull_path(request, monkeypatch):
    """Run every ``IncrementalOff`` on one path: numpy columns
    (``_SCALAR_COLUMNS`` 0), or columns in Python ints (``_SCALAR_COLUMNS``
    above any column count).  The setting holds for every example of a
    hypothesis test, so such a test may take it with the
    ``function_scoped_fixture`` health check suppressed."""
    monkeypatch.setattr(oracle, "_SCALAR_COLUMNS", request.param)
    return request.param
