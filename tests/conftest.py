"""Shared test configuration."""
import signal

import pytest
from hypothesis import HealthCheck, settings

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
