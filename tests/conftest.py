"""Fixtures shared by the test modules."""

import os
import signal

import pytest

from galimech import cli, verify


def _ways(monkeypatch, module):
    for way in ("forked", "in-process"):
        monkeypatch.setattr(module, "_forks", lambda fork=way == "forked": fork)
        yield way


@pytest.fixture
def csv_ways(monkeypatch):
    """The ways the CLI can write its CSV: each makes it write that way, on any machine."""
    return _ways(monkeypatch, cli)


@pytest.fixture
def verify_ways(monkeypatch):
    """The ways ``run_checks`` can fold its trial blocks: each makes it fold that way."""
    return _ways(monkeypatch, verify)


@pytest.fixture
def no_child_left():
    """An alarm fails a test that waits on a forked process which never ends; the
    test must then leave no child behind."""
    def expire(signum, frame):
        pytest.fail("a forked process did not end")  # not an error the code reports

    previous = signal.signal(signal.SIGALRM, expire)
    # Then every second, so that a wait in a clean-up fails too.
    signal.setitimer(signal.ITIMER_REAL, 60, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
