"""Fixtures shared by the test modules."""

import os
import signal
import time

import pytest

from galimech import _child


def _ways(monkeypatch):
    for way in ("forked", "in-process"):
        monkeypatch.setattr(_child, "_forks", lambda fork=way == "forked": fork)
        yield way


@pytest.fixture
def ways(monkeypatch):
    """The ways a command can run, on any machine: each makes ``simulate`` and
    ``boost`` write their CSV, and ``run_checks`` fold its trial blocks, that way."""
    return _ways(monkeypatch)


class Handshake:
    """Steers trials by process while ``run_checks`` forks: the worker's first trial
    calls ``mark``, which the parent's ``wait`` polls for.  A parent trial that waits
    holds one claim, so the worker has claimed another, whoever claimed first."""

    def __init__(self, path):
        self.path, self.parent = path, os.getpid()

    def in_worker(self) -> bool:
        return os.getpid() != self.parent

    def mark(self, text: str = "") -> None:
        written = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        written.write_text(text)
        os.replace(written, self.path)  # whole, or not yet there

    def wait(self) -> str:
        while not self.path.exists():
            time.sleep(0.001)
        return self.path.read_text()

    def meet(self) -> None:
        """``mark`` in the worker, ``wait`` in the parent."""
        if self.in_worker():
            self.mark()
        else:
            self.wait()


@pytest.fixture
def handshake(tmp_path):
    return Handshake(tmp_path / "worker-started")


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
