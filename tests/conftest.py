"""Fixtures shared by the test modules."""

import pytest

from galimech import cli


@pytest.fixture
def csv_ways(monkeypatch):
    """The ways the CLI can write its CSV: each makes it write that way, on any machine."""
    def ways():
        for way in ("forked", "in-process"):
            monkeypatch.setattr(cli, "_forks", lambda handles, fork=way == "forked": fork)
            yield way
    return ways()
