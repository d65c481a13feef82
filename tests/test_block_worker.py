"""How ``run_checks`` hands its odd trial blocks to a forked worker.

Every test here ends with no child process left, and an alarm fails a
test that waits on a worker which never ends, so a hung worker cannot
stall the rest of the suite.  Each test forks, whatever the machine,
unless it says otherwise.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from galimech import verify
from galimech.verify import Check, render_report, run_checks

SRC = Path(__file__).resolve().parent.parent / "src"
B = verify._BLOCK
FORKS = verify._forks

pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture(autouse=True)
def forked(monkeypatch):
    monkeypatch.setattr(verify, "_forks", lambda: True)


def _suite(monkeypatch, trial):
    monkeypatch.setattr(verify, "CHECKS", (Check("suite", 1.0, trial),))


def test_the_parent_folds_the_even_blocks_and_the_worker_the_odd(tmp_path, monkeypatch):
    calls = tmp_path / "calls"

    def trial(rng, i):
        with open(calls, "a") as log:
            log.write(f"{os.getpid()} {i}\n")
        return float(i)

    _suite(monkeypatch, trial)
    (result,) = run_checks(trials=5 * B - 3, seed=1)
    assert result.max_error == 5 * B - 4
    by_pid = {}
    for line in calls.read_text().splitlines():
        pid, i = map(int, line.split())
        by_pid.setdefault(pid, []).append(i)
    parent = os.getpid()
    worker = (set(by_pid) - {parent}).pop()
    assert by_pid == {parent: [*range(0, B), *range(2 * B, 3 * B), *range(4 * B, 5 * B - 3)],
                      worker: [*range(B, 2 * B), *range(3 * B, 4 * B)]}


@pytest.mark.parametrize("trials", [1, B, B + 1, 2 * B + 1])
def test_only_more_than_one_block_forks(monkeypatch, trials):
    forks = []
    fork = os.fork

    def counted():
        forks.append(trials)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    _suite(monkeypatch, lambda rng, i: 0.0)
    run_checks(trials=trials)
    assert forks == [trials] * (trials > B)


def test_a_trial_raising_in_the_worker_raises_the_serial_error(monkeypatch):
    error = KeyError("trial in the second block")

    def trial(rng, i):
        if i == B + 1:
            raise error
        return 0.0

    _suite(monkeypatch, trial)
    with pytest.raises(KeyError) as info:
        run_checks(trials=4 * B)
    assert info.value is error


def test_a_parent_error_after_a_worker_error_raises_the_serial_error(monkeypatch):
    """Trial B + 1 raises in the worker, trial 2B later in the parent's share."""
    first, later = KeyError("worker"), ValueError("parent")

    def trial(rng, i):
        if i == B + 1:
            raise first
        if i == 2 * B:
            raise later
        return 0.0

    _suite(monkeypatch, trial)
    with pytest.raises(KeyError) as info:
        run_checks(trials=4 * B)
    assert info.value is first


def test_a_worker_that_sends_nothing_gives_the_in_process_results(monkeypatch):
    names = ["splitting-identity", "energy-conservation", "dynamics-transport"]
    monkeypatch.setattr(verify, "_forks", lambda: False)
    want = run_checks(trials=3 * B, seed=5, names=names)
    monkeypatch.setattr(verify, "_forks", lambda: True)
    monkeypatch.setattr(verify, "_send", lambda pipe, message: os._exit(0))
    got = run_checks(trials=3 * B, seed=5, names=names)
    assert [(r.name, r.trials, r.max_error.hex()) for r in got] \
        == [(r.name, r.trials, r.max_error.hex()) for r in want]


def test_an_interrupt_in_the_parent_kills_and_reaps_the_worker(monkeypatch):
    """The worker's share would run for minutes; the interrupt ends it at once."""
    parent = os.getpid()

    def trial(rng, i):
        if os.getpid() != parent:
            time.sleep(600)
        if i == 2 * B:
            raise KeyboardInterrupt
        return 0.0

    _suite(monkeypatch, trial)
    with pytest.raises(KeyboardInterrupt):
        run_checks(trials=4 * B)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_process_pinned_to_one_cpu_folds_in_process(monkeypatch):
    monkeypatch.setattr(verify, "_forks", FORKS)
    cpus = os.sched_getaffinity(0)
    names = ["splitting-identity", "characteristic-orientation"]
    want = run_checks(trials=3 * B, seed=2, names=names)

    def refused():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", refused)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        got = run_checks(trials=3 * B, seed=2, names=names)
    finally:
        os.sched_setaffinity(0, cpus)
    assert got == want


def test_verify_prints_once_and_runs_no_exit_hook_twice():
    """The worker ends by ``os._exit``: the report, stdout's buffer and the hook appear once."""
    script = (
        "import atexit, sys\n"
        "from galimech import cli, verify\n"
        "verify._forks = lambda: True\n"
        "atexit.register(print, 'exit hook')\n"
        "sys.stdout.write('buffered\\n')\n"
        f"code = cli.main(['verify', '--trials', '{2 * B + 1}'])\n"
        "print('exit code', code)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=50)
    report = render_report(run_checks(trials=2 * B + 1))
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "".join(line + "\n" for line in ["buffered", *report, "exit code 0", "exit hook"]),
        "")
