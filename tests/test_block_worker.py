"""How ``run_checks`` shares its trial blocks with a forked worker.

Both processes claim runs of consecutive blocks from one pipe, one claim
at a time, so which process folds a block varies from run to run; tests
that need a trial in one process steer by process id through the
``handshake`` fixture.  Every test here ends with no child process left,
and an alarm fails a test that waits on a worker which never ends, so a
hung worker cannot stall the rest of the suite.  Each test forks,
whatever the machine, unless it says otherwise.
"""

import dataclasses
import os
import time
from itertools import chain

import pytest

from galimech import _child, verify
from galimech.verify import Check, run_checks

B = verify._BLOCK
FORKS = _child._forks

pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture(autouse=True)
def forked(monkeypatch):
    monkeypatch.setattr(verify, "_forks", lambda: True)


def _suite(monkeypatch, trial):
    monkeypatch.setattr(verify, "CHECKS", (Check("suite", 1.0, trial),))


def _bits(results):
    return [(r.name, r.trials, r.max_error.hex()) for r in results]


def _log(path, i):
    with open(path, "a") as log:
        log.write(f"{os.getpid()} {i}\n")


def _claimed_once(path, trials, width):
    """The trials logged to ``path``, each once, by two processes, each of which took
    whole runs of ``width`` trials; the worker's trials are returned."""
    by_pid = {}
    for line in path.read_text().splitlines():
        pid, i = map(int, line.split())
        by_pid.setdefault(pid, []).append(i)
    assert len(by_pid) == 2 and os.getpid() in by_pid
    assert sorted(chain(*by_pid.values())) == list(range(trials))
    for folded in by_pid.values():
        runs = {i // width for i in folded}
        assert sorted(folded) == [i for i in range(trials) if i // width in runs]
    (worker,) = set(by_pid) - {os.getpid()}
    return by_pid[worker]


def test_each_process_folds_whole_claimed_blocks_and_every_trial_once(
        tmp_path, monkeypatch, handshake):
    calls = tmp_path / "calls"

    def trial(rng, i):
        handshake.meet()
        _log(calls, i)
        return float(i)

    _suite(monkeypatch, trial)
    (result,) = run_checks(trials=5 * B - 3, seed=1)
    assert result.max_error == 5 * B - 4
    _claimed_once(calls, 5 * B - 3, B)


def test_a_worker_held_in_its_first_block_leaves_every_other_block_to_the_parent(
        tmp_path, monkeypatch, handshake):
    """The worker's first block waits until the parent has folded all the others:
    a fixed share of the blocks would leave both waiting until the alarm."""
    calls, trials = tmp_path / "calls", 6 * B
    calls.touch()

    def trial(rng, i):
        if handshake.in_worker():
            handshake.mark()
            while len(calls.read_text().splitlines()) < trials - B:
                time.sleep(0.001)
        else:
            handshake.wait()
        _log(calls, i)
        return float(i)

    _suite(monkeypatch, trial)
    (result,) = run_checks(trials=trials, seed=2)
    assert result.max_error == trials - 1
    assert len(_claimed_once(calls, trials, B)) == B


def test_one_claim_covers_several_blocks_when_blocks_outnumber_claims(
        tmp_path, monkeypatch, handshake):
    """One write of at most ``PIPE_BUF`` bytes holds a 2-byte claim per run; a block
    more than that makes every run two blocks long."""
    read, write = os.pipe()
    claims = os.fpathconf(write, "PC_PIPE_BUF") // 2
    os.close(read)
    os.close(write)
    calls, trials = tmp_path / "calls", B * claims + 5

    def trial(rng, i):
        handshake.meet()
        _log(calls, i)
        return rng.random()

    monkeypatch.setattr(verify, "CHECKS", (
        Check("worst", 1.0, trial), Check("count", 0.0, lambda rng, i: float(i % 3))))
    got = run_checks(trials=trials, seed=3)
    _claimed_once(calls, trials, 2 * B)
    monkeypatch.setattr(verify, "_forks", lambda: False)
    want = run_checks(trials=trials, seed=3)
    assert _bits(got) == _bits(want)
    assert want[1].max_error == sum(i % 3 for i in range(trials))


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


def test_a_trial_raising_in_the_worker_raises_the_serial_error(monkeypatch, handshake):
    """The worker's first trial raises; the rerun in process raises at that trial."""
    error = KeyError("trial in the worker")

    def trial(rng, i):
        if handshake.in_worker():
            handshake.mark(str(i))
            raise error
        if i == int(handshake.wait()):
            raise error
        return 0.0

    _suite(monkeypatch, trial)
    with pytest.raises(KeyError) as info:
        run_checks(trials=4 * B)
    assert info.value is error


def test_a_parent_error_after_a_worker_error_raises_the_serial_error(monkeypatch, handshake):
    """The worker raises at its first trial, in block 0 or 1, since the parent held the
    other while it waited; trial 2B later raises in the parent's share."""
    first, later = KeyError("worker"), ValueError("parent")

    def trial(rng, i):
        if handshake.in_worker():
            handshake.mark(str(i))
            raise first
        if i == int(handshake.wait()):
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
    monkeypatch.setattr(_child, "_send", lambda pipe, message: os._exit(0))
    got = run_checks(trials=3 * B, seed=5, names=names)
    assert _bits(got) == _bits(want)


def test_a_worker_that_dies_in_a_claimed_block_gives_the_in_process_results(
        monkeypatch, handshake):
    names = ["splitting-identity", "energy-conservation", "dynamics-transport"]
    monkeypatch.setattr(verify, "_forks", lambda: False)
    want = run_checks(trials=3 * B, seed=5, names=names)
    monkeypatch.setattr(verify, "_forks", lambda: True)

    def dying(trial):
        def dies_in_the_worker(rng, i):
            if handshake.in_worker():
                handshake.mark()
                os._exit(0)
            handshake.wait()
            return trial(rng, i)
        return dies_in_the_worker

    monkeypatch.setattr(verify, "CHECKS", tuple(
        dataclasses.replace(check, trial=dying(check.trial)) for check in verify.CHECKS))
    got = run_checks(trials=3 * B, seed=5, names=names)
    assert _bits(got) == _bits(want)


def test_an_interrupt_in_the_parent_kills_and_reaps_the_worker(monkeypatch, handshake):
    """The worker's claim would run for minutes; the interrupt ends it at once."""
    def trial(rng, i):
        if handshake.in_worker():
            handshake.mark()
            time.sleep(600)
        handshake.wait()
        raise KeyboardInterrupt

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
