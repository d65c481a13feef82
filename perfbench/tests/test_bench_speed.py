"""The speed probe samples while a command runs and scales its wall time."""

import signal
import time

import run
import speed
from inputs import Case


def test_probe_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.install()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.restore()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert probe.speed() == sum(speed.REFERENCE_S / s for s in probe.samples) / len(
        probe.samples)


def test_speed_is_none_without_samples():
    assert speed.SpeedProbe().speed() is None


def test_wall_is_scaled_net_of_the_probe():
    it = run.Iteration("run", 0.0, record={"wall_s": 2.5, "probe_s": 0.5, "speed": 0.75})
    assert run._wall_net(it) == 2.0
    assert run._wall_ref(it) == 1.5


def test_timed_child_reports_its_speed(tmp_path):
    case = Case("verify-registry", ["verify", "--trials", "20"])
    it = run.run_iteration(case, "run", tmp_path, "speed")
    assert it.ok, it.error
    assert it.record["probes"] >= 1 and it.record["speed"] > 0
    assert 0 < it.record["probe_s"] < it.record["wall_s"]
