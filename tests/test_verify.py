import dataclasses
import math
import random

import pytest

from galimech import affine_values, homogeneous, verify
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
)
from galimech.frame_dynamics import State, integrate
from galimech.potentials import ZeroPotential
from galimech.verify import (
    CHECKS,
    Check,
    CheckResult,
    canonical_discrepancy,
    canonical_energy_drift,
    initial_momentum,
    render_report,
    rest_energy_drift,
    run_checks,
    trajectory_discrepancy,
)


def test_registry_names_are_unique():
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names)


def test_every_suite_passes_a_smoke_run():
    results = run_checks(trials=2, seed=0)
    assert [r.name for r in results] == [check.name for check in CHECKS]
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_name_filter_keeps_registry_order():
    results = run_checks(trials=2, seed=1,
                         names=["legendre-on-shell", "splitting-identity"])
    assert [r.name for r in results] == ["splitting-identity", "legendre-on-shell"]


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError):
        run_checks(trials=1, names=["no-such-suite"])


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_checks(trials=0)


def test_tolerance_override_applies_to_every_gate():
    # Finite differencing cannot reach 1e-16, while a zero-mismatch
    # verdict survives any override.
    results = run_checks(trials=2, seed=0, tolerance=1e-16,
                         names=["potential-gradient-fd",
                                "characteristic-orientation"])
    by_name = {r.name: r for r in results}
    assert not by_name["potential-gradient-fd"].passed
    assert by_name["characteristic-orientation"].passed
    assert by_name["potential-gradient-fd"].tolerance == 1e-16


def test_trajectory_suites_cap_their_trials():
    results = run_checks(trials=50, seed=0,
                         names=["trajectory-frame-covariance",
                                "energy-conservation",
                                "free-particle-exactness",
                                "splitting-identity"])
    by_name = {r.name: r for r in results}
    assert by_name["trajectory-frame-covariance"].trials == 3
    assert by_name["energy-conservation"].trials == 3
    assert by_name["free-particle-exactness"].trials == 3
    assert by_name["splitting-identity"].trials == 50


def test_reports_are_reproducible():
    names = ["splitting-identity", "euler-identity", "cross-frame-addition"]
    first = run_checks(trials=3, seed=9, names=names)
    second = run_checks(trials=3, seed=9, names=names)
    assert first == second


def test_render_report_lines():
    results = run_checks(trials=1, seed=0, names=["splitting-identity"])
    line = render_report(results)[0]
    assert line.startswith("splitting-identity")
    assert "trials=1" in line
    assert "max_error=" in line
    assert "tol=1.0e-12" in line
    assert line.endswith("PASS")
    bad = render_report([CheckResult("broken", 5, 1.0, 1e-12)])[0]
    assert bad.endswith("FAIL")


def test_gate_is_inclusive():
    assert CheckResult("x", 1, 1e-12, 1e-12).passed
    assert CheckResult("x", 1, 0.0, 0.0).passed
    assert not CheckResult("x", 1, 2e-12, 1e-12).passed


def test_runner_sums_verdicts_and_takes_the_worst_error(monkeypatch):
    seen = []

    def numeric(rng, i):
        seen.append((i, rng.random()))
        return (0.5, 3.0, 1.0)[i]

    def verdict(rng, i):
        return (1.0, 2.0, 0.0)[i]

    monkeypatch.setattr(verify, "CHECKS", (Check("numeric", 5.0, numeric),
                                           Check("verdict", 0.0, verdict)))
    results = run_checks(trials=3, seed=5)
    assert [(r.name, r.max_error) for r in results] == [("numeric", 3.0),
                                                        ("verdict", 3.0)]
    assert seen == [(i, random.Random(5 + i).random()) for i in range(3)]


def test_nan_errors_fail_their_suite(monkeypatch):
    # A NaN anywhere in a trial, or in any trial, must reach the report:
    # the builtin max keeps its running value when compared with NaN.
    nan = FourCovector(math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(affine_values, "frame_shift", lambda u1, u2: nan)
    lift = homogeneous._legendre
    monkeypatch.setattr(homogeneous, "_legendre", lambda *args: dataclasses.replace(
        lift(*args), pt=math.nan))
    names = ["legendre-degree-zero", "frame-shift-antisymmetry",
             "frame-shift-cocycle", "value-class-invariance",
             "momentum-class-invariance"]
    results = run_checks(trials=50, seed=42, names=names)
    assert [r.name for r in results] == names
    for result in results:
        assert math.isnan(result.max_error) and not result.passed, result


def test_initial_momentum_oracle():
    u = Frame(1.0, 0.5, 0.0, 0.0)
    p = initial_momentum(u, 2.0, Frame(1.0, 0.8, 0.0, 0.0))
    assert p.x == pytest.approx(0.6, abs=1e-15)
    assert p.y == 0.0 and p.z == 0.0


def test_same_frame_discrepancy_is_zero():
    u = Frame(1.0, 0.25, 0.0, 0.0)
    gap = trajectory_discrepancy(u, u, 1.0, ZeroPotential(), ORIGIN,
                                 Frame(1.0, 0.5, 0.0, 0.0), 0.01, 10)
    assert gap == 0.0


def test_free_particle_conserves_rest_energy_exactly():
    u = Frame(1.0, 0.25, 0.0, 0.0)
    samples = integrate(u, 2.0, ZeroPotential(),
                        State(Event(0.0, 1.0, 0.0, 0.0),
                              SpatialCovector(1.0, -0.5, 0.25)),
                        0.01, 20)
    assert rest_energy_drift(u, 2.0, ZeroPotential(), samples) == 0.0


def test_canonical_case_meets_the_published_gates():
    assert canonical_discrepancy() <= 1e-6
    assert canonical_energy_drift() <= 1e-8
