"""Release gates, one numbered criterion per test.

Every criterion prints a single summary line (visible under ``pytest -s``)
and fails loudly with the full per-suite report otherwise.  The random
suites all run at a thousand trials from the published seed, so the
numbers here are the numbers a fresh checkout reproduces.
"""

import math
import time
from pathlib import Path

import pytest

from galimech import cli
from galimech.cli import main
from galimech.verify import (
    canonical_discrepancy,
    canonical_energy_drift,
    render_report,
    run_checks,
)

TRIALS = 1000
SEED = 42
# The report of ``galimech verify`` at these defaults; its numbers change
# only when a suite is changed on purpose.
DATA = Path(__file__).with_name("data")
REPORT = DATA / "verify_seed42.txt"


def _margin(result):
    if result.tolerance == 0.0:
        return 0.0 if result.max_error == 0.0 else math.inf
    return result.max_error / result.tolerance


def _gate(number, label, names):
    results = run_checks(trials=TRIALS, seed=SEED, names=names)
    worst = max(results, key=_margin)
    ok = all(r.passed for r in results)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {label}: max_error={worst.max_error:.3e} "
          f"(tol {worst.tolerance:.1e}) {status}")
    assert ok, "\n".join(render_report(results))


def test_c01_frame_shift_laws():
    _gate("01", "frame shift laws",
          ["frame-shift-antisymmetry", "frame-shift-cocycle"])


def test_c02_value_space():
    _gate("02", "value space axioms and cross-frame addition",
          ["value-space-axioms", "cross-frame-addition"])


def test_c03_class_well_definedness():
    _gate("03", "class functions survive representative change",
          ["value-class-invariance", "momentum-class-invariance",
           "shell-function-invariance", "affine-eval-invariance",
           "pairing-invariance"])


def test_c04_legendre_and_mass_shell():
    _gate("04", "legendre map lands on and inverts over the shell",
          ["legendre-on-shell", "legendre-inversion", "legendre-degree-zero"])


def test_c05_frame_transport():
    _gate("05", "momentum transport preserves shell and membership",
          ["shell-transport", "dynamics-transport"])


def test_c06_frame_free_legendre():
    _gate("06", "frame-free legendre coherence",
          ["legendre-frame-coherence", "affine-lagrangian-coherence"])


def test_c07_generating_family():
    _gate("07", "generating family equivalences and stationarity",
          ["generating-on-shell", "morse-matches-generating",
           "morse-stationarity", "morse-off-shell-detection"])


def test_c08_dynamics_equivalence():
    _gate("08", "universal and fixed-frame dynamics agree",
          ["universal-vs-frame-dynamics", "differential-lift-membership"])


def test_c09_fixed_frame_consistency():
    _gate("09", "fixed-frame reductions are consistent",
          ["poisson-vs-vertical", "lagrangian-generates-dynamics",
           "inhomogeneous-restriction"])


def test_c10_trajectory_covariance():
    gap = canonical_discrepancy()
    drift = canonical_energy_drift()
    free = run_checks(trials=TRIALS, seed=SEED,
                      names=["free-particle-exactness"])[0]
    ok = gap <= 1e-6 and drift <= 1e-8 and free.passed
    status = "PASS" if ok else "FAIL"
    print(f"criterion 10 trajectory covariance: discrepancy={gap:.3e} "
          f"(tol 1.0e-06), energy_drift={drift:.3e} (tol 1.0e-08), "
          f"free_particle={free.max_error:.3e} (tol 1.0e-12) {status}")
    assert ok


@pytest.fixture
def reported(monkeypatch):
    """The results behind the next ``galimech verify`` report."""
    seen = []

    def recording(*args, **kwargs):
        seen[:] = run_checks(*args, **kwargs)
        return seen
    monkeypatch.setattr(cli, "run_checks", recording)
    return seen


def _exact(results):
    """``name trials max_error`` per suite, the error as ``float.hex``.

    The report prints ``.3e``, which cannot see a last-bit change; the
    ``verify_seed*.hex`` pins can.
    """
    return [f"{r.name} {r.trials} {r.max_error.hex()}" for r in results]


def test_full_suite_fits_the_time_budget(capsys, reported, ways):
    for way in ways:
        start = time.perf_counter()
        assert main(["verify"]) == 0
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert lines == REPORT.read_text(encoding="utf-8").splitlines(), way
        assert _exact(reported) == (DATA / "verify_seed42.hex").read_text(
            encoding="utf-8").splitlines(), way
        assert elapsed < 60.0


@pytest.mark.parametrize("seed", [7, 2024])
def test_verify_report_is_pinned_at_other_seeds(capsys, reported, ways, seed):
    # The same report at seeds whose trials differ from the published one.
    for way in ways:
        assert main(["verify", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == (DATA / f"verify_seed{seed}.txt").read_text(
            encoding="utf-8").splitlines(), way
        assert _exact(reported) == (DATA / f"verify_seed{seed}.hex").read_text(
            encoding="utf-8").splitlines(), way
