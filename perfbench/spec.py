"""What the galimech benchmark measures: workloads, metrics and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 perfbench/spec.py`` rewrites that file from it.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Every workload is a closed loop: the benchmark (one client) starts the
# next child process only after the previous one has exited.
WORKLOADS = {
    "simulate-oscillator": (
        "galimech simulate on a seeded boosted harmonic oscillator over 3 periods: "
        "RK4, per-row legendre and mass-shell Fractions, CSV output, whole "
        "trajectory held"),
    "boost-drifting-slope": (
        "galimech boost with a time-drifting uniform slope in two frames: same "
        "layers as simulate, no harmonic fast path, two trajectories held and "
        "compared"),
    "verify-registry": (
        "galimech verify at its default 1000 trials from a seeded --seed: algebra "
        "in homogeneous, affine_values and chart on fresh inputs, about 25% "
        "integration, no CSV"),
}

# (name, unit, better, bound).  Times are scaled to the reference speed
# of ``speed.py``: on a shared machine the raw wall time of one run
# drifts by more than any of these bounds from one run to the next.
# Scaled, wall_ref_s and work_per_ref_s spread by at most 2.5% (IQR over
# median, 10 seeds); their bound leaves room for the probe's own speed
# to move a little when the program changes.  setup_s has the largest
# bound: interpreter start-up is the noisiest figure, and it is scaled
# by the speed of the run's timed children.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref_s", "s", "lower", 0.15),
    ("work_per_ref_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# The registry's suite names when the benchmark was defined.  A suite
# deleted later reports 0; the trajectory total does not depend on it.
SUITES = [
    "splitting-identity", "dual-lift-adjointness", "cometric-symmetry",
    "event-affine-axioms", "potential-gradient-fd", "harmonic-time-slot",
    "poisson-vs-vertical", "lagrangian-generates-dynamics",
    "trajectory-frame-covariance", "energy-conservation",
    "free-particle-exactness", "lagrangian-homogeneity", "euler-identity",
    "legendre-on-shell", "legendre-degree-zero", "inhomogeneous-restriction",
    "legendre-inversion", "characteristic-orientation",
    "frame-shift-antisymmetry", "frame-shift-cocycle", "value-space-axioms",
    "cross-frame-addition", "value-class-invariance",
    "momentum-class-invariance", "shell-function-invariance",
    "affine-eval-invariance", "pairing-invariance", "legendre-frame-coherence",
    "affine-lagrangian-coherence", "shell-transport", "dynamics-transport",
    "generating-on-shell", "morse-matches-generating", "morse-stationarity",
    "morse-off-shell-detection", "universal-vs-frame-dynamics",
    "differential-lift-membership", "triple-composition",
]

PER_LAYER = [
    ("chart.objects_built", "count", "lower"),
    ("chart.frame_checks", "count", "lower"),
    ("potentials.calls", "count", "lower"),
    ("potentials.self_s", "s", "lower"),
    ("frame_dynamics.integrate.calls", "count", "lower"),
    ("frame_dynamics.integrate.self_s", "s", "lower"),
    ("frame_dynamics.dynamics_field.calls", "count", "lower"),
    ("frame_dynamics.dynamics_field.self_s", "s", "lower"),
    ("frame_dynamics.step_us", "us", "lower"),
    ("frame_dynamics.trajectory_bytes", "B", "lower"),
    ("homogeneous.legendre.calls", "count", "lower"),
    ("homogeneous.legendre.us", "us", "lower"),
    ("homogeneous.mass_shell_residual.calls", "count", "lower"),
    ("homogeneous.mass_shell_residual.us", "us", "lower"),
    ("homogeneous.self_s", "s", "lower"),
    ("affine_values.calls", "count", "lower"),
    ("affine_values.self_s", "s", "lower"),
    *((f"verify.suite.{name}.s", "s", "lower") for name in SUITES),
    ("verify.trajectory_s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(path: Path = ROOT / "BENCHMARK.json") -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_benchmark_json()
