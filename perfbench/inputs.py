"""Seeded inputs for each workload.

Everything the program sees is drawn here from the workload seed and
written as a run config; the oracles read the same drawn parameters,
never the program's parse of them.  Values are full-precision uniform
draws, not short decimals, so the exact ``Fraction`` arithmetic in the
shell residual costs what it costs on real inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# simulate-oscillator: 12,568 steps over 3 periods, whatever omega is drawn.
OSCILLATOR_STEPS = 12568
OSCILLATOR_PERIODS = 3
# boost-drifting-slope: 6,284 steps in each of the two frames.
SLOPE_STEPS = 6284
BOOST_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    """One workload input: the galimech argv plus what the oracle needs."""

    workload: str
    argv: list[str]
    out: str | None = None
    params: dict = field(default_factory=dict)


def _fmt(values) -> str:
    return ", ".join(repr(v) for v in values)


def _uniforms(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _write_config(path: Path, entries: dict[str, str]) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()),
                    encoding="utf-8")
    return str(path)


def _oscillator(rng: random.Random, work: Path) -> Case:
    mass = rng.uniform(0.5, 3.0)
    kappa = rng.uniform(0.5, 4.0)
    center = _uniforms(rng, -2.0, 2.0, 4)
    x0 = _uniforms(rng, -2.0, 2.0, 4)
    v0 = _uniforms(rng, -1.0, 1.0, 3)
    frame = _uniforms(rng, -1.0, 1.0, 3)
    omega = math.sqrt(kappa / mass)
    dt = OSCILLATOR_PERIODS * 2.0 * math.pi / omega / OSCILLATOR_STEPS
    config = _write_config(work / "oscillator.cfg", {
        "mass": repr(mass),
        "potential.kind": "harmonic",
        "potential.kappa": repr(kappa),
        "potential.center": _fmt(center),
        "frame": _fmt(frame),
        "x0": _fmt(x0),
        "v0": _fmt(v0),
        "dt": repr(dt),
        "steps": str(OSCILLATOR_STEPS),
    })
    out = str(work / "oscillator.csv")
    return Case("simulate-oscillator",
                ["simulate", "--config", config, "--out", out], out,
                dict(mass=mass, kappa=kappa, center=center, x0=x0, v0=v0,
                     frame=frame, dt=dt, steps=OSCILLATOR_STEPS))


def _slope(rng: random.Random, work: Path) -> Case:
    mass = rng.uniform(0.5, 3.0)
    # A nonzero time slot makes the potential drift in time.
    k = [rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)), *_uniforms(rng, -2.0, 2.0, 3)]
    x0 = _uniforms(rng, -2.0, 2.0, 4)
    v0 = _uniforms(rng, -1.0, 1.0, 3)
    frame = _uniforms(rng, -1.0, 1.0, 3)
    boost = _uniforms(rng, -1.0, 1.0, 3)
    dt = rng.uniform(0.8e-3, 1.2e-3)
    config = _write_config(work / "slope.cfg", {
        "mass": repr(mass),
        "potential.kind": "uniform",
        "potential.k": _fmt(k),
        "frame": _fmt(frame),
        "x0": _fmt(x0),
        "v0": _fmt(v0),
        "dt": repr(dt),
        "steps": str(SLOPE_STEPS),
        "tol": repr(BOOST_TOL),
    })
    out = str(work / "slope.txt")
    return Case("boost-drifting-slope",
                # One token: a leading minus would read as an option.
                ["boost", "--config", config, "--boost=" + ",".join(map(repr, boost)),
                 "--out", out], out,
                dict(mass=mass, k=k, x0=x0, v0=v0, frame=frame, boost=boost, dt=dt,
                     steps=SLOPE_STEPS, tol=BOOST_TOL))


def _registry(rng: random.Random, work: Path) -> Case:
    return Case("verify-registry", ["verify", "--seed", str(rng.randrange(1, 2**31))])


_MAKERS = {
    "simulate-oscillator": _oscillator,
    "boost-drifting-slope": _slope,
    "verify-registry": _registry,
}


def make_case(workload: str, seed: int, work: Path) -> Case:
    """Draw the inputs of ``workload`` from ``seed`` and write them under ``work``."""
    return _MAKERS[workload](random.Random(f"galimech:{workload}:{seed}"), work)
