"""Output checks that do not use the program under test.

Trajectories are compared with closed forms computed from the drawn
inputs.  CSV columns are found by header name and only ``t,x,y,z,px,py,pz``
are read, so diagnostic columns may change without breaking the check.
Each check returns the work the run completed: RK4 steps over all frames,
or verification trials.
"""

from __future__ import annotations

import math
import re

from inputs import Case

COLUMNS = ("t", "x", "y", "z", "px", "py", "pz")

# Gates relative to the motion's own scale.  Worst cases seen are 4e-12
# (oscillator: RK4's 4th-order error at omega*dt = 1.5e-3 over 3 periods)
# and 6e-14 (slope: RK4 is exact on quadratic motion up to rounding).
OSCILLATOR_TOL = 1e-9
SLOPE_TOL = 1e-10
TIME_TOL = 1e-9

_SUITE_LINE = re.compile(r"^(\S+)\s+trials=(\d+)\b.*\s(PASS|FAIL)$")


class OracleError(ValueError):
    """The program's output disagrees with the independent oracle."""


def _sections(text: str) -> tuple[list[list[tuple[float, ...]]], list[str]]:
    """CSV sections (blank-line separated) and any trailing non-CSV lines."""
    sections, trailer = [], []
    for block in text.strip("\n").split("\n\n"):
        lines = block.splitlines()
        header = lines[0].split(",")
        if len(header) == 1:
            trailer.extend(lines)
            continue
        try:
            index = [header.index(name) for name in COLUMNS]
        except ValueError:
            raise OracleError(f"header {lines[0]!r} lacks one of {COLUMNS}") from None
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            rows.append(tuple(float(parts[i]) for i in index))
        sections.append(rows)
    return sections, trailer


def _check_times(rows, t0: float, dt: float, steps: int, label: str):
    if len(rows) != steps + 1:
        raise OracleError(f"{label}: {len(rows)} rows, expected {steps + 1}")
    for n, row in enumerate(rows):
        want = t0 + n * dt
        if abs(row[0] - want) > TIME_TOL * max(1.0, abs(want)):
            raise OracleError(f"{label}: row {n} has t={row[0]!r}, expected {want!r}")


def _worst(rows, path, label: str, scale_x: float, scale_p: float, tol: float) -> float:
    """Worst scaled gap to ``path(t) -> (event xyz, momentum)``; raises above ``tol``."""
    worst, where = 0.0, 0
    for n, row in enumerate(rows):
        pos, mom = path(row[0])
        gap = max(max(abs(a - b) for a, b in zip(row[1:4], pos)) / scale_x,
                  max(abs(a - b) for a, b in zip(row[4:7], mom)) / scale_p)
        if not gap <= worst:
            worst, where = gap, n
    if not worst <= tol:
        raise OracleError(f"{label}: row {where} off the closed form by {worst:.3e}, "
                          f"relative gate {tol:.1e}")
    return worst


def check_oscillator(case: Case, text: str) -> int:
    """Harmonic closed form about the center, omega = sqrt(kappa / m)."""
    p = case.params
    sections, _ = _sections(text)
    if len(sections) != 1:
        raise OracleError(f"expected one CSV section, got {len(sections)}")
    rows = sections[0]
    mass, omega = p["mass"], math.sqrt(p["kappa"] / p["mass"])
    t0, c = p["x0"][0], p["center"][1:]
    disp0 = [a - b for a, b in zip(p["x0"][1:], c)]
    vel0 = [a + b for a, b in zip(p["v0"], p["frame"])]
    amp = max(1.0, *map(abs, disp0), *(abs(v) / omega for v in vel0))

    def path(t):
        co, si = math.cos(omega * (t - t0)), math.sin(omega * (t - t0))
        pos = [ci + d * co + v / omega * si for ci, d, v in zip(c, disp0, vel0)]
        mom = [mass * (v * co - d * omega * si - b)
               for d, v, b in zip(disp0, vel0, p["frame"])]
        return pos, mom

    _check_times(rows, t0, p["dt"], p["steps"], "simulate")
    _worst(rows, path, "simulate", amp, mass * omega * amp, OSCILLATOR_TOL)
    return len(rows) - 1


def check_slope(case: Case, text: str) -> int:
    """Exact quadratic event path of a constant force, seen from both frames."""
    p = case.params
    sections, trailer = _sections(text)
    if len(sections) != 2:
        raise OracleError(f"expected two CSV sections, got {len(sections)}")
    found = [line.split("=", 1)[1] for line in trailer
             if line.startswith("max_event_discrepancy=")]
    if len(found) != 1:
        raise OracleError("no max_event_discrepancy line")
    discrepancy = float(found[0])
    if not discrepancy <= p["tol"]:
        raise OracleError(f"max_event_discrepancy={discrepancy!r} exceeds {p['tol']!r}")

    mass, t0 = p["mass"], p["x0"][0]
    accel = [-k / mass for k in p["k"][1:]]
    vel0 = [a + b for a, b in zip(p["v0"], p["frame"])]
    span = p["dt"] * p["steps"]
    scale = max(1.0, *(abs(x) + abs(v) * span + abs(a) * span * span
                       for x, v, a in zip(p["x0"][1:], vel0, accel)))
    frames = (p["frame"], [a + b for a, b in zip(p["frame"], p["boost"])])
    for label, frame, rows in zip(("frame", "boosted frame"), frames, sections):
        def path(t, frame=frame):
            s = t - t0
            pos = [x + v * s + 0.5 * a * s * s
                   for x, v, a in zip(p["x0"][1:], vel0, accel)]
            mom = [mass * (v + a * s - b) for v, a, b in zip(vel0, accel, frame)]
            return pos, mom

        _check_times(rows, t0, p["dt"], p["steps"], f"boost {label}")
        _worst(rows, path, f"boost {label}", scale, mass * scale, SLOPE_TOL)
    return sum(len(rows) - 1 for rows in sections)


def check_registry(case: Case, text: str) -> int:
    """Every reported suite passes; returns the sum of its ``trials=`` fields."""
    trials = 0
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines:
        match = _SUITE_LINE.match(line.rstrip())
        if match is None:
            raise OracleError(f"unparsed report line {line!r}")
        if match.group(3) != "PASS":
            raise OracleError(f"suite failed: {line!r}")
        trials += int(match.group(2))
    if not lines:
        raise OracleError("empty verify report")
    return trials


CHECKS = {
    "simulate-oscillator": check_oscillator,
    "boost-drifting-slope": check_slope,
    "verify-registry": check_registry,
}
