"""Run configuration for the command line tools.

Config files are flat ``key = value`` lines; ``#`` starts a comment.
Dotted keys select the potential.  Parsing is strict: unknown keys,
duplicate keys and malformed values are errors, not warnings, so a
typo cannot silently change a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chart import (
    ORIGIN,
    REST_FRAME,
    Event,
    FourCovector,
    Frame,
    SpatialCovector,
    SpatialVector,
    metric,
)
from .potentials import HarmonicPotential, Potential, UniformPotential, ZeroPotential

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# Each potential kind: the dotted keys it takes besides potential.kind,
# and the one of them it requires.
_POTENTIAL_KEYS = {
    "zero": (frozenset(), None),
    "uniform": (frozenset({"potential.k"}), "potential.k"),
    "harmonic": (frozenset({"potential.kappa", "potential.center"}), "potential.kappa"),
}

_KNOWN_KEYS = frozenset({
    "mass", "potential.kind", "frame", "x0", "v0", "p0", "dt", "steps", "tol",
}).union(*(allowed for allowed, _ in _POTENTIAL_KEYS.values()))

_REQUIRED_KEYS = ("mass", "potential.kind", "x0", "dt", "steps")


@dataclass(frozen=True)
class RunConfig:
    mass: float
    potential: Potential
    frame: Frame
    x0: Event
    p0: SpatialCovector
    dt: float
    steps: int
    tol: float
    # Kept alongside the derived p0: some commands report in velocity terms.
    v0: SpatialVector | None = None


def _split_line(lineno: int, line: str) -> tuple[str, str] | None:
    bare = line.split("#", 1)[0].strip()
    if not bare:
        return None
    if "=" not in bare:
        raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
    key, value = bare.split("=", 1)
    return key.strip(), value.strip()


def _floats(key: str, raw: str, n: int) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError(f"{key}: expected {n} numbers, got {len(parts)}")
    return tuple(_float(key, part) for part in parts)


def _float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw}")
    return value


def _positive(key: str, raw: str) -> float:
    value = _float(key, raw)
    if not value > 0:
        raise ConfigError(f"{key}: must be positive, got {value}")
    return value


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _build_potential(entries: dict[str, str]) -> Potential:
    kind = entries["potential.kind"]
    if kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    allowed, required = _POTENTIAL_KEYS[kind]
    extra = {key for key in entries
             if key.startswith("potential.") and key != "potential.kind"} - allowed
    if extra:
        raise ConfigError(f"{sorted(extra)[0]}: not valid for potential.kind={kind}")
    if required is not None and required not in entries:
        raise ConfigError(f"{required}: required for potential.kind={kind}")

    if kind == "zero":
        return ZeroPotential()
    if kind == "uniform":
        return UniformPotential(FourCovector(*_floats("potential.k",
                                                      entries["potential.k"], 4)))
    kappa = _positive("potential.kappa", entries["potential.kappa"])
    center = Event(*_floats("potential.center", entries["potential.center"], 4)) \
        if "potential.center" in entries else ORIGIN
    return HarmonicPotential(kappa, center)


def parse_config(text: str) -> RunConfig:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        split = _split_line(lineno, line)
        if split is None:
            continue
        key, value = split
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"{key}: required key is missing")
    if ("v0" in entries) == ("p0" in entries):
        raise ConfigError("exactly one of v0 or p0 is required")

    mass = _positive("mass", entries["mass"])
    dt = _positive("dt", entries["dt"])
    steps = _int("steps", entries["steps"])
    if steps < 1:
        raise ConfigError(f"steps: must be at least 1, got {steps}")
    tol = _positive("tol", entries["tol"]) if "tol" in entries else 1e-6

    frame = Frame.from_boost(SpatialVector(*_floats("frame", entries["frame"], 3))) \
        if "frame" in entries else REST_FRAME
    x0 = Event(*_floats("x0", entries["x0"], 4))

    if "p0" in entries:
        v0 = None
        p0 = SpatialCovector(*_floats("p0", entries["p0"], 3))
    else:
        v0 = SpatialVector(*_floats("v0", entries["v0"], 3))
        p0 = metric(v0) * mass

    return RunConfig(mass=mass, potential=_build_potential(entries), frame=frame,
                     x0=x0, p0=p0, dt=dt, steps=steps, tol=tol, v0=v0)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
