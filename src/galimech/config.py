"""Run configuration for the command line tools.

Config files are flat ``key = value`` lines; ``#`` starts a comment.
Dotted keys select the potential.  Parsing is strict: unknown keys,
duplicate keys and malformed values are errors, not warnings, so a
typo cannot silently change a run.
"""

from __future__ import annotations

import math

from .chart import (REST_FRAME, Event, FourCovector, Frame, SpatialCovector, SpatialVector,
                    _frozen, metric)
from .potentials import HarmonicPotential, Potential, UniformPotential, ZeroPotential

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@_frozen
class RunConfig:
    """A parsed config; ``v0``, when given, stays beside the ``p0`` derived from it."""

    mass: float
    potential: Potential
    frame: Frame
    x0: Event
    p0: SpatialCovector
    dt: float
    steps: int
    tol: float
    v0: SpatialVector | None = None  # some commands report in velocity terms


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


def _steps(key: str, raw: str) -> int:
    try:
        steps = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if steps < 1:
        raise ConfigError(f"{key}: must be at least 1, got {steps}")
    return steps


# Every key but potential.kind, with its parser, in the order values are checked.
_KEYS = {
    "mass": _positive,
    "dt": _positive,
    "steps": _steps,
    "tol": _positive,
    "frame": lambda key, raw: Frame(1.0, *_floats(key, raw, 3)),
    "x0": lambda key, raw: Event(*_floats(key, raw, 4)),
    "p0": lambda key, raw: SpatialCovector(*_floats(key, raw, 3)),
    "v0": lambda key, raw: SpatialVector(*_floats(key, raw, 3)),
    "potential.k": lambda key, raw: FourCovector(*_floats(key, raw, 4)),
    "potential.kappa": _positive,
    "potential.center": lambda key, raw: Event(*_floats(key, raw, 4)),
}

# Each potential kind: its class and the keys it takes as constructor
# arguments, the required one first.
_KINDS = {
    "zero": (ZeroPotential, ()),
    "uniform": (UniformPotential, ("potential.k",)),
    "harmonic": (HarmonicPotential, ("potential.kappa", "potential.center")),
}

_REQUIRED_KEYS = ("mass", "potential.kind", "x0", "dt", "steps")


def parse_config(text: str) -> RunConfig:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        key, equals, raw = bare.partition("=")
        key = key.strip()
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        if key not in _KEYS and key != "potential.kind":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = raw.strip()

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"{key}: required key is missing")
    if ("v0" in entries) == ("p0" in entries):
        raise ConfigError("exactly one of v0 or p0 is required")

    values = {key: parse(key, entries[key]) for key, parse in _KEYS.items()
              if key in entries and not key.startswith("potential.")}

    kind = entries["potential.kind"]
    if kind not in _KINDS:
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    cls, takes = _KINDS[kind]
    for key in sorted(entries):
        if key.startswith("potential.") and key != "potential.kind" and key not in takes:
            raise ConfigError(f"{key}: not valid for potential.kind={kind}")
    if takes and takes[0] not in entries:
        raise ConfigError(f"{takes[0]}: required for potential.kind={kind}")
    potential = cls(*(_KEYS[key](key, entries[key]) for key in takes if key in entries))

    mass, v0 = values["mass"], values.get("v0")
    return RunConfig(mass=mass, potential=potential, frame=values.get("frame", REST_FRAME),
                     x0=values["x0"], p0=values["p0"] if v0 is None else metric(v0) * mass,
                     dt=values["dt"], steps=values["steps"],
                     tol=values.get("tol", 1e-6), v0=v0)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
