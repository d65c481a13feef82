"""Run configuration for the command line tools.

Config files are flat ``key = value`` lines; ``#`` starts a comment.
Dotted keys select the potential.  Parsing is strict: unknown keys,
duplicate keys and malformed values are errors, not warnings, so a
typo cannot silently change a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chart import Event, Frame, SpatialCovector, SpatialVector, metric
from .potentials import HarmonicPotential, Potential, UniformPotential, ZeroPotential

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_KNOWN_KEYS = frozenset({
    "mass", "potential.kind", "potential.k", "potential.kappa",
    "potential.center", "frame", "x0", "v0", "p0", "dt", "steps", "tol",
})

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
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _build_potential(entries: dict[str, str]) -> Potential:
    kind = entries["potential.kind"]
    if kind == "zero":
        allowed: set[str] = set()
    elif kind == "uniform":
        allowed = {"potential.k"}
    elif kind == "harmonic":
        allowed = {"potential.kappa", "potential.center"}
    else:
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    extra = {key for key in entries
             if key.startswith("potential.") and key != "potential.kind"} - allowed
    if extra:
        raise ConfigError(f"{sorted(extra)[0]}: not valid for potential.kind={kind}")

    if kind == "zero":
        return ZeroPotential()
    if kind == "uniform":
        if "potential.k" not in entries:
            raise ConfigError("potential.k: required for potential.kind=uniform")
        from .chart import FourCovector
        return UniformPotential(FourCovector(*_floats("potential.k",
                                                      entries["potential.k"], 4)))
    if "potential.kappa" not in entries:
        raise ConfigError("potential.kappa: required for potential.kind=harmonic")
    kappa = _float("potential.kappa", entries["potential.kappa"])
    if not kappa > 0:
        raise ConfigError(f"potential.kappa: must be positive, got {kappa}")
    center = Event(*_floats("potential.center", entries["potential.center"], 4)) \
        if "potential.center" in entries else Event(0.0, 0.0, 0.0, 0.0)
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

    mass = _float("mass", entries["mass"])
    if not mass > 0:
        raise ConfigError(f"mass: must be positive, got {mass}")
    dt = _float("dt", entries["dt"])
    if not dt > 0:
        raise ConfigError(f"dt: must be positive, got {dt}")
    steps = _int("steps", entries["steps"])
    if steps < 1:
        raise ConfigError(f"steps: must be at least 1, got {steps}")
    tol = _float("tol", entries["tol"]) if "tol" in entries else 1e-6
    if not tol > 0:
        raise ConfigError(f"tol: must be positive, got {tol}")

    frame = Frame.from_boost(SpatialVector(*_floats("frame", entries["frame"], 3))) \
        if "frame" in entries else Frame(1.0, 0.0, 0.0, 0.0)
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
