"""Scalar potentials on space-time.

A potential is one function on events, shared by every observer; only
its restriction to a simultaneity slice depends on who is watching.
Each kind carries its exact differential so the dynamics never has to
fall back on finite differences.

A kind is defined once, on chart coordinates: ``value_at(t, x, y, z)`` and
``differential_at(t, x, y, z) -> (dt, dx, dy, dz)``.  ``Potential`` derives
the typed ``value`` and ``differential`` from them; a subclass redefining
either is a ``TypeError``, so a force can never split from its value.  An
observer's force is ``restrict(differential(x))`` (up to sign).  A built-in
kind writes its two methods once, as templates that ``_kind`` compiles
through ``chart._frozen`` and ``frame_dynamics`` inlines into its RK4 kernel.
"""

from __future__ import annotations

import math

from .chart import ORIGIN, Event, FourCovector, _frozen

__all__ = ["Potential", "ZeroPotential", "UniformPotential", "HarmonicPotential"]

# ``(value_at, differential_at)`` of each built-in kind -> its templates.
TEMPLATES: dict = {}


class Potential:
    """Interface: a value and an exact differential at every event."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        redefined = sorted(vars(cls).keys() & {"value", "differential"})
        if redefined:
            raise TypeError(
                f"{cls.__name__} redefines {', '.join(redefined)}: a potential "
                "defines value_at and differential_at only")

    def value_at(self, t: float, x: float, y: float, z: float) -> float:
        """Value at the event with chart coordinates ``(t, x, y, z)``."""
        raise NotImplementedError

    def differential_at(self, t: float, x: float, y: float,
                        z: float) -> tuple[float, float, float, float]:
        """Differential components ``(dt, dx, dy, dz)`` at ``(t, x, y, z)``."""
        raise NotImplementedError

    def value(self, x: Event) -> float:
        return self.value_at(x.t, x.x, x.y, x.z)

    def differential(self, x: Event) -> FourCovector:
        return FourCovector(*self.differential_at(x.t, x.x, x.y, x.z))


def _kind(constants: str, shared: str, value: str, *differential: str):
    """``_frozen``, plus ``value_at`` and ``differential_at`` compiled from templates.

    Source in ``{t}``, ``{x}``, ``{y}``, ``{z}``: ``constants`` reads the stored
    floats off ``self``, ``shared`` what the value and differential both read.
    """
    def decorate(cls):
        head = "".join(f"  {line}\n" for line in (constants, shared) if line)
        cls = _frozen(cls, lambda slots: (
            f" def value_at(self, t, x, y, z):\n{head}  return {value}\n"
            f" def differential_at(self, t, x, y, z):\n{head}"
            f"  return {', '.join(differential)}\n").format(t="t", x="x", y="y", z="z"))
        TEMPLATES[cls.value_at, cls.differential_at] = constants, shared, value, differential
        return cls
    return decorate


@_kind("", "", "0.0", "0.0", "0.0", "0.0", "0.0")
class ZeroPotential(Potential):
    """Free particle."""


# The pairing with the displacement from ORIGIN, whose coordinates are all zero.
@_kind("kt, kx, ky, kz = self._constants", "",
       "kt * {t} + kx * {x} + ky * {y} + kz * {z}", "kt", "kx", "ky", "kz")
class UniformPotential(Potential):
    """Affine potential with constant slope covector.

    A nonzero time slot makes the potential drift in time everywhere at
    the same rate; the force is still constant.
    """

    slope: FourCovector

    def __post_init__(self):
        object.__setattr__(self, "_constants", self.slope.components())


@_kind("k, ct, cx, cy, cz = self._constants",
       "drift = ({t} - ct) * 0.0; "
       "sx, sy, sz = {x} - cx - drift, {y} - cy - drift, {z} - cz - drift",
       "0.5 * k * (sx * sx + sy * sy + sz * sz)", "0.0", "k * sx", "k * sy", "k * sz")
class HarmonicPotential(Potential):
    """Isotropic spring about a center event, static in the rest chart.

    The displacement is measured on the rest-chart simultaneity slice,
    so the differential never picks up a time component.  The offset's
    boost term ``(t - c.t) * 0.0`` stays: it decides signed zeros and
    carries a non-finite time slot.
    """

    stiffness: float
    center: Event = ORIGIN

    def __post_init__(self):
        if not (math.isfinite(self.stiffness) and self.stiffness > 0):
            raise ValueError(
                f"stiffness must be finite and positive, got {self.stiffness!r}")
        object.__setattr__(self, "_constants",
                           (self.stiffness, *self.center.components()))
