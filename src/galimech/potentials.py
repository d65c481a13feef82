"""Scalar potentials on space-time.

A potential is one function on events, shared by every observer; only
its restriction to a simultaneity slice depends on who is watching.
Each kind carries its exact differential so the dynamics never has to
fall back on finite differences.

A kind is defined once, on chart coordinates: ``value_at(t, x, y, z)`` and
``differential_at(t, x, y, z) -> (dt, dx, dy, dz)``.  The integrator's hot
loop calls only these; the uniform kind evaluates them from its slope's
float slots, stored when built.  ``Potential`` derives the typed ``value``
and ``differential`` from them; a subclass redefining either is a
``TypeError``, so a force can never split from its value.  An observer's
force is ``restrict(differential(x))`` (up to sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chart import ORIGIN, Event, FourCovector

__all__ = ["Potential", "ZeroPotential", "UniformPotential", "HarmonicPotential"]


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


@dataclass(frozen=True)
class ZeroPotential(Potential):
    """Free particle."""

    def value_at(self, t, x, y, z):
        return 0.0

    def differential_at(self, t, x, y, z):
        return 0.0, 0.0, 0.0, 0.0


@dataclass(frozen=True)
class UniformPotential(Potential):
    """Affine potential with constant slope covector.

    A nonzero time slot makes the potential drift in time everywhere at
    the same rate; the force is still constant.
    """

    slope: FourCovector

    def __post_init__(self):
        object.__setattr__(self, "_constants", self.slope.components())

    def value_at(self, t, x, y, z):
        # The pairing with the displacement from ORIGIN, whose
        # coordinates are all zero.
        pt, px, py, pz = self._constants
        return pt * t + px * x + py * y + pz * z

    def differential_at(self, t, x, y, z):
        return self._constants


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """Isotropic spring about a center event, static in the rest chart.

    The displacement is measured on the rest-chart simultaneity slice,
    so the differential never picks up a time component.  Its boost term
    ``(t - c.t) * 0.0`` stays: it decides signed zeros and carries a
    non-finite time slot.
    """

    stiffness: float
    center: Event = ORIGIN

    def __post_init__(self):
        if not (math.isfinite(self.stiffness) and self.stiffness > 0):
            raise ValueError(
                f"stiffness must be finite and positive, got {self.stiffness!r}")

    # Offset inlined twice, saving a call per RK4 stage; a reference test pins both.
    def value_at(self, t, x, y, z):
        c = self.center
        drift = (t - c.t) * 0.0
        sx, sy, sz = x - c.x - drift, y - c.y - drift, z - c.z - drift
        return 0.5 * self.stiffness * (sx * sx + sy * sy + sz * sz)

    def differential_at(self, t, x, y, z):
        c = self.center
        drift = (t - c.t) * 0.0
        k = self.stiffness
        return 0.0, k * (x - c.x - drift), k * (y - c.y - drift), k * (z - c.z - drift)
