"""Scalar potentials on space-time.

A potential is one function on events, shared by every observer; only
its restriction to a simultaneity slice depends on who is watching.
Each kind carries its exact differential so the dynamics never has to
fall back on finite differences.

Every potential also answers on plain chart coordinates:
``value_at(t, x, y, z)`` and ``gradient_at(t, x, y, z)``, the spatial
part of the differential as a float triple.  The integrator's hot loop
calls only these.  The built-in kinds implement them directly and their
``value``/``differential`` call their own class's float methods (by
class, not through ``self``), so each formula is written once.  The
object methods stay the definition: a subclass that defines only
``value`` and ``differential``, or redefines them on a built-in kind,
gets float defaults that build the ``Event`` and ask those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .chart import (
    ORIGIN,
    Event,
    FourCovector,
    SpatialCovector,
    restrict,
)

__all__ = ["Potential", "ZeroPotential", "UniformPotential", "HarmonicPotential"]


class Potential:
    """Interface: a value and an exact differential at every event."""

    kind: ClassVar[str]

    def __init_subclass__(cls, **kwargs):
        # A subclass that redefines an object method but not its float
        # counterpart must not inherit a float method written for its
        # parent's formula: it falls back to the defaults below.
        super().__init_subclass__(**kwargs)
        if "value" in vars(cls) and "value_at" not in vars(cls):
            cls.value_at = Potential.value_at
        if ({"differential", "spatial_gradient"} & vars(cls).keys()
                and "gradient_at" not in vars(cls)):
            cls.gradient_at = Potential.gradient_at

    def value(self, x: Event) -> float:
        raise NotImplementedError

    def differential(self, x: Event) -> FourCovector:
        raise NotImplementedError

    def spatial_gradient(self, x: Event) -> SpatialCovector:
        """Force covector (up to sign): the differential on spatial directions."""
        return restrict(self.differential(x))

    def value_at(self, t: float, x: float, y: float, z: float) -> float:
        """``value`` at the event with chart coordinates ``(t, x, y, z)``."""
        return self.value(Event(t, x, y, z))

    def gradient_at(self, t: float, x: float, y: float,
                    z: float) -> tuple[float, float, float]:
        """Components of ``spatial_gradient`` at the event ``(t, x, y, z)``."""
        g = self.spatial_gradient(Event(t, x, y, z))
        return g.x, g.y, g.z


@dataclass(frozen=True)
class ZeroPotential(Potential):
    """Free particle."""

    kind: ClassVar[str] = "zero"

    def value(self, x: Event) -> float:
        return 0.0

    def differential(self, x: Event) -> FourCovector:
        return FourCovector(0.0, 0.0, 0.0, 0.0)

    def value_at(self, t, x, y, z):
        return 0.0

    def gradient_at(self, t, x, y, z):
        return 0.0, 0.0, 0.0


@dataclass(frozen=True)
class UniformPotential(Potential):
    """Affine potential with constant slope covector.

    A nonzero time slot makes the potential drift in time everywhere at
    the same rate; the force is still constant.
    """

    kind: ClassVar[str] = "uniform"
    slope: FourCovector

    def value(self, x: Event) -> float:
        return UniformPotential.value_at(self, x.t, x.x, x.y, x.z)

    def differential(self, x: Event) -> FourCovector:
        return self.slope

    def value_at(self, t, x, y, z):
        # The pairing with the displacement from ORIGIN, whose
        # coordinates are all zero.
        k = self.slope
        return k.pt * t + k.px * x + k.py * y + k.pz * z

    def gradient_at(self, t, x, y, z):
        k = self.slope
        return k.px, k.py, k.pz


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """Isotropic spring about a center event, static in the rest chart.

    The displacement is measured on the rest-chart simultaneity slice,
    so the differential never picks up a time component.
    """

    kind: ClassVar[str] = "harmonic"
    stiffness: float
    center: Event = ORIGIN

    def __post_init__(self):
        if not (math.isfinite(self.stiffness) and self.stiffness > 0):
            raise ValueError(
                f"stiffness must be finite and positive, got {self.stiffness!r}")

    def _offset(self, t, x, y, z):
        # Projection of the displacement from the center onto the rest
        # frame: its boost is zero, but the ``- dt * 0.0`` term stays, as
        # it decides signed zeros and carries a non-finite time slot.
        c = self.center
        drift = (t - c.t) * 0.0
        return x - c.x - drift, y - c.y - drift, z - c.z - drift

    def value(self, x: Event) -> float:
        return HarmonicPotential.value_at(self, x.t, x.x, x.y, x.z)

    def differential(self, x: Event) -> FourCovector:
        gx, gy, gz = HarmonicPotential.gradient_at(self, x.t, x.x, x.y, x.z)
        return FourCovector(0.0, gx, gy, gz)

    def value_at(self, t, x, y, z):
        sx, sy, sz = self._offset(t, x, y, z)
        return 0.5 * self.stiffness * (sx * sx + sy * sy + sz * sz)

    def gradient_at(self, t, x, y, z):
        sx, sy, sz = self._offset(t, x, y, z)
        k = self.stiffness
        return k * sx, k * sy, k * sz
