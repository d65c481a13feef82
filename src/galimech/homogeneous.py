"""Parameterization-free dynamics of a massive particle.

Phase points carry a full four-covector momentum and trajectories may be
traversed at any positive time rate; the reporting frame only decides
how the energy slot of the momentum is split off.  All evaluation maps
guard against the singular zero-time-rate boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    TIME_FORM,
    cometric,
    metric,
    pair,
    pair_spatial,
    project,
)
from .potentials import Potential

__all__ = [
    "PhasePoint",
    "PhaseVelocity",
    "TIME_RATE_FLOOR",
    "homogeneous_lagrangian",
    "lagrangian_differential",
    "legendre",
    "critical_velocity",
    "mass_shell_residual",
    "is_dynamics_member",
    "generating_family",
    "reduced_family",
    "characteristic_field",
]

# Forward-time cone guard: evaluation maps divide by the time rate and
# must stay away from its zero boundary.  The guards are negated
# comparisons, so a NaN rate fails them too.
TIME_RATE_FLOOR = 1e-12


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """Event plus full four-covector momentum."""

    x: Event
    p: FourCovector


@dataclass(frozen=True, slots=True)
class PhaseVelocity:
    """Rate of change of a phase point along an arbitrary parameter."""

    xdot: FourVector
    pdot: FourCovector


def _require_mass(mass: float):
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass!r}")


def _time_rate(v: FourVector) -> float:
    s = pair(TIME_FORM, v)
    if not s > TIME_RATE_FLOOR:
        raise ValueError(f"four-velocity must be future-directed, time rate {s!r}")
    return s


def _require_time_rate(time_rate: float):
    if not time_rate > TIME_RATE_FLOOR:
        raise ValueError(f"time rate must be positive, got {time_rate!r}")


def homogeneous_lagrangian(u: Frame, mass: float, potential: Potential,
                           x: Event, v: FourVector) -> float:
    """Positively one-homogeneous lagrangian over four-velocities.

    Restricting to unit time rate recovers the fixed-frame lagrangian.
    """
    _require_mass(mass)
    s = _time_rate(v)
    w = project(u, v)
    return 0.5 * mass / s * pair_spatial(metric(w), w) - s * potential.value(x)


def lagrangian_differential(u: Frame, mass: float, potential: Potential,
                            x: Event, v: FourVector) -> tuple[FourCovector, FourCovector]:
    """Base and fiber derivatives of the homogeneous lagrangian.

    The fiber derivative is the Legendre image of ``v``; it is degree
    zero in ``v``, so reparameterizing a motion does not move its
    momentum.
    """
    _require_mass(mass)
    s = _time_rate(v)
    base = potential.differential(x) * (-s)
    return base, _legendre(u, mass, potential, x, v, s)


def _shell_energy(u: Frame, mass: float, phi: float,
                  px: float, py: float, pz: float) -> Fraction:
    """Exact kinetic-plus-drift-plus-potential sum over given spatial slots.

    Floats are rationals; accumulating in Fraction keeps the large
    near-cancelling terms of the shell constraint from burying the
    1e-12 shell tolerance in rounding noise.
    """
    kin = Fraction(px) ** 2 + Fraction(py) ** 2 + Fraction(pz) ** 2
    return (kin / (2 * Fraction(mass))
            + Fraction(px) * Fraction(u.dx)
            + Fraction(py) * Fraction(u.dy)
            + Fraction(pz) * Fraction(u.dz)
            + Fraction(phi))


def _legendre(u: Frame, mass: float, potential: Potential, x: Event,
              v: FourVector, s: float) -> FourCovector:
    w = project(u, v)
    a = mass / s
    px, py, pz = a * w.x, a * w.y, a * w.z
    # The time slot balances the stored spatial slots on the mass shell
    # exactly, up to one final rounding.
    pt = -float(_shell_energy(u, mass, potential.value(x), px, py, pz))
    return FourCovector(pt, px, py, pz)


def legendre(u: Frame, mass: float, potential: Potential, x: Event,
             v: FourVector) -> FourCovector:
    """Four-covector momentum of a particle moving with four-velocity ``v``.

    The spatial slots carry the relative momentum lifted to vanish on
    ``u``; the time slot then subtracts the frame energy.
    """
    _require_mass(mass)
    return _legendre(u, mass, potential, x, v, _time_rate(v))


def critical_velocity(u: Frame, mass: float, p: FourCovector,
                      time_rate: float) -> FourVector:
    """Inverts the Legendre map on its image, at the chosen time rate.

    Only the spatial slots of ``p`` matter: the time slot is fixed by
    the mass shell, not by the velocity.
    """
    _require_mass(mass)
    _require_time_rate(time_rate)
    a = time_rate / mass
    return FourVector(time_rate,
                      a * p.px + time_rate * u.dx,
                      a * p.py + time_rate * u.dy,
                      a * p.pz + time_rate * u.dz)


def mass_shell_residual(u: Frame, mass: float, potential: Potential,
                        x: Event, p: FourCovector) -> float:
    """Defect of the energy constraint selecting dynamical momenta.

    Zero exactly on the Legendre image; the frame term reads the energy
    slot that the kinetic quadratic cannot see.  Accumulated in exact
    rational arithmetic with one final rounding.
    """
    _require_mass(mass)
    total = (_shell_energy(u, mass, potential.value(x), p.px, p.py, p.pz)
             + Fraction(p.pt) * Fraction(u.dt))
    return float(total)


def is_dynamics_member(u: Frame, mass: float, potential: Potential,
                       point: PhasePoint, velocity: PhaseVelocity,
                       tol: float = 1e-9) -> bool:
    """Whether (point, velocity) solves the homogeneous equations of motion.

    Time-reversed or frozen motions are judged non-members rather than
    rejected, so callers can use this as a verdict on arbitrary input.
    """
    _require_mass(mass)
    s = pair(TIME_FORM, velocity.xdot)
    if not s > TIME_RATE_FLOOR:
        return False
    want_p = _legendre(u, mass, potential, point.x, velocity.xdot, s)
    d = point.p - want_p
    if not all(abs(c) <= tol for c in d.components()):
        return False
    want_pdot = potential.differential(point.x) * (-s)
    d = velocity.pdot - want_pdot
    return all(abs(c) <= tol for c in d.components())


def generating_family(u: Frame, mass: float, potential: Potential, x: Event,
                      p: FourCovector, v: FourVector) -> float:
    """Pairing minus lagrangian; stationary in ``v`` exactly on the dynamics."""
    return pair(p, v) - homogeneous_lagrangian(u, mass, potential, x, v)


def reduced_family(u: Frame, mass: float, potential: Potential, x: Event,
                   p: FourCovector, time_rate: float) -> float:
    """Mass-shell residual rescaled by a positive fiber coordinate.

    Eliminating the spatial fiber directions of the generating family at
    their critical point leaves this one-parameter family.
    """
    _require_time_rate(time_rate)
    return time_rate * mass_shell_residual(u, mass, potential, x, p)


def characteristic_field(u: Frame, mass: float, potential: Potential,
                         x: Event, p: FourCovector, time_rate: float,
                         shell_tol: float = 1e-9) -> PhaseVelocity:
    """Generator of the dynamics on the mass shell, scaled by ``time_rate``.

    Negative rates are allowed: they span the time-reversed half of the
    characteristic distribution, which is_dynamics_member rejects.
    Off-shell momenta have no characteristic direction; they are
    rejected instead of silently projected.
    """
    _require_mass(mass)
    residual = mass_shell_residual(u, mass, potential, x, p)
    if abs(residual) > shell_tol:
        raise ValueError(f"momentum is off shell, residual {residual!r}")
    xdot = (cometric(p) * (1.0 / mass) + u) * time_rate
    pdot = potential.differential(x) * (-time_rate)
    return PhaseVelocity(xdot, pdot)
