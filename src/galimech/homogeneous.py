"""Parameterization-free dynamics of a massive particle.

Phase points carry a full four-covector momentum and trajectories may be
traversed at any positive time rate; the reporting frame only decides
how the energy slot of the momentum is split off.  All evaluation maps
guard against the singular zero-time-rate boundary.

Typed chart values are the interface; inside, the maps read their slots
as floats and build only the values they return, in the operation order
of the typed expression each slot stands for.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import le, sub

from .chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    TIME_FORM,
    _relative,
    pair,
)
from .potentials import Potential

__all__ = [
    "TIME_RATE_FLOOR",
    "MEMBER_TOL",
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
# Slot-wise tolerance of the membership verdicts and of the shell check.
MEMBER_TOL = 1e-9


def _require_mass(mass: float):
    # The package's one mass guard; negated so that NaN fails it too.
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass!r}")


def _time_rate(v: FourVector) -> float:
    s = pair(TIME_FORM, v)
    if not s > TIME_RATE_FLOOR:
        if v.dt > TIME_RATE_FLOOR:  # then only a non-finite spatial slot fails the pairing
            name = next(n for n in ("dx", "dy", "dz") if not math.isfinite(getattr(v, n)))
            raise ValueError(f"four-velocity {name} is {getattr(v, name)!r}")
        raise ValueError(f"four-velocity must be future-directed, time rate {s!r}")
    return s


def _require_time_rate(time_rate: float):
    if not time_rate > TIME_RATE_FLOOR:
        raise ValueError(f"time rate must be positive, got {time_rate!r}")


def _within(a, b, tol: float) -> bool:
    """Whether each |a_i - b_i| of slot sequences is at most ``tol``; NaN is not."""
    return all(map(le, map(abs, map(sub, a, b)), repeat(tol)))


def homogeneous_lagrangian(u: Frame, mass: float, potential: Potential,
                           x: Event, v: FourVector) -> float:
    """Positively one-homogeneous lagrangian over four-velocities.

    Restricting to unit time rate recovers the fixed-frame lagrangian.
    """
    _require_mass(mass)
    s = _time_rate(v)
    wx, wy, wz = _relative(u, v)
    return 0.5 * mass / s * (wx * wx + wy * wy + wz * wz) - s * potential.value(x)


def lagrangian_differential(u: Frame, mass: float, potential: Potential,
                            x: Event, v: FourVector) -> tuple[FourCovector, FourCovector]:
    """Base and fiber derivatives of the homogeneous lagrangian.

    The fiber derivative is the Legendre image of ``v``; it is degree
    zero in ``v``, so reparameterizing a motion does not move its
    momentum.
    """
    _require_mass(mass)
    s = _time_rate(v)
    base = FourCovector(*_momentum_rate(potential, x, s))
    return base, _legendre(u, mass, potential, x, v, s)


# Verify's suites repeat recent shells: 128 kept caught every repeat of a default
# run, 64 about nine in ten.  Equal keys (-0.0, 0.0) have equal integer ratios.
@lru_cache(maxsize=128)
def _shell_sum(px: float, py: float, pz: float, mass: float, ux: float, uy: float,
               uz: float, phi: float, pt: float, ut: float) -> float:
    """The shell energy p²/2m + p·u + φ + pt·u.dt of the slots, rounded once.

    Each float slot is an integer over a power of two, so the sum is one
    integer over 2·m_num·D, D the largest term denominator, and int / int
    rounds it correctly: the near-cancelling shell terms cannot bury the
    1e-12 shell tolerance.  Each axis's kinetic and drift terms share the
    denominator b·b·f of p = a/b and u = e/f, which leaves five terms.
    Denominators are powers of two: a term's exponent plus 3 is a sum of bit
    lengths, d the largest, so D = 2^(d - 3) and left shifts align numerators.
    Slots convert in argument order (p, mass, u, phi, pt, u.dt), and the
    first non-finite one names the error, whose type its conversion sets.
    A sum beyond the floats raises ``OverflowError`` from the division's.
    """
    try:
        (ax, bx), (ay, by) = px.as_integer_ratio(), py.as_integer_ratio()
        (az, bz), (mn, md) = pz.as_integer_ratio(), mass.as_integer_ratio()
        (ex, fx), (ey, fy) = ux.as_integer_ratio(), uy.as_integer_ratio()
        (ez, fz), (h, hd) = uz.as_integer_ratio(), phi.as_integer_ratio()
        (c, cd), (e, ed) = pt.as_integer_ratio(), ut.as_integer_ratio()
    except (ValueError, OverflowError) as exc:
        slots = zip(("px", "py", "pz", "mass", "u.dx", "u.dy", "u.dz", "phi", "pt", "u.dt"),
                    (px, py, pz, mass, ux, uy, uz, phi, pt, ut))
        name, value = next(slot for slot in slots if not math.isfinite(slot[1]))
        raise type(exc)(f"shell energy: {name} is {value!r}") from exc
    m2, kh, ke = 2 * mn, hd.bit_length() + 2, cd.bit_length() + ed.bit_length() + 1
    kx, ky = 2 * bx.bit_length() + fx.bit_length(), 2 * by.bit_length() + fy.bit_length()
    kz = 2 * bz.bit_length() + fz.bit_length()
    d = max(kx, ky, kz, kh, ke)
    try:
        return (((ax * (ax * md * fx + m2 * ex * bx)) << d - kx)
                + ((ay * (ay * md * fy + m2 * ey * by)) << d - ky)
                + ((az * (az * md * fz + m2 * ez * bz)) << d - kz)
                + m2 * ((h << d - kh) + (c * e << d - ke))) / (m2 << d - 3)
    except OverflowError as exc:
        raise OverflowError("shell energy: sum is too large for a float") from exc


def _legendre(u: Frame, mass: float, potential: Potential, x: Event,
              v: FourVector, s: float) -> FourCovector:
    wx, wy, wz = _relative(u, v)
    a = mass / s
    px, py, pz = a * wx, a * wy, a * wz
    # The time slot balances the stored spatial slots on the mass shell.
    pt = -_shell_sum(px, py, pz, mass, u.dx, u.dy, u.dz, potential.value(x), 0.0, u.dt)
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
    slot that the kinetic quadratic cannot see.  The energy slot enters
    the same integer sum over a power-of-two denominator as the shell
    energy, never a rounded energy, and the whole defect is rounded once.
    """
    _require_mass(mass)
    return _shell_sum(p.px, p.py, p.pz, mass, u.dx, u.dy, u.dz, potential.value(x), p.pt, u.dt)


def is_dynamics_member(u: Frame, mass: float, potential: Potential, x: Event,
                       p: FourCovector, xdot: FourVector, pdot: FourCovector,
                       tol: float = MEMBER_TOL) -> bool:
    """Whether (xdot, pdot) at (x, p) solves the homogeneous equations of motion.

    Time-reversed or frozen motions are judged non-members rather than
    rejected, so callers can use this as a verdict on arbitrary input.
    """
    _require_mass(mass)
    s = pair(TIME_FORM, xdot)
    if not s > TIME_RATE_FLOOR:
        return False
    try:
        image = _legendre(u, mass, potential, x, xdot, s)
    except (ArithmeticError, ValueError):  # the image or its shell sum left the floats
        return False
    if not _within(p.components(), image.components(), tol):
        return False
    return _within(pdot.components(), _momentum_rate(potential, x, s), tol)


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


def _position_rate(u: Frame, mass: float, p: FourCovector, rate: float):
    """The slots of (cometric(p) * (1 / mass) + u) * rate."""
    a = 1.0 / mass
    # ``a * 0.0`` is cometric's zero time slot, kept: an infinite 1 / mass makes it NaN.
    return (rate * (a * 0.0 + u.dt), rate * (a * p.px + u.dx),
            rate * (a * p.py + u.dy), rate * (a * p.pz + u.dz))


def _momentum_rate(potential: Potential, x: Event, rate: float):
    """The slots of potential.differential(x) * (-rate)."""
    r = -rate
    gt, gx, gy, gz = potential.differential_at(x.t, x.x, x.y, x.z)
    return r * gt, r * gx, r * gy, r * gz


def characteristic_field(u: Frame, mass: float, potential: Potential,
                         x: Event, p: FourCovector,
                         time_rate: float) -> tuple[FourVector, FourCovector]:
    """Generator of the dynamics on the mass shell, scaled by ``time_rate``.

    Negative rates are allowed: they span the time-reversed half of the
    characteristic distribution, which is_dynamics_member rejects.
    Off-shell momenta have no characteristic direction; they are
    rejected instead of silently projected.
    """
    residual = mass_shell_residual(u, mass, potential, x, p)
    if abs(residual) > MEMBER_TOL:
        raise ValueError(f"momentum is off shell, residual {residual!r}")
    return (FourVector(*_position_rate(u, mass, p, time_rate)),
            FourCovector(*_momentum_rate(potential, x, time_rate)))
