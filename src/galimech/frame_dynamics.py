"""Particle dynamics as seen from one inertial frame.

A phase point is an event and a spatial momentum covector, passed as
two arguments; a rate comes back as an ``(xdot, pdot)`` pair.  The
frame enters the equations only through the drift of the position.
Trajectories are produced by classical fixed-step RK4, which is exact
on free motion and keeps bound-orbit energy drift far below the
verification tolerances at desk scale.

The typed values are the interface; ``integrate`` runs on plain floats.
Its kernel keeps the state in seven locals and evaluates
``dynamics_field`` and the RK4 combination in their exact operation
order, so its trajectories are bit-identical to stepping the value
objects.  It yields each step as a flat ``Sample`` of eight floats as
soon as the step is taken, so a trajectory is streamed, never held:
``list(integrate(...))`` gives the whole trajectory.  The potential
is asked on chart coordinates, through ``differential_at(t, x, y, z)``
and ``value_at(t, x, y, z)``: the two methods every ``Potential``
defines, so custom kinds run through the same kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .chart import (
    Event,
    Frame,
    SpatialCovector,
    SpatialVector,
    metric,
    metric_inv,
    pair_spatial,
    project,
    restrict,
)
from .homogeneous import _require_mass
from .potentials import Potential

__all__ = [
    "Sample",
    "IntegrationDiverged",
    "lagrangian",
    "hamiltonian",
    "dynamics_field",
    "vertical_field",
    "poisson_field",
    "generate_from_lagrangian",
    "integrate",
]


class Sample(NamedTuple):
    """One trajectory point as plain floats.

    The event ``(t, x, y, z)``, the spatial momentum ``(px, py, pz)`` and
    the configured frame's hamiltonian ``energy``.
    """

    t: float
    x: float
    y: float
    z: float
    px: float
    py: float
    pz: float
    energy: float


class IntegrationDiverged(ArithmeticError):
    """A trajectory left the range of 64-bit floats."""


def lagrangian(u: Frame, mass: float, potential: Potential, x: Event,
               w: Frame) -> float:
    """Kinetic energy relative to ``u`` minus the potential.

    ``w`` is the particle's four-velocity; only its velocity relative to
    the observer enters.
    """
    _require_mass(mass)
    rel = project(u, w)
    return 0.5 * mass * pair_spatial(metric(rel), rel) - potential.value(x)


def hamiltonian(mass: float, potential: Potential, x: Event,
                p: SpatialCovector) -> float:
    """Kinetic term of the momentum plus the potential.

    No frame argument: the spatial momentum is already the relative one,
    so the value reads the same from every frame.
    """
    _require_mass(mass)
    return 0.5 * pair_spatial(p, metric_inv(p)) / mass + potential.value(x)


def dynamics_field(u: Frame, mass: float, potential: Potential, x: Event,
                   p: SpatialCovector) -> tuple[Frame, SpatialCovector]:
    """Equations of motion: xdot = g^-1(p)/m + u, pdot = -grad phi.

    The vertical field plus the frame's drift.
    """
    w, force = vertical_field(mass, potential, x, p)
    return Frame(1.0, w.x + u.dx, w.y + u.dy, w.z + u.dz), force


def vertical_field(mass: float, potential: Potential, x: Event,
                   p: SpatialCovector) -> tuple[SpatialVector, SpatialCovector]:
    """Frame-independent part of the dynamics: relative velocity and force."""
    _require_mass(mass)
    return metric_inv(p * (1.0 / mass)), -restrict(potential.differential(x))


def poisson_field(mass: float, potential: Potential, x: Event,
                  p: SpatialCovector) -> tuple[SpatialVector, SpatialCovector]:
    """Hamilton's equations from the canonical bracket on (x, p).

    The bracket only sees the fibers over simultaneity slices, so this
    reproduces exactly the vertical field, never the frame drift.
    """
    _require_mass(mass)
    dh_dp = SpatialVector(p.x / mass, p.y / mass, p.z / mass)
    dh_dx = restrict(potential.differential(x))
    return (dh_dp, -dh_dx)


def generate_from_lagrangian(u: Frame, mass: float, potential: Potential,
                             x: Event, w: Frame
                             ) -> tuple[SpatialCovector, tuple[Frame, SpatialCovector]]:
    """Momentum at ``x`` of a particle moving with ``w``, and its required rate.

    The fiber derivative of the lagrangian gives the momentum, the base
    derivative the force.
    """
    _require_mass(mass)
    rel = project(u, w)
    return metric(rel) * mass, (w, -restrict(potential.differential(x)))


def integrate(u: Frame, mass: float, potential: Potential, x: Event,
              p: SpatialCovector, dt: float, steps: int) -> Iterator[Sample]:
    """Fixed-step RK4 trajectory, one sample per step plus the initial one.

    The arguments are checked when ``integrate`` is called; the samples
    are computed as the returned iterator is advanced, which raises
    IntegrationDiverged as soon as any state component leaves the finite
    floats, or the energy does, the start included (step 0).
    """
    _require_mass(mass)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not isinstance(steps, int):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps!r}")
    return _rk4(u, mass, potential, (*x.components(), *p.components()), dt, steps)


def _rk4(u: Frame, mass: float, potential: Potential,
         start: tuple[float, ...], dt: float, steps: int) -> Iterator[Sample]:
    # The kernel: ``dynamics_field``, the RK4 combination and ``hamiltonian``
    # on plain floats, in exactly their operation order, so every bit matches
    # the value-object form.  The time slot of every rate is the frame's 1.
    # Forces are negated gradients: ``p - hh * g`` and ``-g1 - 2.0 * g2`` are
    # ``p + hh * f`` and ``f1 + 2.0 * f2`` bit for bit.  ``p -= h * (g1 + ...)``
    # is not: where the forces cancel, it keeps a -0.0 momentum that they make +0.0.
    dphi, value = potential.differential_at, potential.value_at
    inv_mass = 1.0 / mass
    ux, uy, uz = u.dx, u.dy, u.dz
    h, hh, sixth = dt, 0.5 * dt, 1.0 / 6.0
    ht = h * (sixth * 6.0)
    t, x, y, z, px, py, pz = start
    # ``tuple.__new__`` skips the keyword-handling ``Sample.__new__``.
    new, isfinite = tuple.__new__, math.isfinite

    for step in range(steps + 1):
        if step:
            ax1, ay1, az1 = px * inv_mass + ux, py * inv_mass + uy, pz * inv_mass + uz
            _, gx1, gy1, gz1 = dphi(t, x, y, z)

            t2 = t + hh
            qx, qy, qz = px - hh * gx1, py - hh * gy1, pz - hh * gz1
            ax2, ay2, az2 = qx * inv_mass + ux, qy * inv_mass + uy, qz * inv_mass + uz
            _, gx2, gy2, gz2 = dphi(t2, x + hh * ax1, y + hh * ay1, z + hh * az1)

            qx, qy, qz = px - hh * gx2, py - hh * gy2, pz - hh * gz2
            ax3, ay3, az3 = qx * inv_mass + ux, qy * inv_mass + uy, qz * inv_mass + uz
            _, gx3, gy3, gz3 = dphi(t2, x + hh * ax2, y + hh * ay2, z + hh * az2)

            qx, qy, qz = px - h * gx3, py - h * gy3, pz - h * gz3
            ax4, ay4, az4 = qx * inv_mass + ux, qy * inv_mass + uy, qz * inv_mass + uz
            _, gx4, gy4, gz4 = dphi(t + h, x + h * ax3, y + h * ay3, z + h * az3)

            t += ht
            x += h * (sixth * (((ax1 + 2.0 * ax2) + 2.0 * ax3) + ax4))
            y += h * (sixth * (((ay1 + 2.0 * ay2) + 2.0 * ay3) + ay4))
            z += h * (sixth * (((az1 + 2.0 * az2) + 2.0 * az3) + az4))
            px += h * (sixth * (((-gx1 - 2.0 * gx2) - 2.0 * gx3) - gx4))
            py += h * (sixth * (((-gy1 - 2.0 * gy2) - 2.0 * gy3) - gy4))
            pz += h * (sixth * (((-gz1 - 2.0 * gz2) - 2.0 * gz3) - gz4))

        # Each ``s - s`` is 0.0 for a finite slot and NaN otherwise, so the
        # sum is finite exactly when every slot is, and cannot overflow.
        if not isfinite((t - t) + (x - x) + (y - y) + (z - z)
                        + (px - px) + (py - py) + (pz - pz)):
            raise IntegrationDiverged(f"state left finite range at step {step}")
        energy = 0.5 * (px * px + py * py + pz * pz) / mass + value(t, x, y, z)
        if not isfinite(energy):
            raise IntegrationDiverged(f"energy left finite range at step {step}")
        yield new(Sample, (t, x, y, z, px, py, pz, energy))
