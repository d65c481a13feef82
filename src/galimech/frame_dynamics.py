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
``list(integrate(...))`` gives the whole trajectory.  The kernel is one
source text, compiled per potential kind on first use: a built-in kind's
method templates are written into it; any other potential, a subclass
redefining a method included, gets the kernel that calls its methods.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
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
from .potentials import TEMPLATES, Potential

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
    cls = type(potential)
    kernel = _compiled(TEMPLATES.get((cls.value_at, cls.differential_at), _CALLS))
    return kernel(u, mass, potential, (*x.components(), *p.components()), dt, steps)


# The kernel: ``dynamics_field``, the RK4 combination and ``hamiltonian`` on
# plain floats, in exactly their operation order, so every bit matches the
# value-object form.  The time slot of every rate is the frame's 1.  Forces are
# negated gradients: ``p - hh * g`` and ``-g1 - 2.0 * g2`` are ``p + hh * f``
# and ``f1 + 2.0 * f2`` bit for bit, and ``f`` sums the stages in that order.
# ``p -= h * (g1 + ...)`` is not: where the forces cancel, it keeps a -0.0
# momentum that they make +0.0.  ``{template[t, x, y, z]}`` is a kind's template
# at an event.  Lines marked ``@`` take the gradient at a stage: for a constant
# force they run once, before the loop, and stage 3 is then stage 2.
_KERNEL = """\
def rk4(u, mass, self, start, dt, steps):
    {constants}
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
@           {force[t, x, y, z]}
@           fx, fy, fz = -gx, -gy, -gz
@           hgx1, hgy1, hgz1 = hh * gx, hh * gy, hh * gz
            qx, qy, qz = px - hgx1, py - hgy1, pz - hgz1
            ax2, ay2, az2 = qx * inv_mass + ux, qy * inv_mass + uy, qz * inv_mass + uz
@           {force[(t + hh), (x + hh * ax1), (y + hh * ay1), (z + hh * az1)]}
@           fx, fy, fz = fx - 2.0 * gx, fy - 2.0 * gy, fz - 2.0 * gz
@           hgx2, hgy2, hgz2 = hh * gx, hh * gy, hh * gz
            ax3, ay3, az3 = {rate3}
@           {force[(t + hh), (x + hh * ax2), (y + hh * ay2), (z + hh * az2)]}
@           fx, fy, fz = fx - 2.0 * gx, fy - 2.0 * gy, fz - 2.0 * gz
@           hgx3, hgy3, hgz3 = h * gx, h * gy, h * gz
            qx, qy, qz = px - hgx3, py - hgy3, pz - hgz3
            ax4, ay4, az4 = qx * inv_mass + ux, qy * inv_mass + uy, qz * inv_mass + uz
@           {force[(t + h), (x + h * ax3), (y + h * ay3), (z + h * az3)]}
@           dpx, dpy, dpz = h * (sixth * (fx - gx)), h * (sixth * (fy - gy)), h * (sixth * (fz - gz))
            t += ht
            x += h * (sixth * (((ax1 + 2.0 * ax2) + 2.0 * ax3) + ax4))
            y += h * (sixth * (((ay1 + 2.0 * ay2) + 2.0 * ay3) + ay4))
            z += h * (sixth * (((az1 + 2.0 * az2) + 2.0 * az3) + az4))
            px, py, pz = px + dpx, py + dpy, pz + dpz

        # Each ``s - s`` is 0.0 for a finite slot and NaN otherwise, so the
        # sum is finite exactly when every slot is, and cannot overflow.
        if not isfinite((t - t) + (x - x) + (y - y) + (z - z)
                        + (px - px) + (py - py) + (pz - pz)):
            raise IntegrationDiverged(f"state left finite range at step {{step}}")
        {shared[t, x, y, z]}
        energy = 0.5 * (px * px + py * py + pz * pz) / mass + ({value[t, x, y, z]})
        if not isfinite(energy):
            raise IntegrationDiverged(f"energy left finite range at step {{step}}")
        yield new(Sample, (t, x, y, z, px, py, pz, energy))
"""
# Any other potential: the kernel calls its methods.
_CALLS = ("dphi, value = self.differential_at, self.value_at", "",
          "value({t}, {x}, {y}, {z})", "dphi({t}, {x}, {y}, {z})")


class _At(str):
    """A template, filled in at an event by ``[t, x, y, z]``."""

    def __getitem__(self, event: str) -> str:
        return self.format(**dict(zip("txyz", event.split(", "))))


@functools.cache
def _compiled(template: tuple) -> Callable[..., Iterator[Sample]]:
    """The kernel for one kind's templates, compiled on first use."""
    constants, shared, value, differential = template
    force = (f"_, gx, gy, gz = {differential}" if isinstance(differential, str)
             else f"gx, gy, gz = {', '.join(differential[1:])}")
    constant = "{" not in shared + force
    lines = _KERNEL.format(
        constants=constants, force=_At("; ".join(filter(None, (shared, force)))),
        shared=_At(shared), value=_At(value), rate3="ax2, ay2, az2" if constant else
        "(px - hgx2) * inv_mass + ux, (py - hgy2) * inv_mass + uy, (pz - hgz2) * inv_mass + uz",
    ).splitlines()
    if constant:
        staged = ["    " + line[1:].lstrip() for line in lines if line[:1] == "@"]
        lines = [line for line in lines if line[:1] != "@"]
        loop = lines.index("    for step in range(steps + 1):")
        lines[loop:loop] = staged
    exec("\n".join(lines).replace("\n@", "\n "), globals(), namespace := {})
    return namespace["rk4"]
