"""Frame-free mechanics: affine action values and affine momenta.

Observers disagree about kinetic energy and momentum by a shift that
depends only on the two frames, never on the particle.  Quotienting by
that shift leaves well-defined affine objects; this module stores each
equivalence class by its rest-chart representative and re-expresses the
frame-dependent constructions through them.

Class equality is componentwise equality of the stored normal form; the
defining cross-frame relations are exercised by the verification suites
rather than used as the runtime representation.

Typed values are the interface; inside, the frame shift, the momentum
re-expressions, the shell function, the Morse family and the universal
verdict read slots as floats and build only the values they return, in
the operation order of the typed expression each slot stands for.
"""

from __future__ import annotations

from .chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    REST_FRAME,
    TIME_FORM,
    _frozen,
    pair,
)
from .homogeneous import (MEMBER_TOL, TIME_RATE_FLOOR, _momentum_rate, _position_rate,
                          _require_mass, _within, homogeneous_lagrangian, legendre)
from .potentials import Potential

__all__ = [
    "frame_shift",
    "LagrangianValue",
    "lagrangian_value",
    "zero_value",
    "unit_value",
    "fiber_difference",
    "affine_lagrangian",
    "AffineMomentum",
    "affine_momentum",
    "momentum_transport",
    "shell_function",
    "affine_eval",
    "affine_pairing",
    "frame_free_legendre",
    "morse_family",
    "is_universal_member",
]

# Two normal forms sit on the same fiber only if their velocities agree
# to rounding; beyond this they are different classes, not noise.
_FIBER_TOL = 1e-12


def frame_shift(u1: Frame, u2: Frame) -> FourCovector:
    """Covector by which momenta and action values differ between frames.

    Antisymmetric and additive along chains of frames:
    frame_shift(a, b) = -frame_shift(b, a) and
    frame_shift(c, b) + frame_shift(b, a) = frame_shift(c, a).
    Evaluating at the midpoint frame is what makes both laws exact.  The
    slots are those of dual_lift(mid, metric(delta)), for the midpoint
    frame ``mid`` and the boost difference ``delta``, built directly.
    """
    return FourCovector(*_shift_slots(u1, u2))


def _shift_slots(u1: Frame, u2: Frame) -> tuple[float, float, float, float]:
    mx, my, mz = 0.5 * (u1.dx + u2.dx), 0.5 * (u1.dy + u2.dy), 0.5 * (u1.dz + u2.dz)
    qx, qy, qz = u1.dx - u2.dx, u1.dy - u2.dy, u1.dz - u2.dz
    return -(qx * mx + qy * my + qz * mz), qx, qy, qz


def _require_same_mass(a: float, b: float):
    if a != b:
        raise ValueError(f"mass mismatch: {a!r} vs {b!r}")


@_frozen
class LagrangianValue:
    """Frame-free action value over a four-velocity.

    Stored as the rest-chart representative: ``value`` is what the rest
    observer would report.  The fiber convention runs downward, so the
    distinguished unit element lowers ``value`` by one; see
    ``fiber_difference``.
    """

    mass: float
    velocity: FourVector
    value: float

    def __post_init__(self):
        _require_mass(self.mass)

    def __add__(self, other: "LagrangianValue") -> "LagrangianValue":
        _require_same_mass(self.mass, other.mass)
        return LagrangianValue(self.mass, self.velocity + other.velocity,
                               self.value + other.value)

    def __neg__(self) -> "LagrangianValue":
        return LagrangianValue(self.mass, -self.velocity, -self.value)

    def __mul__(self, a: float) -> "LagrangianValue":
        return LagrangianValue(self.mass, self.velocity * a, a * self.value)

    __rmul__ = __mul__


def lagrangian_value(mass: float, frame: Frame, velocity: FourVector,
                     value: float) -> LagrangianValue:
    """Class of a frame's report ``value`` over ``velocity``.

    Different frames reporting the same motion give equal classes.
    """
    st, sx, sy, sz = _shift_slots(frame, REST_FRAME)
    shift = mass * (st * velocity.dt + sx * velocity.dx
                    + sy * velocity.dy + sz * velocity.dz)
    return LagrangianValue(mass, velocity, value + shift)


def zero_value(mass: float) -> LagrangianValue:
    """Origin of the value space: every frame reports zero over zero."""
    return LagrangianValue(mass, FourVector(0.0, 0.0, 0.0, 0.0), 0.0)


def unit_value(mass: float) -> LagrangianValue:
    """Distinguished unit over the zero velocity; spans the fiber direction."""
    return LagrangianValue(mass, FourVector(0.0, 0.0, 0.0, 0.0), -1.0)


def fiber_difference(a: LagrangianValue, b: LagrangianValue) -> float:
    """The scalar lambda with a = b + lambda * unit_value(mass).

    Defined only for values over the same velocity.
    """
    _require_same_mass(a.mass, b.mass)
    _require_same_fiber(a.velocity, b.velocity)
    return b.value - a.value


def _require_same_fiber(v: FourVector, w: FourVector):
    if not _within(v.components(), w.components(), _FIBER_TOL):
        raise ValueError("values lie over different velocities")


def affine_lagrangian(mass: float, potential: Potential, x: Event,
                      v: FourVector, frame: Frame = REST_FRAME) -> LagrangianValue:
    """Frame-free lagrangian: the class of any frame's homogeneous lagrangian.

    The ``frame`` argument only chooses the representative to evaluate
    through; the class does not depend on it.
    """
    return lagrangian_value(mass, frame, v,
                            homogeneous_lagrangian(frame, mass, potential, x, v))


@_frozen
class AffineMomentum:
    """Frame-free particle momentum, stored as the rest-chart representative."""

    mass: float
    p: FourCovector

    def __post_init__(self):
        _require_mass(self.mass)

    def translate(self, pi: FourCovector) -> "AffineMomentum":
        """Shift by a genuine covector; the affine structure of the space."""
        return AffineMomentum(self.mass, self.p + pi)


def affine_momentum(mass: float, frame: Frame, p: FourCovector) -> AffineMomentum:
    """Class of the momentum ``p`` as reported by ``frame``."""
    return AffineMomentum(mass, momentum_transport(mass, frame, REST_FRAME, p))


def momentum_transport(mass: float, u_from: Frame, u_to: Frame,
                       p: FourCovector) -> FourCovector:
    """Re-express a momentum report in another frame, same class."""
    st, sx, sy, sz = _shift_slots(u_from, u_to)
    return FourCovector(p.pt + mass * st, p.px + mass * sx,
                        p.py + mass * sy, p.pz + mass * sz)


def shell_function(momentum: AffineMomentum) -> float:
    """Frame energy as a function of the momentum class alone.

    Every frame computes the same number from its own representative;
    equals minus the potential exactly on dynamical momenta.
    """
    pt, px, py, pz = momentum.p.components()
    # 0.5 * pair(p, cometric(p)) / mass + pair(p, REST_FRAME), slot by slot.
    return (0.5 * (pt * 0.0 + px * px + py * py + pz * pz) / momentum.mass
            + (pt * 1.0 + px * 0.0 + py * 0.0 + pz * 0.0))


def affine_eval(w: LagrangianValue, momentum: AffineMomentum) -> float:
    """Evaluation of a momentum class on a value class.

    Affine over the fiber: adding the unit element to ``w`` adds one.
    """
    _require_same_mass(w.mass, momentum.mass)
    return pair(momentum.p, w.velocity) - w.value


def affine_pairing(momentum: AffineMomentum, v: FourVector) -> LagrangianValue:
    """Value class obtained by pairing a momentum class with a four-velocity."""
    return LagrangianValue(momentum.mass, v, pair(momentum.p, v))


def frame_free_legendre(mass: float, potential: Potential, x: Event,
                        v: FourVector, frame: Frame = REST_FRAME) -> AffineMomentum:
    """Momentum class of a motion; independent of the evaluating frame."""
    return affine_momentum(mass, frame, legendre(frame, mass, potential, x, v))


def morse_family(potential: Potential, x: Event, momentum: AffineMomentum,
                 v: FourVector) -> float:
    """Generating function of the dynamics over the velocity fiber.

    The pairing and the lagrangian lie over the same velocity, so their
    fiber difference is a plain scalar; it is stationary in ``v``
    exactly when ``momentum`` is the Legendre image of ``v``.
    """
    # fiber_difference(affine_lagrangian(...), affine_pairing(momentum, v)) in floats,
    # less the rest chart's own shift: a signed zero, which cannot move a lagrangian
    # (never -0.0), or NaN, only for a velocity that fails the fiber check.
    value = homogeneous_lagrangian(REST_FRAME, momentum.mass, potential, x, v)
    pairing = pair(momentum.p, v)
    _require_same_fiber(v, v)
    return pairing - value


def is_universal_member(potential: Potential, x: Event,
                        momentum: AffineMomentum, xdot: FourVector,
                        pdot: FourCovector) -> bool:
    """Whether a frame-free phase rate solves the equations of motion.

    Evaluated through the stored representative: forward time rate, the
    shell constraint against the potential, and the characteristic
    direction for both slots.
    """
    r = pair(TIME_FORM, xdot)
    if not r > TIME_RATE_FLOOR:
        return False
    if not abs(shell_function(momentum) + potential.value(x)) <= MEMBER_TOL:
        return False
    want = (*_position_rate(REST_FRAME, momentum.mass, momentum.p, r),
            *_momentum_rate(potential, x, r))
    return _within((*xdot.components(), *pdot.components()), want, MEMBER_TOL)
