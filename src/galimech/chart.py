"""Fixed-chart kinematics for Newtonian space-time.

Everything lives in one global chart: a reference origin event, an
orthonormal spatial basis, the rest frame and the time form that reads
off elapsed time.  ``_frozen`` builds every frozen type in ``galimech``: a
slots dataclass whose ``__init__`` sets the slots directly, since
``verify`` builds values by the hundred thousand.  Every operation is a
pure function, so values can be shared freely, and the four linear types
get add, subtract, negate, scale and ``components`` compiled by ``_linear``.

The metric is Euclidean with identity components in this chart, which
makes ``metric``/``metric_inv`` look like renames.  They are kept as
explicit operations because they change variance: momenta are covectors
and velocities are vectors, and the type distinction is what keeps the
frame bookkeeping honest.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

__all__ = [
    "FourVector",
    "FourCovector",
    "SpatialVector",
    "SpatialCovector",
    "Frame",
    "Event",
    "TIME_FORM",
    "REST_FRAME",
    "ORIGIN",
    "pair",
    "pair_spatial",
    "metric",
    "metric_inv",
    "cometric",
    "embed",
    "project",
    "restrict",
    "dual_lift",
]

# Frames must read exactly one unit of time per unit of time; the
# constructor tolerance absorbs rounding from frame arithmetic only.
_FRAME_TOL = 1e-12


def _frozen(cls, methods=lambda slots: ""):
    """A frozen slots dataclass with a compiled ``__init__``; every frozen type is one.

    A frozen dataclass's ``__init__`` looks up ``object.__setattr__`` per
    field, so none is generated; this one calls each slot's setter, bound
    once, at about half the cost, sets defaults and calls ``__post_init__``,
    as copies and pickles do.  ``methods(slots)`` adds class-body source;
    ``slots(template)`` joins the template filled in per field.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    def slots(template: str) -> str:
        return ", ".join(template.format(name) for name in names)
    namespace = {"__name__": cls.__module__, "cls": cls,
                 "_defaults": tuple(f.default for f in fields(cls)
                                    if f.default is not MISSING),
                 **{f"_set_{name}": getattr(cls, name).__set__ for name in names}}
    init = (f" def __init__(self, {slots('{0}')}):\n"
            + "".join(f"  _set_{name}(self, {name})\n" for name in names)
            + ("  self.__post_init__()\n" if hasattr(cls, "__post_init__") else "  pass\n")
            + " __init__.__defaults__ = _defaults\n")
    # A class statement, so that each method gets its qualified name.
    exec(f"class {cls.__name__}:\n{init}{methods(slots)}", namespace)
    for name, method in vars(namespace[cls.__name__]).items():
        if callable(method):
            setattr(cls, name, method)
    cls.__reduce__ = lambda self: (type(self), tuple(map(self.__getattribute__, names)))
    return cls


def _linear(cls):
    """``_frozen``, plus add, subtract, negate, scale and ``components``.

    One expression per slot, with no per-call loop.  Results are ``cls``,
    also for a subclass such as ``Frame``.  ``Event`` (affine: the result
    type depends on the operand) and ``affine_values.LagrangianValue``
    (masses must match) keep hand-written operators.
    """
    return _frozen(cls, lambda slots: (
        f" def __add__(self, other): return cls({slots('self.{0} + other.{0}')})\n"
        f" def __sub__(self, other): return cls({slots('self.{0} - other.{0}')})\n"
        f" def __neg__(self): return cls({slots('-self.{0}')})\n"
        f" def __mul__(self, a): return cls({slots('a * self.{0}')})\n"
        " __rmul__ = __mul__\n"
        f" def components(self): return ({slots('self.{0}')},)\n"))


@_linear
class FourVector:
    """Displacement in space-time; ``dt`` is the elapsed-time component."""

    dt: float
    dx: float
    dy: float
    dz: float


@_linear
class FourCovector:
    """Linear form on displacements; ``pt`` multiplies the time component."""

    pt: float
    px: float
    py: float
    pz: float


@_linear
class SpatialVector:
    """Vector with no time component, in the spatial basis of the chart."""

    x: float
    y: float
    z: float


@_linear
class SpatialCovector:
    """Linear form on spatial vectors."""

    x: float
    y: float
    z: float


@_frozen
class Frame(FourVector):
    """Four-velocity of an inertial observer: unit time component.

    Frames form an affine space over spatial vectors, not a vector
    space; sums and scalings of frames therefore come back as plain
    ``FourVector`` values.
    """

    def __post_init__(self):
        # Negated so that a NaN time component fails too.
        if not abs(self.dt - 1.0) <= _FRAME_TOL:
            raise ValueError(f"frame time component must be 1, got {self.dt!r}")

    @classmethod
    def from_boost(cls, b: SpatialVector) -> "Frame":
        return cls(1.0, b.x, b.y, b.z)

    def boost(self) -> SpatialVector:
        """Velocity of this frame relative to the rest frame."""
        return SpatialVector(self.dx, self.dy, self.dz)


@_frozen
class Event:
    """Point of space-time, in affine coordinates relative to ``ORIGIN``."""

    t: float
    x: float
    y: float
    z: float

    def __add__(self, d: FourVector) -> "Event":
        return Event(self.t + d.dt, self.x + d.dx, self.y + d.dy, self.z + d.dz)

    def __sub__(self, other):
        if isinstance(other, Event):
            return FourVector(self.t - other.t, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        return Event(self.t - other.dt, self.x - other.dx,
                     self.y - other.dy, self.z - other.dz)

    def components(self) -> tuple[float, float, float, float]:
        return (self.t, self.x, self.y, self.z)


TIME_FORM = FourCovector(1.0, 0.0, 0.0, 0.0)
REST_FRAME = Frame(1.0, 0.0, 0.0, 0.0)
ORIGIN = Event(0.0, 0.0, 0.0, 0.0)


def pair(p: FourCovector, v: FourVector) -> float:
    """Natural pairing of a covector with a vector."""
    return p.pt * v.dt + p.px * v.dx + p.py * v.dy + p.pz * v.dz


def pair_spatial(q: SpatialCovector, w: SpatialVector) -> float:
    return q.x * w.x + q.y * w.y + q.z * w.z


def metric(w: SpatialVector) -> SpatialCovector:
    """Euclidean metric applied to a spatial vector."""
    return SpatialCovector(w.x, w.y, w.z)


def metric_inv(q: SpatialCovector) -> SpatialVector:
    return SpatialVector(q.x, q.y, q.z)


def cometric(p: FourCovector) -> FourVector:
    """Degenerate contravariant metric; annihilates the time form."""
    return FourVector(0.0, p.px, p.py, p.pz)


def embed(w: SpatialVector) -> FourVector:
    """Include a spatial vector as a displacement with zero time component."""
    return FourVector(0.0, w.x, w.y, w.z)


def _relative(u: Frame, v: FourVector) -> tuple[float, float, float]:
    """The slots of ``project(u, v)``, for callers that read them as floats."""
    s = v.dt
    return v.dx - s * u.dx, v.dy - s * u.dy, v.dz - s * u.dz


def project(u: Frame, v: FourVector) -> SpatialVector:
    """Velocity of ``v`` relative to the observer ``u``.

    Splits off the time component: v = embed(project(u, v)) + pair(TIME_FORM, v) * u.
    """
    return SpatialVector(*_relative(u, v))


def restrict(p: FourCovector) -> SpatialCovector:
    """Restriction of a four-covector to spatial vectors."""
    return SpatialCovector(p.px, p.py, p.pz)


def dual_lift(u: Frame, q: SpatialCovector) -> FourCovector:
    """The unique four-covector restricting to ``q`` and vanishing on ``u``.

    The time slot balances the spatial pairing against the frame's boost.
    """
    return FourCovector(-(q.x * u.dx + q.y * u.dy + q.z * u.dz), q.x, q.y, q.z)
