"""The float RK4 kernel inside ``integrate`` against the value-object RK4.

``_stepped``/``_rk4_step``/``_object_integrate`` are the integrator as it
reads on the typed values: every stage goes through ``dynamics_field``
and the chart operators.  ``integrate`` must reproduce it bit for bit,
for the built-in potentials, whose templates the kernel inlines, and for
custom kinds and subclasses redefining a method, whose methods it calls.
"""

import math
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from galimech import frame_dynamics as fd
from galimech.affine_values import momentum_transport
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
    SpatialVector,
    metric,
)
from galimech.frame_dynamics import (
    IntegrationDiverged,
    Sample,
    dynamics_field,
    generate_from_lagrangian,
    hamiltonian,
    integrate,
)
from galimech.homogeneous import (
    characteristic_field,
    is_dynamics_member,
    legendre,
    mass_shell_residual,
)
from galimech.potentials import (
    HarmonicPotential,
    Potential,
    UniformPotential,
    ZeroPotential,
)
from galimech.verify import trajectory_discrepancy


class TiltedWell(Potential):
    """Time-dependent custom potential, defined on chart coordinates."""

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = a, b, c

    def value_at(self, t, x, y, z):
        return self.a * t * x + 0.5 * self.b * y * y + self.c * math.sin(z)

    def differential_at(self, t, x, y, z):
        return self.a * x, self.a * t, self.b * y, self.c * math.cos(z)


class Ramp(Potential):
    """phi = -t * (k . x): the force k * t grows linearly in time."""

    def __init__(self, kx: float, ky: float, kz: float):
        self.k = (kx, ky, kz)

    def value_at(self, t, x, y, z):
        kx, ky, kz = self.k
        return -t * (kx * x + ky * y + kz * z)

    def differential_at(self, t, x, y, z):
        kx, ky, kz = self.k
        return -(kx * x + ky * y + kz * z), -t * kx, -t * ky, -t * kz


class MovingKepler(Potential):
    """phi = -k / |x - b t|: a Kepler source moving through the chart with velocity b.

    The time slot is -grad(phi) . b, the rate at which the moving source
    changes the value at a fixed point.
    """

    def __init__(self, k: float, bx: float, by: float, bz: float):
        self.k, self.b = k, (bx, by, bz)

    def value_at(self, t, x, y, z):
        bx, by, bz = self.b
        return -self.k / math.hypot(x - bx * t, y - by * t, z - bz * t)

    def differential_at(self, t, x, y, z):
        bx, by, bz = self.b
        rx, ry, rz = x - bx * t, y - by * t, z - bz * t
        r2 = rx * rx + ry * ry + rz * rz
        c = self.k / (r2 * math.sqrt(r2))
        gx, gy, gz = c * rx, c * ry, c * rz
        return -(gx * bx + gy * by + gz * bz), gx, gy, gz


# Calls of the methods the subclasses below redefine.
CALLS = Counter()


class ShiftedSpring(HarmonicPotential):
    """A spring whose redefined differential adds a constant pull along x."""

    def differential_at(self, t, x, y, z):
        CALLS["ShiftedSpring.differential_at"] += 1
        dt, dx, dy, dz = super().differential_at(t, x, y, z)
        return dt, dx + 0.25, dy, dz


class RisingSlope(UniformPotential):
    """A slope whose redefined value adds 0.5 * t * t."""

    def value_at(self, t, x, y, z):
        CALLS["RisingSlope.value_at"] += 1
        return super().value_at(t, x, y, z) + 0.5 * t * t


class PlainSpring(HarmonicPotential):
    """Redefines nothing, so it has the built-in spring's methods."""


# -- the value-object oracle ----------------------------------------------

def _stepped(x, p, xdot, pdot, h):
    return x + xdot * h, p + pdot * h


def _rk4_step(u, mass, potential, x, p, h):
    k1 = dynamics_field(u, mass, potential, x, p)
    k2 = dynamics_field(u, mass, potential, *_stepped(x, p, *k1, 0.5 * h))
    k3 = dynamics_field(u, mass, potential, *_stepped(x, p, *k2, 0.5 * h))
    k4 = dynamics_field(u, mass, potential, *_stepped(x, p, *k3, h))
    xdot = (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) * (1.0 / 6.0)
    pdot = (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) * (1.0 / 6.0)
    return _stepped(x, p, xdot, pdot, h)


def _sample(x, p, energy):
    return Sample(*x.components(), *p.components(), energy)


def _object_integrate(u, mass, potential, x, p, dt, steps):
    """Every sample, the start included, passes the same two guards."""
    samples = []
    for step in range(steps + 1):
        if step:
            x, p = _rk4_step(u, mass, potential, x, p, dt)
        if not all(map(math.isfinite, (*x.components(), *p.components()))):
            raise IntegrationDiverged(f"state left finite range at step {step}")
        energy = hamiltonian(mass, potential, x, p)
        if not math.isfinite(energy):
            raise IntegrationDiverged(f"energy left finite range at step {step}")
        samples.append(_sample(x, p, energy))
    return samples


def _outcome(run, *args):
    """Every number of the trajectory by its bits, or the divergence message."""
    try:
        samples = list(run(*args))
    except IntegrationDiverged as exc:
        return ("diverged", str(exc))
    return [tuple(map(float.hex, sample)) for sample in samples]


# -- bit-for-bit agreement ------------------------------------------------

scalars = st.one_of(st.floats(-2, 2), st.sampled_from((0.0, -0.0)))
frames = st.builds(Frame, st.just(1.0), scalars, scalars, scalars)
events = st.builds(Event, scalars, scalars, scalars, scalars)
potentials = st.one_of(
    st.just(ZeroPotential()),
    st.builds(UniformPotential,
              st.builds(FourCovector, scalars, scalars, scalars, scalars)),
    st.builds(HarmonicPotential, st.floats(0.2, 2), events),
    st.builds(TiltedWell, scalars, scalars, scalars),
)


@given(frames, st.floats(0.5, 3), potentials, events,
       st.builds(SpatialCovector, scalars, scalars, scalars),
       st.floats(1e-4, 0.5), st.integers(1, 50))
@settings(max_examples=200, deadline=None)
# Signed zeros: the first step runs from t = -0.25 to 0.25, so stage forces
# proportional to t cancel exactly, and a -0.0 momentum slot comes out
# +0.0, as the forces' sum makes it.  Subtracting the summed gradients
# from p would keep -0.0.
@example(REST_FRAME, 1.0, TiltedWell(1.0, 0.0, 0.0), Event(-0.25, 0.0, 0.0, 0.0),
         SpatialCovector(-0.0, 0.0, -0.0), 0.5, 1)
@example(Frame(1.0, 0.5, -0.0, 0.25), 2.0, Ramp(1.0, -1.0, 0.5),
         Event(-0.25, 1.0, 0.0, -0.0), SpatialCovector(-0.0, -0.0, -0.0), 0.5, 2)
# Subclasses of built-in kinds that redefine a method run the call path.
@example(Frame(1.0, 0.3, -0.2, 0.1), 1.5, ShiftedSpring(1.3, Event(0.0, 0.5, -0.5, 1.0)),
         Event(0.0, 1.0, -0.5, 0.25), SpatialCovector(0.2, -0.0, -0.4), 0.25, 8)
@example(Frame(1.0, -0.4, 0.0, 0.6), 0.8, RisingSlope(FourCovector(0.6, -1.3, 0.4, 0.9)),
         Event(0.5, -0.3, 1.2, -0.8), SpatialCovector(-0.6, 0.25, 0.1), 0.125, 8)
def test_kernel_matches_object_rk4_bit_for_bit(u, mass, phi, x0, p0, dt, steps):
    args = (u, mass, phi, x0, p0, dt, steps)
    assert _outcome(integrate, *args) == _outcome(_object_integrate, *args)


def test_state_overflow_names_the_oracle_step():
    """A huge frame drift carries the position out while the energy stays 0.5."""
    args = (Frame(1.0, 1e307, 0.0, 0.0), 1.0, ZeroPotential(),
            ORIGIN, SpatialCovector(1.0, 0.0, 0.0), 1.0, 50)
    want = _outcome(_object_integrate, *args)
    assert want == ("diverged", "state left finite range at step 18")
    assert _outcome(integrate, *args) == want


@pytest.mark.parametrize("args, want", [
    # Each event slot is finite, but t + x (and z + y) overflows: a guard
    # that summed the slots themselves would stop this run.
    ((Frame(1.0, 1.0, -1.0, 0.5), 1.0, ZeroPotential(),
      Event(1.7e308, 1.7e308, -1.7e308, -1.7e308), SpatialCovector(0.0, 0.0, 0.0),
      1.0, 50), None),
    # Huge finite momenta of a heavy particle: the state is finite, p * p
    # is not, already at the start.
    ((REST_FRAME, 1e10, ZeroPotential(), ORIGIN,
      SpatialCovector(1.7e308, 1.7e308, -1.7e308), 1.0, 5),
     "energy left finite range at step 0"),
    # The time slot: 0.6e308 per step passes the largest float at step 3.
    ((REST_FRAME, 1.0, ZeroPotential(), ORIGIN, SpatialCovector(0.0, 0.0, 0.0),
      0.6e308, 5), "state left finite range at step 3"),
    # px: the stages' force sum -6e308 is -inf in the first step.
    ((REST_FRAME, 1.0, UniformPotential(FourCovector(0.0, 1e308, 0.0, 0.0)),
      ORIGIN, SpatialCovector(0.0, 0.0, 0.0), 1e-10, 5),
     "state left finite range at step 1"),
    # A Kepler source 1e-105 away pulls inf * 0.0 = NaN along x.
    ((REST_FRAME, 1.0, MovingKepler(1.0, 0.0, 0.0, 0.0), Event(0.0, 0.0, 1e-105, 0.0),
      SpatialCovector(0.0, 0.0, 0.0), 1e-3, 5), "state left finite range at step 1"),
], ids=["huge-finite-slots", "huge-finite-momenta", "inf-time", "inf-momentum", "nan-momentum"])
def test_state_guard_matches_the_oracle(args, want):
    """Finite means every slot finite, not their sum; the step and message match."""
    got = _outcome(integrate, *args)
    assert got == _outcome(_object_integrate, *args)
    assert (got[1] if got[0] == "diverged" else None) == want


@pytest.mark.parametrize("x0, p0, want", [
    # 0.5 * x * x overflows: only the energy is non-finite.
    (Event(0.0, 1e200, 0.0, 0.0), SpatialCovector(0.0, 0.0, 0.0),
     "energy left finite range at step 0"),
    (Event(math.inf, 0.0, 0.0, 0.0), SpatialCovector(0.0, 0.0, 0.0),
     "state left finite range at step 0"),
    (ORIGIN, SpatialCovector(0.0, math.nan, 0.0), "state left finite range at step 0"),
], ids=["huge-position", "inf-time", "nan-momentum"])
def test_non_finite_start_yields_nothing(x0, p0, want):
    """The start passes the guards of every later sample: the first ``next`` raises."""
    args = (REST_FRAME, 1.0, HarmonicPotential(1.0), x0, p0, 1e-3, 5)
    samples = integrate(*args)
    with pytest.raises(IntegrationDiverged) as raised:
        next(samples)
    assert str(raised.value) == want
    assert list(samples) == []
    assert _outcome(_object_integrate, *args) == ("diverged", want)


def test_unstable_harmonic_step_names_the_oracle_step():
    """Position and momentum grow together; the squared momentum overflows first."""
    args = (REST_FRAME, 1.0, HarmonicPotential(1.0, ORIGIN),
            Event(0.0, 1.0, 0.0, 0.0), SpatialCovector(0.0, 0.0, 0.0),
            10.0, 500)
    want = _outcome(_object_integrate, *args)
    assert want == ("diverged", "energy left finite range at step 60")
    assert _outcome(integrate, *args) == want


def test_energy_overflow_names_the_oracle_step():
    """The state stays finite while px * px overflows: the energy check fires."""
    args = (REST_FRAME, 1.0, UniformPotential(FourCovector(0.0, -1e153, 0.0, 0.0)),
            ORIGIN, SpatialCovector(0.0, 0.0, 0.0), 1.0, 50)
    want = _outcome(_object_integrate, *args)
    assert want == ("diverged", "energy left finite range at step 14")
    assert _outcome(integrate, *args) == want


# -- which kernel runs -----------------------------------------------------

_BUILT_IN = (ZeroPotential, UniformPotential, HarmonicPotential)
_BUILT_IN_CODES = {getattr(kind, name).__code__: f"{kind.__name__}.{name}"
                   for kind in _BUILT_IN for name in ("value_at", "differential_at")}


@pytest.mark.parametrize("phi, redefined", [
    (ZeroPotential(), None),
    (UniformPotential(FourCovector(0.3, -0.7, 0.2, 1.1)), None),
    (HarmonicPotential(1.3, Event(0.0, 0.5, -0.5, 1.0)), None),
    (PlainSpring(1.3, Event(0.0, 0.5, -0.5, 1.0)), None),
    (ShiftedSpring(1.3, Event(0.0, 0.5, -0.5, 1.0)), "ShiftedSpring.differential_at"),
    (RisingSlope(FourCovector(0.3, -0.7, 0.2, 1.1)), "RisingSlope.value_at"),
], ids=["zero", "uniform", "harmonic", "plain-subclass", "spring-differential",
        "slope-value"])
def test_built_in_methods_are_inlined_unless_redefined(phi, redefined):
    """Built-in methods are written into the kernel; a redefined one is called.

    A subclass redefining either method gets the call path for both: its
    redefined method, and through it or directly, the built-in ones.
    """
    steps = 50
    args = (Frame(1.0, 0.3, -0.2, 0.1), 1.5, phi, Event(0.0, 1.0, -0.5, 0.25),
            SpatialCovector(0.2, 0.0, -0.4), 1e-2, steps)
    kind = next(cls for cls in _BUILT_IN if isinstance(phi, cls)).__name__
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _BUILT_IN_CODES:
            seen[_BUILT_IN_CODES[frame.f_code]] += 1

    CALLS.clear()
    sys.setprofile(profile)
    try:
        got = _outcome(integrate, *args)
    finally:
        sys.setprofile(None)
    if redefined is None:
        assert seen == Counter() and CALLS == Counter()
    else:
        calls = {"value_at": steps + 1, "differential_at": 4 * steps}
        assert seen == Counter({f"{kind}.{name}": n for name, n in calls.items()})
        assert CALLS == Counter({redefined: calls[redefined.split(".")[1]]})
    assert got == _outcome(_object_integrate, *args)


def _lines_per_step(phi):
    """Line events per step in the kernel's own frame, from runs of 4 and 2 steps."""
    def count(steps):
        lines = 0

        def trace(frame, event, arg):
            nonlocal lines
            if frame.f_code.co_name != "rk4":
                return None
            lines += event == "line"
            return trace

        sys.settrace(trace)
        try:
            list(integrate(REST_FRAME, 1.0, phi, ORIGIN, SpatialCovector(0.1, 0.2, 0.3),
                           1e-2, steps))
        finally:
            sys.settrace(None)
        return lines
    return (count(4) - count(2)) / 2


def test_constant_forces_are_taken_before_the_loop():
    """Zero and uniform forces are constant: no stage takes a gradient in the loop.

    Each step of their kernels runs at least the four stage-force lines
    fewer than a step of the spring's kernel, which takes the gradient at
    every stage.
    """
    spring = _lines_per_step(HarmonicPotential(1.3, Event(0.0, 0.5, -0.5, 1.0)))
    for phi in (ZeroPotential(), UniformPotential(FourCovector(0.3, -0.7, 0.2, 1.1))):
        assert _lines_per_step(phi) <= spring - 4


# -- closed-form oracles --------------------------------------------------

def test_uniform_slope_follows_the_exact_quadratic_path():
    """RK4 is exact on quadratic motion, so only rounding remains."""
    u = Frame(1.0, 0.3141592653589793, -0.2718281828459045, 0.5772156649015329)
    mass = 1.4142135623730951
    slope = FourCovector(0.6931471805599453, 1.2020569031595942,
                         -0.915965594177219, 0.3010299956639812)
    x0 = Event(0.1234567, -1.7320508075688772, 0.4142135623730951, 1.61803398875)
    p0 = SpatialCovector(0.8660254037844386, -0.3333333333333333, 1.0986122886681098)
    dt, steps = 1e-2, 1000
    samples = integrate(u, mass, UniformPotential(slope), x0, p0, dt, steps)
    force = (-slope.px, -slope.py, -slope.pz)
    drift = (u.dx, u.dy, u.dz)
    worst = 0.0
    for n, sample in enumerate(samples):
        s = n * dt
        want = [x0.t + s]
        want += [c + (q / mass + w) * s + 0.5 * (f / mass) * s * s
                 for c, q, w, f in zip(x0.components()[1:], p0.components(),
                                       drift, force)]
        want += [q + f * s for q, f in zip(p0.components(), force)]
        got = sample[:7]
        worst = max(worst, *(abs(g - w) / max(1.0, abs(w))
                             for g, w in zip(got, want)))
    assert worst <= 1e-12


def test_time_ramp_follows_the_exact_cubic_path():
    """A force linear in t makes p quadratic and x cubic in t; RK4 is exact there.

    Only a time-dependent force sees the stage times: evaluating a stage
    at t - dt/2 or t - dt instead moves the end state by about 1e-2 here.
    Measured worst relative deviation: 1.7e-14.
    """
    u = Frame(1.0, 0.3141592653589793, -0.2718281828459045, 0.5772156649015329)
    mass = 1.4142135623730951
    k = (0.6931471805599453, -1.2020569031595942, 0.3010299956639812)
    x0 = Event(0.25, -1.7320508075688772, 0.4142135623730951, 1.61803398875)
    p0 = SpatialCovector(0.8660254037844386, -0.3333333333333333, 1.0986122886681098)
    dt, steps = 1e-2, 1000
    t0 = x0.t
    worst = 0.0
    for n, sample in enumerate(integrate(u, mass, Ramp(*k), x0, p0, dt, steps)):
        t = t0 + n * dt
        # The integral of (p(s) - p0) / m from t0 to t, per unit of k.
        cubic = ((t ** 3 - t0 ** 3) / 3.0 - t0 * t0 * (t - t0)) / (2.0 * mass)
        want = [t]
        want += [c + (q / mass + w) * (t - t0) + f * cubic
                 for c, q, w, f in zip(x0.components()[1:], p0.components(),
                                       (u.dx, u.dy, u.dz), k)]
        want += [q + f * 0.5 * (t * t - t0 * t0) for q, f in zip(p0.components(), k)]
        worst = max(worst, *(abs(g - w) / max(1.0, abs(w))
                             for g, w in zip(sample[:7], want)))
    assert worst <= 1e-12


def test_harmonic_error_has_order_four():
    """Halving dt divides the end-time error against cos/sin by about 16."""
    u = Frame(1.0, 0.3, -0.2, 0.5)
    mass, kappa = 2.0, 3.0
    center = Event(0.0, 0.5, 0.0, -0.5)
    x0 = Event(0.0, 1.5, -1.0, 0.25)
    v_rel = SpatialVector(0.4, 0.1, -0.6)
    v_phys = v_rel + u.boost()
    omega = math.sqrt(kappa / mass)
    end = 4.0
    c, s = math.cos(omega * end), math.sin(omega * end)
    want = [cc + (x - cc) * c + (v / omega) * s
            for x, cc, v in zip(x0.components()[1:], center.components()[1:],
                                v_phys.components())]

    errors = []
    for n in (40, 80, 160):
        last = list(integrate(u, mass, HarmonicPotential(kappa, center),
                              x0, metric(v_rel) * mass, end / n, n))[-1]
        errors.append(max(abs(g - w) for g, w in
                          zip(last[1:4], want)))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(3.8 <= order <= 4.2 for order in orders), orders


# The moving-Kepler case: unit k and m, released at periapsis r = 1 with
# source-relative speed sqrt(1.5), so e = 0.5, E = -1/4 and the
# Laplace-Runge-Lenz vector is (1/2, 0, 0); watched from a boosted frame.
KEPLER_B = (0.3, -0.2, 0.1)
KEPLER = MovingKepler(1.0, *KEPLER_B)
KEPLER_X0 = Event(0.0, 1.0, 0.0, 0.0)
KEPLER_W = Frame(1.0, KEPLER_B[0], KEPLER_B[1] + math.sqrt(1.5), KEPLER_B[2])
KEPLER_U = Frame(1.0, 0.5, 0.2, -0.1)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _kepler_invariants(sample):
    """Energy, angular momentum and LRL vector in the source's rest frame (k = m = 1)."""
    t, x, y, z, px, py, pz, _ = sample
    bx, by, bz = KEPLER_B
    r = (x - bx * t, y - by * t, z - bz * t)
    w = (px + KEPLER_U.dx - bx, py + KEPLER_U.dy - by, pz + KEPLER_U.dz - bz)
    rn = math.hypot(*r)
    ang = _cross(r, w)
    lrl = tuple(a - c / rn for a, c in zip(_cross(w, ang), r))
    return 0.5 * (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]) - 1.0 / rn, ang, lrl


def _kepler_drifts(n):
    """Worst departure of E, L and LRL from their start over T = 20 in n steps."""
    p0, _ = generate_from_lagrangian(KEPLER_U, 1.0, KEPLER, KEPLER_X0, KEPLER_W)
    samples = integrate(KEPLER_U, 1.0, KEPLER, KEPLER_X0, p0, 20.0 / n, n)
    e0, l0, a0 = _kepler_invariants(next(samples))
    assert e0 == pytest.approx(-0.25, abs=1e-15)
    assert a0 == pytest.approx((0.5, 0.0, 0.0), abs=1e-15)
    drift_e = drift_l = drift_a = 0.0
    for sample in samples:
        e, ang, lrl = _kepler_invariants(sample)
        drift_e = max(drift_e, abs(e - e0))
        drift_l = max(drift_l, *(abs(a - b) for a, b in zip(ang, l0)))
        drift_a = max(drift_a, *(abs(a - b) for a, b in zip(lrl, a0)))
    return drift_e, drift_l, drift_a


def test_moving_kepler_conserves_its_source_frame_invariants_at_order_four():
    """A force nonlinear in x and moving in t: E, L and LRL of the source frame.

    Measured drifts at n = 2000 / 4000 / 8000 steps: E 5.05e-11, 2.89e-12,
    4.33e-13 (the last on the rounding floor, so E's order is read from
    the first halving only, 4.13); LRL 6.11e-10, 3.81e-11, 2.53e-12
    (orders 4.00 and 3.92); L at most 4.9e-12.  A stage evaluated at the
    wrong time drops the orders to 1 and lifts the drifts to about 1e-3.
    """
    (e1, l1, a1), (e2, l2, a2), (e3, l3, a3) = map(_kepler_drifts, (2000, 4000, 8000))
    assert e1 <= 1e-10 and e2 <= 1e-11 and e3 <= 1e-12
    assert a1 <= 1e-9 and a2 <= 1e-10 and a3 <= 1e-11
    assert max(l1, l2, l3) <= 1e-11
    orders = [math.log2(e1 / e2), math.log2(a1 / a2), math.log2(a2 / a3)]
    assert all(3.8 <= order <= 4.2 for order in orders), orders


def test_moving_kepler_events_agree_across_frames():
    """The same motion watched from two frames passes the same events.

    Measured worst event gap at n = 4000: 3.2e-14.
    """
    other = Frame(1.0, -0.4, 0.3, 0.25)
    gap = trajectory_discrepancy(KEPLER_U, other, 1.0, KEPLER, KEPLER_X0,
                                 KEPLER_W, 20.0 / 4000, 4000)
    assert gap <= 1e-9


# Events r from the source at time t, r in [1e-3, 1]: there |phi| = 1 / r
# stays below about 1e3 and every gate below holds with room.  Measured,
# 2,000 draws per decade with slots often at their range ends: the worst
# shell residual is 1.1e-13 at r = 1 to 1e-3, then 9.1e-13 at 1e-4, 7.3e-12
# at 1e-5; it is pt's last-bit rounding, at most 2**-53 * |pt| at every r.
# Membership after transport first fails at 1e-7, where an ulp of pt
# nears MEMBER_TOL.
_near_source = st.builds(
    lambda r, d, t: Event(t, *(b * t + r * c / math.hypot(*d) for b, c in zip(KEPLER_B, d))),
    st.floats(1e-3, 1.0),
    st.tuples(*[st.floats(-2, 2)] * 3).filter(lambda d: math.hypot(*d) >= 0.1),
    st.floats(-2, 2))


@settings(max_examples=300, deadline=None)
@given(_near_source, frames, frames, st.floats(0.5, 3),
       st.builds(FourVector, st.floats(0.1, 3), scalars, scalars, scalars),
       st.floats(0.1, 3), st.integers(0, 3), st.sampled_from((-0.05, 0.05)))
def test_moving_kepler_near_source_keeps_the_shell_checks(x, u1, u2, mass, v, rate,
                                                          slot, kick):
    """legendre-on-shell, dynamics-transport and characteristic-orientation, by their gates."""
    p = legendre(u1, mass, KEPLER, x, v)
    assert abs(mass_shell_residual(u1, mass, KEPLER, x, p)) <= 1e-12
    pdot = KEPLER.differential(x) * (-v.dt)
    kicked = p + FourCovector(*(kick if i == slot else 0.0 for i in range(4)))
    for q, member in ((p, True), (kicked, False)):
        assert is_dynamics_member(u1, mass, KEPLER, x, q, v, pdot) is member
        moved = momentum_transport(mass, u1, u2, q)
        assert is_dynamics_member(u2, mass, KEPLER, x, moved, v, pdot) is member
    forward = characteristic_field(u1, mass, KEPLER, x, p, rate)
    backward = characteristic_field(u1, mass, KEPLER, x, p, -rate)
    assert is_dynamics_member(u1, mass, KEPLER, x, p, *forward)
    assert not is_dynamics_member(u1, mass, KEPLER, x, p, *backward)


# A close approach: in the frame drifting at 2**58 along x, the particle
# runs at 2**60 and the source at 2**59, so with dt = 2**-60 each step
# moves them exactly 1 and 1/2 along x, from 4 apart.  Elsewhere the pull
# is below half an ulp of the momentum, so the path is straight to the
# bit until the last stage of step 8 puts both at the same x, the impact
# parameter apart.  Below about 1.8e-103 the force there overflows (the
# state guard fires), above it the momentum squared does (the energy
# guard); both stop the run.
CLOSE_SOURCE = MovingKepler(1.0, 2.0 ** 59, 0.0, 0.0)
CLOSE_U = Frame(1.0, 2.0 ** 58, 0.0, 0.0)
CLOSE_P0 = SpatialCovector(3.0 * 2.0 ** 58, 0.0, 0.0)
_impacts = st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-357, -291))


@settings(max_examples=200, deadline=None)
@given(_impacts, st.sampled_from((-1.0, 1.0)),
       st.one_of(st.sampled_from((0.0, -0.0)), _impacts))
def test_moving_kepler_close_approach_diverges(by, sign, bz):
    """Impact parameters from 2**-358 to 2**-290 end the run, never in a non-finite sample."""
    args = (CLOSE_U, 1.0, CLOSE_SOURCE, Event(0.0, -4.0, sign * by, bz), CLOSE_P0,
            2.0 ** -60, 16)
    samples = []
    with pytest.raises(IntegrationDiverged, match="left finite range at step 8$"):
        for sample in integrate(*args):
            samples.append(sample)
    assert len(samples) == 8
    assert all(map(math.isfinite, (v for sample in samples for v in sample)))
    assert _outcome(integrate, *args) == _outcome(_object_integrate, *args)


# -- hot-loop guard -------------------------------------------------------

@pytest.mark.parametrize("phi", [
    ZeroPotential(),
    UniformPotential(FourCovector(0.3, -0.7, 0.2, 1.1)),
    HarmonicPotential(1.3, Event(0.0, 0.5, -0.5, 1.0)),
], ids=["zero", "uniform", "harmonic"])
def test_integrate_builds_no_per_stage_value_objects(monkeypatch, phi):
    u = Frame(1.0, 0.3, -0.2, 0.1)
    x0, p0 = Event(0.0, 1.0, -0.5, 0.25), SpatialCovector(0.2, 0.0, -0.4)
    calls = Counter()

    def count(owner, name):
        original = vars(owner)[name]

        def counted(*args, **kwargs):
            calls[f"{getattr(owner, '__name__', owner)}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Frame, "__post_init__")
    count(fd, "dynamics_field")
    count(fd, "hamiltonian")
    for cls in (Potential, *Potential.__subclasses__()):
        for name in ("value", "differential"):
            if name in vars(cls):
                count(cls, name)

    samples = list(integrate(u, 1.5, phi, x0, p0, 1e-3, 1000))
    assert len(samples) == 1001
    assert calls == Counter()
