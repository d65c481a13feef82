import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    ORIGIN,
    REST_FRAME,
    TIME_FORM,
    pair,
)
from galimech.homogeneous import (
    PhasePoint,
    PhaseVelocity,
    TIME_RATE_FLOOR,
    characteristic_field,
    critical_velocity,
    generating_family,
    homogeneous_lagrangian,
    is_dynamics_member,
    lagrangian_differential,
    legendre,
    mass_shell_residual,
    reduced_family,
)
from galimech.potentials import HarmonicPotential, UniformPotential, ZeroPotential

scalars = st.floats(-2, 2)
masses = st.floats(0.5, 3)
frames = st.builds(Frame, st.just(1.0), scalars, scalars, scalars)
events = st.builds(Event, scalars, scalars, scalars, scalars)
# Future-directed four-velocities, away from the zero-rate boundary.
four_velocities = st.builds(FourVector, st.floats(0.1, 3),
                            scalars, scalars, scalars)
potentials = st.one_of(
    st.just(ZeroPotential()),
    st.builds(UniformPotential,
              st.builds(FourCovector, scalars, scalars, scalars, scalars)),
    st.builds(HarmonicPotential, st.floats(0.2, 2), events),
)


def test_legendre_worked_example():
    p = legendre(REST_FRAME, 1.0, ZeroPotential(), ORIGIN,
                 FourVector(1.0, 0.6, 0.0, 0.0))
    assert p.px == 0.6
    assert p.py == 0.0 and p.pz == 0.0
    assert p.pt == -(0.6 * 0.6) / 2.0


def test_legendre_at_rest_reads_off_potential():
    phi = HarmonicPotential(2.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    p = legendre(REST_FRAME, 3.0, phi, x, FourVector(1.0, 0.0, 0.0, 0.0))
    assert p == FourCovector(-1.0, 0.0, 0.0, 0.0)


@given(frames, masses, potentials, events, four_velocities,
       st.sampled_from([0.5, 2.0, 7.0]))
def test_lagrangian_is_degree_one(u, mass, phi, x, v, lam):
    a = homogeneous_lagrangian(u, mass, phi, x, v * lam)
    b = lam * homogeneous_lagrangian(u, mass, phi, x, v)
    assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


@given(frames, masses, potentials, events, four_velocities,
       st.sampled_from([0.5, 2.0, 7.0]))
def test_momentum_is_degree_zero(u, mass, phi, x, v, lam):
    a = legendre(u, mass, phi, x, v * lam)
    b = legendre(u, mass, phi, x, v)
    for lhs, rhs in zip(a.components(), b.components()):
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(frames, masses, potentials, events, four_velocities)
def test_euler_identity(u, mass, phi, x, v):
    """Degree one in v forces <dL/dv, v> = L."""
    _, fiber = lagrangian_differential(u, mass, phi, x, v)
    assert pair(fiber, v) == pytest.approx(
        homogeneous_lagrangian(u, mass, phi, x, v), rel=1e-9, abs=1e-9)


def test_base_differential_oracle():
    phi = UniformPotential(FourCovector(0.25, -0.5, 0.125, 0.375))
    v = FourVector(2.0, 1.0, 0.0, 0.0)
    base, _ = lagrangian_differential(REST_FRAME, 1.0, phi, ORIGIN, v)
    assert base == FourCovector(-0.5, 1.0, -0.25, -0.75)


@given(frames, masses, potentials, events, four_velocities)
def test_critical_velocity_inverts_legendre(u, mass, phi, x, v):
    p = legendre(u, mass, phi, x, v)
    back = critical_velocity(u, mass, p, pair(TIME_FORM, v))
    gap = max(abs(a - b) for a, b in zip(back.components(), v.components()))
    assert gap <= 1e-10


@given(frames, masses, potentials, events, four_velocities)
def test_legendre_image_is_on_shell(u, mass, phi, x, v):
    p = legendre(u, mass, phi, x, v)
    assert abs(mass_shell_residual(u, mass, phi, x, p)) <= 1e-12


def test_energy_slot_moves_the_residual_linearly():
    u = Frame(1.0, 0.3, -0.4, 0.1)
    phi = HarmonicPotential(1.5, Event(0.0, 0.2, 0.0, 0.0))
    x = Event(0.5, 1.0, -1.0, 0.5)
    p = legendre(u, 2.0, phi, x, FourVector(1.5, 0.7, -0.2, 1.1))
    base = mass_shell_residual(u, 2.0, phi, x, p)
    delta = 0.375
    kicked = mass_shell_residual(u, 2.0, phi, x,
                                 p + FourCovector(delta, 0.0, 0.0, 0.0))
    assert kicked - base == pytest.approx(delta, rel=1e-12)


@given(frames, masses, potentials, events, four_velocities,
       st.floats(0.1, 3))
def test_characteristic_flow_is_a_member(u, mass, phi, x, v, rate):
    p = legendre(u, mass, phi, x, v)
    point = PhasePoint(x, p)
    vel = characteristic_field(u, mass, phi, x, p, rate)
    # Loose gate: extreme frame/rate corners push the energy-slot match
    # past the default; desk-scale cases below exercise the default.
    assert is_dynamics_member(u, mass, phi, point, vel, tol=1e-8)
    # The time-reversed half solves the same characteristic equation but
    # fails the forward-cone requirement.
    reverse = PhaseVelocity(-vel.xdot, -vel.pdot)
    assert not is_dynamics_member(u, mass, phi, point, reverse)


def test_member_rejects_kicked_momentum():
    u = REST_FRAME
    phi = ZeroPotential()
    v = FourVector(1.0, 0.5, 0.0, 0.0)
    p = legendre(u, 1.0, phi, ORIGIN, v)
    vel = characteristic_field(u, 1.0, phi, ORIGIN, p, 1.0)
    good = PhasePoint(ORIGIN, p)
    assert is_dynamics_member(u, 1.0, phi, good, vel)
    bad = PhasePoint(ORIGIN, p + FourCovector(0.0, 0.25, 0.0, 0.0))
    assert not is_dynamics_member(u, 1.0, phi, bad, vel)
    frozen = PhaseVelocity(FourVector(0.0, 0.0, 0.0, 0.0), vel.pdot)
    assert not is_dynamics_member(u, 1.0, phi, good, frozen)


def test_member_rejects_wrong_force():
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    p = legendre(REST_FRAME, 1.0, phi, x, FourVector(1.0, 0.0, 0.2, 0.0))
    vel = characteristic_field(REST_FRAME, 1.0, phi, x, p, 1.0)
    off = PhaseVelocity(vel.xdot, vel.pdot + FourCovector(0.0, 0.1, 0.0, 0.0))
    assert not is_dynamics_member(REST_FRAME, 1.0, phi, PhasePoint(x, p), off)



@pytest.mark.parametrize("slot", ["pt", "px", "py", "pz"])
def test_member_rejects_nan_slots(slot):
    # The builtin max drops a NaN that is not its first argument, so each
    # slot is corrupted on its own.
    u, phi = REST_FRAME, ZeroPotential()
    p = legendre(u, 1.0, phi, ORIGIN, FourVector(1.0, 0.5, 0.0, 0.0))
    vel = characteristic_field(u, 1.0, phi, ORIGIN, p, 1.0)
    bad_p = PhasePoint(ORIGIN, dataclasses.replace(p, **{slot: math.nan}))
    assert not is_dynamics_member(u, 1.0, phi, bad_p, vel)
    bad_pdot = PhaseVelocity(vel.xdot, dataclasses.replace(vel.pdot, **{slot: math.nan}))
    assert not is_dynamics_member(u, 1.0, phi, PhasePoint(ORIGIN, p), bad_pdot)
    stalled = PhaseVelocity(dataclasses.replace(vel.xdot, dt=math.nan), vel.pdot)
    assert not is_dynamics_member(u, 1.0, phi, PhasePoint(ORIGIN, p), stalled)

@given(frames, masses, potentials, events, four_velocities)
def test_generating_family_vanishes_on_legendre_points(u, mass, phi, x, v):
    p = legendre(u, mass, phi, x, v)
    assert abs(generating_family(u, mass, phi, x, p, v)) <= 1e-12


def test_generating_family_dips_off_the_critical_fiber():
    """Concave in the spatial fiber: a 0.5 offset moves it by -m|dw|^2/2s."""
    v = FourVector(1.0, 0.3, 0.0, 0.0)
    p = legendre(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, v)
    shifted = v + FourVector(0.0, 0.5, 0.0, 0.0)
    assert generating_family(REST_FRAME, 1.0, ZeroPotential(), ORIGIN,
                             p, shifted) == pytest.approx(-0.125, abs=1e-13)


@given(frames, masses, potentials, events, four_velocities,
       st.floats(0.1, 3))
def test_reduced_family_rescales_the_residual(u, mass, phi, x, v, rate):
    p = legendre(u, mass, phi, x, v)
    want = rate * mass_shell_residual(u, mass, phi, x, p)
    assert reduced_family(u, mass, phi, x, p, rate) == want


def test_characteristic_field_rejects_off_shell():
    p = legendre(REST_FRAME, 1.0, ZeroPotential(), ORIGIN,
                 FourVector(1.0, 0.5, 0.0, 0.0))
    bad = p + FourCovector(1e-3, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        characteristic_field(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, bad, 1.0)


def test_characteristic_field_spans_both_halves():
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 0.5, 0.0, 0.0)
    p = legendre(REST_FRAME, 2.0, phi, x, FourVector(1.0, 0.4, 0.0, 0.0))
    forward = characteristic_field(REST_FRAME, 2.0, phi, x, p, 1.5)
    backward = characteristic_field(REST_FRAME, 2.0, phi, x, p, -1.5)
    assert backward.xdot == -forward.xdot
    assert backward.pdot == -forward.pdot


def test_zero_rate_boundary_is_guarded():
    still = FourVector(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        homogeneous_lagrangian(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, still)
    with pytest.raises(ValueError):
        legendre(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, -still)
    with pytest.raises(ValueError):
        critical_velocity(REST_FRAME, 1.0, FourCovector(0.0, 1.0, 0.0, 0.0),
                          TIME_RATE_FLOOR)
    with pytest.raises(ValueError):
        reduced_family(REST_FRAME, 1.0, ZeroPotential(), ORIGIN,
                       FourCovector(0.0, 0.0, 0.0, 0.0), 0.0)


NAN_RATE = FourVector(math.nan, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: homogeneous_lagrangian(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, NAN_RATE),
     "four-velocity must be future-directed"),
    (lambda: legendre(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, NAN_RATE),
     "four-velocity must be future-directed"),
    (lambda: critical_velocity(REST_FRAME, 1.0, FourCovector(0.0, 1.0, 0.0, 0.0),
                               math.nan),
     "time rate must be positive"),
    (lambda: reduced_family(REST_FRAME, 1.0, ZeroPotential(), ORIGIN,
                            FourCovector(0.0, 0.0, 0.0, 0.0), math.nan),
     "time rate must be positive"),
], ids=["homogeneous_lagrangian", "legendre", "critical_velocity", "reduced_family"])
def test_nan_time_rate_is_guarded(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_mass_is_validated():
    v = FourVector(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        legendre(REST_FRAME, 0.0, ZeroPotential(), ORIGIN, v)
    with pytest.raises(ValueError):
        homogeneous_lagrangian(REST_FRAME, -2.0, ZeroPotential(), ORIGIN, v)
