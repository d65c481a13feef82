import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from galimech import homogeneous
from galimech.affine_values import AffineMomentum, LagrangianValue, is_universal_member
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
    TIME_FORM,
    pair,
)
from galimech.frame_dynamics import (
    dynamics_field,
    generate_from_lagrangian,
    hamiltonian,
    integrate,
    lagrangian,
    poisson_field,
    vertical_field,
)
from galimech.homogeneous import (
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
from galimech.verify import run_checks

from strategies import (
    masses,
    frames,
    events,
    four_velocities,
    potentials,
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
    xdot, pdot = characteristic_field(u, mass, phi, x, p, rate)
    # Loose gate: extreme frame/rate corners push the energy-slot match
    # past the default; desk-scale cases below exercise the default.
    assert is_dynamics_member(u, mass, phi, x, p, xdot, pdot, tol=1e-8)
    # The time-reversed half solves the same characteristic equation but
    # fails the forward-cone requirement.
    assert not is_dynamics_member(u, mass, phi, x, p, -xdot, -pdot)


def test_member_rejects_kicked_momentum():
    u = REST_FRAME
    phi = ZeroPotential()
    v = FourVector(1.0, 0.5, 0.0, 0.0)
    p = legendre(u, 1.0, phi, ORIGIN, v)
    xdot, pdot = characteristic_field(u, 1.0, phi, ORIGIN, p, 1.0)
    assert is_dynamics_member(u, 1.0, phi, ORIGIN, p, xdot, pdot)
    bad = p + FourCovector(0.0, 0.25, 0.0, 0.0)
    assert not is_dynamics_member(u, 1.0, phi, ORIGIN, bad, xdot, pdot)
    frozen = FourVector(0.0, 0.0, 0.0, 0.0)
    assert not is_dynamics_member(u, 1.0, phi, ORIGIN, p, frozen, pdot)


def test_member_rejects_wrong_force():
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    p = legendre(REST_FRAME, 1.0, phi, x, FourVector(1.0, 0.0, 0.2, 0.0))
    xdot, pdot = characteristic_field(REST_FRAME, 1.0, phi, x, p, 1.0)
    off = pdot + FourCovector(0.0, 0.1, 0.0, 0.0)
    assert not is_dynamics_member(REST_FRAME, 1.0, phi, x, p, xdot, off)



@pytest.mark.parametrize("slot", ["pt", "px", "py", "pz"])
def test_member_rejects_nan_slots(slot):
    # The builtin max drops a NaN that is not its first argument, so each
    # slot is corrupted on its own.
    u, phi = REST_FRAME, ZeroPotential()
    p = legendre(u, 1.0, phi, ORIGIN, FourVector(1.0, 0.5, 0.0, 0.0))
    xdot, pdot = characteristic_field(u, 1.0, phi, ORIGIN, p, 1.0)
    bad_p = dataclasses.replace(p, **{slot: math.nan})
    assert not is_dynamics_member(u, 1.0, phi, ORIGIN, bad_p, xdot, pdot)
    bad_pdot = dataclasses.replace(pdot, **{slot: math.nan})
    assert not is_dynamics_member(u, 1.0, phi, ORIGIN, p, xdot, bad_pdot)
    stalled = dataclasses.replace(xdot, dt=math.nan)
    assert not is_dynamics_member(u, 1.0, phi, ORIGIN, p, stalled, pdot)


_HOSTILE = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, 1e154, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("v_slot", ["dt", "dx", "dy", "dz"])
@pytest.mark.parametrize("p_slot", ["pt", "px", "py", "pz"])
def test_member_is_a_verdict_on_hostile_slots(v_slot, p_slot):
    """Each pair of grid values in one xdot slot and one p slot gives a bool.

    A finite 1e308 in a velocity slot used to raise OverflowError from the
    shell sum of the Legendre image, as did an image slot that overflowed.
    """
    u, phi = Frame(1.0, 0.25, -0.5, 0.125), HarmonicPotential(1.5, ORIGIN)
    x = Event(0.0, 0.5, -1.0, 0.25)
    p = legendre(u, 2.0, phi, x, FourVector(1.0, 0.5, 0.0, -0.25))
    xdot, pdot = characteristic_field(u, 2.0, phi, x, p, 1.0)
    assert is_dynamics_member(u, 2.0, phi, x, p, xdot, pdot)
    for a in _HOSTILE:
        for b in _HOSTILE:
            verdict = is_dynamics_member(u, 2.0, phi, x, dataclasses.replace(p, **{p_slot: b}),
                                         dataclasses.replace(xdot, **{v_slot: a}), pdot)
            assert verdict is (verdict is True), (a, b)
    huge = dataclasses.replace(xdot, dx=1e308)
    assert is_dynamics_member(u, 2.0, phi, x, p, huge, pdot) is False

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
    xdot, pdot = characteristic_field(REST_FRAME, 2.0, phi, x, p, 1.5)
    back_xdot, back_pdot = characteristic_field(REST_FRAME, 2.0, phi, x, p, -1.5)
    assert back_xdot == -xdot
    assert back_pdot == -pdot


def test_zero_rate_boundary_is_guarded():
    still = FourVector(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        legendre(REST_FRAME, 1.0, ZeroPotential(), ORIGIN,
                 FourVector(TIME_RATE_FLOOR, 1.0, 0.0, 0.0))
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


@pytest.mark.parametrize("v, message", [
    (FourVector(1.0, math.inf, 0.0, 0.0), "four-velocity dx is inf"),
    (FourVector(2.0, 0.0, math.nan, -math.inf), "four-velocity dy is nan"),
    (FourVector(math.inf, 0.0, 0.0, -math.inf), "four-velocity dz is -inf"),
], ids=["inf-dx", "nan-dy", "inf-dt-inf-dz"])
def test_a_non_finite_spatial_slot_is_named_not_the_time_rate(v, message):
    # A forward time slot with a non-finite spatial slot pairs to NaN with dt.
    for call in (homogeneous_lagrangian, lagrangian_differential, legendre):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(REST_FRAME, 2.0, ZeroPotential(), ORIGIN, v)
    zero = FourCovector(0.0, 0.0, 0.0, 0.0)
    assert not is_dynamics_member(REST_FRAME, 2.0, ZeroPotential(), ORIGIN, zero, v, zero)
    assert not is_universal_member(ZeroPotential(), ORIGIN, AffineMomentum(2.0, zero), v, zero)


def test_mass_is_validated():
    v = FourVector(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        legendre(REST_FRAME, 0.0, ZeroPotential(), ORIGIN, v)
    with pytest.raises(ValueError):
        homogeneous_lagrangian(REST_FRAME, -2.0, ZeroPotential(), ORIGIN, v)


MOVING = FourVector(1.0, 0.5, 0.0, 0.0)
MOVING_Q = SpatialCovector(0.5, 0.0, 0.0)
# On the unit-mass shell of the zero potential, moving with MOVING.
MOVING_P = FourCovector(-0.125, 0.5, 0.0, 0.0)


@pytest.mark.parametrize("mass", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda m: legendre(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING),
    lambda m: homogeneous_lagrangian(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING),
    lambda m: lagrangian(REST_FRAME, m, ZeroPotential(), ORIGIN, Frame(*MOVING.components())),
    lambda m: integrate(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_Q, 0.1, 3),
    lambda m: AffineMomentum(m, FourCovector(0.0, 0.5, 0.0, 0.0)),
    lambda m: LagrangianValue(m, MOVING, 0.0),
    lambda m: hamiltonian(m, ZeroPotential(), ORIGIN, MOVING_Q),
    lambda m: vertical_field(m, ZeroPotential(), ORIGIN, MOVING_Q),
    lambda m: poisson_field(m, ZeroPotential(), ORIGIN, MOVING_Q),
    lambda m: dynamics_field(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_Q),
    lambda m: generate_from_lagrangian(REST_FRAME, m, ZeroPotential(), ORIGIN,
                                       Frame(*MOVING.components())),
    lambda m: lagrangian_differential(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING),
    lambda m: critical_velocity(REST_FRAME, m, MOVING_P, 1.0),
    lambda m: mass_shell_residual(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_P),
    lambda m: is_dynamics_member(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_P,
                                 MOVING, FourCovector(0.0, 0.0, 0.0, 0.0)),
    lambda m: characteristic_field(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_P, 1.0),
    lambda m: reduced_family(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_P, 1.0),
    lambda m: generating_family(REST_FRAME, m, ZeroPotential(), ORIGIN, MOVING_P, MOVING),
], ids=["legendre", "homogeneous_lagrangian", "lagrangian", "integrate",
        "AffineMomentum", "LagrangianValue", "hamiltonian", "vertical_field",
        "poisson_field", "dynamics_field", "generate_from_lagrangian",
        "lagrangian_differential", "critical_velocity", "mass_shell_residual",
        "is_dynamics_member", "characteristic_field", "reduced_family",
        "generating_family"])
def test_mass_must_be_positive_and_finite(call, mass):
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        call(mass)


# -- the shell sum against exact rational arithmetic ------------------------

def _fraction_shell(u, mass, phi, px, py, pz, pt=0.0):
    """p²/2m + p·u + φ + pt·u.dt in Fraction, rounded once: the oracle."""
    kin = Fraction(px) ** 2 + Fraction(py) ** 2 + Fraction(pz) ** 2
    total = (kin / (2 * Fraction(mass))
             + Fraction(px) * Fraction(u.dx)
             + Fraction(py) * Fraction(u.dy)
             + Fraction(pz) * Fraction(u.dz)
             + Fraction(phi))
    return float(total + Fraction(pt) * Fraction(u.dt))


def _outcome(call):
    """The bits of the float ``call`` returns, or its error's type and message.

    A non-finite slot's error is re-raised naming the slot; the message
    compared is then that of the conversion it was raised from.
    """
    try:
        return call().hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc.__cause__ or exc)


def _against_fraction(call):
    """Outcome of ``call``, and of the same call with the Fraction shell sum."""
    with mock.patch.object(homogeneous, "_shell_energy", _fraction_shell):
        want = _outcome(call)
    return _outcome(call), want


def _constant(phi):
    """A potential reading ``phi`` at the returned event."""
    return UniformPotential(FourCovector(phi, 0.0, 0.0, 0.0)), Event(1.0, 0.0, 0.0, 0.0)


# Every finite float, signed zeros and subnormals included, mixed with the
# everyday range so that not every draw overflows.
slots = st.one_of(st.floats(-3, 3), st.floats(allow_nan=False, allow_infinity=False))
wide_masses = st.one_of(masses, st.floats(0.0, exclude_min=True, allow_infinity=False))
# Frame time components off 1 by up to the frame tolerance.
NEAR_ONE = (1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40)
tilted = st.floats(*NEAR_ONE)
wide_frames = st.builds(Frame, tilted, slots, slots, slots)
SUB = 5e-324
TINY = 2.2250738585072014e-308


@example(Frame(1.0, -0.0, 0.0, -0.0), 1.0, -0.0, FourCovector(-0.0, -0.0, 0.0, -0.0))
@example(Frame(NEAR_ONE[0], SUB, -TINY, 0.0), SUB, -SUB, FourCovector(SUB, -SUB, TINY, 3 * SUB))
@example(Frame(NEAR_ONE[1], 1e-300, -1e300, 0.5), 0.1, 1e300,
         FourCovector(-1e300, 1e-300, 1e-300, -1e-300))
@example(Frame(1.0, 0.3, 0.1, -0.7), 1 / 3, 1e-300, FourCovector(1e300, 1e150, 0.0, 0.0))
@example(Frame(NEAR_ONE[0], 0.1, 0.2, 0.3), 0.7, 0.9, FourCovector(0.1, 1e-5, 0.3, -0.3))
# Both ends of the shift alignment: 2^-1074 slots beside 1.7e308 ones.
@example(Frame(1.0, 1.7e308, 0.0, -SUB), 1.0, 1.0, FourCovector(-1.0, SUB, 0.0, -SUB))
@example(Frame(NEAR_ONE[1], 1.7e308, SUB, 0.0), SUB, -SUB,
         FourCovector(1.7e308, SUB, -SUB, 0.0))
@given(wide_frames, wide_masses, slots, st.builds(FourCovector, slots, slots, slots, slots))
def test_mass_shell_residual_matches_fraction_oracle(u, mass, phi, p):
    potential, x = _constant(phi)
    got, want = _against_fraction(lambda: mass_shell_residual(u, mass, potential, x, p))
    assert got == want


@example(Frame(1.0, -0.0, 0.0, -0.0), 1.0, -0.0, FourVector(1.0, -0.0, 0.0, -0.0))
@example(Frame(NEAR_ONE[1], SUB, 0.0, -TINY), SUB, TINY, FourVector(1.0, 2 * SUB, -SUB, 0.0))
@example(Frame(NEAR_ONE[0], 1e-300, 0.0, 0.0), 1e8, 0.5, FourVector(1.0, 1e300, 0.0, 0.0))
@example(Frame(1.0, 0.3, 0.1, -0.7), 0.1, 1e300, FourVector(0.7, 1e-300, 1e150, -2.0))
@given(wide_frames, wide_masses, slots,
       st.builds(FourVector, st.floats(1e-6, 1e6), slots, slots, slots))
def test_legendre_time_slot_matches_fraction_oracle(u, mass, phi, v):
    potential, x = _constant(phi)
    got, want = _against_fraction(lambda: legendre(u, mass, potential, x, v).pt)
    assert got == want


moderate = st.floats(-1e150, 1e150)


@example(Frame(NEAR_ONE[0], 0.3, -0.2, 0.1), 0.1, 2.5, 1.0, -1.0, 0.5)
@example(Frame(NEAR_ONE[1], 1e150, -1e-150, 0.0), 1 / 3, -1e300, 1e-150, 1e150, -0.0)
@given(st.builds(Frame, tilted, moderate, moderate, moderate), st.floats(1e-3, 1e3),
       st.floats(-1e300, 1e300), moderate, moderate, moderate)
def test_on_shell_residual_matches_fraction_oracle(u, mass, phi, px, py, pz):
    # pt = -shell makes the residual a near-total cancellation.
    p = FourCovector(-_fraction_shell(u, mass, phi, px, py, pz), px, py, pz)
    potential, x = _constant(phi)
    got, want = _against_fraction(lambda: mass_shell_residual(u, mass, potential, x, p))
    assert got == want


INF, NAN = math.inf, math.nan
U = Frame(1.0, 0.3, -0.4, 0.1)


def _residual(u, mass, phi, p):
    potential, x = _constant(phi)
    return lambda: mass_shell_residual(u, mass, potential, x, p)


@pytest.mark.parametrize("call", [
    _residual(U, 2.0, 0.5, FourCovector(0.0, INF, 0.0, 0.0)),
    _residual(U, 2.0, 0.5, FourCovector(0.0, 0.0, -NAN, 0.0)),
    _residual(Frame(1.0, 0.0, NAN, 0.0), 2.0, 0.5, FourCovector(0.0, 1.0, 1.0, 1.0)),
    _residual(U, 2.0, -INF, FourCovector(0.0, 1.0, 1.0, 1.0)),
    _residual(U, 2.0, 0.5, FourCovector(-INF, 1.0, 1.0, 1.0)),
    _residual(U, 2.0, 0.5, FourCovector(0.0, NAN, 0.0, INF)),
    _residual(U, 2.0, 0.5, FourCovector(NAN, 0.0, INF, 0.0)),
    _residual(Frame(1.0, INF, 0.0, 0.0), 2.0, NAN, FourCovector(INF, 0.0, 0.0, 0.0)),
    _residual(U, 2.0, NAN, FourCovector(INF, 0.0, 0.0, 0.0)),
    _residual(U, 1e-10, 0.0, FourCovector(0.0, 1e300, 0.0, 0.0)),
    _residual(Frame(1.0, 1e10, 0.0, 0.0), 1e300, 0.0, FourCovector(0.0, 1e300, 0.0, 0.0)),
    _residual(REST_FRAME, 1.0, 1.7e308, FourCovector(1.7e308, 0.0, 0.0, 0.0)),
    lambda: legendre(U, 1e8, ZeroPotential(), ORIGIN, FourVector(1.0, 1e300, 0.0, 0.0)).pt,
    lambda: legendre(Frame(1.0, NAN, 0.0, 0.0), 1.0, ZeroPotential(), ORIGIN, MOVING).pt,
    lambda: legendre(U, 1.0, _constant(INF)[0], _constant(INF)[1], MOVING).pt,
], ids=["inf-px", "nan-py", "nan-ux", "inf-phi", "inf-pt",
        "nan-px-inf-pz", "nan-pt-inf-py", "inf-ux-nan-phi-inf-pt", "nan-phi-inf-pt",
        "kinetic-overflow", "drift-overflow", "sum-overflow",
        "legendre-kinetic-overflow", "legendre-nan-frame", "legendre-inf-phi"])
def test_shell_errors_match_fraction_oracle(call):
    got, want = _against_fraction(call)
    assert isinstance(want, tuple)
    assert got == want


# Each slot the shell sum reads, made non-finite through the public calls.
# ``mass`` and ``u.dt`` never get that far: the mass guard and the frame's
# time check stop them first.
SHELL_P = FourCovector(0.5, 1.0, -1.0, 0.25)
_RESIDUAL_SLOTS = {
    "px": lambda bad: _residual(U, 2.0, 0.5, FourCovector(0.0, bad, 0.0, 0.0)),
    "py": lambda bad: _residual(U, 2.0, 0.5, FourCovector(0.0, 0.0, bad, 0.0)),
    "pz": lambda bad: _residual(U, 2.0, 0.5, FourCovector(0.0, 0.0, 0.0, bad)),
    "u.dx": lambda bad: _residual(Frame(1.0, bad, 0.0, 0.0), 2.0, 0.5, SHELL_P),
    "u.dy": lambda bad: _residual(Frame(1.0, 0.0, bad, 0.0), 2.0, 0.5, SHELL_P),
    "u.dz": lambda bad: _residual(Frame(1.0, 0.0, 0.0, bad), 2.0, 0.5, SHELL_P),
    "phi": lambda bad: _residual(U, 2.0, bad, SHELL_P),
    "pt": lambda bad: _residual(U, 2.0, 0.5, FourCovector(bad, 1.0, -1.0, 0.25)),
}
# ``legendre`` reads phi, and px, py, pz from the velocity relative to the
# frame: a non-finite frame slot reaches them negated.  Its pt is 0.
_LEGENDRE_SLOTS = {
    "px": lambda bad: lambda: legendre(Frame(1.0, bad, 0.0, 0.0), 2.0, ZeroPotential(),
                                       ORIGIN, MOVING),
    "py": lambda bad: lambda: legendre(Frame(1.0, 0.0, bad, 0.0), 2.0, ZeroPotential(),
                                       ORIGIN, MOVING),
    "pz": lambda bad: lambda: legendre(Frame(1.0, 0.0, 0.0, bad), 2.0, ZeroPotential(),
                                       ORIGIN, MOVING),
    "phi": lambda bad: lambda: legendre(U, 2.0, *_constant(bad), MOVING),
}
_SLOT_CASES = {**{slot: (make, 1.0) for slot, make in _RESIDUAL_SLOTS.items()},
               **{f"legendre-{slot}": (make, 1.0 if slot == "phi" else -1.0)
                  for slot, make in _LEGENDRE_SLOTS.items()}}


@pytest.mark.parametrize("bad, kind", [(NAN, ValueError), (INF, OverflowError),
                                       (-INF, OverflowError)], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(_SLOT_CASES))
def test_non_finite_shell_slot_names_itself(case, bad, kind):
    """The error names the slot and keeps the type its conversion raised."""
    make, sign = _SLOT_CASES[case]
    message = f"shell energy: {case.removeprefix('legendre-')} is {sign * bad!r}"
    with pytest.raises(kind) as raised:
        make(bad)()
    assert type(raised.value) is kind
    assert str(raised.value) == message
    assert str(raised.value.__cause__).startswith("cannot convert")


# -- the shell cache --------------------------------------------------------

def _body_slots(u, mass, phi, px, py, pz, pt=0.0):
    """``_shell_energy``'s arguments as the cached sum reads them."""
    return px, py, pz, mass, u.dx, u.dy, u.dz, phi, pt, u.dt


# Pairs of calls whose keys are equal but not identical: signed zeros, and
# an int mass beside its float.
@pytest.mark.parametrize("first, second", [
    ((Frame(1.0, 0.0, 0.5, -0.0), 2, 0.25, 0.0, -1.5, 0.0, -0.0),
     (Frame(1.0, -0.0, 0.5, 0.0), 2.0, 0.25, -0.0, -1.5, -0.0, 0.0)),
    ((REST_FRAME, 2.0, -0.0, 0.0, -0.0, 0.0), (Frame(1.0, -0.0, -0.0, -0.0), 2, 0.0, -0.0,
                                              0.0, -0.0, -0.0)),
    ((U, 2, 1 / 3, 0.1, -0.7, 1e-300, -2.5), (U, 2.0, 1 / 3, 0.1, -0.7, 1e-300, -2.5)),
], ids=["signed-zero-slots", "all-zero", "int-mass"])
def test_a_shell_cache_hit_is_the_uncached_sum(first, second):
    homogeneous._shell_sum.cache_clear()
    missed = homogeneous._shell_energy(*first)
    hit = homogeneous._shell_energy(*second)
    assert homogeneous._shell_sum.cache_info()[:2] == (1, 1)
    uncached = homogeneous._shell_sum.__wrapped__(*_body_slots(*second))
    assert hit.hex() == missed.hex() == uncached.hex() == _fraction_shell(*second).hex()


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_a_repeated_non_finite_shell_slot_raises_again(bad):
    homogeneous._shell_sum.cache_clear()
    call = _residual(U, 2.0, 0.5, FourCovector(0.0, 1.0, bad, 0.0))

    def raised():
        with pytest.raises((ValueError, OverflowError)) as info:
            call()
        return type(info.value), str(info.value), str(info.value.__cause__)

    first = raised()
    assert first[1] == f"shell energy: py is {bad!r}"
    assert raised() == first
    assert homogeneous._shell_sum.cache_info().currsize == 0


def test_a_default_run_keeps_the_shell_cache_bounded():
    run_checks()
    assert homogeneous._shell_sum.cache_info().currsize <= 128


def test_shell_arithmetic_builds_no_fraction(monkeypatch):
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    phi = HarmonicPotential(1.5, Event(0.0, 0.2, 0.0, 0.0))
    x = Event(0.5, 1.0, -1.0, 0.5)
    p = legendre(U, 2.0, phi, x, FourVector(1.5, 0.7, -0.2, 1.1))
    mass_shell_residual(U, 2.0, phi, x, p)
    run_checks(trials=10, names=["legendre-on-shell", "shell-transport",
                                 "legendre-frame-coherence"])
    assert built == []
    # The count is live: a Fraction built here is seen.
    Fraction(1, 3)
    assert len(built) == 1
