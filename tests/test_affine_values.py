import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from galimech.affine_values import (
    AffineMomentum,
    LagrangianValue,
    affine_eval,
    affine_lagrangian,
    affine_momentum,
    affine_pairing,
    fiber_difference,
    frame_free_legendre,
    frame_shift,
    is_universal_member,
    lagrangian_value,
    momentum_transport,
    morse_family,
    shell_function,
    unit_value,
    zero_value,
)
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    ORIGIN,
    REST_FRAME,
    cometric,
)
from galimech.homogeneous import (
    MEMBER_TOL,
    characteristic_field,
    generating_family,
    homogeneous_lagrangian,
    is_dynamics_member,
    legendre,
)
from galimech.potentials import HarmonicPotential, ZeroPotential

from strategies import (
    scalars,
    masses,
    frames,
    events,
    four_vectors,
    four_velocities,
    four_covectors,
    potentials,
)


def _covector_gap(a: FourCovector, b: FourCovector) -> float:
    d = a - b
    return max(abs(d.pt), abs(d.px), abs(d.py), abs(d.pz))


def test_frame_shift_oracle():
    u = Frame(1.0, 1.0, 0.0, 0.0)
    assert frame_shift(u, REST_FRAME) == FourCovector(-0.5, 1.0, 0.0, 0.0)


@given(frames, frames)
def test_frame_shift_is_antisymmetric(u1, u2):
    """Midpoint evaluation makes the exchange an exact negation."""
    assert frame_shift(u1, u2) == -frame_shift(u2, u1)


@given(frames, frames, frames)
def test_frame_shift_chains(u1, u2, u3):
    chained = frame_shift(u1, u2) + frame_shift(u2, u3)
    assert _covector_gap(chained, frame_shift(u1, u3)) <= 1e-12


def test_lagrangian_value_worked_example():
    v = FourVector(1.0, 0.6, 0.0, 0.0)
    u = Frame(1.0, 1.0, 0.0, 0.0)
    # The moving observer reports 0.08 for the motion the rest observer
    # scores at 0.18; both name the same class.
    w = lagrangian_value(1.0, u, v, 0.08)
    assert w.velocity == v
    assert w.value == pytest.approx(0.18, abs=1e-15)
    assert lagrangian_value(1.0, REST_FRAME, v, 0.18).value == 0.18


@given(masses, potentials, events, frames, frames, four_velocities)
def test_value_class_is_frame_independent(mass, phi, x, u1, u2, v):
    a = lagrangian_value(mass, u1, v, homogeneous_lagrangian(u1, mass, phi, x, v))
    b = lagrangian_value(mass, u2, v, homogeneous_lagrangian(u2, mass, phi, x, v))
    assert a.velocity == b.velocity
    assert a.value == pytest.approx(b.value, rel=1e-10, abs=1e-10)


@given(masses, four_vectors, st.floats(-2, 2))
def test_value_space_identities(mass, v, val):
    w = LagrangianValue(mass, v, val)
    assert w + zero_value(mass) == w
    assert 1.0 * w == w
    assert w + (-w) == zero_value(mass)


@given(masses, four_vectors, four_vectors, scalars, scalars,
       st.sampled_from([0.5, 2.0, -3.0]))
def test_value_space_is_linear(mass, v1, v2, val1, val2, lam):
    a = LagrangianValue(mass, v1, val1)
    b = LagrangianValue(mass, v2, val2)
    assert a + b == b + a
    left = (a + b) * lam
    right = a * lam + b * lam
    gap = max(abs(p - q) for p, q in zip(left.velocity.components(),
                                         right.velocity.components()))
    assert gap <= 1e-12
    assert left.value == pytest.approx(right.value, rel=1e-12, abs=1e-12)


@given(masses, four_vectors, scalars, scalars)
def test_unit_element_spans_the_fiber(mass, v, val, lam):
    a = LagrangianValue(mass, v, val)
    assert fiber_difference(a + lam * unit_value(mass), a) \
        == pytest.approx(lam, rel=1e-12, abs=1e-12)


def test_fiber_difference_guards():
    a = LagrangianValue(1.0, FourVector(1.0, 0.0, 0.0, 0.0), 0.5)
    b = LagrangianValue(1.0, FourVector(1.0, 0.1, 0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        fiber_difference(a, b)
    c = LagrangianValue(2.0, a.velocity, 0.5)
    with pytest.raises(ValueError):
        fiber_difference(a, c)
    with pytest.raises(ValueError):
        a + c


@pytest.mark.parametrize("slot", ["dt", "dx", "dy", "dz"])
def test_fiber_difference_rejects_a_nan_velocity(slot):
    a = LagrangianValue(1.0, FourVector(1.0, 0.0, 0.0, 0.0), 0.5)
    b = LagrangianValue(1.0, dataclasses.replace(a.velocity, **{slot: math.nan}), 0.25)
    with pytest.raises(ValueError):
        fiber_difference(a, b)


def test_value_requires_positive_mass():
    with pytest.raises(ValueError):
        LagrangianValue(0.0, FourVector(0.0, 0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        AffineMomentum(-1.0, FourCovector(0.0, 0.0, 0.0, 0.0))


def test_affine_momentum_oracle():
    u = Frame(1.0, 1.0, 0.0, 0.0)
    got = affine_momentum(2.0, u, FourCovector(0.0, 0.0, 0.0, 0.0))
    assert got.p == FourCovector(-1.0, 2.0, 0.0, 0.0)


@given(masses, frames, frames, four_covectors)
def test_momentum_transport_round_trips(mass, u1, u2, p):
    there = momentum_transport(mass, u1, u2, p)
    back = momentum_transport(mass, u2, u1, there)
    assert _covector_gap(back, p) <= 1e-12


@given(masses, potentials, events, frames, frames, four_velocities)
def test_momentum_class_is_frame_independent(mass, phi, x, u1, u2, v):
    a = affine_momentum(mass, u1, legendre(u1, mass, phi, x, v))
    b = affine_momentum(mass, u2, legendre(u2, mass, phi, x, v))
    assert _covector_gap(a.p, b.p) <= 1e-10


@given(masses, potentials, events, frames, four_velocities)
def test_shell_function_reads_minus_potential(mass, phi, x, u, v):
    momentum = frame_free_legendre(mass, phi, x, v, u)
    assert shell_function(momentum) == pytest.approx(-phi.value(x),
                                                     rel=1e-10, abs=1e-10)


@given(masses, four_covectors, four_vectors, scalars, scalars)
def test_affine_eval_is_affine_over_the_fiber(mass, p, v, val, lam):
    w = LagrangianValue(mass, v, val)
    momentum = AffineMomentum(mass, p)
    base = affine_eval(w, momentum)
    shifted = affine_eval(w + lam * unit_value(mass), momentum)
    assert shifted - base == pytest.approx(lam, rel=1e-12, abs=1e-12)


def test_affine_eval_requires_matching_mass():
    w = zero_value(1.0)
    momentum = AffineMomentum(2.0, FourCovector(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        affine_eval(w, momentum)


@given(masses, four_covectors, four_velocities)
def test_affine_pairing_closes_under_eval(mass, p, v):
    momentum = AffineMomentum(mass, p)
    assert affine_eval(affine_pairing(momentum, v), momentum) == 0.0


@given(masses, potentials, events, four_covectors, four_velocities)
def test_morse_family_matches_fixed_frame_description(mass, phi, x, p, v):
    momentum = AffineMomentum(mass, p)
    assert morse_family(phi, x, momentum, v) \
        == generating_family(REST_FRAME, mass, phi, x, p, v)


@given(masses, four_covectors, four_covectors)
def test_translate_adds_the_covector(mass, p, pi):
    moved = AffineMomentum(mass, p).translate(pi)
    assert moved.mass == mass
    assert [c.hex() for c in moved.p.components()] \
        == [c.hex() for c in (p + pi).components()]


def test_translate_is_not_a_subtraction():
    p, pi = FourCovector(-0.5, 0.25, 1.0, 2.0), FourCovector(0.125, -0.5, 0.0, 1.0)
    moved = AffineMomentum(1.5, p).translate(pi).p
    assert moved == FourCovector(-0.375, -0.25, 1.0, 3.0)
    assert moved != p - pi


def test_morse_family_is_stationary_on_the_dynamics():
    mass = 1.5
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 0.8, 0.0, 0.0)
    v = FourVector(1.0, 0.4, -0.2, 0.6)
    momentum = frame_free_legendre(mass, phi, x, v)
    h = 1e-6
    slopes = []
    for slot in range(4):
        d = [0.0, 0.0, 0.0, 0.0]
        d[slot] = h
        step = FourVector(*d)
        slopes.append((morse_family(phi, x, momentum, v + step)
                       - morse_family(phi, x, momentum, v - step)) / (2 * h))
    assert max(abs(s) for s in slopes) <= 1e-5


def test_morse_family_detects_off_shell_momenta():
    mass = 1.5
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 0.8, 0.0, 0.0)
    v = FourVector(1.0, 0.4, -0.2, 0.6)
    kicked = frame_free_legendre(mass, phi, x, v).translate(
        FourCovector(0.0, 0.3, 0.0, 0.0))
    h = 1e-6
    step = FourVector(0.0, h, 0.0, 0.0)
    slope = (morse_family(phi, x, kicked, v + step)
             - morse_family(phi, x, kicked, v - step)) / (2 * h)
    assert abs(slope) == pytest.approx(0.3, rel=1e-6)


@given(masses, potentials, events, frames, four_velocities, st.floats(0.1, 3))
def test_universal_member_accepts_the_characteristic_lift(mass, phi, x, u, v, r):
    momentum = frame_free_legendre(mass, phi, x, v, u)
    xdot = (cometric(momentum.p) * (1.0 / mass) + REST_FRAME) * r
    pdot = phi.differential(x) * (-r)
    assert is_universal_member(phi, x, momentum, xdot, pdot)
    assert not is_universal_member(phi, x, momentum, -xdot, -pdot)


@pytest.mark.parametrize("rate, member", [(1e-13, False), (1e-11, True), (1e-12, False)])
def test_universal_and_frame_membership_share_the_forward_time_guard(rate, member):
    """Both verdicts treat a rate at or below TIME_RATE_FLOOR as frozen motion."""
    u, mass = Frame(1.0, 0.5, -0.25, 0.0), 2.0
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    p = legendre(u, mass, phi, x, FourVector(1.0, 0.3, 0.0, 0.0))
    xdot, pdot = characteristic_field(u, mass, phi, x, p, rate)
    frame_ok = is_dynamics_member(u, mass, phi, x, p, xdot, pdot)
    uni_ok = is_universal_member(phi, x, affine_momentum(mass, u, p), xdot, pdot)
    assert (frame_ok, uni_ok) == (member, member)


def test_shell_tolerance_is_inclusive():
    """A residual of exactly MEMBER_TOL is on the shell for both shell checks."""
    # At rest, with no potential and no spatial momentum, the residual is pt.
    p = FourCovector(MEMBER_TOL, 0.0, 0.0, 0.0)
    xdot, pdot = characteristic_field(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, p, 1.0)
    assert is_universal_member(ZeroPotential(), ORIGIN, affine_momentum(1.0, REST_FRAME, p),
                               xdot, pdot)


def test_universal_member_rejects_corruptions():
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    v = FourVector(1.0, 0.3, 0.0, 0.0)
    momentum = frame_free_legendre(1.0, phi, x, v)
    xdot = (cometric(momentum.p) * (1.0 / 1.0) + REST_FRAME) * 1.0
    pdot = phi.differential(x) * (-1.0)
    assert is_universal_member(phi, x, momentum, xdot, pdot)
    # Energy-slot kick breaks the shell constraint by exactly the kick.
    off_shell = momentum.translate(FourCovector(0.5, 0.0, 0.0, 0.0))
    assert not is_universal_member(phi, x, off_shell, xdot, pdot)
    wrong_force = pdot + FourCovector(0.0, 0.1, 0.0, 0.0)
    assert not is_universal_member(phi, x, momentum, xdot, wrong_force)
    stalled = FourVector(0.0, xdot.dx, xdot.dy, xdot.dz)
    assert not is_universal_member(phi, x, momentum, stalled, pdot)


@pytest.mark.parametrize("slot", ["pt", "px", "py", "pz"])
def test_universal_member_rejects_nan_slots(slot):
    phi = HarmonicPotential(1.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    momentum = frame_free_legendre(1.0, phi, x, FourVector(1.0, 0.3, 0.0, 0.0))
    xdot = cometric(momentum.p) + REST_FRAME
    pdot = phi.differential(x) * (-1.0)
    assert is_universal_member(phi, x, momentum, xdot, pdot)
    nan_pdot = dataclasses.replace(pdot, **{slot: math.nan})
    assert not is_universal_member(phi, x, momentum, xdot, nan_pdot)
    nan_p = AffineMomentum(1.0, dataclasses.replace(momentum.p, **{slot: math.nan}))
    assert not is_universal_member(phi, x, nan_p, xdot, pdot)
    nan_xdot = dataclasses.replace(xdot, **{"d" + slot[1]: math.nan})
    assert not is_universal_member(phi, x, momentum, nan_xdot, pdot)
