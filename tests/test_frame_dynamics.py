import math

import pytest
from hypothesis import given, settings, strategies as st

from galimech.chart import (
    Event,
    Frame,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
    SpatialVector,
    metric,
    metric_inv,
    pair_spatial,
    project,
)
from galimech.frame_dynamics import (
    IntegrationDiverged,
    dynamics_field,
    generate_from_lagrangian,
    hamiltonian,
    integrate,
    lagrangian,
    poisson_field,
    vertical_field,
)
from galimech.potentials import HarmonicPotential, ZeroPotential

from strategies import (
    masses,
    frames,
    events,
    spatial_covectors,
    potentials,
)


def test_lagrangian_oracle():
    w = Frame(1.0, 0.6, 0.0, 0.0)
    assert lagrangian(REST_FRAME, 1.0, ZeroPotential(), ORIGIN, w) \
        == pytest.approx(0.18, abs=1e-15)
    # Only the relative velocity enters.
    u = Frame(1.0, 0.5, 0.0, 0.0)
    assert lagrangian(u, 1.0, ZeroPotential(), ORIGIN, w) \
        == pytest.approx(0.005, abs=1e-15)


def test_hamiltonian_oracle():
    phi = HarmonicPotential(2.0, ORIGIN)
    x = Event(0.0, 1.0, 0.0, 0.0)
    p = SpatialCovector(1.0, 2.0, -2.0)
    assert hamiltonian(2.0, phi, x, p) == pytest.approx(9.0 / 4.0 + 1.0, abs=1e-15)


def test_mass_must_be_positive():
    with pytest.raises(ValueError):
        hamiltonian(0.0, ZeroPotential(), ORIGIN, SpatialCovector(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        lagrangian(REST_FRAME, -1.0, ZeroPotential(), ORIGIN, REST_FRAME)


@given(frames, masses, potentials, events, frames)
def test_legendre_pairing_relation(u, mass, phi, x, w):
    """L + H = <p, v_rel> when the momentum is the fiber derivative."""
    rel = project(u, w - u)
    p = metric(rel) * mass
    total = lagrangian(u, mass, phi, x, w) + hamiltonian(mass, phi, x, p)
    assert total == pytest.approx(pair_spatial(p, rel), abs=1e-12)


def test_dynamics_field_oracle():
    u = Frame(1.0, 0.25, 0.0, 0.0)
    phi = HarmonicPotential(1.0, ORIGIN)
    xdot, pdot = dynamics_field(u, 2.0, phi, Event(0.0, 1.0, 2.0, 0.0),
                                SpatialCovector(1.0, 0.0, -4.0))
    assert xdot == Frame(1.0, 0.75, 0.0, -2.0)
    assert pdot == SpatialCovector(-1.0, -2.0, 0.0)


@given(masses, potentials, events, spatial_covectors)
def test_poisson_matches_vertical(mass, phi, x, p):
    xdot_a, pdot_a = vertical_field(mass, phi, x, p)
    xdot_b, pdot_b = poisson_field(mass, phi, x, p)
    assert max(abs(a - b) for a, b in zip(xdot_a.components(),
                                          xdot_b.components())) <= 1e-9
    assert pdot_a == pdot_b


@given(frames, masses, potentials, events, frames)
@settings(max_examples=50)
def test_generated_tangent_solves_the_equations(u, mass, phi, x, w):
    p, (xdot, pdot) = generate_from_lagrangian(u, mass, phi, x, w)
    assert p == metric(project(u, w - u)) * mass
    want_xdot, want_pdot = dynamics_field(u, mass, phi, x, p)
    assert max(abs(a - b) for a, b in zip(xdot.components(),
                                          want_xdot.components())) <= 1e-12
    assert pdot == want_pdot


def test_free_particle_matches_uniform_motion():
    """Dyadic data: RK4 reduces to the exact straight line."""
    u = Frame(1.0, 0.25, 0.0, -0.5)
    mass = 2.0
    x0 = Event(0.0, 1.0, -0.5, 0.25)
    p0 = SpatialCovector(1.0, -2.0, 0.5)
    v = metric_inv(p0 * (1.0 / mass)) + u.boost()
    samples = list(integrate(u, mass, ZeroPotential(), x0, p0, 0.125, 16))
    assert len(samples) == 17
    for n, sample in enumerate(samples):
        t = 0.125 * n
        assert sample.t == t
        want = Event(x0.t + t, x0.x + v.x * t, x0.y + v.y * t, x0.z + v.z * t)
        gap = max(abs(a - b) for a, b in zip(sample[:4], want.components()))
        assert gap <= 1e-13
        assert SpatialCovector(*sample[4:7]) == p0
        assert sample.energy == samples[0].energy


def test_harmonic_rest_frame_matches_closed_form():
    samples = list(integrate(REST_FRAME, 1.0, HarmonicPotential(1.0, ORIGIN),
                             Event(0.0, 1.0, 0.0, 0.0),
                             SpatialCovector(0.0, 0.0, 0.0), 1e-3, 1000))
    for sample in samples:
        t = sample.t
        assert sample.x == pytest.approx(math.cos(t), abs=1e-10)
        assert sample.px == pytest.approx(-math.sin(t), abs=1e-10)
        assert sample.y == 0.0
    drift = max(abs(s.energy - samples[0].energy) for s in samples)
    assert drift <= 1e-12


def test_harmonic_boosted_frame_matches_closed_form():
    """The frame only adds a drift; the rest-chart orbit is unchanged."""
    u = Frame(1.0, 0.3, -0.2, 0.5)
    mass, kappa = 2.0, 2.0
    center = Event(0.0, 0.5, 0.0, -0.5)
    x0 = Event(0.0, 1.5, -1.0, 0.25)
    v_rel = SpatialVector(0.4, 0.1, -0.6)
    v_phys = v_rel + u.boost()
    p0 = metric(v_rel) * mass
    omega = math.sqrt(kappa / mass)
    samples = list(integrate(u, mass, HarmonicPotential(kappa, center),
                             x0, p0, 1e-3, 1000))
    for sample in samples[::100]:
        t = sample.t
        c, s = math.cos(omega * t), math.sin(omega * t)
        for slot, (x0_c, c_c, v_c) in enumerate(
                zip((x0.x, x0.y, x0.z), (center.x, center.y, center.z),
                    v_phys.components())):
            want = c_c + (x0_c - c_c) * c + (v_c / omega) * s
            assert sample[slot + 1] == pytest.approx(want, abs=1e-10)


def test_energy_column_is_current_hamiltonian():
    phi = HarmonicPotential(1.0, ORIGIN)
    samples = integrate(REST_FRAME, 1.0, phi, Event(0.0, 1.0, 0.0, 0.0),
                        SpatialCovector(0.5, 0.0, 0.0), 0.01, 5)
    for sample in samples:
        assert sample.energy == hamiltonian(1.0, phi, Event(*sample[:4]),
                                            SpatialCovector(*sample[4:7]))


def test_unstable_step_raises():
    with pytest.raises(IntegrationDiverged):
        list(integrate(REST_FRAME, 1.0, HarmonicPotential(1.0, ORIGIN),
                       Event(0.0, 1.0, 0.0, 0.0), SpatialCovector(0.0, 0.0, 0.0),
                       10.0, 500))


def test_integrate_validates_arguments():
    x0, p0 = ORIGIN, SpatialCovector(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(REST_FRAME, 1.0, ZeroPotential(), x0, p0, 0.0, 10)
    with pytest.raises(ValueError):
        integrate(REST_FRAME, 1.0, ZeroPotential(), x0, p0, -1e-3, 10)
    with pytest.raises(ValueError):
        integrate(REST_FRAME, 1.0, ZeroPotential(), x0, p0, 1e-3, 0)
    with pytest.raises(ValueError):
        integrate(REST_FRAME, 0.0, ZeroPotential(), x0, p0, 1e-3, 1)


@pytest.mark.parametrize("steps", [2.5, 2.0, "3"])
def test_integrate_rejects_non_integer_steps(steps):
    x0, p0 = ORIGIN, SpatialCovector(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="steps must be an integer"):
        integrate(REST_FRAME, 1.0, ZeroPotential(), x0, p0, 1e-3, steps)


@pytest.mark.parametrize("mass, dt, message", [
    (1.0, 0.0, "dt must be positive"),
    (1.0, -1e-3, "dt must be positive"),
    (1.0, math.nan, "dt must be positive"),
    (0.0, 1e-3, "mass must be positive and finite"),
    (-2.0, 1e-3, "mass must be positive and finite"),
    (math.inf, 1e-3, "mass must be positive and finite"),
    (math.nan, 1e-3, "mass must be positive and finite"),
    (0.0, 0.0, "mass must be positive and finite"),
])
def test_integrate_checks_dt_and_mass_when_called(mass, dt, message):
    """The trajectory is lazy, the argument checks are not: no ``next`` is needed."""
    x0, p0 = ORIGIN, SpatialCovector(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=message):
        integrate(REST_FRAME, mass, ZeroPotential(), x0, p0, dt, 10)


# Boost slots from desk scale to the edges of the finite floats.
_edge_slots = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]))
_edge_frames = st.builds(Frame, st.just(1.0), _edge_slots, _edge_slots, _edge_slots)


def _bits(*values):
    return [v.hex() for v in values]


@given(_edge_frames, masses, potentials, events, _edge_frames)
@settings(max_examples=300)
def test_relative_velocity_matches_the_difference_form(u, mass, phi, x, w):
    """``project(u, w)`` against the oracle ``project(u, w - u)``, bit for bit.

    The forms agree whenever both time slots are exactly 1 and the boosts
    are finite; an infinite boost, or a time slot off 1 within the frame
    tolerance, tells them apart.
    """
    rel = project(u, w - u)
    want = 0.5 * mass * pair_spatial(metric(rel), rel) - phi.value(x)
    assert _bits(lagrangian(u, mass, phi, x, w)) == _bits(want)
    p, _ = generate_from_lagrangian(u, mass, phi, x, w)
    assert _bits(*p.components()) == _bits(*(metric(rel) * mass).components())
