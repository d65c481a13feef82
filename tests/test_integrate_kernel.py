"""The float RK4 kernel inside ``integrate`` against the value-object RK4.

``_stepped``/``_rk4_step``/``_object_integrate`` are the integrator as it
reads on the typed values: every stage goes through ``dynamics_field``
and the chart operators.  ``integrate`` must reproduce it bit for bit,
for the built-in potentials and for a custom kind with a time slot.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from galimech import frame_dynamics as fd
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
    SpatialVector,
    metric,
)
from galimech.frame_dynamics import (
    IntegrationDiverged,
    Sample,
    State,
    dynamics_field,
    hamiltonian,
    integrate,
)
from galimech.potentials import (
    HarmonicPotential,
    Potential,
    UniformPotential,
    ZeroPotential,
)


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


# -- the value-object oracle ----------------------------------------------

def _stepped(state, xdot, pdot, h):
    return State(state.x + xdot * h, state.p + pdot * h)


def _rk4_step(u, mass, potential, state, h):
    k1 = dynamics_field(u, mass, potential, state)
    k2 = dynamics_field(u, mass, potential,
                        _stepped(state, k1.xdot, k1.pdot, 0.5 * h))
    k3 = dynamics_field(u, mass, potential,
                        _stepped(state, k2.xdot, k2.pdot, 0.5 * h))
    k4 = dynamics_field(u, mass, potential,
                        _stepped(state, k3.xdot, k3.pdot, h))
    xdot = (k1.xdot + 2.0 * k2.xdot + 2.0 * k3.xdot + k4.xdot) * (1.0 / 6.0)
    pdot = (k1.pdot + 2.0 * k2.pdot + 2.0 * k3.pdot + k4.pdot) * (1.0 / 6.0)
    return _stepped(state, xdot, pdot, h)


def _sample(state, energy):
    return Sample(*state.x.components(), *state.p.components(), energy)


def _object_integrate(u, mass, potential, initial, dt, steps):
    state = initial
    samples = [_sample(state, hamiltonian(mass, potential, state.x, state.p))]
    for step in range(1, steps + 1):
        state = _rk4_step(u, mass, potential, state, dt)
        if not all(map(math.isfinite, (*state.x.components(),
                                       *state.p.components()))):
            raise IntegrationDiverged(f"state left finite range at step {step}")
        energy = hamiltonian(mass, potential, state.x, state.p)
        if not math.isfinite(energy):
            raise IntegrationDiverged(f"energy left finite range at step {step}")
        samples.append(_sample(state, energy))
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
def test_kernel_matches_object_rk4_bit_for_bit(u, mass, phi, x0, p0, dt, steps):
    args = (u, mass, phi, State(x0, p0), dt, steps)
    assert _outcome(integrate, *args) == _outcome(_object_integrate, *args)


def test_state_overflow_names_the_oracle_step():
    """A huge frame drift carries the position out while the energy stays 0.5."""
    args = (Frame(1.0, 1e307, 0.0, 0.0), 1.0, ZeroPotential(),
            State(ORIGIN, SpatialCovector(1.0, 0.0, 0.0)), 1.0, 50)
    want = _outcome(_object_integrate, *args)
    assert want == ("diverged", "state left finite range at step 18")
    assert _outcome(integrate, *args) == want


def test_unstable_harmonic_step_names_the_oracle_step():
    """Position and momentum grow together; the squared momentum overflows first."""
    args = (REST_FRAME, 1.0, HarmonicPotential(1.0, ORIGIN),
            State(Event(0.0, 1.0, 0.0, 0.0), SpatialCovector(0.0, 0.0, 0.0)),
            10.0, 500)
    want = _outcome(_object_integrate, *args)
    assert want == ("diverged", "energy left finite range at step 60")
    assert _outcome(integrate, *args) == want


def test_energy_overflow_names_the_oracle_step():
    """The state stays finite while px * px overflows: the energy check fires."""
    args = (REST_FRAME, 1.0, UniformPotential(FourCovector(0.0, -1e153, 0.0, 0.0)),
            State(ORIGIN, SpatialCovector(0.0, 0.0, 0.0)), 1.0, 50)
    want = _outcome(_object_integrate, *args)
    assert want == ("diverged", "energy left finite range at step 14")
    assert _outcome(integrate, *args) == want


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
    samples = integrate(u, mass, UniformPotential(slope), State(x0, p0), dt, steps)
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
        got = (*sample.state.x.components(), *sample.state.p.components())
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
    for n, sample in enumerate(integrate(u, mass, Ramp(*k), State(x0, p0), dt, steps)):
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
                              State(x0, metric(v_rel) * mass), end / n, n))[-1]
        errors.append(max(abs(g - w) for g, w in
                          zip(last.state.x.components()[1:], want)))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(3.8 <= order <= 4.2 for order in orders), orders


# -- hot-loop guard -------------------------------------------------------

@pytest.mark.parametrize("phi", [
    ZeroPotential(),
    UniformPotential(FourCovector(0.3, -0.7, 0.2, 1.1)),
    HarmonicPotential(1.3, Event(0.0, 0.5, -0.5, 1.0)),
], ids=["zero", "uniform", "harmonic"])
def test_integrate_builds_no_per_stage_value_objects(monkeypatch, phi):
    u = Frame(1.0, 0.3, -0.2, 0.1)
    initial = State(Event(0.0, 1.0, -0.5, 0.25), SpatialCovector(0.2, 0.0, -0.4))
    calls = Counter()

    def count(owner, name):
        original = vars(owner)[name]

        def counted(*args, **kwargs):
            calls[f"{getattr(owner, '__name__', owner)}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Frame, "__post_init__")
    count(fd, "dynamics_field")
    for cls in (Potential, *Potential.__subclasses__()):
        for name in ("spatial_gradient", "differential"):
            if name in vars(cls):
                count(cls, name)

    samples = list(integrate(u, 1.5, phi, initial, 1e-3, 1000))
    assert len(samples) == 1001
    assert calls == Counter()
