"""Float paths of the algebra layers against the typed expressions they replace.

``frame_shift``, the momentum re-expressions, the homogeneous lagrangian,
the Legendre spatial slots, the characteristic position and momentum
rates, the shell function, the Morse family, both membership verdicts and
the slot comparisons read their inputs as floats and build only the
values they return.  Each keeps the typed expression it replaced here as
its oracle, compared bit for bit with every NaN alike (or by verdict),
over all floats: signed zeros, infinities, NaN, 1e±300 and subnormals
included; an error must match in type and message.  The verify runner's
reseed is checked against fresh generators.  The allocation budgets pin
how many value objects each map builds.
"""

import math
import random
from operator import sub
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from galimech import homogeneous, verify
from galimech.affine_values import (
    AffineMomentum,
    LagrangianValue,
    affine_lagrangian,
    affine_momentum,
    affine_pairing,
    fiber_difference,
    frame_shift,
    is_universal_member,
    momentum_transport,
    morse_family,
    shell_function,
)
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    REST_FRAME,
    SpatialCovector,
    SpatialVector,
    TIME_FORM,
    cometric,
    dual_lift,
    metric,
    pair,
    pair_spatial,
    project,
    restrict,
)
from galimech.homogeneous import (
    MEMBER_TOL,
    TIME_RATE_FLOOR,
    _momentum_rate,
    _position_rate,
    _within,
    characteristic_field,
    homogeneous_lagrangian,
    is_dynamics_member,
    lagrangian_differential,
    legendre,
)
from galimech.potentials import HarmonicPotential, UniformPotential

INF, NAN = math.inf, math.nan

# Every float, mixed with the everyday range so that not every draw is extreme.
floats = st.one_of(st.floats(-3, 3), st.floats())
frames = st.builds(Frame, st.just(1.0), floats, floats, floats)
# Frame time components off 1 by up to the frame tolerance.
tilted_frames = st.builds(Frame, st.floats(1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40),
                          floats, floats, floats)
four_vectors = st.builds(FourVector, floats, floats, floats, floats)
four_covectors = st.builds(FourCovector, floats, floats, floats, floats)
four_velocities = st.builds(FourVector, st.one_of(st.floats(1e-6, 1e6), floats),
                            floats, floats, floats)
masses = st.one_of(st.floats(0.5, 3), floats)

U = Frame(1.0, 0.3, -0.4, 0.1)
V = FourVector(1.5, 0.7, -0.2, 1.1)
P = FourCovector(-0.5, 0.2, 0.9, -1.3)
PHI = UniformPotential(FourCovector(0.25, -1.0, 0.5, 2.0))
X = Event(0.5, 1.0, -1.0, 0.5)
# A momentum class on the shell of a spring, with its forward phase rate:
# the budgets below run every comparison of the universal verdict.
SPRING = HarmonicPotential(1.5, X)
ON_SHELL = legendre(REST_FRAME, 2.0, SPRING, X, V)
MOMENTUM = AffineMomentum(2.0, ON_SHELL)
RATE = characteristic_field(REST_FRAME, 2.0, SPRING, X, ON_SHELL, 1.5)


def _bits(value):
    """The slots of a float, a tuple or a chart value as hex; every NaN reads alike."""
    if hasattr(value, "components"):
        value = value.components()
    slots = value if isinstance(value, tuple) else (value,)
    return tuple("nan" if c != c else c.hex() for c in slots)


def _verdict(call):
    """What ``call`` returns, or its error's type and message."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _outcome(call):
    """The bits of what ``call`` returns, or its error's type and message."""
    try:
        return _bits(call())
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# typed oracles

def _typed_frame_shift(u1, u2):
    mid = Frame(1.0, 0.5 * (u1.dx + u2.dx), 0.5 * (u1.dy + u2.dy),
                0.5 * (u1.dz + u2.dz))
    delta = SpatialVector(u1.dx - u2.dx, u1.dy - u2.dy, u1.dz - u2.dz)
    return dual_lift(mid, metric(delta))


def _typed_lagrangian(u, mass, potential, x, v):
    homogeneous._require_mass(mass)
    s = homogeneous._time_rate(v)
    w = project(u, v)
    return 0.5 * mass / s * pair_spatial(metric(w), w) - s * potential.value(x)


def _typed_legendre_spatial(u, mass, v):
    homogeneous._require_mass(mass)
    s = homogeneous._time_rate(v)
    w = project(u, v)
    a = mass / s
    return SpatialCovector(a * w.x, a * w.y, a * w.z)


def _typed_within(a, b, tol):
    return all(abs(c) <= tol for c in (a - b).components())


def _typed_shell_function(momentum):
    p = momentum.p
    return 0.5 * pair(p, cometric(p)) / momentum.mass + pair(p, REST_FRAME)


def _typed_morse(potential, x, momentum, v):
    return fiber_difference(affine_lagrangian(momentum.mass, potential, x, v),
                            affine_pairing(momentum, v))


def _typed_dynamics_member(u, mass, potential, x, p, xdot, pdot, tol=MEMBER_TOL):
    homogeneous._require_mass(mass)
    s = pair(TIME_FORM, xdot)
    if not s > TIME_RATE_FLOOR:
        return False
    try:
        image = homogeneous._legendre(u, mass, potential, x, xdot, s)
    except (ArithmeticError, ValueError):  # a verdict: an image off the floats is no member
        return False
    if not _typed_within(p, image, tol):
        return False
    return _typed_within(pdot, potential.differential(x) * (-s), tol)


def _typed_universal_member(potential, x, momentum, xdot, pdot):
    r = pair(TIME_FORM, xdot)
    if not r > TIME_RATE_FLOOR:
        return False
    if not abs(_typed_shell_function(momentum) + potential.value(x)) <= MEMBER_TOL:
        return False
    want_xdot = (cometric(momentum.p) * (1 / momentum.mass) + REST_FRAME) * r
    want_pdot = potential.differential(x) * (-r)
    return (_typed_within(xdot, want_xdot, MEMBER_TOL)
            and _typed_within(pdot, want_pdot, MEMBER_TOL))


@example(Frame(1.0, 0.0, -0.0, 0.0), Frame(1.0, -0.0, 0.0, -0.0))
@example(Frame(1.0, INF, -INF, 1.0), Frame(1.0, INF, INF, NAN))
@example(Frame(1.0, 1e300, -1e300, 1e-300), Frame(1.0, 1e300, 1e300, -1e-300))
@given(frames, frames)
def test_frame_shift_matches_the_typed_dual_lift(u1, u2):
    assert _outcome(lambda: frame_shift(u1, u2)) == _bits(_typed_frame_shift(u1, u2))


@example(1.0, Frame(1.0, -0.0, 0.0, -0.0), REST_FRAME, FourCovector(-0.0, 0.0, -0.0, 0.0))
@example(INF, Frame(1.0, 1.0, 0.0, 0.0), REST_FRAME, FourCovector(0.0, -INF, NAN, 1.0))
@example(1e300, Frame(1.0, 1e300, 1e-300, 0.0), U, FourCovector(1e-300, -1e300, 0.0, 2.0))
@example(NAN, U, REST_FRAME, P)
@given(floats, frames, frames, four_covectors)
def test_momentum_transport_matches_the_typed_sum(mass, u1, u2, p):
    want = _bits(p + mass * frame_shift(u1, u2))
    assert _outcome(lambda: momentum_transport(mass, u1, u2, p)) == want


@example(2.0, Frame(1.0, -0.0, 0.0, -0.0), FourCovector(-0.0, 0.0, -0.0, 0.0))
@example(2.0, Frame(1.0, INF, -INF, NAN), P)
@example(1e300, Frame(1.0, 1e300, -1e-300, 0.0), FourCovector(1e-300, 1e300, 0.0, -2.0))
@example(NAN, U, P)
@given(masses, frames, four_covectors)
def test_affine_momentum_matches_the_typed_sum(mass, u, p):
    def typed():
        return AffineMomentum(mass, p + mass * frame_shift(u, REST_FRAME)).p

    assert _outcome(lambda: affine_momentum(mass, u, p).p) == _outcome(typed)


@example(Frame(1.0, -0.0, 0.0, -0.0), 1.0, FourVector(1.0, -0.0, 0.0, -0.0), -0.0)
@example(U, 2.0, FourVector(1.0, INF, -INF, NAN), 0.5)
@example(Frame(1.0, 1e300, 0.0, 0.0), 1e-300, FourVector(1e300, 1e-300, 1e300, 0.0), 1e300)
@example(U, 2.0, FourVector(-0.0, 1.0, 0.0, 0.0), 1.0)
@example(U, NAN, V, 1.0)
@given(tilted_frames, masses, four_velocities, floats)
def test_homogeneous_lagrangian_matches_the_typed_pairing(u, mass, v, phi):
    potential = UniformPotential(FourCovector(phi, 0.0, 0.0, 0.0))
    x = Event(1.0, 0.0, 0.0, 0.0)
    assert (_outcome(lambda: homogeneous_lagrangian(u, mass, potential, x, v))
            == _outcome(lambda: _typed_lagrangian(u, mass, potential, x, v)))


@example(Frame(1.0, -0.0, 0.0, -0.0), 1.0, FourVector(1.0, -0.0, 0.0, -0.0))
@example(U, 2.0, FourVector(1.0, INF, -INF, NAN))
@example(Frame(1.0, 1e300, 0.0, 0.0), 1e-300, FourVector(1e300, 1e-300, 1e300, 0.0))
@example(U, INF, V)
@given(tilted_frames, masses, four_velocities)
def test_legendre_spatial_slots_match_the_typed_projection(u, mass, v):
    # The time slot has its own Fraction oracle; here it is held at zero
    # so that every spatial slot is compared, non-finite ones included.
    with mock.patch.object(homogeneous, "_shell_sum", lambda *slots: 0.0):
        got = _outcome(lambda: restrict(legendre(u, mass, PHI, X, v)))
    assert got == _outcome(lambda: _typed_legendre_spatial(u, mass, v))


@example(Frame(1.0, -0.0, 0.0, -0.0), 1.0, FourCovector(-0.0, -0.0, 0.0, -0.0), -0.0)
@example(U, 5e-324, P, 1.0)
@example(U, 2.0, FourCovector(0.0, INF, -INF, NAN), 0.5)
@example(Frame(1.0, 1e300, -1e300, 0.0), 1e-300, FourCovector(1e300, 1e300, 1e-300, 0.0), 1e300)
@example(U, 0.0, P, 1.0)
@example(U, -2.0, P, NAN)
@given(tilted_frames, floats, four_covectors, floats)
def test_characteristic_rate_matches_the_typed_expression(u, mass, p, rate):
    def typed():
        return (cometric(p) * (1 / mass) + u) * rate

    assert _outcome(lambda: _position_rate(u, mass, p, rate)) == _outcome(typed)


@example((FourVector(0.0, -0.0, 0.0, -0.0), FourVector(-0.0, 0.0, 0.0, 0.0)), 0.0)
@example((FourVector(INF, 0.0, 0.0, 0.0), FourVector(INF, 0.0, 0.0, 0.0)), 1e-9)
@example((FourCovector(1.0, NAN, 0.0, 0.0), FourCovector(1.0, 0.0, 0.0, 0.0)), INF)
@example((FourVector(1e300, 0.0, 0.0, 0.0), FourVector(-1e300, 0.0, 0.0, 0.0)), 1e300)
@example((FourVector(1e-300, 0.0, 0.0, 0.0), FourVector(0.0, 0.0, 0.0, 0.0)), 1e-300)
@example((V, V), NAN)
@given(st.one_of(st.tuples(four_vectors, four_vectors),
                 st.tuples(four_covectors, four_covectors)), floats)
def test_slot_comparison_matches_the_typed_difference(pair, tol):
    a, b = pair
    assert _within(a.components(), b.components(), tol) is _typed_within(a, b, tol)
    # The verify fold: the worst absolute slot gap, NaN as soon as one is.
    want = verify._worst(map(abs, map(sub, a.components(), b.components())))
    assert _bits(verify._gap(a, b)) == _bits(want)


@example(0, (4, 7, 11))
@example(2 ** 64 + 3, (0, 1))
@given(st.integers(0, 2 ** 80), st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_trial_reseed_matches_fresh_generators(seed, kinds):
    # Each trial draws by one of the generator's paths; a gauss draw
    # leaves its pair's second value cached, which no later trial may see.
    def trial(rng, i):
        kind = kinds[i % len(kinds)]
        if kind == 0:
            return rng.random()
        if kind == 1:
            return rng.gauss(0.0, 1.0) + rng.gauss(0.0, 1.0)
        if kind == 2:
            return float(rng.randrange(1 << 70))
        return rng.gauss(0.0, 1.0)

    got = []
    check = verify.Check("mix", 1.0, lambda rng, i: got.append(trial(rng, i)) or 0.0)
    with mock.patch.object(verify, "CHECKS", (check,)):
        verify.run_checks(trials=len(kinds) + 1, seed=seed)
    assert got == [trial(random.Random(seed + i), i) for i in range(len(kinds) + 1)]


# Potentials over every float: uniform slopes, and springs about any centre.
events = st.builds(Event, floats, floats, floats, floats)
potentials = st.one_of(
    st.builds(UniformPotential, four_covectors),
    st.builds(HarmonicPotential, st.floats(0.2, 2), events),
)
# Valid masses, subnormal and huge ones included.
valid_masses = st.one_of(st.floats(0.5, 3), st.floats(5e-324, 1.7e308))
SUB = 5e-324
FAR, FAR_FRAME = Event(1e300, 0.0, 0.0, -0.0), Frame(1.0, 1e300, -1e-300, 0.0)


@example(UniformPotential(FourCovector(-0.0, 0.0, -0.0, 0.0)), X, 0.5)
@example(HarmonicPotential(1.0, Event(INF, 0.0, -INF, NAN)), X, -2.0)
@example(UniformPotential(FourCovector(1e300, -1e300, 1e-300, 0.0)), FAR, 1e300)
@example(PHI, X, NAN)
@example(PHI, Event(0.0, 0.0, 0.0, 0.0), -0.0)
@given(potentials, events, floats)
def test_momentum_rate_matches_the_typed_product(potential, x, rate):
    want = potential.differential(x) * (-rate)
    assert _bits(_momentum_rate(potential, x, rate)) == _bits(want)


def _typed_lagrangian_differential(u, mass, potential, x, v):
    homogeneous._require_mass(mass)
    s = homogeneous._time_rate(v)
    base = potential.differential(x) * (-s)
    return base, homogeneous._legendre(u, mass, potential, x, v, s)


@example(Frame(1.0, -0.0, 0.0, -0.0), 1.0, FourVector(1.0, -0.0, 0.0, -0.0))
@example(U, 2.0, FourVector(1.0, INF, 0.0, 0.0))
@example(Frame(1.0, 1e300, 0.0, 0.0), 1e-300, FourVector(1e300, 1e-300, 1e300, 0.0))
@example(U, SUB, V)
@example(U, NAN, V)
@given(tilted_frames, masses, four_velocities)
def test_lagrangian_differential_matches_the_typed_product(u, mass, v):
    for half in (0, 1):
        got = _outcome(lambda: lagrangian_differential(u, mass, SPRING, X, v)[half])
        assert got == _outcome(lambda: _typed_lagrangian_differential(u, mass, SPRING, X,
                                                                      v)[half])


@example(SUB, FourCovector(-0.0, 0.0, -0.0, 0.0))
@example(1.0, FourCovector(INF, 0.0, 0.0, 0.0))
@example(2.0, FourCovector(0.0, -INF, NAN, 1.0))
@example(1.7e308, FourCovector(1e300, -1e300, 1e-300, 0.0))
@example(SUB, FourCovector(1e-300, 1e300, 0.0, -0.0))
@given(valid_masses, four_covectors)
def test_shell_function_matches_the_typed_pairings(mass, p):
    momentum = AffineMomentum(mass, p)
    assert _bits(shell_function(momentum)) == _bits(_typed_shell_function(momentum))


@example(PHI, X, 1.0, FourCovector(-0.0, 0.0, -0.0, 0.0), FourVector(1.0, -0.0, -0.0, -0.0))
@example(PHI, X, 2.0, P, FourVector(INF, 0.0, 0.0, 0.0))
@example(PHI, X, 2.0, P, FourVector(1.0, -INF, 0.0, 0.0))
@example(PHI, X, 2.0, P, FourVector(1.0, 0.0, NAN, 0.0))
@example(PHI, X, 2.0, P, FourVector(-0.0, 0.0, 0.0, 0.0))
@example(PHI, X, SUB, FourCovector(1e300, -1e300, 1e-300, 0.0),
         FourVector(1e-300, 1e300, 0.0, 0.0))
@example(UniformPotential(FourCovector(NAN, 0.0, 0.0, 0.0)), X, 1.7e308, P, V)
@given(potentials, events, valid_masses, four_covectors, four_velocities)
def test_morse_family_matches_the_typed_fiber_difference(potential, x, mass, p, v):
    momentum = AffineMomentum(mass, p)
    assert (_outcome(lambda: morse_family(potential, x, momentum, v))
            == _outcome(lambda: _typed_morse(potential, x, momentum, v)))


# Kicks added to one slot of an on-shell phase rate: none, below, near
# and far above the membership tolerance, and non-finite.
kicks = st.sampled_from((0.0, -0.0, 1e-13, 9e-10, 2e-9, 0.05, -1e300, INF, NAN))


def _member_case(u, mass, potential, x, v, slot, kick):
    """An on-shell (p, xdot, pdot) through ``v``, one slot of the twelve kicked.

    Where ``legendre`` raises, ``p`` is the fixed off-shell ``P`` instead.
    """
    p = _verdict(lambda: legendre(u, mass, potential, x, v))
    p = p if isinstance(p, FourCovector) else P
    s = pair(TIME_FORM, v)
    slots = [*p.components(), *v.components(),
             *(potential.differential(x) * (-s)).components()]
    slots[slot] += kick
    return (FourCovector(*slots[:4]), FourVector(*slots[4:8]),
            FourCovector(*slots[8:]))


@example(U, 2.0, PHI, X, V, 0, 0.0, 1e-9)
@example(U, 2.0, PHI, X, V, 11, 2e-9, 1e-9)
@example(U, 2.0, PHI, X, V, 4, -INF, 1e-9)
@example(U, SUB, PHI, X, V, 0, 0.0, 0)
@example(FAR_FRAME, 1.7e308, PHI, FAR, V, 1, NAN, 1e-9)
@example(U, 2.0, PHI, X, FourVector(-0.0, 0.0, 0.0, 0.0), 0, 0.0, 1e-9)
@example(U, NAN, PHI, X, V, 0, 0.0, 1e-9)
@given(tilted_frames, st.one_of(valid_masses, masses), potentials, events, four_velocities,
       st.integers(0, 11), kicks, st.one_of(st.just(MEMBER_TOL), floats))
def test_dynamics_member_matches_the_typed_verdict(u, mass, potential, x, v, slot, kick,
                                                   tol):
    p, xdot, pdot = _member_case(u, mass, potential, x, v, slot, kick)
    assert (_verdict(lambda: is_dynamics_member(u, mass, potential, x, p, xdot, pdot, tol))
            == _verdict(lambda: _typed_dynamics_member(u, mass, potential, x, p, xdot, pdot,
                                                       tol)))


def _typed_characteristic_field(u, mass, potential, x, p, rate):
    residual = homogeneous.mass_shell_residual(u, mass, potential, x, p)
    if abs(residual) > MEMBER_TOL:
        raise ValueError(f"momentum is off shell, residual {residual!r}")
    return (cometric(p) * (1 / mass) + u) * rate, potential.differential(x) * (-rate)


@example(U, 2.0, PHI, X, V, 0, 0.0, 1.5)
@example(U, 2.0, PHI, X, V, 0, 2e-9, -0.0)
@example(U, SUB, PHI, X, V, 3, 0.0, INF)
@example(U, 2.0, PHI, X, V, 6, NAN, NAN)
@example(FAR_FRAME, 1.7e308, PHI, FAR, V, 1, 0.0, 1e-300)
@given(tilted_frames, valid_masses, potentials, events, four_velocities, st.integers(0, 3),
       kicks, floats)
def test_characteristic_field_matches_the_typed_generator(u, mass, potential, x, v, slot,
                                                          kick, rate):
    p = _member_case(u, mass, potential, x, v, slot, kick)[0]
    for half in (0, 1):
        assert (_outcome(lambda: characteristic_field(u, mass, potential, x, p, rate)[half])
                == _outcome(lambda: _typed_characteristic_field(u, mass, potential, x, p,
                                                                rate)[half]))


@example(U, 2.0, PHI, X, V, 0, 0.0)
@example(U, 2.0, PHI, X, V, 5, 9e-10)
@example(U, 2.0, PHI, X, V, 8, 2e-9)
@example(U, 2.0, PHI, X, V, 4, INF)
@example(U, SUB, PHI, X, V, 0, 0.0)
@example(Frame(1.0, -0.0, 0.0, -0.0), 1.7e308, PHI, FAR, V, 2, NAN)
@example(U, 2.0, PHI, X, FourVector(-0.0, 0.0, 0.0, 0.0), 0, 0.0)
@given(tilted_frames, valid_masses, potentials, events, four_velocities, st.integers(0, 11),
       kicks)
def test_universal_member_matches_the_typed_verdict(u, mass, potential, x, v, slot, kick):
    p, xdot, pdot = _member_case(u, mass, potential, x, v, slot, kick)
    momentum = affine_momentum(mass, u, p)
    args = potential, x, momentum, xdot, pdot
    assert _verdict(lambda: is_universal_member(*args)) == _verdict(
        lambda: _typed_universal_member(*args))


# ---------------------------------------------------------------------------
# allocation budgets

VALUE_TYPES = (FourVector, FourCovector, SpatialVector, SpatialCovector, Frame, Event,
               LagrangianValue, AffineMomentum)


def _built(monkeypatch, call) -> list[str]:
    """Names of the chart and affine value types ``call`` constructs, in order."""
    built = []
    for cls in VALUE_TYPES:
        def counting(self, *args, _init=cls.__dict__["__init__"], **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    call()
    return built


def test_the_count_is_live(monkeypatch):
    assert _built(monkeypatch, lambda: project(U, V)) == ["SpatialVector"]


@pytest.mark.parametrize("call, budget", [
    (lambda: frame_shift(U, REST_FRAME), 1),
    (lambda: momentum_transport(2.0, U, REST_FRAME, P), 1),
    (lambda: affine_momentum(2.0, U, P), 2),
    (lambda: homogeneous_lagrangian(U, 2.0, HarmonicPotential(1.5, X), X, V), 0),
    (lambda: legendre(U, 2.0, HarmonicPotential(1.5, X), X, V), 1),
    (lambda: morse_family(SPRING, X, MOMENTUM, V), 0),
    (lambda: is_universal_member(SPRING, X, MOMENTUM, *RATE), 0),
], ids=["frame_shift", "momentum_transport", "affine_momentum",
        "homogeneous_lagrangian", "legendre", "morse_family", "is_universal_member"])
def test_algebra_builds_only_what_it_returns(monkeypatch, call, budget):
    assert len(_built(monkeypatch, call)) <= budget


def test_the_universal_budget_case_is_a_member():
    assert is_universal_member(SPRING, X, MOMENTUM, *RATE)


def test_run_checks_builds_one_generator(monkeypatch):
    made = []

    class Counted(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(verify.random, "Random", Counted)
    results = verify.run_checks(trials=5, seed=3)
    assert all(result.passed for result in results)
    assert len(made) == 1


# Measured at trials=16, seed 42: 189 uncached shell sums of 469 calls and
# 219 frames.  Without the shell cache every call is a sum; without the
# sampler memo each suite builds its own frames, 734 of them.
@pytest.mark.parametrize("work, budget", [("shell sums", 189), ("frames", 219)])
def test_run_checks_does_shared_work_once(monkeypatch, work, budget):
    homogeneous._shell_sum.cache_clear()
    built = _built(monkeypatch, lambda: verify.run_checks(trials=16, seed=42))
    done = {"shell sums": homogeneous._shell_sum.cache_info().misses,
            "frames": built.count("Frame")}
    assert done[work] <= budget
