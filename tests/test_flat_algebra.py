"""Float paths of the algebra layers against the typed expressions they replace.

``frame_shift``, the momentum re-expressions, the homogeneous lagrangian,
the Legendre spatial slots, the characteristic position rate and the slot
comparison read their inputs as floats and build only the values they
return.  Each keeps the typed expression it replaced here as its oracle,
compared bit for bit with every NaN alike, over all floats: signed zeros,
infinities, NaN and 1e±300 included.  The allocation budgets pin how many
value objects each map builds.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from galimech import homogeneous, verify
from galimech.affine_values import (
    AffineMomentum,
    LagrangianValue,
    affine_momentum,
    frame_shift,
    momentum_transport,
)
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    REST_FRAME,
    SpatialCovector,
    SpatialVector,
    cometric,
    dual_lift,
    metric,
    pair_spatial,
    project,
    restrict,
)
from galimech.homogeneous import _characteristic, _within, homogeneous_lagrangian, legendre
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


def _bits(value):
    """The slots of a float or chart value as hex; every NaN reads alike."""
    slots = value.components() if hasattr(value, "components") else (value,)
    return tuple("nan" if c != c else c.hex() for c in slots)


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
    with mock.patch.object(homogeneous, "_shell_energy", lambda *args: 0.0):
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

    assert (_outcome(lambda: _characteristic(u, mass, PHI, X, p, rate)[0])
            == _outcome(typed))


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
    assert _within(a, b, tol) is _typed_within(a, b, tol)


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
    (lambda: momentum_transport(2.0, U, REST_FRAME, P), 2),
    (lambda: affine_momentum(2.0, U, P), 3),
    (lambda: homogeneous_lagrangian(U, 2.0, HarmonicPotential(1.5, X), X, V), 0),
    (lambda: legendre(U, 2.0, HarmonicPotential(1.5, X), X, V), 1),
], ids=["frame_shift", "momentum_transport", "affine_momentum",
        "homogeneous_lagrangian", "legendre"])
def test_algebra_builds_only_what_it_returns(monkeypatch, call, budget):
    assert len(_built(monkeypatch, call)) <= budget


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
