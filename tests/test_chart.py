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
    SpatialCovector,
    SpatialVector,
    TIME_FORM,
    cometric,
    dual_lift,
    embed,
    metric,
    metric_inv,
    pair,
    pair_spatial,
    project,
    restrict,
)

from strategies import (
    frames,
    events,
    four_vectors,
    four_covectors,
    spatial_covectors,
)


def _close(a, b, tol=1e-12):
    return max(abs(x - y) for x, y in zip(a.components(), b.components())) <= tol


def test_frame_requires_unit_time_component():
    with pytest.raises(ValueError):
        Frame(0.9, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Frame(0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_frame_rejects_non_finite_time_component(dt):
    with pytest.raises(ValueError):
        Frame(dt, 0.0, 0.0, 0.0)


def test_frame_boost_round_trip():
    b = SpatialVector(0.7, -1.2, 0.4)
    assert Frame.from_boost(b).boost() == b
    assert REST_FRAME.boost() == SpatialVector(0.0, 0.0, 0.0)


def test_time_form_reads_elapsed_time():
    assert pair(TIME_FORM, FourVector(2.5, 7.0, -3.0, 1.0)) == 2.5
    assert pair(TIME_FORM, REST_FRAME) == 1.0


def test_pairing_oracle():
    p = FourCovector(1.0, -2.0, 0.5, 3.0)
    v = FourVector(2.0, 1.0, 4.0, -1.0)
    assert pair(p, v) == 2.0 - 2.0 + 2.0 - 3.0
    assert pair_spatial(SpatialCovector(1.0, 2.0, 3.0),
                        SpatialVector(-1.0, 0.5, 2.0)) == -1.0 + 1.0 + 6.0


def test_metric_round_trip():
    w = SpatialVector(1.5, -0.25, 2.0)
    assert metric_inv(metric(w)) == w
    q = SpatialCovector(0.5, 0.0, -3.0)
    assert metric(metric_inv(q)) == q


def test_cometric_annihilates_time_form():
    """g' has the time form in its kernel, so lifts never gain a drift."""
    p = FourCovector(5.0, 1.0, -2.0, 0.5)
    assert cometric(p).dt == 0.0
    assert cometric(TIME_FORM) == FourVector(0.0, 0.0, 0.0, 0.0)


@given(four_covectors, four_covectors)
def test_cometric_symmetric_positive(p, q):
    assert abs(pair(p, cometric(q)) - pair(q, cometric(p))) <= 1e-12
    assert pair(p, cometric(p)) >= 0.0


@given(frames, four_vectors)
def test_splitting_identity(u, v):
    """v decomposes into its relative velocity plus its time rate along u."""
    rebuilt = embed(project(u, v)) + u * pair(TIME_FORM, v)
    assert _close(rebuilt, v)


@given(frames)
def test_projection_kills_the_frame(u):
    assert project(u, u) == SpatialVector(0.0, 0.0, 0.0)


def test_project_oracle():
    u = Frame(1.0, 0.5, -1.0, 0.25)
    v = FourVector(2.0, 1.0, 1.0, 1.0)
    assert project(u, v) == SpatialVector(0.0, 3.0, 0.5)


def test_dual_lift_oracle():
    u = Frame(1.0, 0.5, -0.25, 2.0)
    q = SpatialCovector(1.0, 2.0, 3.0)
    assert dual_lift(u, q) == FourCovector(-6.0, 1.0, 2.0, 3.0)


@given(frames, spatial_covectors, four_vectors)
def test_dual_lift_is_the_adjoint_section(u, q, v):
    lift = dual_lift(u, q)
    assert abs(pair(lift, v) - pair_spatial(q, project(u, v))) <= 1e-12
    assert abs(pair(lift, u)) <= 1e-12
    assert restrict(lift) == q


@given(events, four_vectors, four_vectors)
def test_event_translation_is_an_action(e, v, w):
    assert _close((e + v) + w, e + (v + w))
    assert _close(e + (v - v), e)


@given(events, events)
def test_event_difference_translates_back(e1, e2):
    assert _close(e1 + (e2 - e1), e2)
    assert _close(e2 - (e2 - e1), e1)


def test_event_difference_oracle():
    d = Event(1.0, 2.0, 3.0, 4.0) - Event(0.5, 1.0, -1.0, 4.0)
    assert d == FourVector(0.5, 1.0, 4.0, 0.0)
    assert ORIGIN + d == Event(0.5, 1.0, 4.0, 0.0)


def test_vector_arithmetic():
    a = FourVector(1.0, 2.0, 3.0, 4.0)
    assert a + a == 2.0 * a
    assert a - a == FourVector(0.0, 0.0, 0.0, 0.0)
    assert -a == a * -1.0
    p = FourCovector(1.0, -1.0, 0.5, 0.0)
    assert p * 2.0 == p + p
    assert (-p).pt == -1.0


def test_frames_are_immutable():
    with pytest.raises(AttributeError):
        REST_FRAME.dx = 1.0


# Every float, signed zeros, infinities and NaN included.
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_LINEAR = (FourVector, FourCovector, SpatialVector, SpatialCovector)


def _hex(values):
    return [float.hex(x) for x in values]


@st.composite
def _linear_operands(draw):
    cls = draw(st.sampled_from(_LINEAR))
    n = len(dataclasses.fields(cls))
    a, b = (draw(st.lists(_any_float, min_size=n, max_size=n)) for _ in range(2))
    return cls, a, b, draw(_any_float)


@given(_linear_operands())
def test_linear_operations_match_the_slotwise_expressions(operands):
    """The generated methods against the float expression of each slot."""
    cls, xs, ys, s = operands
    a, b = cls(*xs), cls(*ys)
    names = [f.name for f in dataclasses.fields(cls)]
    assert a.components() == tuple(getattr(a, name) for name in names)
    expected = {
        "a + b": [x + y for x, y in zip(xs, ys)],
        "a - b": [x - y for x, y in zip(xs, ys)],
        "-a": [-x for x in xs],
        "s * a": [s * x for x in xs],
        "a * s": [s * x for x in xs],
    }
    results = {"a + b": a + b, "a - b": a - b, "-a": -a, "s * a": s * a, "a * s": a * s}
    for label, result in results.items():
        assert type(result) is cls, label
        assert _hex(result.components()) == _hex(expected[label]), label


@given(frames, frames, st.floats(-2, 2))
def test_frame_arithmetic_gives_plain_four_vectors(u, w, s):
    for result in (u + w, u - w, -u, s * u, u * s, u + FourVector(0.0, 1.0, 0.0, 0.0)):
        assert type(result) is FourVector


@pytest.mark.parametrize("cls", _LINEAR, ids=lambda cls: cls.__name__)
def test_linear_methods_are_named_as_written_in_the_class(cls):
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "components"):
        method = cls.__dict__[name]
        assert method.__qualname__ == f"{cls.__name__}.{name}"
        assert method.__module__ == "galimech.chart"
    assert cls.__dict__["__rmul__"] is cls.__dict__["__mul__"]
