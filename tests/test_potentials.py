import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from galimech.chart import Event, FourCovector, ORIGIN, SpatialCovector, restrict
from galimech.potentials import (
    HarmonicPotential,
    Potential,
    UniformPotential,
    ZeroPotential,
)

from strategies import (
    scalars,
    events,
    potentials,
)


class Saddle(Potential):
    """A custom kind with a time slot, defined on chart coordinates."""

    def value_at(self, t, x, y, z):
        return t * (x * x - y * y) + z

    def differential_at(self, t, x, y, z):
        return x * x - y * y, 2.0 * t * x, -2.0 * t * y, 1.0


def test_zero_potential():
    phi = ZeroPotential()
    x = Event(1.0, 2.0, 3.0, 4.0)
    assert phi.value(x) == 0.0
    assert phi.differential(x) == FourCovector(0.0, 0.0, 0.0, 0.0)


def test_uniform_potential_oracle():
    phi = UniformPotential(FourCovector(0.25, -0.5, 0.125, 0.375))
    x = Event(2.0, 1.0, -1.0, 2.0)
    assert phi.value(x) == 0.5 - 0.5 - 0.125 + 0.75
    assert phi.differential(x) == phi.slope
    assert phi.value(ORIGIN) == 0.0


def test_harmonic_potential_oracle():
    phi = HarmonicPotential(2.0, Event(0.0, 1.0, 0.0, 0.0))
    x = Event(5.0, 3.0, 1.0, -1.0)
    assert phi.value(x) == 0.5 * 2.0 * (4.0 + 1.0 + 1.0)
    assert phi.differential(x) == FourCovector(0.0, 4.0, 2.0, -2.0)


def test_harmonic_center_defaults_to_origin():
    assert HarmonicPotential(1.0).center == ORIGIN


def test_harmonic_rejects_nonpositive_stiffness():
    with pytest.raises(ValueError):
        HarmonicPotential(0.0)
    with pytest.raises(ValueError):
        HarmonicPotential(-1.0)


@pytest.mark.parametrize("stiffness", [math.inf, math.nan])
def test_harmonic_rejects_non_finite_stiffness(stiffness):
    with pytest.raises(ValueError):
        HarmonicPotential(stiffness)


@given(events, st.floats(-5, 5))
def test_harmonic_is_static(x, dt):
    """Shifting an event in time changes neither value nor differential."""
    phi = HarmonicPotential(1.3, Event(0.0, 0.5, -0.5, 1.0))
    shifted = Event(x.t + dt, x.x, x.y, x.z)
    assert phi.value(shifted) == phi.value(x)
    assert phi.differential(shifted) == phi.differential(x)
    assert phi.differential(x).pt == 0.0


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_harmonic_non_finite_time_gives_nan_spatial_slots(t):
    """The drift term (t - c.t) * 0.0 is NaN there and reaches every spatial slot."""
    phi = HarmonicPotential(1.3, Event(0.0, 0.5, -0.5, 1.0))
    dt, *spatial = phi.differential_at(t, 1.0, 2.0, 3.0)
    assert dt == 0.0
    assert all(map(math.isnan, spatial))
    assert math.isnan(phi.value_at(t, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("t, sign", [(0.5, 1.0), (1.5, -1.0)], ids=["before", "after"])
def test_harmonic_drift_decides_the_signed_zero(t, sign):
    """On the center, -0.0 - c.x - (t - c.t) * 0.0 is +0.0 before c.t and -0.0 after."""
    phi = HarmonicPotential(2.0, Event(1.0, 0.0, 0.0, 0.0))
    _, *spatial = phi.differential_at(t, -0.0, -0.0, -0.0)
    assert [math.copysign(1.0, d) for d in spatial] == [sign] * 3


def _offset(phi, t, x, y, z):
    """The rest-frame offset as one helper: the reference for the spring's template."""
    c = phi.center
    drift = (t - c.t) * 0.0
    return x - c.x - drift, y - c.y - drift, z - c.z - drift


_signed = st.one_of(scalars, st.sampled_from((0.0, -0.0)))
# +-1.7e308 against -+1.7e308 makes t - c.t overflow: NaN, as at a non-finite t.
_times = st.one_of(_signed, st.sampled_from(
    (math.inf, -math.inf, math.nan, 1.7e308, -1.7e308)))
_reference_events = st.builds(Event, _times, _signed, _signed, _signed)


@settings(max_examples=300)
@given(st.floats(0.2, 5), _reference_events, _reference_events)
def test_harmonic_methods_match_the_offset_reference(stiffness, center, x):
    """Both methods, compiled from one offset template, give the reference's bits."""
    phi = HarmonicPotential(stiffness, center)
    sx, sy, sz = _offset(phi, *x.components())
    value = 0.5 * stiffness * (sx * sx + sy * sy + sz * sz)
    assert repr(phi.value_at(*x.components())) == repr(value)
    assert list(map(repr, phi.differential_at(*x.components()))) == list(map(
        repr, (0.0, stiffness * sx, stiffness * sy, stiffness * sz)))


# Any float in any slot: signed zeros, infinities and NaN, time slot included.
_any = st.one_of(_signed, st.sampled_from((math.inf, -math.inf, math.nan)), st.floats())
_any_events = st.builds(Event, _any, _any, _any, _any)


def _hex(values) -> tuple[str, ...]:
    return tuple("nan" if v != v else v.hex() for v in values)


def _uniform_reference(phi, t, x, y, z):
    """Value and differential of a uniform potential, read from its ``slope`` field."""
    k = phi.slope
    return k.pt * t + k.px * x + k.py * y + k.pz * z, (k.pt, k.px, k.py, k.pz)


def _harmonic_reference(phi, t, x, y, z):
    """Value and differential of a spring, read from its ``stiffness`` and ``center``."""
    k, (sx, sy, sz) = phi.stiffness, _offset(phi, t, x, y, z)
    return 0.5 * k * (sx * sx + sy * sy + sz * sz), (0.0, k * sx, k * sy, k * sz)


def _assert_matches_fields(phi, x):
    reference = {UniformPotential: _uniform_reference,
                 HarmonicPotential: _harmonic_reference}[type(phi)]
    value, differential = reference(phi, *x.components())
    assert _hex((phi.value_at(*x.components()),)) == _hex((value,))
    assert _hex(phi.differential_at(*x.components())) == _hex(differential)


_stiffnesses = st.one_of(st.floats(0.2, 5), st.floats(5e-324, 1.7e308))
_any_uniform = st.builds(UniformPotential, st.builds(FourCovector, _any, _any, _any, _any))
_any_harmonic = st.builds(HarmonicPotential, _stiffnesses, _any_events)


@settings(max_examples=300)
@given(st.one_of(_any_uniform, _any_harmonic), _any_events)
def test_builtin_methods_match_the_field_reference(phi, x):
    """Each kind's methods give the bits of its field expressions, slot for slot."""
    _assert_matches_fields(phi, x)


@given(_any_uniform, _any_uniform, _any_events)
def test_replaced_slope_reaches_the_next_call(uniform, other, x):
    """``dataclasses.replace`` builds anew, so the stored slope never goes stale."""
    _assert_matches_fields(uniform, x)
    _assert_matches_fields(dataclasses.replace(uniform, slope=other.slope), x)


def test_uniform_slope_stays_frozen():
    phi = UniformPotential(FourCovector(1.0, 2.0, 3.0, 4.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.slope = FourCovector(0.0, 0.0, 0.0, 0.0)


@given(events)
def test_uniform_time_slot_moves_value_not_force(x):
    still = UniformPotential(FourCovector(0.0, 1.0, -2.0, 0.5))
    drifting = UniformPotential(FourCovector(0.7, 1.0, -2.0, 0.5))
    assert restrict(drifting.differential(x)) == restrict(still.differential(x))
    assert drifting.value(x) - still.value(x) == pytest.approx(0.7 * x.t, abs=1e-12)


def test_gradient_matches_finite_differences():
    phi = HarmonicPotential(1.7, Event(0.0, 0.3, -0.8, 0.2))
    x = Event(0.5, 1.1, 0.4, -0.9)
    h = 1e-6
    d = phi.differential(x)
    for slot, direction in enumerate("txyz"):
        step = [0.0] * 4
        step[slot] = h
        plus = Event(x.t + step[0], x.x + step[1], x.y + step[2], x.z + step[3])
        minus = Event(x.t - step[0], x.x - step[1], x.y - step[2], x.z - step[3])
        fdiff = (phi.value(plus) - phi.value(minus)) / (2 * h)
        assert fdiff == pytest.approx(d.components()[slot], abs=1e-8), direction


@given(st.one_of(potentials, st.just(Saddle())),
       st.builds(Event, *[st.one_of(scalars, st.sampled_from((-0.0, math.nan)))] * 4))
def test_float_methods_match_object_methods(phi, x):
    """``value``/``differential`` and the force they restrict to carry the float bits."""
    d = phi.differential_at(*x.components())
    assert repr(phi.value(x)) == repr(phi.value_at(*x.components()))
    assert list(map(repr, phi.differential(x).components())) == list(map(repr, d))
    assert list(map(repr, restrict(phi.differential(x)).components())) \
        == list(map(repr, d[1:]))


@pytest.mark.parametrize("name", ["value", "differential"])
def test_subclass_redefining_an_object_method_is_rejected(name):
    """A redefined object method would split the force from the value."""
    def doubled(self, x):
        return getattr(HarmonicPotential, name)(self, x) * 2.0

    with pytest.raises(TypeError, match="value_at and differential_at"):
        type("DoubledSpring", (HarmonicPotential,), {name: doubled})


@pytest.mark.parametrize("name", ["value_at", "differential_at"])
def test_base_potential_defines_no_coordinates(name):
    with pytest.raises(NotImplementedError):
        getattr(Potential(), name)(0.0, 0.0, 0.0, 0.0)


def test_subclass_keywords_reach_a_cooperative_base():
    """``Potential.__init_subclass__`` hands its keywords on along the MRO."""
    class Labelled:
        def __init_subclass__(cls, label="", **kwargs):
            super().__init_subclass__(**kwargs)
            cls.label = label

    class LabelledSaddle(Saddle, Labelled, label="saddle"):
        pass

    assert LabelledSaddle.label == "saddle"
    assert LabelledSaddle().value_at(1.0, 2.0, 1.0, 0.5) == 3.5
