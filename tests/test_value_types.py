"""The frozen value types keep dataclass semantics under a compiled ``__init__``.

``chart._frozen`` writes each ``__init__`` to set the slots directly;
the dataclass still defines the fields, equality, hashing, ``repr``, the
frozen ``__setattr__`` and ``dataclasses.replace``.  Construction must
still run ``__post_init__``, looked up on the class at each call.
"""

import dataclasses
import inspect
import math

import pytest

from galimech.affine_values import AffineMomentum, LagrangianValue
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    FourVector,
    ORIGIN,
    SpatialCovector,
    SpatialVector,
    _frozen,
)

U = Frame(1.0, 0.5, -0.25, 0.125)
X = Event(0.5, 1.0, -1.0, 2.0)
P = FourCovector(-0.5, 0.25, 0.75, -1.5)
V = FourVector(1.5, 0.5, -0.5, 1.0)
Q = SpatialCovector(0.25, -0.5, 1.0)

VALUES = (V, P, SpatialVector(1.0, 2.0, 3.0), Q, U, X,
          LagrangianValue(1.5, V, 0.25), AffineMomentum(1.5, P))


def _slots(value):
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_compiled_init_keeps_the_dataclass_interface(value):
    cls = type(value)
    names = [f.name for f in dataclasses.fields(cls)]
    init = cls.__dict__["__init__"]
    assert init.__qualname__ == f"{cls.__name__}.__init__"
    assert list(inspect.signature(cls).parameters) == names
    assert cls(*_slots(value)) == value
    assert cls(**dict(zip(names, _slots(value)))) == value
    assert hash(cls(*_slots(value))) == hash(value)
    assert repr(value).startswith(f"{cls.__name__}({names[0]}=")
    assert dataclasses.replace(value) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], _slots(value)[1])
    with pytest.raises(TypeError):
        cls(*_slots(value)[1:])


def test_post_init_is_looked_up_at_each_construction(monkeypatch):
    calls = []
    monkeypatch.setattr(Frame, "__post_init__", lambda self: calls.append(self.dx))
    Frame(2.0, 0.5, 0.0, 0.0)
    assert calls == [0.5]


@pytest.mark.parametrize("build", [
    lambda: dataclasses.replace(U, dt=math.nan),
    lambda: Frame(dt=2.0, dx=0.0, dy=0.0, dz=0.0),
    lambda: LagrangianValue(math.nan, V, 1.0),
    lambda: dataclasses.replace(LagrangianValue(1.5, V, 0.25), mass=-1.0),
    lambda: AffineMomentum(math.inf, P),
    lambda: AffineMomentum(mass=-0.0, p=P),
], ids=["frame-replace", "frame-keywords", "value-mass-nan", "value-replace",
        "momentum-mass-inf", "momentum-keywords"])
def test_post_init_guards_still_reject(build):
    """The cases beyond the constructor tests of ``test_chart``/``test_affine_values``."""
    with pytest.raises(ValueError):
        build()


def test_defaults_and_post_init_carry_over():
    seen = []

    @_frozen
    class Marked:
        weight: float
        at: Event = ORIGIN

        def __post_init__(self):
            seen.append(self.weight)

    assert inspect.signature(Marked).parameters["at"].default is ORIGIN
    assert Marked(2.0) == Marked(2.0, ORIGIN) == Marked(weight=2.0, at=ORIGIN)
    assert seen == [2.0, 2.0, 2.0]
