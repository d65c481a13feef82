"""The frozen types keep dataclass semantics without ``dataclasses``.

``chart._frozen`` builds every frozen type: the chart's values, the
paper's frame-free objects, the potentials, ``RunConfig`` and the
``verify`` registry.  It compiles each ``__init__``, ``__eq__``,
``__hash__``, ``__repr__``, ``__reduce__`` and the ``__setattr__`` and
``__delattr__`` that refuse every name; ``dataclasses.fields``,
``replace`` and ``is_dataclass`` read the fields it describes, and only
they import ``dataclasses``.  Construction must still run
``__post_init__``, looked up on the class at each call, and so must a
copy or an unpickling.
"""

import copy
import dataclasses
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
from galimech.config import RunConfig
from galimech.potentials import HarmonicPotential, UniformPotential, ZeroPotential
from galimech.verify import Check, CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

U = Frame(1.0, 0.5, -0.25, 0.125)
X = Event(0.5, 1.0, -1.0, 2.0)
P = FourCovector(-0.5, 0.25, 0.75, -1.5)
V = FourVector(1.5, 0.5, -0.5, 1.0)
Q = SpatialCovector(0.25, -0.5, 1.0)

VALUES = (V, P, SpatialVector(1.0, 2.0, 3.0), Q, U, X,
          LagrangianValue(1.5, V, 0.25), AffineMomentum(1.5, P),
          HarmonicPotential(1.0), CheckResult("suite", 3, 0.5, 1.0))


def _trial(rng, i):
    return 0.0


# Types that ``test_compiled_init_keeps_the_dataclass_interface`` does not fit:
# no field, one field, or defaulted last fields.
OTHERS = (ZeroPotential(), UniformPotential(P),
          RunConfig(1.5, HarmonicPotential(2.0, X), U, X, Q, 0.125, 8, 1e-6),
          Check("suite", 1e-12, _trial))


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


@pytest.mark.parametrize("value", OTHERS, ids=lambda value: type(value).__name__)
def test_every_other_frozen_type_keeps_the_dataclass_interface(value):
    cls = type(value)
    fields = dataclasses.fields(cls)
    assert cls.__dict__["__init__"].__qualname__ == f"{cls.__name__}.__init__"
    assert cls(*_slots(value)) == value
    assert hash(cls(*_slots(value))) == hash(value)
    assert repr(value).startswith(f"{cls.__name__}(")
    assert dataclasses.replace(value) == value
    required = {f.name: getattr(value, f.name) for f in fields
                if f.default is dataclasses.MISSING}
    assert cls(**required) == dataclasses.replace(value, **{
        f.name: f.default for f in fields if f.name not in required})
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("value", VALUES + OTHERS, ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_built_anew(value, duplicate):
    """Through the constructor, so a potential's stored constants come along."""
    twin = duplicate(value)
    assert type(twin) is type(value) and twin == value
    if hasattr(value, "value_at"):
        assert twin.value_at(0.5, 1.0, -1.0, 2.0) == value.value_at(0.5, 1.0, -1.0, 2.0)
        assert twin.differential_at(0.5, 1.0, -1.0, 2.0) == value.differential_at(
            0.5, 1.0, -1.0, 2.0)


@pytest.mark.parametrize("value", VALUES + OTHERS, ids=lambda value: type(value).__name__)
def test_every_name_is_refused(value):
    """A name that is no field, ``_constants`` included, and deleting a field."""
    before = _slots(value)
    for name in ("not_a_field", "_constants"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
    for f in dataclasses.fields(value)[:1]:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{f.name}'$"):
            delattr(value, f.name)
    assert _slots(value) == before


@pytest.mark.parametrize("value", VALUES + OTHERS, ids=lambda value: type(value).__name__)
def test_equality_hash_and_reduce_read_the_field_tuple(value):
    fields = tuple(_slots(value))
    assert value.__eq__(fields) is NotImplemented
    assert value.__eq__(type(value)(*fields)) is True
    assert hash(value) == hash(fields)
    assert value.__reduce__() == (type(value), fields)


def test_equality_needs_the_same_class_and_equal_field_tuples():
    nan = math.nan
    assert FourVector(*U.components()) != U and U != FourVector(*U.components())
    assert SpatialVector(nan, 0.0, 0.0) == SpatialVector(nan, 0.0, 0.0)
    assert SpatialVector(nan, 0.0, 0.0) != SpatialVector(float("nan"), 0.0, 0.0)
    assert SpatialVector(1.0, 2.0, 3.0) != SpatialVector(1.0, 2.0, -3.0)


def test_repr_is_the_dataclass_repr():
    assert repr(U) == "Frame(dt=1.0, dx=0.5, dy=-0.25, dz=0.125)"
    assert repr(ZeroPotential()) == "ZeroPotential()"
    assert repr(HarmonicPotential(1.0)) == (
        "HarmonicPotential(stiffness=1.0, center=Event(t=0.0, x=0.0, y=0.0, z=0.0))")
    assert repr(CheckResult("suite", 3, 0.5, 1.0)) == (
        "CheckResult(name='suite', trials=3, max_error=0.5, tolerance=1.0)")
    assert repr(Check("suite", 1e-12, abs)) == (
        "Check(name='suite', tolerance=1e-12, trial=<built-in function abs>, max_trials=None)")


def test_a_plain_subclass_keeps_its_own_name_and_class():
    class Marked(SpatialVector):
        __slots__ = ()

    marked = Marked(1.0, 2.0, 3.0)
    assert Marked.__qualname__.endswith(".<locals>.Marked")
    assert repr(marked) == f"{Marked.__qualname__}(x=1.0, y=2.0, z=3.0)"
    assert marked.__reduce__() == (Marked, (1.0, 2.0, 3.0))
    assert marked != SpatialVector(1.0, 2.0, 3.0) and marked == Marked(1.0, 2.0, 3.0)


# Runs each command once in a fresh process, records which of ``_AVOIDED``
# it imported, then reads every ``_frozen`` class's fields: the names, whether
# ``vars(cls)`` stayed as it was, and ``dataclasses.is_dataclass``.
_AVOIDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")
_START = """
import json, sys
from galimech import cli
cfg, out = sys.argv[1:]
codes = [cli.main(["simulate", "--config", cfg, "--out", out + "/run.csv"]),
         cli.main(["boost", "--config", cfg, "--boost", "0.25,0,0", "--out", out + "/pair.txt"]),
         cli.main(["verify", "--trials", "2"])]
loaded = [name for name in %r if name in sys.modules]
import dataclasses
classes = {f"{cls.__module__}.{cls.__qualname__}": cls
           for name, module in list(sys.modules.items()) if name.startswith("galimech")
           for cls in vars(module).values()
           if isinstance(cls, type) and "__dataclass_fields__" in vars(cls)}
frozen = {}
for name, cls in classes.items():
    before = dict(vars(cls))
    names = [f.name for f in dataclasses.fields(cls)]
    after = vars(cls)
    same = before.keys() == after.keys() and all(before[k] is after[k] for k in before)
    frozen[name] = [names, same, dataclasses.is_dataclass(cls)]
print(json.dumps([codes, loaded, frozen]))
""" % (_AVOIDED,)


def test_commands_start_and_run_without_dataclasses(tmp_path):
    """Only ``dataclasses.fields``, ``replace`` or ``is_dataclass`` import it.

    Reading the fields leaves each class's ``vars`` as they were.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass = 1.0\npotential.kind = harmonic\npotential.kappa = 1.0\n"
                   "x0 = 0, 1, 0, 0\nv0 = 0.5, 0, 0\ndt = 0.125\nsteps = 10\n")
    done = subprocess.run([sys.executable, "-c", _START, str(cfg), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    codes, loaded, frozen = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0] and loaded == []
    assert frozen == {
        f"{type(value).__module__}.{type(value).__qualname__}":
            [[f.name for f in dataclasses.fields(value)], True, True]
        for value in VALUES + OTHERS}


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
    lambda: dataclasses.replace(HarmonicPotential(1.0), stiffness=0.0),
], ids=["frame-replace", "frame-keywords", "value-mass-nan", "value-replace",
        "momentum-mass-inf", "momentum-keywords", "harmonic-replace"])
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
