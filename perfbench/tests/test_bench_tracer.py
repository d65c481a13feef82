"""The tracer's span arithmetic and its install/restore of bindings."""

import sys

import galimech
import galimech.cli
from galimech import chart, potentials

import tracer
from tracer import Tracer, layer_metrics, self_times


def _snapshot():
    owners = [module for name, module in sys.modules.items()
              if name == "galimech" or name.startswith("galimech.")]
    owners += [getattr(chart, name) for name in chart.__all__
               if isinstance(getattr(chart, name), type)]
    classes = [potentials.Potential]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return {owner: dict(vars(owner)) for owner in owners + classes}


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[o].keys() == b[o].keys() and all(a[o][k] is b[o][k] for k in a[o]) for o in a)


def test_self_time_of_synthetic_span_tree():
    # (parent, name, start, end); children overlap and overrun their parent.
    spans = [
        (-1, "root", 0, 100),
        (0, "a", 10, 40),
        (0, "b", 30, 60),
        (0, "c", 90, 120),
        (1, "a.child", 15, 20),
        (-1, "other", 200, 210),
    ]
    # root: 100 - |[10,60] u [90,100]| = 40; a: 30 - 5; b and c have no children.
    assert self_times(spans) == [40, 25, 30, 30, 5, 10]


def test_layer_metrics_attribute_integrate_time_to_its_suite():
    spans = [
        (-1, "verify.suite.walk", 0, 1000),
        (0, "frame_dynamics.integrate", 100, 700),
        (1, "frame_dynamics.dynamics_field", 200, 300),
        (-1, "verify.suite.algebra", 1000, 1500),
    ]
    calls = {"frame_dynamics.integrate": 1, "frame_dynamics.dynamics_field": 1}
    metrics = layer_metrics(spans, calls, {}, steps=3, suites=["walk", "algebra", "gone"])
    assert metrics["verify.trajectory_s"] == 1000 / 1e9
    assert metrics["verify.suite.algebra.s"] == 500 / 1e9
    assert metrics["verify.suite.gone.s"] == 0
    assert metrics["frame_dynamics.integrate.self_s"] == 500 / 1e9
    assert metrics["frame_dynamics.step_us"] == 600 / 3 / 1e3


def test_install_rebinds_every_holder_and_restore_puts_all_back():
    before = _snapshot()
    integrate, legendre = galimech.frame_dynamics.integrate, galimech.homogeneous.legendre
    probe = Tracer("t")
    probe.install()
    try:
        assert not _same(before, _snapshot())
        for holder in (galimech, galimech.frame_dynamics, galimech.cli):
            assert holder.integrate is not integrate
        for holder in (galimech, galimech.affine_values, galimech.cli):
            assert holder.legendre is galimech.homogeneous.legendre is not legendre
    finally:
        probe.restore()
    assert _same(before, _snapshot())


def test_memory_probe_restores_bindings():
    before = _snapshot()
    probe = tracer.MemoryProbe()
    probe.install()
    probe.restore()
    assert _same(before, _snapshot())


def test_traced_run_counts_repeat_exactly(tmp_path, capsys):
    results = []
    for run in range(2):
        probe = Tracer(f"r{run}")
        probe.install()
        try:
            assert galimech.cli.main(["verify", "--trials", "2", "--seed", "7"]) == 0
        finally:
            probe.restore()
        probe.write(str(tmp_path / "spans.tsv"))
        spans = tracer.read_spans(str(tmp_path / "spans.tsv"))
        assert all(parent < i for i, (parent, *_) in enumerate(spans))
        results.append((dict(probe.calls), dict(probe.counts), probe.steps))
    capsys.readouterr()
    assert results[0] == results[1]
    calls, counts, steps = results[0]
    assert calls["cli.main"] == 1 and calls["verify.run_checks"] == 1
    assert counts["chart.objects_built"] > counts["chart.frame_checks"] > 0
    assert steps > 0


def test_generator_resumptions_are_spans_of_the_function():
    probe = Tracer("g")

    def numbers(n):
        yield from range(n)

    wrapped = probe._span("layer.numbers", numbers)
    assert list(wrapped(3)) == [0, 1, 2]
    assert probe.calls["layer.numbers"] == 1
    # The call itself, three items and the final exhausted resumption.
    assert len(probe.start) == 5
    assert all(end >= start for start, end in zip(probe.start, probe.end))
