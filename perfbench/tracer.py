"""Outside-in tracing of galimech: wrappers around each module's public functions.

Nothing inside the package is edited.  ``Tracer.install`` replaces each
traced function by a wrapper in every ``galimech`` module that holds it
by name, wraps the potential methods and the verification suites, and
counts constructions of the chart value classes; ``restore`` puts every
original back.  Spans (name, start, end, parent, run id) are kept in
arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc
import types
from array import array
from collections import Counter, defaultdict

# Modules whose public functions get spans.  chart functions are left
# out: they are tiny and called everywhere, so a span each would swamp
# the timings; chart is measured by construction counts instead.
SPAN_MODULES = ("config", "cli", "frame_dynamics", "homogeneous", "affine_values", "verify")
POTENTIAL_METHODS = ("value", "differential", "spatial_gradient")
INTEGRATE = "frame_dynamics.integrate"


def _galimech_modules() -> list[types.ModuleType]:
    return [module for name, module in sorted(sys.modules.items())
            if name == "galimech" or name.startswith("galimech.")]


def _public_functions(module: types.ModuleType):
    for name in getattr(module, "__all__", ()):
        value = getattr(module, name, None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


def _resumed(gen, enter, leave):
    # A generator does its work when resumed, not when called, so each
    # resumption is attributed to the function that made it.
    while True:
        token = enter()
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            leave(token)
        yield item


def _around(fn, enter, leave, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        token = enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(token)
        if isinstance(result, types.GeneratorType):
            return _resumed(result, enter, leave)
        return result
    return wrapper


class _Bindings:
    """Replaced attributes and how to put them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement):
        """Point every galimech module attribute that is ``original`` at ``replacement``."""
        for module in _galimech_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans and counts for one traced run of the CLI."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("l")
        self._stack = [-1]
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.steps = 0
        self._bindings = _Bindings()

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        start, end, parent, names, stack = (self.start, self.end, self.parent,
                                            self.name, self._stack)
        calls, clock = self.calls, time.perf_counter_ns

        def enter():
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0)
            stack.append(i)
            start.append(clock())
            return i

        def leave(i):
            end[i] = clock()
            stack.pop()

        if name == INTEGRATE:
            signature = inspect.signature(fn)

            def on_call(args, kwargs):
                calls[name] += 1
                self.steps += signature.bind(*args, **kwargs).arguments["steps"]
        else:
            def on_call(args, kwargs):
                calls[name] += 1
        return _around(fn, enter, leave, on_call)

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ----------------------------------------------------

    def install(self):
        from galimech import chart, potentials, verify

        for layer in SPAN_MODULES:
            module = sys.modules[f"galimech.{layer}"]
            for name, fn in _public_functions(module):
                self._bindings.rebind(fn, self._span(f"{layer}.{name}", fn))

        classes = [potentials.Potential]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            for method in POTENTIAL_METHODS:
                if method in cls.__dict__:
                    self._bindings.replace(cls, method, self._span(
                        f"potentials.{cls.__name__}.{method}", cls.__dict__[method]))

        for name in chart.__all__:
            cls = getattr(chart, name)
            if isinstance(cls, type):
                self._bindings.replace(cls, "__init__", self._count(
                    "chart.objects_built", cls.__dict__["__init__"]))
        self._bindings.replace(chart.Frame, "__post_init__", self._count(
            "chart.frame_checks", chart.Frame.__dict__["__post_init__"]))

        # Suites are held by the registry, not by name: swap in a registry
        # whose callables are wrapped.
        self._bindings.replace(verify, "CHECKS", tuple(
            dataclasses.replace(check, **{
                f.name: self._span(f"verify.suite.{check.name}", getattr(check, f.name))
                for f in dataclasses.fields(check) if callable(getattr(check, f.name))})
            for check in verify.CHECKS))

    def restore(self):
        self._bindings.restore()

    # -- output ----------------------------------------------------------

    def write(self, path: str):
        """Spans as TSV: run id, index, parent index, name, start ns, end ns."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run_id\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (p, n, s, e) in enumerate(zip(self.parent, self.name,
                                                 self.start, self.end)):
                handle.write(f"{self.run_id}\t{i}\t{p}\t{names[n]}\t{s}\t{e}\n")


class MemoryProbe:
    """Peak memory allocated inside ``integrate``, by tracemalloc.

    Runs apart from the timed spans, and traces only while ``integrate``
    runs: tracemalloc slows every allocation.
    """

    def __init__(self):
        self.peak_bytes = 0
        self._bindings = _Bindings()

    def install(self):
        from galimech import frame_dynamics

        def leave(_):
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

        fn = frame_dynamics.integrate
        self._bindings.rebind(fn, _around(fn, tracemalloc.start, leave))

    def restore(self):
        self._bindings.restore()


# -- analysis ------------------------------------------------------------

def read_spans(path: str) -> list[tuple[int, str, int, int]]:
    """(parent, name, start_ns, end_ns) per span, in index order."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            _, _, parent, name, start, end = line.split("\t")
            spans.append((int(parent), name, int(start), int(end)))
    return spans


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (_, _, start, end) in enumerate(spans):
        covered, run_start, run_end = 0, None, None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        result.append(end - start - covered)
    return result


def layer_metrics(spans, calls: dict[str, int], counts: dict[str, int],
                  steps: int, suites: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in s or us)."""
    own = self_times(spans)
    total, self_ns = Counter(), Counter()
    for (_, name, start, end), s in zip(spans, own):
        total[name] += end - start
        self_ns[name] += s

    def layer_self(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    def mean_us(name):
        return total[name] / calls[name] / 1e3 if calls.get(name) else 0.0

    # A suite is a trajectory suite when an integrate span runs inside it.
    trajectory = set()
    for parent, name, _, _ in spans:
        if name != INTEGRATE:
            continue
        while parent >= 0:
            parent, up = spans[parent][0], spans[parent][1]
            if up.startswith("verify.suite."):
                trajectory.add(up)
                break

    metrics = {
        "chart.objects_built": counts.get("chart.objects_built", 0),
        "chart.frame_checks": counts.get("chart.frame_checks", 0),
        "potentials.calls": layer_calls("potentials"),
        "potentials.self_s": layer_self("potentials"),
        "frame_dynamics.integrate.calls": calls.get(INTEGRATE, 0),
        "frame_dynamics.integrate.self_s": self_ns[INTEGRATE] / 1e9,
        "frame_dynamics.dynamics_field.calls": calls.get("frame_dynamics.dynamics_field", 0),
        "frame_dynamics.dynamics_field.self_s":
            self_ns["frame_dynamics.dynamics_field"] / 1e9,
        "frame_dynamics.step_us": total[INTEGRATE] / steps / 1e3 if steps else 0.0,
        "homogeneous.legendre.calls": calls.get("homogeneous.legendre", 0),
        "homogeneous.legendre.us": mean_us("homogeneous.legendre"),
        "homogeneous.mass_shell_residual.calls":
            calls.get("homogeneous.mass_shell_residual", 0),
        "homogeneous.mass_shell_residual.us": mean_us("homogeneous.mass_shell_residual"),
        "homogeneous.self_s": layer_self("homogeneous"),
        "affine_values.calls": layer_calls("affine_values"),
        "affine_values.self_s": layer_self("affine_values"),
        "verify.trajectory_s": sum(total[name] for name in trajectory) / 1e9,
        "config.load_config.s": total["config.load_config"] / 1e9,
        "cli.self_s": self_ns["cli.main"] / 1e9,
    }
    for suite in suites:
        metrics[f"verify.suite.{suite}.s"] = total[f"verify.suite.{suite}"] / 1e9
    return metrics
