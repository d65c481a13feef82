"""Property verification suites behind ``galimech verify``.

Each suite is written as one trial; trial i of every suite draws the
stream of ``random.Random(seed + i)``, which ``run_checks`` seeds once
and replays to each suite, so reports are reproducible, trials are
independent and any trial replays alone.  The replays of a stream share
a memo, so each sampler draws once per stream position.  Numeric suites
report their worst error against a per-suite tolerance; verdict suites,
gated at zero, report the sum of their disagreement counts.  A NaN error
always fails its suite.  Trajectory-backed suites cap their case count:
a thousand integrations would add wall time, not coverage.

Where ``_child._forks`` allows, ``run_checks`` and a worker forked under
the rules ``_child`` states each claim blocks of trials on demand until
none are left, so which process folds a block varies from run to run; a
profile of the parent (such as perfbench's ``--trace 1`` suite times)
covers only its varying share.  A worst error is a maximum and verdict
counts are integers, so neither depends on the order of trials.  If
either side fails, the run is repeated in process.
"""

from __future__ import annotations

import contextlib
import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import sub
from typing import Callable, Iterable, Iterator

from . import affine_values as av
from . import frame_dynamics as fd
from . import homogeneous as hom
from ._child import _forks, forked
from .chart import (
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
from .potentials import HarmonicPotential, Potential, UniformPotential, ZeroPotential
from .replay import Replay, drawn, stream

__all__ = [
    "Check",
    "CheckResult",
    "CHECKS",
    "run_checks",
    "render_report",
    "trajectory_discrepancy",
    "max_event_gap",
    "rest_energy_drift",
    "canonical_discrepancy",
    "canonical_energy_drift",
]


# ---------------------------------------------------------------------------
# samplers: each draw is ``a + (b - a) * rng.random()``, what
# ``rng.uniform(a, b)`` computes, less its Python frame; every ``b - a``
# here is exact, so it is written as its value.  Each but ``_momentum_kick``
# is ``drawn``: suites replaying a trial's stream share what they draw.

def _uniform(a: float, width: float) -> Callable[[random.Random], float]:
    """A sampler of one float from [a, a + width]."""
    return drawn(lambda rng: a + width * rng.random())


_scalar, _mass, _time_rate = _uniform(-2.0, 4.0), _uniform(0.5, 2.5), _uniform(0.1, 2.9)


@drawn
def _four_velocity(rng) -> FourVector:
    """Future-directed four-velocity with time rate in [0.1, 3]."""
    r = rng.random
    return FourVector(0.1 + 2.9 * r(), -2.0 + 4.0 * r(), -2.0 + 4.0 * r(),
                      -2.0 + 4.0 * r())


def _slots4(cls: type) -> Callable[[random.Random], object]:
    """A sampler of ``cls``, its four slots each drawn from [-2, 2]."""
    def sampler(rng):
        r = rng.random
        return cls(-2.0 + 4.0 * r(), -2.0 + 4.0 * r(), -2.0 + 4.0 * r(),
                   -2.0 + 4.0 * r())
    return drawn(sampler)


def _slots3(cls: Callable) -> Callable[[random.Random], object]:
    """A sampler of ``cls``, its three slots each drawn from [-2, 2]."""
    def sampler(rng):
        r = rng.random
        return cls(-2.0 + 4.0 * r(), -2.0 + 4.0 * r(), -2.0 + 4.0 * r())
    return drawn(sampler)


_event, _four_vector, _four_covector = map(_slots4, (Event, FourVector, FourCovector))
_spatial_vector, _spatial_covector, _frame = map(
    _slots3, (SpatialVector, SpatialCovector, partial(Frame, 1.0)))


@drawn
def _harmonic(rng) -> HarmonicPotential:
    return HarmonicPotential(0.2 + 1.8 * rng.random(), _event(rng))


@drawn
def _potential(rng) -> Potential:
    kind = rng.randrange(3)
    if kind == 0:
        return ZeroPotential()
    if kind == 1:
        return UniformPotential(_four_covector(rng))
    return _harmonic(rng)


# Central-difference steps along the chart axes.
_H = 1e-6
_STEPS = (FourVector(_H, 0.0, 0.0, 0.0), FourVector(0.0, _H, 0.0, 0.0),
          FourVector(0.0, 0.0, _H, 0.0), FourVector(0.0, 0.0, 0.0, _H))


def _central_differences(f: Callable, at) -> Iterator[float]:
    """Central-difference slopes of ``f`` along each chart axis at ``at``, lazily."""
    return ((f(at + step) - f(at - step)) / (2.0 * _H) for step in _STEPS)


def _worst(errors: Iterable[float]) -> float:
    """Largest error, never below zero, and NaN as soon as any error is NaN.

    The builtin ``max`` keeps its running value when compared with NaN, so
    a NaN anywhere but first would vanish from the report.
    """
    worst = 0.0
    for error in errors:
        if error != error:
            return error
        if error > worst:
            worst = error
    return worst


def _gap(a, b) -> float:
    # ``_worst`` by builtin folds: no gap is negative, so one NaN makes the sum NaN.
    gaps = list(map(abs, map(sub, a.components(), b.components())))
    total = sum(gaps)
    return total if total != total else max(gaps)


def _value_gap(a: av.LagrangianValue, b: av.LagrangianValue) -> float:
    return _worst((_gap(a.velocity, b.velocity), abs(a.value - b.value)))


def _momentum_kick(rng) -> FourCovector:
    """One-slot kick big enough that every membership tolerance rejects it."""
    slot = rng.randrange(4)
    mag = (0.05 + 0.95 * rng.random()) * rng.choice((-1.0, 1.0))
    parts = [0.0, 0.0, 0.0, 0.0]
    parts[slot] = mag
    return FourCovector(*parts)


# ---------------------------------------------------------------------------
# trajectory helpers (shared with the CLI and the acceptance gate)

def _trajectory(u: Frame, mass: float, potential: Potential, x0: Event,
                v_phys: Frame, dt: float, steps: int) -> Iterator[fd.Sample]:
    """``u``'s trajectory of a particle released at ``x0`` with four-velocity ``v_phys``."""
    p0, _ = fd.generate_from_lagrangian(u, mass, potential, x0, v_phys)
    return fd.integrate(u, mass, potential, x0, p0, dt, steps)


def trajectory_discrepancy(u1: Frame, u2: Frame, mass: float,
                           potential: Potential, x0: Event, v_phys: Frame,
                           dt: float, steps: int) -> float:
    """Worst event gap between the same motion integrated in two frames."""
    return max_event_gap(_trajectory(u1, mass, potential, x0, v_phys, dt, steps),
                         _trajectory(u2, mass, potential, x0, v_phys, dt, steps))


def _event_gap(a: fd.Sample, b: fd.Sample) -> float:
    """Worst gap between two samples' events, the slots ``t, x, y, z``."""
    return _worst((abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]),
                   abs(a[3] - b[3])))


def max_event_gap(first: Iterable[fd.Sample], second: Iterable[fd.Sample]) -> float:
    """Worst event gap between two trajectories, compared step by step.

    Both are consumed together, one sample of each at a time.
    """
    return _worst(map(_event_gap, first, second))


def rest_energy_drift(u: Frame, mass: float, potential: Potential,
                      samples: Iterable[fd.Sample]) -> float:
    """Relative drift of the rest-chart energy rebuilt from each sample.

    The frame's own hamiltonian is conserved only when the potential is
    static in that frame; this reconstruction is the frame-independent
    quantity every run must conserve.
    """
    def rebuilt(sample: fd.Sample) -> float:
        x, p = Event(*sample[:4]), SpatialCovector(*sample[4:7])
        w = metric_inv(p * (1.0 / mass)) + u.boost()
        return 0.5 * mass * pair_spatial(metric(w), w) + potential.value(x)

    return _relative_drift(map(rebuilt, samples))


def _relative_drift(energies: Iterator[float]) -> float:
    """Worst departure of ``energies`` from the first, over max(1, |first|)."""
    first = next(energies, None)
    if first is None:
        raise ValueError("energy drift: no samples")
    scale = max(1.0, abs(first))
    return _worst(abs(e - first) for e in chain((first,), energies)) / scale


# The canonical case: a unit-mass oscillator released at unit amplitude,
# at rest in the rest chart, run from the rest chart and from a frame
# boosted by 0.7 along x.
_CANONICAL = (1.0, HarmonicPotential(1.0, ORIGIN), Event(0.0, 1.0, 0.0, 0.0), REST_FRAME)
_CANONICAL_FRAMES = (REST_FRAME, Frame(1.0, 0.7, 0.0, 0.0))


def canonical_discrepancy() -> float:
    return trajectory_discrepancy(*_CANONICAL_FRAMES, *_CANONICAL, 1e-3, 1000)


def canonical_energy_drift() -> float:
    mass, potential = _CANONICAL[:2]
    return _worst(rest_energy_drift(u, mass, potential,
                                    _trajectory(u, *_CANONICAL, 1e-3, 1000))
                  for u in _CANONICAL_FRAMES)


# ---------------------------------------------------------------------------
# chart suites

def _check_splitting_identity(rng: random.Random, i: int) -> float:
    u, v = _frame(rng), _four_vector(rng)
    rebuilt = embed(project(u, v)) + u * pair(TIME_FORM, v)
    return _gap(rebuilt, v)


def _check_dual_lift(rng: random.Random, i: int) -> float:
    u, q, v = _frame(rng), _spatial_covector(rng), _four_vector(rng)
    lift = dual_lift(u, q)
    return _worst((abs(pair(lift, v) - pair_spatial(q, project(u, v))),
                   _gap(restrict(lift), q),
                   abs(pair(lift, u))))


def _check_cometric(rng: random.Random, i: int) -> float:
    p, q = _four_covector(rng), _four_covector(rng)
    # Semi-definiteness: the fold never reports below zero, so only a
    # negative norm counts.
    return _worst((abs(pair(p, cometric(q)) - pair(q, cometric(p))),
                   -pair(p, cometric(p))))


def _check_event_axioms(rng: random.Random, i: int) -> float:
    e1, e2 = _event(rng), _event(rng)
    v, w = _four_vector(rng), _four_vector(rng)
    return _worst((_gap((e1 + v) + w, e1 + (v + w)),
                   _gap(e1 + (e2 - e1), e2)))


# ---------------------------------------------------------------------------
# potential suites

def _check_gradient(rng: random.Random, i: int) -> float:
    phi, x = _potential(rng), _event(rng)
    d = phi.differential(x).components()
    return _worst(abs(slope - exact)
                  for slope, exact in zip(_central_differences(phi.value, x), d))


def _check_harmonic_static(rng: random.Random, i: int) -> float:
    phi, x = _harmonic(rng), _event(rng)
    return abs(pair(phi.differential(x), REST_FRAME))


# ---------------------------------------------------------------------------
# frame dynamics suites

def _check_poisson_vertical(rng: random.Random, i: int) -> float:
    mass, phi = _mass(rng), _potential(rng)
    x, p = _event(rng), _spatial_covector(rng)
    xdot_a, pdot_a = fd.vertical_field(mass, phi, x, p)
    xdot_b, pdot_b = fd.poisson_field(mass, phi, x, p)
    return _worst((_gap(xdot_a, xdot_b), _gap(pdot_a, pdot_b)))


def _check_lagrangian_generates(rng: random.Random, i: int) -> float:
    u, w = _frame(rng), _frame(rng)
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    p, (xdot, pdot) = fd.generate_from_lagrangian(u, mass, phi, x, w)
    want_xdot, want_pdot = fd.dynamics_field(u, mass, phi, x, p)
    return _worst((_gap(xdot, want_xdot), _gap(pdot, want_pdot)))


def _check_covariance(rng: random.Random, i: int) -> float:
    mass, phi, x0 = _mass(rng), _potential(rng), _event(rng)
    v_phys = _frame(rng)
    u1, u2 = _frame(rng), _frame(rng)
    gap = trajectory_discrepancy(u1, u2, mass, phi, x0, v_phys, 1e-3, 1000)
    # The canonical boost rides along with the first trial.
    return _worst((canonical_discrepancy(), gap)) if i == 0 else gap


def _check_energy_conservation(rng: random.Random, i: int) -> float:
    kind = i % 3
    if kind == 0:
        phi: Potential = ZeroPotential()
        u = _frame(rng)
    elif kind == 1:
        # A uniform slope annihilating the frame is static there
        # even with a nonzero time slot.
        b = _spatial_vector(rng)
        ks = _spatial_covector(rng)
        phi = UniformPotential(FourCovector(-pair_spatial(ks, b),
                                            ks.x, ks.y, ks.z))
        u = Frame.from_boost(b)
    else:
        phi = _harmonic(rng)
        u = REST_FRAME
    mass, x0, p0 = _mass(rng), _event(rng), _spatial_covector(rng)
    samples = fd.integrate(u, mass, phi, x0, p0, 1e-3, 1000)
    return _relative_drift(s.energy for s in samples)


def _check_free_particle(rng: random.Random, i: int) -> float:
    dt = 1e-3
    u, mass = _frame(rng), _mass(rng)
    x0, p0 = _event(rng), _spatial_covector(rng)
    v = embed(metric_inv(p0 * (1.0 / mass))) + u
    samples = fd.integrate(u, mass, ZeroPotential(), x0, p0, dt, 1000)
    return _worst(_gap(Event(*sample[:4]), x0 + v * (n * dt))
                  for n, sample in enumerate(samples))


# ---------------------------------------------------------------------------
# homogeneous suites

def _check_homogeneity(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    base = hom.homogeneous_lagrangian(u, mass, phi, x, v)
    return _worst(abs(hom.homogeneous_lagrangian(u, mass, phi, x, v * lam) - lam * base)
                  / max(1.0, abs(lam * base))
                  for lam in (0.5, 2.0, 7.0))


def _check_euler_identity(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    _, fiber_d = hom.lagrangian_differential(u, mass, phi, x, v)
    return abs(pair(fiber_d, v) - hom.homogeneous_lagrangian(u, mass, phi, x, v))


def _check_legendre_shell(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    p = hom.legendre(u, mass, phi, x, _four_velocity(rng))
    return abs(hom.mass_shell_residual(u, mass, phi, x, p))


def _check_legendre_degree_zero(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    p = hom.legendre(u, mass, phi, x, v)
    return _worst(_gap(hom.legendre(u, mass, phi, x, v * lam), p)
                  for lam in (0.5, 2.0, 7.0))


def _check_restriction(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    w = _frame(rng)
    return abs(hom.homogeneous_lagrangian(u, mass, phi, x, w)
               - fd.lagrangian(u, mass, phi, x, w))


def _check_legendre_inversion(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    p = hom.legendre(u, mass, phi, x, v)
    return _gap(hom.critical_velocity(u, mass, p, pair(TIME_FORM, v)), v)


def _check_characteristic_orientation(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    p = hom.legendre(u, mass, phi, x, _four_velocity(rng))
    rate = _time_rate(rng)
    forward = hom.characteristic_field(u, mass, phi, x, p, rate)
    backward = hom.characteristic_field(u, mass, phi, x, p, -rate)
    return float((not hom.is_dynamics_member(u, mass, phi, x, p, *forward))
                 + hom.is_dynamics_member(u, mass, phi, x, p, *backward))


# ---------------------------------------------------------------------------
# affine value suites

def _check_shift_antisymmetry(rng: random.Random, i: int) -> float:
    a, b = _frame(rng), _frame(rng)
    return _gap(av.frame_shift(a, b), -av.frame_shift(b, a))


def _check_shift_cocycle(rng: random.Random, i: int) -> float:
    a, b, c = _frame(rng), _frame(rng), _frame(rng)
    lhs = av.frame_shift(c, b) + av.frame_shift(b, a)
    return _gap(lhs, av.frame_shift(c, a))


def _check_value_space_axioms(rng: random.Random, i: int) -> float:
    mass = _mass(rng)

    def value() -> av.LagrangianValue:
        return av.lagrangian_value(mass, _frame(rng), _four_vector(rng), _scalar(rng))

    a, b, c = value(), value(), value()
    lam, mu = _scalar(rng), _scalar(rng)
    zero = av.zero_value(mass)
    return _worst((_value_gap((a + b) + c, a + (b + c)),
                   _value_gap(a + b, b + a),
                   _value_gap(a + zero, a),
                   _value_gap(a + (-a), zero),
                   _value_gap(lam * (a + b), lam * a + lam * b),
                   _value_gap((lam + mu) * a, lam * a + mu * a),
                   _value_gap(lam * (mu * a), (lam * mu) * a),
                   _value_gap(1.0 * a, a)))


def _check_cross_frame_addition(rng: random.Random, i: int) -> float:
    mass = _mass(rng)
    u1, v1, r1 = _frame(rng), _four_vector(rng), _scalar(rng)
    u2, v2, r2 = _frame(rng), _four_vector(rng), _scalar(rng)
    total = (av.lagrangian_value(mass, u1, v1, r1)
             + av.lagrangian_value(mass, u2, v2, r2))
    mid = Frame(1.0, 0.5 * (u1.dx + u2.dx), 0.5 * (u1.dy + u2.dy),
                0.5 * (u1.dz + u2.dz))
    r12 = (r1 + r2
           + mass * (pair(av.frame_shift(u1, mid), v1)
                     + pair(av.frame_shift(u2, mid), v2)))
    return _value_gap(total, av.lagrangian_value(mass, mid, v1 + v2, r12))


def _check_value_invariance(rng: random.Random, i: int) -> float:
    mass, u1, u2 = _mass(rng), _frame(rng), _frame(rng)
    v, r1 = _four_vector(rng), _scalar(rng)
    r2 = r1 + mass * pair(av.frame_shift(u1, u2), v)
    return _value_gap(av.lagrangian_value(mass, u1, v, r1),
                      av.lagrangian_value(mass, u2, v, r2))


def _check_momentum_invariance(rng: random.Random, i: int) -> float:
    mass, u1, u2 = _mass(rng), _frame(rng), _frame(rng)
    p1 = _four_covector(rng)
    p2 = av.momentum_transport(mass, u1, u2, p1)
    return _gap(av.affine_momentum(mass, u1, p1).p, av.affine_momentum(mass, u2, p2).p)


def _check_shell_function_invariance(rng: random.Random, i: int) -> float:
    mass, u = _mass(rng), _frame(rng)
    p = _four_covector(rng)
    direct = 0.5 * pair(p, cometric(p)) / mass + pair(p, u)
    return abs(av.shell_function(av.affine_momentum(mass, u, p)) - direct)


def _check_eval_invariance(rng: random.Random, i: int) -> float:
    mass, u = _mass(rng), _frame(rng)
    v, r, p = _four_vector(rng), _scalar(rng), _four_covector(rng)
    w = av.lagrangian_value(mass, u, v, r)
    momentum = av.affine_momentum(mass, u, p)
    return abs(av.affine_eval(w, momentum) - (pair(p, v) - r))


def _check_pairing_invariance(rng: random.Random, i: int) -> float:
    mass, u = _mass(rng), _frame(rng)
    p, v = _four_covector(rng), _four_vector(rng)
    lib = av.affine_pairing(av.affine_momentum(mass, u, p), v)
    return _value_gap(lib, av.lagrangian_value(mass, u, v, pair(p, v)))


def _check_legendre_coherence(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    u1, u2 = _frame(rng), _frame(rng)
    return _gap(av.frame_free_legendre(mass, phi, x, v, u1).p,
                av.frame_free_legendre(mass, phi, x, v, u2).p)


def _check_affine_lagrangian_coherence(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    u1, u2 = _frame(rng), _frame(rng)
    return _value_gap(av.affine_lagrangian(mass, phi, x, v, u1),
                      av.affine_lagrangian(mass, phi, x, v, u2))


def _check_shell_transport(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    u1, u2 = _frame(rng), _frame(rng)
    p = _four_covector(rng)
    moved = av.momentum_transport(mass, u1, u2, p)
    off_shell = abs(hom.mass_shell_residual(u2, mass, phi, x, moved)
                    - hom.mass_shell_residual(u1, mass, phi, x, p))
    on_shell = hom.legendre(u1, mass, phi, x, _four_velocity(rng))
    moved = av.momentum_transport(mass, u1, u2, on_shell)
    return _worst((off_shell, abs(hom.mass_shell_residual(u2, mass, phi, x, moved))))


def _check_dynamics_transport(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    u1, u2 = _frame(rng), _frame(rng)
    v = _four_velocity(rng)
    p1 = hom.legendre(u1, mass, phi, x, v)
    pdot = phi.differential(x) * (-pair(TIME_FORM, v))

    def verdicts(p: FourCovector) -> tuple[bool, bool]:
        ok = hom.is_dynamics_member(u1, mass, phi, x, p, v, pdot)
        moved = av.momentum_transport(mass, u1, u2, p)
        return ok, hom.is_dynamics_member(u2, mass, phi, x, moved, v, pdot)

    ok1, ok2 = verdicts(p1)
    bad1_ok, bad2_ok = verdicts(p1 + _momentum_kick(rng))
    return float((not (ok1 and ok2)) + bad1_ok + bad2_ok)


def _check_generating_on_shell(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    p = hom.legendre(u, mass, phi, x, v)
    return abs(hom.generating_family(u, mass, phi, x, p, v))


def _check_morse_matches_generating(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v, p = _four_velocity(rng), _four_covector(rng)
    momentum = av.AffineMomentum(mass, p)
    return abs(av.morse_family(phi, x, momentum, v)
               - hom.generating_family(REST_FRAME, mass, phi, x, p, v))


def _morse_gradient(phi: Potential, x: Event, momentum: av.AffineMomentum,
                    v: FourVector) -> float:
    return _worst(abs(slope) for slope in _central_differences(
        lambda w: av.morse_family(phi, x, momentum, w), v))


def _check_morse_stationarity(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    momentum = av.frame_free_legendre(mass, phi, x, v, _frame(rng))
    return _morse_gradient(phi, x, momentum, v)


def _check_morse_off_shell(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    momentum = av.affine_momentum(mass, _frame(rng), _four_covector(rng))
    return float(not _morse_gradient(phi, x, momentum, v) >= 1e-2)


def _check_universal_vs_frame(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    u1, u2 = _frame(rng), _frame(rng)
    v = _four_velocity(rng)
    pdot = phi.differential(x) * (-pair(TIME_FORM, v))

    def verdicts(p: FourCovector, xdot: FourVector) -> tuple[bool, bool]:
        return (hom.is_dynamics_member(u1, mass, phi, x, p, xdot, pdot),
                av.is_universal_member(phi, x, av.affine_momentum(mass, u1, p),
                                       xdot, pdot))

    p1 = hom.legendre(u1, mass, phi, x, v)
    frame_ok, uni_ok = verdicts(p1, v)
    p2 = hom.legendre(u2, mass, phi, x, v)
    uni_ok_other = av.is_universal_member(phi, x, av.affine_momentum(mass, u2, p2),
                                          v, pdot)
    if rng.random() < 0.5:
        bad = verdicts(p1, -1.0 * v)
    else:
        bad = verdicts(p1 + _momentum_kick(rng), v)
    return float((not (frame_ok and uni_ok and uni_ok_other)) + any(bad))


def _check_differential_lift(rng: random.Random, i: int) -> float:
    u, mass, phi, x = _frame(rng), _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    base_d, fiber_d = hom.lagrangian_differential(u, mass, phi, x, v)
    momentum = av.affine_momentum(mass, u, fiber_d)
    return float(not av.is_universal_member(phi, x, momentum, v, base_d))


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Check:
    """One suite: ``trial(rng, i)`` is the error of trial ``i``, drawn from ``rng``."""

    name: str
    tolerance: float
    trial: Callable[[random.Random, int], float]
    max_trials: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


CHECKS: tuple[Check, ...] = (
    Check("splitting-identity", 1e-12, _check_splitting_identity),
    Check("dual-lift-adjointness", 1e-12, _check_dual_lift),
    Check("cometric-symmetry", 1e-12, _check_cometric),
    Check("event-affine-axioms", 1e-12, _check_event_axioms),
    Check("potential-gradient-fd", 1e-6, _check_gradient),
    Check("harmonic-time-slot", 1e-12, _check_harmonic_static),
    Check("poisson-vs-vertical", 1e-9, _check_poisson_vertical),
    Check("lagrangian-generates-dynamics", 1e-12, _check_lagrangian_generates),
    Check("trajectory-frame-covariance", 1e-6, _check_covariance, max_trials=3),
    Check("energy-conservation", 1e-8, _check_energy_conservation, max_trials=3),
    Check("free-particle-exactness", 1e-12, _check_free_particle, max_trials=3),
    Check("lagrangian-homogeneity", 1e-12, _check_homogeneity),
    Check("euler-identity", 1e-10, _check_euler_identity),
    Check("legendre-on-shell", 1e-12, _check_legendre_shell),
    Check("legendre-degree-zero", 1e-11, _check_legendre_degree_zero),
    Check("inhomogeneous-restriction", 1e-12, _check_restriction),
    Check("legendre-inversion", 1e-10, _check_legendre_inversion),
    Check("characteristic-orientation", 0.0, _check_characteristic_orientation),
    Check("frame-shift-antisymmetry", 1e-12, _check_shift_antisymmetry),
    Check("frame-shift-cocycle", 1e-12, _check_shift_cocycle),
    Check("value-space-axioms", 1e-12, _check_value_space_axioms),
    Check("cross-frame-addition", 1e-11, _check_cross_frame_addition),
    Check("value-class-invariance", 1e-11, _check_value_invariance),
    Check("momentum-class-invariance", 1e-11, _check_momentum_invariance),
    Check("shell-function-invariance", 1e-11, _check_shell_function_invariance),
    Check("affine-eval-invariance", 1e-11, _check_eval_invariance),
    Check("pairing-invariance", 1e-11, _check_pairing_invariance),
    Check("legendre-frame-coherence", 1e-11, _check_legendre_coherence),
    Check("affine-lagrangian-coherence", 1e-12, _check_affine_lagrangian_coherence),
    Check("shell-transport", 1e-10, _check_shell_transport),
    Check("dynamics-transport", 0.0, _check_dynamics_transport),
    Check("generating-on-shell", 1e-12, _check_generating_on_shell),
    Check("morse-matches-generating", 1e-12, _check_morse_matches_generating),
    Check("morse-stationarity", 1e-5, _check_morse_stationarity),
    Check("morse-off-shell-detection", 0.0, _check_morse_off_shell),
    Check("universal-vs-frame-dynamics", 0.0, _check_universal_vs_frame),
    Check("differential-lift-membership", 0.0, _check_differential_lift),
)


_BLOCK = 8


def _split(fold: Callable[[Iterable[int]], list[float]], blocks: range) -> list | None:
    """``fold`` of the ``blocks`` this process claims and of those a ``forked`` worker
    claims, or None if either raised or the worker sent nothing.  Before the fork, one
    write of at most ``PIPE_BUF`` bytes fills a pipe with 2-byte claims, each the
    ordinal of a run of consecutive blocks; each process reads one claim at a time
    until the pipe is empty, so neither waits while the other has blocks left."""
    claims, fill = os.pipe()
    with open(claims, "rb", buffering=0) as claim, open(fill, "wb", buffering=0) as filler:
        run = -(-len(blocks) // (os.fpathconf(fill, "PC_PIPE_BUF") // 2))
        filler.write(b"".join(map(partial(int.to_bytes, length=2, byteorder="little"),
                                  range(-(-len(blocks) // run)))))
        filler.close()  # else the last claim of each process never ends
        # A read of the raw pipe takes one whole claim: no process folds a run twice.
        mine = chain.from_iterable(blocks[k * run:k * run + run] for k in map(
            partial(int.from_bytes, byteorder="little"), iter(partial(claim.read, 2), b"")))
        with forked(partial(fold, mine)) as receive, contextlib.suppress(Exception):
            return [fold(mine), receive()]


def run_checks(trials: int = 1000, seed: int = 42,
               tolerance: float | None = None,
               names: list[str] | None = None) -> list[CheckResult]:
    """Run suites in registry order; ``tolerance`` overrides every gate.

    ``seed`` must be non-negative: ``random`` seeds with the absolute
    value of an int, so a negative seed would repeat trials.
    """
    if trials < 1:
        raise ValueError(f"trials: must be at least 1, got {trials!r}")
    if seed < 0:
        raise ValueError(f"seed: must be at least 0, got {seed!r}")
    selected = CHECKS
    if names is not None:
        wanted = set(names)
        unknown = wanted - {check.name for check in CHECKS}
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
        selected = tuple(check for check in CHECKS if check.name in wanted)
    runs = [(check, trials if check.max_trials is None else min(trials, check.max_trials),
             sum if check.tolerance == 0.0 else _worst) for check in selected]

    def fold(blocks: Iterable[int]) -> list[float]:
        errors, gen = [0.0] * len(runs), random.Random()
        # Each trial's stream is seeded once, ``_BLOCK`` trials at a time; folds
        # carry over blocks, and ``_worst`` returns a carried NaN untouched.
        for start in blocks:
            streams = [stream(gen, seed + i) for i in range(start, min(start + _BLOCK, trials))]
            for k, (check, n, f) in enumerate(runs):
                replays = map(Replay, streams)
                errors[k] = f(chain((errors[k],), map(check.trial, replays, range(start, n))))
        return errors
    blocks = range(0, trials, _BLOCK)
    halves = len(blocks) > 1 and _forks() and _split(fold, blocks)
    errors = ([f(pair) for (_, _, f), pair in zip(runs, zip(*halves))] if halves
              else fold(blocks))
    return [CheckResult(check.name, n, error, check.tolerance if tolerance is None
                        else tolerance) for (check, n, _), error in zip(runs, errors)]


def render_report(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<32} trials={r.trials:<5d} "
                     f"max_error={r.max_error:.3e} tol={r.tolerance:.1e} {status}")
    return lines
