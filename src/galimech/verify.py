"""Property verification suites behind ``galimech verify``.

Each suite is written as one trial; ``run_checks`` draws trial i from
``random.Random(seed + i)``, so reports are reproducible and trials are
independent.  Numeric suites report their worst error against a
per-suite tolerance; verdict suites, gated at zero, report the sum of
their disagreement counts.  A NaN error always fails its suite.
Trajectory-backed suites cap their case count: a thousand integrations
would add wall time, not coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from . import affine_values as av
from . import frame_dynamics as fd
from . import homogeneous as hom
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

__all__ = [
    "Check",
    "CheckResult",
    "CHECKS",
    "run_checks",
    "render_report",
    "initial_momentum",
    "trajectory_discrepancy",
    "max_event_gap",
    "rest_energy_drift",
    "CANONICAL_BOOST",
    "canonical_case",
    "canonical_discrepancy",
    "canonical_energy_drift",
]


# ---------------------------------------------------------------------------
# samplers

def _scalar(rng) -> float:
    return rng.uniform(-2.0, 2.0)


def _mass(rng) -> float:
    return rng.uniform(0.5, 3.0)


def _time_rate(rng) -> float:
    return rng.uniform(0.1, 3.0)


def _frame(rng) -> Frame:
    return Frame(1.0, _scalar(rng), _scalar(rng), _scalar(rng))


def _four_vector(rng) -> FourVector:
    return FourVector(_scalar(rng), _scalar(rng), _scalar(rng), _scalar(rng))


def _four_velocity(rng) -> FourVector:
    """Future-directed four-velocity with time rate in [0.1, 3]."""
    return FourVector(_time_rate(rng), _scalar(rng), _scalar(rng), _scalar(rng))


def _four_covector(rng) -> FourCovector:
    return FourCovector(_scalar(rng), _scalar(rng), _scalar(rng), _scalar(rng))


def _spatial_vector(rng) -> SpatialVector:
    return SpatialVector(_scalar(rng), _scalar(rng), _scalar(rng))


def _spatial_covector(rng) -> SpatialCovector:
    return SpatialCovector(_scalar(rng), _scalar(rng), _scalar(rng))


def _event(rng) -> Event:
    return Event(_scalar(rng), _scalar(rng), _scalar(rng), _scalar(rng))


def _harmonic(rng) -> HarmonicPotential:
    return HarmonicPotential(rng.uniform(0.2, 2.0), _event(rng))


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
    return _worst(abs(x - y) for x, y in zip(a.components(), b.components()))


def _norm(a) -> float:
    return _worst(abs(c) for c in a.components())


def _value_gap(a: av.LagrangianValue, b: av.LagrangianValue) -> float:
    return _worst((_gap(a.velocity, b.velocity), abs(a.value - b.value)))


def _momentum_kick(rng) -> FourCovector:
    """One-slot kick big enough that every membership tolerance rejects it."""
    slot = rng.randrange(4)
    mag = rng.uniform(0.05, 1.0) * rng.choice((-1.0, 1.0))
    parts = [0.0, 0.0, 0.0, 0.0]
    parts[slot] = mag
    return FourCovector(*parts)


# ---------------------------------------------------------------------------
# trajectory helpers (shared with the CLI and the acceptance gate)

def initial_momentum(u: Frame, mass: float, v_phys: Frame) -> SpatialCovector:
    """Spatial momentum seen by ``u`` for a particle with four-velocity ``v_phys``."""
    return metric(project(u, v_phys - u)) * mass


def trajectory_discrepancy(u1: Frame, u2: Frame, mass: float,
                           potential: Potential, x0: Event, v_phys: Frame,
                           dt: float, steps: int) -> float:
    """Worst event gap between the same motion integrated in two frames."""
    first = fd.integrate(u1, mass, potential,
                         fd.State(x0, initial_momentum(u1, mass, v_phys)), dt, steps)
    second = fd.integrate(u2, mass, potential,
                          fd.State(x0, initial_momentum(u2, mass, v_phys)), dt, steps)
    return max_event_gap(first, second)


def max_event_gap(first: list[fd.Sample], second: list[fd.Sample]) -> float:
    """Worst event gap between two trajectories, compared step by step."""
    return _worst(_gap(a.state.x, b.state.x) for a, b in zip(first, second))


def rest_energy_drift(u: Frame, mass: float, potential: Potential,
                      samples: list[fd.Sample]) -> float:
    """Relative drift of the rest-chart energy rebuilt from each sample.

    The frame's own hamiltonian is conserved only when the potential is
    static in that frame; this reconstruction is the frame-independent
    quantity every run must conserve.
    """
    def rebuilt(sample: fd.Sample) -> float:
        w = metric_inv(sample.state.p * (1.0 / mass)) + u.boost()
        return (0.5 * mass * pair_spatial(metric(w), w)
                + potential.value(sample.state.x))

    first = rebuilt(samples[0])
    scale = max(1.0, abs(first))
    return _worst(abs(rebuilt(s) - first) for s in samples) / scale


CANONICAL_BOOST = SpatialVector(0.7, 0.0, 0.0)


def canonical_case() -> tuple[float, Potential, Event, Frame]:
    """Unit-mass oscillator released at unit amplitude, at rest in the rest chart."""
    return 1.0, HarmonicPotential(1.0, ORIGIN), Event(0.0, 1.0, 0.0, 0.0), REST_FRAME


def canonical_discrepancy() -> float:
    mass, potential, x0, v_phys = canonical_case()
    return trajectory_discrepancy(REST_FRAME, Frame.from_boost(CANONICAL_BOOST),
                                  mass, potential, x0, v_phys, 1e-3, 1000)


def canonical_energy_drift() -> float:
    mass, potential, x0, v_phys = canonical_case()
    worst = 0.0
    for u in (REST_FRAME, Frame.from_boost(CANONICAL_BOOST)):
        samples = fd.integrate(u, mass, potential,
                               fd.State(x0, initial_momentum(u, mass, v_phys)),
                               1e-3, 1000)
        worst = _worst((worst, rest_energy_drift(u, mass, potential, samples)))
    return worst


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
    return _worst(abs((phi.value(x + step) - phi.value(x - step)) / (2.0 * _H) - exact)
                  for step, exact in zip(_STEPS, d))


def _check_harmonic_static(rng: random.Random, i: int) -> float:
    phi, x = _harmonic(rng), _event(rng)
    return abs(pair(phi.differential(x), REST_FRAME))


# ---------------------------------------------------------------------------
# frame dynamics suites

def _check_poisson_vertical(rng: random.Random, i: int) -> float:
    mass, phi = _mass(rng), _potential(rng)
    state = fd.State(_event(rng), _spatial_covector(rng))
    xdot_a, pdot_a = fd.vertical_field(mass, phi, state)
    xdot_b, pdot_b = fd.poisson_field(mass, phi, state)
    return _worst((_gap(xdot_a, xdot_b), _gap(pdot_a, pdot_b)))


def _check_lagrangian_generates(rng: random.Random, i: int) -> float:
    u, w = _frame(rng), _frame(rng)
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    state, tangent = fd.generate_from_lagrangian(u, mass, phi, x, w)
    want = fd.dynamics_field(u, mass, phi, state)
    return _worst((_gap(tangent.xdot, want.xdot), _gap(tangent.pdot, want.pdot)))


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
    samples = fd.integrate(u, mass, phi, fd.State(x0, p0), 1e-3, 1000)
    h0 = samples[0].energy
    scale = max(1.0, abs(h0))
    return _worst(abs(s.energy - h0) for s in samples) / scale


def _check_free_particle(rng: random.Random, i: int) -> float:
    dt = 1e-3
    u, mass = _frame(rng), _mass(rng)
    x0, p0 = _event(rng), _spatial_covector(rng)
    v = embed(metric_inv(p0 * (1.0 / mass))) + u
    samples = fd.integrate(u, mass, ZeroPotential(), fd.State(x0, p0), dt, 1000)
    return _worst(_gap(sample.state.x, x0 + v * (n * dt))
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
    point = hom.PhasePoint(x, p)
    forward = hom.characteristic_field(u, mass, phi, x, p, rate)
    backward = hom.characteristic_field(u, mass, phi, x, p, -rate)
    return float((not hom.is_dynamics_member(u, mass, phi, point, forward))
                 + hom.is_dynamics_member(u, mass, phi, point, backward))


# ---------------------------------------------------------------------------
# affine value suites

def _check_shift_antisymmetry(rng: random.Random, i: int) -> float:
    a, b = _frame(rng), _frame(rng)
    return _norm(av.frame_shift(a, b) + av.frame_shift(b, a))


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
    tangent = hom.PhaseVelocity(v, phi.differential(x) * (-pair(TIME_FORM, v)))
    ok1 = hom.is_dynamics_member(u1, mass, phi, hom.PhasePoint(x, p1), tangent)
    p2 = av.momentum_transport(mass, u1, u2, p1)
    ok2 = hom.is_dynamics_member(u2, mass, phi, hom.PhasePoint(x, p2), tangent)
    bad1 = p1 + _momentum_kick(rng)
    bad2 = av.momentum_transport(mass, u1, u2, bad1)
    bad1_ok = hom.is_dynamics_member(u1, mass, phi, hom.PhasePoint(x, bad1), tangent)
    bad2_ok = hom.is_dynamics_member(u2, mass, phi, hom.PhasePoint(x, bad2), tangent)
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
    return _worst(abs((av.morse_family(phi, x, momentum, v + step)
                       - av.morse_family(phi, x, momentum, v - step)) / (2.0 * _H))
                  for step in _STEPS)


def _check_morse_stationarity(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    momentum = av.frame_free_legendre(mass, phi, x, v, _frame(rng))
    return _morse_gradient(phi, x, momentum, v)


def _check_morse_off_shell(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    v = _four_velocity(rng)
    momentum = av.affine_momentum(mass, _frame(rng), _four_covector(rng))
    return float(_morse_gradient(phi, x, momentum, v) < 1e-2)


def _check_universal_vs_frame(rng: random.Random, i: int) -> float:
    mass, phi, x = _mass(rng), _potential(rng), _event(rng)
    u1, u2 = _frame(rng), _frame(rng)
    v = _four_velocity(rng)
    pdot = phi.differential(x) * (-pair(TIME_FORM, v))
    p1 = hom.legendre(u1, mass, phi, x, v)
    frame_ok = hom.is_dynamics_member(u1, mass, phi, hom.PhasePoint(x, p1),
                                      hom.PhaseVelocity(v, pdot))
    uni_ok = av.is_universal_member(phi, x, av.affine_momentum(mass, u1, p1), v, pdot)
    p2 = hom.legendre(u2, mass, phi, x, v)
    uni_ok_other = av.is_universal_member(phi, x, av.affine_momentum(mass, u2, p2),
                                          v, pdot)
    if rng.random() < 0.5:
        reverse = -1.0 * v
        frame_bad = hom.is_dynamics_member(u1, mass, phi, hom.PhasePoint(x, p1),
                                           hom.PhaseVelocity(reverse, pdot))
        uni_bad = av.is_universal_member(phi, x, av.affine_momentum(mass, u1, p1),
                                         reverse, pdot)
    else:
        bad = p1 + _momentum_kick(rng)
        frame_bad = hom.is_dynamics_member(u1, mass, phi, hom.PhasePoint(x, bad),
                                           hom.PhaseVelocity(v, pdot))
        uni_bad = av.is_universal_member(phi, x, av.affine_momentum(mass, u1, bad),
                                         v, pdot)
    return float((not (frame_ok and uni_ok and uni_ok_other))
                 + (frame_bad or uni_bad))


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


def run_checks(trials: int = 1000, seed: int = 42,
               tolerance: float | None = None,
               names: list[str] | None = None) -> list[CheckResult]:
    """Run suites in registry order; ``tolerance`` overrides every gate."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    selected = CHECKS
    if names is not None:
        wanted = set(names)
        unknown = wanted - {check.name for check in CHECKS}
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
        selected = tuple(check for check in CHECKS if check.name in wanted)
    results = []
    for check in selected:
        n = trials if check.max_trials is None else min(trials, check.max_trials)
        fold = sum if check.tolerance == 0.0 else _worst
        error = fold(check.trial(random.Random(seed + i), i) for i in range(n))
        gate = check.tolerance if tolerance is None else tolerance
        results.append(CheckResult(check.name, n, error, gate))
    return results


def render_report(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<32} trials={r.trials:<5d} "
                     f"max_error={r.max_error:.3e} tol={r.tolerance:.1e} {status}")
    return lines
