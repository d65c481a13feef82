import dataclasses
import math
import random
from itertools import starmap

import pytest
from hypothesis import example, given, settings, strategies as st

from galimech import affine_values, homogeneous, verify
from galimech.chart import (
    Event,
    Frame,
    FourCovector,
    ORIGIN,
    REST_FRAME,
    SpatialCovector,
)
from galimech.cli import _BLOCK, _csv_sections
from galimech.frame_dynamics import (IntegrationDiverged, Sample, generate_from_lagrangian,
                                     integrate)
from galimech.potentials import HarmonicPotential, UniformPotential, ZeroPotential
from galimech.replay import WORDS, Replay, stream
from galimech.verify import (
    CHECKS,
    Check,
    CheckResult,
    canonical_discrepancy,
    canonical_energy_drift,
    max_event_gap,
    render_report,
    rest_energy_drift,
    run_checks,
    trajectory_discrepancy,
)


def test_registry_names_are_unique():
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names)


def test_every_suite_passes_a_smoke_run():
    results = run_checks(trials=2, seed=0)
    assert [r.name for r in results] == [check.name for check in CHECKS]
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_name_filter_keeps_registry_order():
    results = run_checks(trials=2, seed=1,
                         names=["legendre-on-shell", "splitting-identity"])
    assert [r.name for r in results] == ["splitting-identity", "legendre-on-shell"]


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError):
        run_checks(trials=1, names=["no-such-suite"])


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_checks(trials=0)


def test_negative_seeds_are_rejected():
    # Random(-k) is Random(k): seed -500 would run only 501 distinct trials.
    assert random.Random(-3).random() == random.Random(3).random()
    with pytest.raises(ValueError, match="seed: must be at least 0, got -1"):
        run_checks(trials=1, seed=-1, names=["splitting-identity"])


def test_each_trial_replays_from_a_fresh_generator(monkeypatch):
    # One generator serves every trial; reseeding must also drop the
    # second normal deviate that gauss caches.
    seen = []

    def trial(rng, i):
        seen.append((rng.gauss(0.0, 1.0), rng.random()))
        return 0.0

    monkeypatch.setattr(verify, "CHECKS", (Check("gauss", 1.0, trial),))
    run_checks(trials=4, seed=11)
    fresh = [random.Random(11 + i) for i in range(4)]
    assert seen == [(rng.gauss(0.0, 1.0), rng.random()) for rng in fresh]


# One call on a generator, as (method, args).
_calls = st.one_of(
    st.just(("random", ())),
    st.tuples(st.just("randrange"), st.tuples(st.integers(1, 2 ** 70))),
    st.tuples(st.just("choice"), st.tuples(st.lists(st.integers(), min_size=1, max_size=5))),
    st.tuples(st.just("getrandbits"), st.tuples(st.integers(0, 100))),
    st.just(("gauss", (0.0, 1.0))),
    st.tuples(st.just("uniform"), st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))),
)


def _drawn_key(value):
    return value.hex() if isinstance(value, float) else value


@example(2 ** 80, [("random", ())] * 40)
@example(0, [("getrandbits", (2,))] * (WORDS + 2))
@example(7, [("randrange", (3,))] * 10 + [("gauss", (0.0, 1.0)), ("random", ())])
@example(9, [("uniform", (0.0, 1.0)), ("getrandbits", (5,)), ("choice", ([1, 2, 3],))])
@example(11, [("getrandbits", (32,)), ("getrandbits", (0,)), ("getrandbits", (33,))])
@settings(max_examples=300)
@given(st.integers(0, 2 ** 80), st.lists(_calls, max_size=60))
def test_replay_draws_what_a_fresh_generator_draws(seed, calls):
    # Thirty more random() calls take every mix past the kept stream.
    replayed, fresh = Replay(stream(random.Random(), seed)), random.Random(seed)
    replayed_random = replayed.random
    for name, args in calls + [("random", ())] * 30:
        want = _drawn_key(getattr(fresh, name)(*args))
        assert _drawn_key(getattr(replayed, name)(*args)) == want, (name, args)
    # A method bound before the replay left its stream follows it there.
    assert replayed_random().hex() == fresh.random().hex()


def _bits(results):
    return [(r.name, r.trials, r.max_error.hex(), r.tolerance.hex()) for r in results]


@pytest.mark.parametrize("seed", [42, 7])
def test_every_suite_folds_what_fresh_generators_draw(seed, verify_ways):
    # 130 trials cross block boundaries and end inside a block.
    ns = [130 if check.max_trials is None else min(130, check.max_trials) for check in CHECKS]
    wants = [(sum if check.tolerance == 0.0 else verify._worst)(
        check.trial(random.Random(seed + i), i) for i in range(n))
        for check, n in zip(CHECKS, ns)]
    names = ["differential-lift-membership", "energy-conservation", "splitting-identity",
             "shell-transport"]
    for way in verify_ways:
        results = run_checks(trials=130, seed=seed)
        assert [r.name for r in results] == [check.name for check in CHECKS]
        for check, result, n, want in zip(CHECKS, results, ns, wants):
            assert (result.trials, result.max_error.hex()) == (n, want.hex()), (check.name, way)
        subset = run_checks(trials=130, seed=seed, names=names)
        assert _bits(subset) == [bits for bits in _bits(results) if bits[0] in names], way


@pytest.mark.parametrize("trials", [1, 8, 9, 16, 17, 130])
def test_both_ways_fold_the_same_bits(verify_ways, trials):
    names = ["potential-gradient-fd", "energy-conservation", "legendre-inversion",
             "dynamics-transport", "morse-off-shell-detection"]
    got = {way: _bits(run_checks(trials=trials, seed=trials, tolerance=1e-3, names=names))
           for way in verify_ways}
    assert got["forked"] == got["in-process"]
    assert {bits[3] for bits in got["forked"]} == {(1e-3).hex()}


@pytest.mark.usefixtures("no_child_left")
def test_folds_carry_across_forked_blocks(monkeypatch, handshake):
    """The forked way: a NaN on either side stays NaN, counts sum exactly, a cap holds.

    Each side's NaN is its first trial of that suite; the worker's trial calls stay
    in the worker, so only results are seen.
    """
    nans = set()  # each process has its own copy after the fork

    def numeric(in_worker):
        def trial(rng, i):
            handshake.meet()
            if handshake.in_worker() == in_worker and in_worker not in nans:
                nans.add(in_worker)
                return math.nan
            return 0.5
        return trial

    def capped(rng, i):
        return 0.25 * (i == verify._BLOCK + 1)

    cap = verify._BLOCK + 4
    monkeypatch.setattr(verify, "_forks", lambda: True)
    monkeypatch.setattr(verify, "CHECKS", (
        Check("parent-nan", 1.0, numeric(False)), Check("worker-nan", 1.0, numeric(True)),
        Check("verdict", 0.0, lambda rng, i: float(i % 3)),
        Check("capped", 1.0, capped, max_trials=cap)))
    parent_nan, worker_nan, verdict_result, capped_result = run_checks(trials=130, seed=5)
    assert math.isnan(parent_nan.max_error) and math.isnan(worker_nan.max_error)
    assert verdict_result.max_error == sum(i % 3 for i in range(130))
    assert (capped_result.trials, capped_result.max_error) == (cap, 0.25)


def test_folds_carry_across_blocks(monkeypatch):
    """In process, where every trial call is seen."""
    monkeypatch.setattr(verify, "_forks", lambda: False)
    seen = {"numeric": [], "verdict": [], "capped": []}

    def numeric(rng, i):
        seen["numeric"].append(i)
        if i == 100:
            raise AssertionError("a trial ran after its suite's NaN")
        return math.nan if i == 3 else 0.5

    def verdict(rng, i):
        seen["verdict"].append(rng.random())
        return float(i % 3)

    def capped(rng, i):
        seen["capped"].append(i)
        return 0.25 * (i == verify._BLOCK + 1)

    cap = verify._BLOCK + 4
    monkeypatch.setattr(verify, "CHECKS", (
        Check("numeric", 1.0, numeric), Check("verdict", 0.0, verdict),
        Check("capped", 1.0, capped, max_trials=cap)))
    numeric_result, verdict_result, capped_result = run_checks(trials=130, seed=5)
    assert math.isnan(numeric_result.max_error) and numeric_result.trials == 130
    assert seen["numeric"] == [0, 1, 2, 3]
    assert verdict_result.max_error == sum(i % 3 for i in range(130))
    assert seen["verdict"] == [random.Random(5 + i).random() for i in range(130)]
    assert (capped_result.trials, capped_result.max_error) == (cap, 0.25)
    assert seen["capped"] == list(range(cap))


def test_a_trial_exception_leaves_run_checks_unchanged(monkeypatch, verify_ways):
    error = KeyError("trial 40")

    def trial(rng, i):
        if i == 40:
            raise error
        return 0.0

    monkeypatch.setattr(verify, "CHECKS", (Check("raises", 1.0, trial),))
    for way in verify_ways:
        with pytest.raises(KeyError) as info:
            run_checks(trials=130, seed=3)
        assert info.value is error, way


def _uniform_draws(rng, *ranges):
    return tuple(rng.uniform(a, b) for a, b in ranges)


_S = (-2.0, 2.0)

# Each sampler, by its name in ``verify``, against the ``rng.uniform``
# calls it writes out, in order.
_SAMPLERS = {
    "_scalar": lambda rng: _uniform_draws(rng, _S),
    "_mass": lambda rng: _uniform_draws(rng, (0.5, 3.0)),
    "_time_rate": lambda rng: _uniform_draws(rng, (0.1, 3.0)),
    "_frame": lambda rng: (1.0, *_uniform_draws(rng, _S, _S, _S)),
    "_four_vector": lambda rng: _uniform_draws(rng, _S, _S, _S, _S),
    "_four_velocity": lambda rng: _uniform_draws(rng, (0.1, 3.0), _S, _S, _S),
    "_four_covector": lambda rng: _uniform_draws(rng, _S, _S, _S, _S),
    "_spatial_vector": lambda rng: _uniform_draws(rng, _S, _S, _S),
    "_spatial_covector": lambda rng: _uniform_draws(rng, _S, _S, _S),
    "_event": lambda rng: _uniform_draws(rng, _S, _S, _S, _S),
    "_harmonic": lambda rng: _uniform_draws(rng, (0.2, 2.0), _S, _S, _S, _S),
}


def _drawn(value):
    if isinstance(value, float):
        return (value,)
    if hasattr(value, "stiffness"):
        return (value.stiffness, *value.center.components())
    return value.components()


@pytest.mark.parametrize("name", _SAMPLERS)
def test_samplers_draw_what_uniform_draws(name):
    """Bit for bit and in stream order; the pinned reports print too few digits to see one ulp."""
    sampler, reference = getattr(verify, name), _SAMPLERS[name]
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(200):
        assert list(map(float.hex, _drawn(sampler(ours)))) \
            == list(map(float.hex, reference(theirs)))


def test_momentum_kick_draws_what_uniform_draws():
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(200):
        slot = theirs.randrange(4)
        mag = theirs.uniform(0.05, 1.0) * theirs.choice((-1.0, 1.0))
        want = [0.0, 0.0, 0.0, 0.0]
        want[slot] = mag
        assert list(map(float.hex, verify._momentum_kick(ours).components())) \
            == list(map(float.hex, want))


def _drawn_bits(value):
    """A drawn value's type and slots, as ``float.hex``; a potential's by its fields."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, ZeroPotential):
        return "ZeroPotential"
    if isinstance(value, UniformPotential):
        return "UniformPotential", _drawn_bits(value.slope)
    if isinstance(value, HarmonicPotential):
        return "HarmonicPotential", value.stiffness.hex(), _drawn_bits(value.center)
    return type(value).__name__, tuple(map(float.hex, value.components()))


_MEMOIZED = [*_SAMPLERS, "_potential"]
# A list of samplers, and the same samplers in another order.
_orders = st.lists(st.sampled_from(_MEMOIZED), max_size=24).flatmap(
    lambda names: st.tuples(st.just(names), st.permutations(names)))


# With 56 kept words, the last four-vector of either order starts 50 words
# in and crosses them; then both orders read on past the kept words.  The
# second example mixes ``randrange`` word draws with nested samplers.
@example(5, (["_mass"] + ["_four_vector"] * 7, ["_four_vector"] * 6 + ["_mass", "_four_vector"]))
@example(3, (["_potential", "_harmonic", "_frame"] * 5, ["_harmonic", "_potential", "_frame"] * 5))
@settings(max_examples=200)
@given(st.integers(0, 2 ** 80), _orders)
def test_the_memo_is_invisible_at_the_stream_boundary(seed, orders):
    kept = stream(random.Random(), seed)
    for names in orders:
        replayed, fresh = Replay(kept), random.Random(seed)
        for name in names:
            sampler = getattr(verify, name)
            assert _drawn_bits(sampler(replayed)) == _drawn_bits(sampler(fresh)), name
        for _ in range(30):
            assert replayed.random().hex() == fresh.random().hex()


def test_tolerance_override_applies_to_every_gate():
    # Finite differencing cannot reach 1e-16, while a zero-mismatch
    # verdict survives any override.
    results = run_checks(trials=2, seed=0, tolerance=1e-16,
                         names=["potential-gradient-fd",
                                "characteristic-orientation"])
    by_name = {r.name: r for r in results}
    assert not by_name["potential-gradient-fd"].passed
    assert by_name["characteristic-orientation"].passed
    assert by_name["potential-gradient-fd"].tolerance == 1e-16


def test_trajectory_suites_cap_their_trials():
    results = run_checks(trials=50, seed=0,
                         names=["trajectory-frame-covariance",
                                "energy-conservation",
                                "free-particle-exactness",
                                "splitting-identity"])
    by_name = {r.name: r for r in results}
    assert by_name["trajectory-frame-covariance"].trials == 3
    assert by_name["energy-conservation"].trials == 3
    assert by_name["free-particle-exactness"].trials == 3
    assert by_name["splitting-identity"].trials == 50


def test_reports_are_reproducible():
    names = ["splitting-identity", "euler-identity", "cross-frame-addition"]
    first = run_checks(trials=3, seed=9, names=names)
    second = run_checks(trials=3, seed=9, names=names)
    assert first == second


def test_render_report_lines():
    results = run_checks(trials=1, seed=0, names=["splitting-identity"])
    line = render_report(results)[0]
    assert line.startswith("splitting-identity")
    assert "trials=1" in line
    assert "max_error=" in line
    assert "tol=1.0e-12" in line
    assert line.endswith("PASS")
    bad = render_report([CheckResult("broken", 5, 1.0, 1e-12)])[0]
    assert bad.endswith("FAIL")


def test_gate_is_inclusive():
    assert CheckResult("x", 1, 1e-12, 1e-12).passed
    assert CheckResult("x", 1, 0.0, 0.0).passed
    assert not CheckResult("x", 1, 2e-12, 1e-12).passed


def test_runner_sums_verdicts_and_takes_the_worst_error(monkeypatch):
    seen = []

    def numeric(rng, i):
        seen.append((i, rng.random()))
        return (0.5, 3.0, 1.0)[i]

    def verdict(rng, i):
        return (1.0, 2.0, 0.0)[i]

    monkeypatch.setattr(verify, "CHECKS", (Check("numeric", 5.0, numeric),
                                           Check("verdict", 0.0, verdict)))
    results = run_checks(trials=3, seed=5)
    assert [(r.name, r.max_error) for r in results] == [("numeric", 3.0),
                                                        ("verdict", 3.0)]
    assert seen == [(i, random.Random(5 + i).random()) for i in range(3)]


def test_nan_errors_fail_their_suite(monkeypatch):
    # A NaN anywhere in a trial, or in any trial, must reach the report:
    # the builtin max keeps its running value when compared with NaN.
    nan = (math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(affine_values, "_shift_slots", lambda u1, u2: nan)
    lift = homogeneous._legendre
    monkeypatch.setattr(homogeneous, "_legendre", lambda *args: dataclasses.replace(
        lift(*args), pt=math.nan))
    names = ["legendre-degree-zero", "frame-shift-antisymmetry",
             "frame-shift-cocycle", "value-class-invariance",
             "momentum-class-invariance"]
    results = run_checks(trials=50, seed=42, names=names)
    assert [r.name for r in results] == names
    for result in results:
        assert math.isnan(result.max_error) and not result.passed, result


def test_nan_gradient_is_not_an_off_shell_detection(monkeypatch):
    monkeypatch.setattr(verify, "_morse_gradient", lambda *args: math.nan)
    (result,) = run_checks(trials=3, seed=42, names=["morse-off-shell-detection"])
    assert result.max_error == 3.0 and not result.passed


def test_initial_momentum_oracle():
    u = Frame(1.0, 0.5, 0.0, 0.0)
    p, _ = generate_from_lagrangian(u, 2.0, ZeroPotential(), ORIGIN,
                                    Frame(1.0, 0.8, 0.0, 0.0))
    assert p.x == pytest.approx(0.6, abs=1e-15)
    assert p.y == 0.0 and p.z == 0.0


def test_same_frame_discrepancy_is_zero():
    u = Frame(1.0, 0.25, 0.0, 0.0)
    gap = trajectory_discrepancy(u, u, 1.0, ZeroPotential(), ORIGIN,
                                 Frame(1.0, 0.5, 0.0, 0.0), 0.01, 10)
    assert gap == 0.0


def test_free_particle_conserves_rest_energy_exactly():
    u = Frame(1.0, 0.25, 0.0, 0.0)
    samples = integrate(u, 2.0, ZeroPotential(), Event(0.0, 1.0, 0.0, 0.0),
                        SpatialCovector(1.0, -0.5, 0.25), 0.01, 20)
    assert rest_energy_drift(u, 2.0, ZeroPotential(), samples) == 0.0


def test_rest_energy_drift_of_no_samples_is_a_value_error():
    with pytest.raises(ValueError, match="^energy drift: no samples$"):
        rest_energy_drift(REST_FRAME, 1.0, ZeroPotential(), [])


def test_rest_energy_drift_reads_the_mass():
    """A boosted oscillator of mass 2 conserves its rebuilt rest energy."""
    u, phi = Frame(1.0, 0.5, 0.0, 0.0), HarmonicPotential(1.0, ORIGIN)
    samples = integrate(u, 2.0, phi, Event(0.0, 1.0, 0.0, 0.0),
                        SpatialCovector(-1.0, 0.5, 0.0), 1e-2, 300)
    assert rest_energy_drift(u, 2.0, phi, samples) <= 1e-8


def test_verdict_suites_count_every_accepted_control(monkeypatch):
    """With both membership verdicts forced to True, each negative control counts."""
    monkeypatch.setattr(homogeneous, "is_dynamics_member", lambda *args: True)
    monkeypatch.setattr(affine_values, "is_universal_member", lambda *args: True)
    results = run_checks(trials=4, seed=3, names=[
        "characteristic-orientation", "dynamics-transport", "universal-vs-frame-dynamics"])
    assert [(r.name, r.max_error) for r in results] == [
        ("characteristic-orientation", 4.0), ("dynamics-transport", 8.0),
        ("universal-vs-frame-dynamics", 4.0)]


def test_canonical_case_meets_the_published_gates():
    assert canonical_discrepancy() <= 1e-6
    assert canonical_energy_drift() <= 1e-8


def _typed_event_fold(first, second) -> float:
    """The reference: ``_gap`` on each pair of typed events, folded by ``_worst``."""
    return verify._worst(verify._gap(Event(*a[:4]), Event(*b[:4]))
                         for a, b in zip(first, second))


def _hex(value: float) -> str:
    return "nan" if value != value else value.hex()


_samples = st.lists(st.builds(Sample, *[st.floats()] * 8), min_size=1, max_size=6)


@settings(max_examples=150)
@given(_samples, _samples)
def test_max_event_gap_matches_the_typed_event_fold(first, second):
    """Bit-identical to folding ``_gap`` over the typed events, NaN included."""
    got = max_event_gap(iter(first), iter(second))
    assert _hex(got) == _hex(_typed_event_fold(first, second))


def _boost_fold(first, second) -> float:
    """``boost``'s discrepancy: ``max_event_gap`` over the blocks ``_csv_sections`` yields."""
    sections = _csv_sections((iter(first), iter(second)), lambda start, flats: None)
    return verify._worst(starmap(max_event_gap, sections))


def _sample_runs(count: int, seed: int) -> tuple[list[Sample], list[Sample]]:
    rng = random.Random(seed)
    return tuple([Sample(*(rng.uniform(-2.0, 2.0) for _ in range(8))) for _ in range(count)]
                 for _ in range(2))


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("late", [(), ("inf",), ("nan",), ("inf", "nan"), ("nan", "inf")])
def test_event_folds_match_the_typed_event_fold(count, late):
    """``boost``'s fold by blocks and ``max_event_gap`` give the typed fold's bits.

    ``late`` puts an infinite or NaN gap into ``boost``'s last block: the
    first named at its last step, the second at its first step.
    """
    first, second = _sample_runs(count, count)
    last = (count - 1) // _BLOCK * _BLOCK
    for step, slot, kind in zip((count - 1, last), (1, 2), late):
        a, b = list(first[step]), list(second[step])
        a[slot], b[slot] = (1e308, -1e308) if kind == "inf" else (math.nan, 0.5)
        first[step], second[step] = Sample(*a), Sample(*b)
    want = _typed_event_fold(first, second)
    assert math.isnan(want) == ("nan" in late)
    assert want == math.inf or math.isnan(want) or not late
    assert _hex(max_event_gap(iter(first), iter(second))) == _hex(want)
    assert _hex(_boost_fold(first, second)) == _hex(want)


def test_block_fold_of_equal_runs_is_positive_zero():
    first, _ = _sample_runs(33, 1)
    negated_zero = [Sample(*(-0.0 * v for v in sample)) for sample in first]
    zero = [Sample(*(0.0 * v for v in sample)) for sample in first]
    for a, b in [(first, first), (zero, negated_zero), (negated_zero, zero)]:
        assert max_event_gap(iter(a), iter(b)).hex() == "0x0.0p+0"
        assert _boost_fold(a, b).hex() == "0x0.0p+0"


def test_max_event_gap_of_no_samples_is_zero():
    assert max_event_gap(iter(()), iter(())).hex() == "0x0.0p+0"


def test_max_event_gap_raises_where_the_second_run_diverges_first():
    """Lockstep: a run overflowing at step 4 raises before one overflowing at step 14."""
    phi = UniformPotential(FourCovector(0.0, -1e153, 0.0, 0.0))

    def run(px):
        return integrate(REST_FRAME, 1.0, phi, ORIGIN, SpatialCovector(px, 0.0, 0.0),
                         1.0, 100)
    with pytest.raises(IntegrationDiverged, match="at step 14$"):
        list(run(0.0))
    with pytest.raises(IntegrationDiverged, match="at step 4$"):
        max_event_gap(run(0.0), run(1e154))
    with pytest.raises(IntegrationDiverged, match="at step 4$"):
        max_event_gap(run(1e154), run(0.0))


def test_trajectory_helpers_stream_and_build_few_states(monkeypatch):
    """The event gap reads floats; the rest energy builds each sample's event once."""
    built = []
    init = Event.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    u = Frame(1.0, 0.25, 0.0, 0.0)
    initial = Event(0.0, 1.0, 0.0, 0.0), SpatialCovector(1.0, -0.5, 0.25)
    monkeypatch.setattr(Event, "__init__", counted)
    trajectory = integrate(u, 2.0, ZeroPotential(), *initial, 0.01, 20)
    assert max_event_gap(trajectory, integrate(REST_FRAME, 2.0, ZeroPotential(),
                                               *initial, 0.01, 20)) > 0.0
    assert built == []
    rest_energy_drift(u, 2.0, ZeroPotential(), integrate(u, 2.0, ZeroPotential(),
                                                         *initial, 0.01, 20))
    assert len(built) == 21
