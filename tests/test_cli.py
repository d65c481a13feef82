import contextlib
import io
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from galimech.chart import Frame, SpatialVector, metric
from galimech.cli import _BLOCK, _CSV_FIELDS, main
from galimech.config import load_config
from galimech.frame_dynamics import integrate
from galimech.verify import CHECKS

SRC = Path(__file__).resolve().parent.parent / "src"
HEADER = "step,t,x,y,z,px,py,pz,energy"

FREE = """\
# free particle on dyadic data
mass = 1.0
potential.kind = zero
x0 = 0, 1, 0, 0
v0 = 0.5, 0, 0
dt = 0.125
steps = 10
"""

# One full period of the unit oscillator, to the resolution of dt.
HARMONIC = """\
mass = 1.0
potential.kind = harmonic
potential.kappa = 1.0
x0 = 0, 1, 0, 0
v0 = 0, 0, 0
dt = 1e-3
steps = 6284
"""

LEGENDRE_BASE = """\
mass = 1.0
potential.kind = zero
x0 = 0, 0, 0, 0
v0 = 0.6, 0, 0
dt = 0.001
steps = 1
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


def test_simulate_free_particle(tmp_path):
    out = tmp_path / "free.csv"
    assert main(["simulate", "--config", write(tmp_path, FREE),
                 "--out", str(out)]) == 0
    table = rows(out)
    assert len(table) == 11
    assert [r[0] for r in table] == [str(n) for n in range(11)]
    assert all(len(r) == 9 for r in table)
    energy0 = float(table[0][8])
    assert all(abs(float(r[8]) - energy0) <= 1e-12 for r in table)
    # Straight line at dyadic rates: the endpoint is exact.
    assert float(table[10][2]) == 1.0 + 0.5 * 1.25


def test_simulate_is_deterministic(tmp_path):
    cfg = write(tmp_path, FREE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_closes_the_oscillator_period(tmp_path):
    out = tmp_path / "orbit.csv"
    assert main(["simulate", "--config", write(tmp_path, HARMONIC),
                 "--out", str(out)]) == 0
    table = rows(out)
    assert len(table) == 6285
    first, last = table[0], table[-1]
    for col in (2, 3, 4):
        assert abs(float(last[col]) - float(first[col])) <= 1e-5


def test_missing_mass_names_the_key(tmp_path, capsys):
    cfg = write(tmp_path, FREE.replace("mass = 1.0\n", ""))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "mass" in capsys.readouterr().err


@pytest.mark.parametrize("mangle", [
    lambda text: text + "unknown_key = 3\n",
    lambda text: text + "dt = 0.5\n",
    lambda text: text + "p0 = 1, 0, 0\n",
    lambda text: text.replace("potential.kind = zero",
                              "potential.kind = cubic"),
    lambda text: text.replace("dt = 0.125", "dt = -1"),
    lambda text: text + "potential.kappa = 1.0\n",
    lambda text: text + "seed = 3\n",
    lambda text: text.replace("x0 = 0, 1, 0, 0", "x0 = 0, nan, 0, 0"),
    lambda text: text + "frame = inf, 0, 0\n",
    lambda text: text.replace("v0 = 0.5, 0, 0", "v0 = 0.5, -inf, 0"),
    lambda text: text.replace("dt = 0.125", "dt = nan"),
    lambda text: text.replace("dt = 0.125", "dt = inf"),
    lambda text: text.replace("mass = 1.0", "mass = inf"),
    lambda text: text.replace("potential.kind = zero",
                              "potential.kind = harmonic\npotential.kappa = inf"),
    lambda text: text + "tol = inf\n",
])
def test_malformed_configs_exit_2(tmp_path, mangle):
    cfg = write(tmp_path, mangle(FREE))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("mangle, message", [
    (lambda text: text + "garbage\n", "line 8: expected 'key = value', got 'garbage'"),
    (lambda text: text.replace("mass = 1.0", "mass = abc"),
     "mass: could not convert string to float: 'abc'"),
    (lambda text: text.replace("steps = 10", "steps = 1.5"),
     "steps: invalid literal for int() with base 10: '1.5'"),
    (lambda text: text.replace("potential.kind = zero", "potential.kind = harmonic"),
     "potential.kappa: required for potential.kind=harmonic"),
    (lambda text: text.replace("potential.kind = zero", "potential.kind = uniform"),
     "potential.k: required for potential.kind=uniform"),
    (lambda text: text.replace("mass = 1.0", "mass = 0"), "mass: must be positive, got 0.0"),
    (lambda text: text.replace("dt = 0.125", "dt = 0"), "dt: must be positive, got 0.0"),
    (lambda text: text.replace("steps = 10", "steps = 0"), "steps: must be at least 1, got 0"),
    (lambda text: text.replace("potential.kind = zero",
                               "potential.kind = harmonic\npotential.kappa = 0"),
     "potential.kappa: must be positive, got 0.0"),
], ids=["no-equals", "mass-abc", "steps-1.5", "harmonic-no-kappa", "uniform-no-k",
        "mass-0", "dt-0", "steps-0", "kappa-0"])
def test_config_errors_are_one_exact_line(tmp_path, capsys, mangle, message):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write(tmp_path, mangle(FREE)),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def _set(**values):
    """Replace or append each ``key = value``, or drop the key for ``None``.

    An underscore in a name stands for the dot: ``potential_kind``.
    """
    def mangle(text):
        lines = text.splitlines()
        for name, value in values.items():
            key = name.replace("_", ".")
            at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} = ")),
                      len(lines))
            lines[at:at + 1] = [] if value is None else [f"{key} = {value}"]
        return "\n".join(lines) + "\n"
    return mangle


# Each config carries two faults; only the one that comes first in this
# order is reported: line errors in line order, missing required keys, the
# v0/p0 rule, values in key order, the potential kind, a key the kind does
# not take, the kind's required key, then the potential's own values.
@pytest.mark.parametrize("mangle, message", [
    (lambda text: text + "garbage\nseed = 3\n",
     "line 8: expected 'key = value', got 'garbage'"),
    (lambda text: text + "seed = 3\ndt = 0.5\n", "line 8: unknown key 'seed'"),
    (lambda text: text + "dt = 0.5\ngarbage\n", "line 8: duplicate key 'dt'"),
    (_set(mass=None, seed="3"), "line 7: unknown key 'seed'"),
    (lambda text: _set(x0=None)(text) + "dt = 0.5\n", "line 7: duplicate key 'dt'"),
    (_set(mass=None, potential_kind=None), "mass: required key is missing"),
    (_set(potential_kind=None, x0=None), "potential.kind: required key is missing"),
    (_set(x0=None, dt=None), "x0: required key is missing"),
    (_set(dt=None, steps=None), "dt: required key is missing"),
    (_set(steps=None, p0="1, 0, 0"), "steps: required key is missing"),
    (_set(p0="1, 0, 0", mass="0"), "exactly one of v0 or p0 is required"),
    (_set(v0=None, mass="0"), "exactly one of v0 or p0 is required"),
    (_set(mass="0", dt="0"), "mass: must be positive, got 0.0"),
    (_set(dt="0", steps="0"), "dt: must be positive, got 0.0"),
    (_set(steps="0", tol="0"), "steps: must be at least 1, got 0"),
    (_set(tol="0", frame="nan, 0, 0"), "tol: must be positive, got 0.0"),
    (_set(frame="1, 2", x0="0, 1, 0"), "frame: expected 3 numbers, got 2"),
    (_set(x0="0, 1, 0", v0="nan, 0, 0"), "x0: expected 4 numbers, got 3"),
    (_set(v0=None, x0="0, 1, 0", p0="a, 0, 0"), "x0: expected 4 numbers, got 3"),
    (_set(v0="1, 2", potential_kind="cubic"), "v0: expected 3 numbers, got 2"),
    (_set(v0=None, p0="a, 0, 0", potential_kind="cubic"),
     "p0: could not convert string to float: 'a'"),
    (_set(potential_kind="cubic", potential_kappa="1"), "potential.kind: unknown kind 'cubic'"),
    (_set(potential_kind="uniform", potential_kappa="1"),
     "potential.kappa: not valid for potential.kind=uniform"),
    (_set(potential_kappa="1", potential_center="0, 0, 0, 0"),
     "potential.center: not valid for potential.kind=zero"),
    (_set(potential_kind="harmonic", potential_center="nan, 0, 0, 0"),
     "potential.kappa: required for potential.kind=harmonic"),
    (_set(potential_kind="harmonic", potential_kappa="0", potential_center="1, 2"),
     "potential.kappa: must be positive, got 0.0"),
], ids=["no-equals-before-unknown", "unknown-before-duplicate", "duplicate-before-no-equals",
        "unknown-before-missing", "duplicate-before-missing", "mass-before-kind",
        "kind-before-x0", "x0-before-dt", "dt-before-steps", "missing-before-v0-p0",
        "both-v0-p0-before-values", "neither-v0-p0-before-values", "mass-before-dt",
        "dt-before-steps-value", "steps-before-tol", "tol-before-frame", "frame-before-x0",
        "x0-before-v0", "x0-before-p0", "v0-before-kind", "p0-before-kind",
        "kind-before-foreign-key", "foreign-before-required", "foreign-keys-sorted",
        "required-before-values", "kappa-before-center"])
def test_config_error_precedence(tmp_path, capsys, mangle, message):
    assert main(["simulate", "--config", write(tmp_path, mangle(FREE)),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_value_names_its_key(tmp_path, capsys):
    cfg = write(tmp_path, FREE.replace("v0 = 0.5, 0, 0", "v0 = 0.5, 0, nan"))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: v0: must be finite, got nan\n"


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_divergence_exits_3(tmp_path):
    cfg = write(tmp_path, HARMONIC.replace("dt = 1e-3", "dt = 10")
                .replace("steps = 6284", "steps = 500"))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 3


DIVERGING = HARMONIC.replace("dt = 1e-3", "dt = 10").replace("steps = 6284", "steps = 500")


@pytest.mark.parametrize("text, code", [(FREE, 0), (DIVERGING, 3)],
                         ids=["success", "divergence"])
def test_simulate_leaves_the_umask_as_it_was(tmp_path, text, code):
    before = os.umask(0o027)
    try:
        assert main(["simulate", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "x.csv")]) == code
    finally:
        after = os.umask(before)
    assert after == 0o027


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "{cfg}"],
    ["boost", "--config", "{cfg}", "--boost", "0.5,0,0"],
], ids=["simulate", "boost"])
@pytest.mark.parametrize("existing, code", [
    ("file", 3), ("dir", 2), ("fifo", 2),
])
def test_failed_run_leaves_the_output_directory_as_it_was(tmp_path, command, existing, code):
    """A blow-up (exit 3) or an --out that is no regular file (exit 2) writes nothing.

    The config diverges, so a run that reached the output would exit 3.
    """
    cfg = write(tmp_path, DIVERGING)
    out = tmp_path / "run.csv"
    if existing == "file":
        out.write_bytes(b"step,earlier\r\n0,run\r\n")
    elif existing == "dir":
        out.mkdir()
    else:
        os.mkfifo(out)
    before = sorted(os.listdir(tmp_path))
    assert main([arg.format(cfg=cfg) for arg in command] + ["--out", str(out)]) == code
    assert sorted(os.listdir(tmp_path)) == before
    if existing == "file":
        assert out.read_bytes() == b"step,earlier\r\n0,run\r\n"
    elif existing == "dir":
        assert os.listdir(out) == []
    else:
        assert stat.S_ISFIFO(out.stat().st_mode)


@pytest.mark.parametrize("command", [["simulate"], ["boost", "--boost", "0.5,0,0"]],
                         ids=["simulate", "boost"])
@pytest.mark.parametrize("existing", [False, True], ids=["no-out", "old-out"])
def test_non_finite_start_exits_3_at_step_0(tmp_path, capsys, command, existing):
    """The start's energy overflows: one error line, nothing written anywhere."""
    cfg = write(tmp_path, HARMONIC.replace("x0 = 0, 1, 0, 0", "x0 = 0, 1e200, 0, 0"))
    out = tmp_path / "run.csv"
    if existing:
        out.write_bytes(b"step,earlier\r\n0,run\r\n")
    before = sorted(os.listdir(tmp_path))
    assert main(command + ["--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: energy left finite range at step 0\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before
    if existing:
        assert out.read_bytes() == b"step,earlier\r\n0,run\r\n"


@pytest.mark.parametrize("command", [["simulate"], ["boost", "--boost", "0.5,0,0"]],
                         ids=["simulate", "boost"])
def test_output_in_a_missing_directory_names_the_given_path(tmp_path, capsys, command):
    """The error names --out as given, not the temporary file beside it."""
    cfg = write(tmp_path, FREE)
    out = tmp_path / "no" / "such" / "run.csv"
    before = sorted(os.listdir(tmp_path))
    assert main(command + ["--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: out: No such file or directory: {out}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


def test_output_through_a_symlink_rewrites_its_target(tmp_path):
    cfg = write(tmp_path, FREE)
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    assert main(["simulate", "--config", cfg, "--out", str(fresh)]) == 0
    target.write_text("stale\n")
    link.symlink_to(target)
    assert main(["simulate", "--config", cfg, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", [["simulate"], ["boost", "--boost", "0.5,0,0"]])
def test_output_replaces_an_existing_file_with_the_default_mode(tmp_path, command):
    cfg = write(tmp_path, FREE)
    fresh, out = tmp_path / "fresh.csv", tmp_path / "run.csv"
    argv = [command[0], "--config", cfg, *command[1:], "--out"]
    assert main(argv + [str(fresh)]) == 0
    out.write_text("stale\n" * 1000)
    os.chmod(out, 0o600)
    assert main(argv + [str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "run.cfg", "run.csv"]
    umask = os.umask(0o077)
    os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


_row_floats = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1e-300,
     0.1, 1.7976931348623157e308]))


@settings(max_examples=300)
@given(st.integers(0, 10**18), st.tuples(*[_row_floats] * 8))
@example(2**63 + 1, (-0.0, 5e-324, 1e300, -1e300, 1e-310, 0.1, 1 / 3, -2.5))
def test_csv_row_format_writes_the_17_digit_bytes(step, row):
    """A row is its step's digits, then the sample's floats by ``_CSV_FIELDS``."""
    want = ",".join((str(step), *(format(v, ".17g") for v in row)))
    assert b"%d" % step + _CSV_FIELDS % row == (want + "\n").encode()


def _per_row_section(samples) -> str:
    """The CSV section of ``samples``, built one row at a time."""
    rows = (",".join((str(step), *(format(v, ".17g") for v in sample)))
            for step, sample in enumerate(samples))
    return "".join(row + "\n" for row in (HEADER, *rows))


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
def test_block_boundaries_write_the_per_row_bytes(tmp_path, ways, count):
    """``count`` samples per run: both outputs, either way, match a row-by-row rendering."""
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", f"steps = {count - 1}")
                + "frame = 0.3, -0.2, 0.1\n")
    run, boost = load_config(cfg), SpatialVector(0.7, 0.0, -0.25)
    first = list(integrate(run.frame, run.mass, run.potential, run.x0, run.p0,
                           run.dt, run.steps))
    second = list(integrate(Frame.from_boost(run.frame.boost() + boost), run.mass,
                            run.potential, run.x0, run.p0 - metric(boost) * run.mass,
                            run.dt, run.steps))
    assert len(first) == len(second) == count
    gap = max(abs(a[i] - b[i]) for a, b in zip(first, second) for i in range(4))
    simulated, boosted = tmp_path / "simulate.csv", tmp_path / "boost.txt"
    for way in ways:
        assert main(["simulate", "--config", cfg, "--out", str(simulated)]) == 0
        assert main(["boost", "--config", cfg, "--boost", "0.7,0,-0.25",
                     "--out", str(boosted)]) == 0
        assert simulated.read_bytes() == _per_row_section(first).encode(), way
        assert boosted.read_bytes() == (
            _per_row_section(first) + "\n" + _per_row_section(second)
            + f"\nmax_event_discrepancy={format(gap, '.17g')}\n").encode(), way


# The boosted run's momentum starts 1e154 further out, so under the same
# force its energy overflows at step 4, the configured run's at step 14.
LOCKSTEP = """\
mass = 1.0
potential.kind = uniform
potential.k = 0, -1e153, 0, 0
x0 = 0, 0, 0, 0
v0 = 0, 0, 0
dt = 1
steps = 100
"""


@pytest.mark.parametrize("existing", [False, True], ids=["no-out", "old-out"])
def test_boost_names_the_first_step_to_diverge_in_either_frame(tmp_path, capsys, existing):
    """The runs advance in lockstep, so the earlier step raises, even within one block."""
    assert 14 < _BLOCK
    cfg = write(tmp_path, LOCKSTEP)
    out = tmp_path / "run.csv"
    if existing:
        out.write_bytes(b"step,earlier\r\n0,run\r\n")
    before = sorted(os.listdir(tmp_path))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: energy left finite range at step 14\n"
    assert main(["boost", "--config", cfg, "--boost=-1e154,0,0", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: energy left finite range at step 4\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before
    if existing:
        assert out.read_bytes() == b"step,earlier\r\n0,run\r\n"


def _peak_bytes(tmp_path, command, steps: int) -> int:
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", f"steps = {steps}"))
    tracemalloc.start()
    try:
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "run.csv")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_flat_memory(tmp_path, command, steps: int):
    _peak_bytes(tmp_path, command, steps)  # warm-up: lazy imports and caches
    small = _peak_bytes(tmp_path, command, steps)
    large = _peak_bytes(tmp_path, command, 20 * steps)
    assert large <= 2 * small, (small, large)


def test_simulate_memory_does_not_grow_with_steps(tmp_path):
    """Rows are streamed to the file: 20x the steps stays within 2x the memory."""
    _assert_flat_memory(tmp_path, ["simulate"], 1000)


def test_boost_memory_does_not_grow_with_steps(tmp_path):
    """Neither section is held: the second goes to a file until both runs end."""
    _assert_flat_memory(tmp_path, ["boost", "--boost", "0.7,0,0"], 500)


# Runs galimech with the remaining arguments and prints its exit code and
# the peak from wait4: the largest of the command and of the children it
# reaped.  A child's peak includes what it held before its exec, so the
# command is started from this small process, not from the test process.
_PEAK = """\
import os, subprocess, sys
with subprocess.Popen([sys.executable, "-m", "galimech", *sys.argv[1:]],
                      stdout=subprocess.DEVNULL) as proc:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss / (1024 if sys.platform == "darwin" else 1))
"""


def _peak_kib(*argv: str) -> float:
    """Peak resident KiB of ``galimech argv``, forked processes included."""
    done = subprocess.run([sys.executable, "-c", _PEAK, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    code, peak = done.stdout.split()
    assert (code, done.stderr) == ("0", "")
    return float(peak)


def _command_peak_kib(tmp_path, command, steps: int) -> float:
    """Peak resident KiB of ``galimech command``, forked writer included."""
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", f"steps = {steps}"))
    return _peak_kib(*command, "--config", cfg, "--out", str(tmp_path / "run.csv"))


# Measured on Linux, Python 3.11, 2 CPUs: 1x and 20x the steps peak within
# 0.15 MiB of each other (about 17.1 MiB); a writer that keeps every block
# it receives adds 2.4 MiB at 20x.
@pytest.mark.skipif(not hasattr(os, "wait4"), reason="no wait4")
@pytest.mark.parametrize("command, steps", [(["simulate"], 1000),
                                            (["boost", "--boost", "0.7,0,0"], 500)],
                         ids=["simulate", "boost"])
def test_the_command_and_its_writer_do_not_grow_with_steps(tmp_path, command, steps):
    small = _command_peak_kib(tmp_path, command, steps)
    large = _command_peak_kib(tmp_path, command, 20 * steps)
    assert large <= small + 1024, (small, large)


# Measured on Linux, Python 3.11, 2 CPUs: 100 and 1000 trials both peak at
# 17,880-17,948 KiB; a fold that keeps every trial's stream and memo reads
# 18,736 and 28,080 KiB.  The worker's own peak stays below the parent's
# (about 14.2 MiB at 100 trials and 16.3 MiB at 1000), so a leak in the
# worker alone shows here only once it passes the parent's peak.
@pytest.mark.skipif(not hasattr(os, "wait4"), reason="no wait4")
def test_verify_and_its_worker_do_not_grow_with_trials():
    small = _peak_kib("verify", "--trials", "100")
    large = _peak_kib("verify", "--trials", "1000")
    assert large <= small + 1024, (small, large)


def test_boost_zero_is_exact(tmp_path):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0,0,0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "max_event_discrepancy=0"


def test_boost_output_layout(tmp_path, ways):
    out = tmp_path / "pair.txt"
    layouts = []
    for way in ways:
        assert main(["boost", "--config", write(tmp_path, FREE),
                     "--boost", "0.25,0,0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 27
        assert lines[0] == HEADER and lines[13] == HEADER
        assert lines[12] == "" and lines[25] == ""
        assert lines[26].startswith("max_event_discrepancy=")
        assert float(lines[26].split("=")[1]) <= 1e-6
        layouts.append(lines)
    assert layouts[0] == layouts[1]


def test_boost_covariance_on_the_oscillator(tmp_path):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, HARMONIC),
                 "--boost", "0.7,0,0", "--out", str(out)]) == 0
    value = float(out.read_text().splitlines()[-1].split("=")[1])
    assert value <= 1e-6


def test_corrupted_momentum_map_is_caught(tmp_path, capsys):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0.25,0,0", "--out", str(out),
                 "--corrupt-momentum", "0.01"]) == 1
    lines = out.read_text().splitlines()
    # The offset is added to the boosted run's px: 0.5 - 0.25 + 0.01.
    assert float(lines[14].split(",")[5]) == 0.25 + 0.01
    value = lines[-1].split("=")[1]
    assert float(value) > 1e-6
    assert capsys.readouterr().err \
        == "error: event discrepancy 1.250e-02 exceeds tol 1.000e-06\n"
    # The gate is inclusive: a tol of exactly the discrepancy passes.
    assert main(["boost", "--config", write(tmp_path, FREE + f"tol = {value}\n"),
                 "--boost", "0.25,0,0", "--out", str(out),
                 "--corrupt-momentum", "0.01"]) == 0


def test_boost_rejects_malformed_vector(tmp_path):
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0.25,0", "--out", str(tmp_path / "x.txt")]) == 2


@pytest.mark.parametrize("boost", ["nan,0,0", "0,inf,0"])
def test_boost_rejects_non_finite_vector(tmp_path, capsys, boost):
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost=" + boost, "--out", str(tmp_path / "x.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: boost: must be finite")
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_boost_rejects_non_finite_corruption(tmp_path, capsys, delta):
    out = tmp_path / "x.txt"
    assert main(["boost", "--config", write(tmp_path, FREE), "--boost", "0.25,0,0",
                 "--out", str(out), "--corrupt-momentum=" + delta]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: corrupt-momentum: must be finite, got {delta}\n"
    assert captured.out == ""
    assert not out.exists()


def test_legendre_worked_example(tmp_path, capsys):
    assert main(["legendre", "--config", write(tmp_path, LEGENDRE_BASE)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "momentum = -0.17999999999999999,0.59999999999999998,0,0"
    assert lines[1].startswith("class_momentum = ")
    residual = float(lines[2].split(" = ")[1])
    assert abs(residual) <= 1e-12
    closure = float(lines[3].split(" = ")[1])
    assert abs(closure) <= 1e-12


def test_legendre_at_rest_reads_the_potential(tmp_path, capsys):
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", "steps = 1"))
    assert main(["legendre", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "momentum = -0.5,0,0,0"
    assert lines[3] == "shell_energy_plus_potential = 0"


def test_legendre_class_is_config_independent(tmp_path, capsys):
    """Same motion written against two frames, all inputs dyadic."""
    shared = ("mass = 1.0\n"
              "potential.kind = uniform\n"
              "potential.k = 0.25, -0.5, 0.125, 0.375\n"
              "x0 = 0.25, -0.5, 0.75, 0.125\n"
              "dt = 0.001\n"
              "steps = 1\n")
    cfg_a = write(tmp_path, shared + "frame = 0.5, -1, 0.25\n"
                  "v0 = 0.75, -0.5, 0.25\n", "a.cfg")
    cfg_b = write(tmp_path, shared + "frame = -0.5, 1, 1.25\n"
                  "v0 = 1.75, -2.5, -0.75\n", "b.cfg")
    assert main(["legendre", "--config", cfg_a]) == 0
    line_a = capsys.readouterr().out.splitlines()[1]
    assert main(["legendre", "--config", cfg_b]) == 0
    line_b = capsys.readouterr().out.splitlines()[1]
    assert line_a.startswith("class_momentum = ")
    assert line_a == line_b


def test_legendre_requires_a_velocity(tmp_path, capsys):
    cfg = write(tmp_path, FREE.replace("v0 = 0.5, 0, 0", "p0 = 0.5, 0, 0"))
    assert main(["legendre", "--config", cfg]) == 2
    assert "v0" in capsys.readouterr().err


def test_legendre_honours_the_tolerance_gate(tmp_path, capsys):
    cfg = write(tmp_path, LEGENDRE_BASE + "tol = 1e-30\n")
    assert main(["legendre", "--config", cfg]) == 1
    assert capsys.readouterr().err \
        == "error: shell residual -6.661e-18 exceeds tol 1.000e-30\n"
    # The gate is inclusive: a tol of exactly |residual| passes.
    cfg = write(tmp_path, LEGENDRE_BASE + "tol = 6.661338147750939e-18\n")
    assert main(["legendre", "--config", cfg]) == 0


@pytest.mark.parametrize("old, new, message", [
    ("dt = 0.001", "dt = 0", "dt: must be positive, got 0.0"),
    ("steps = 1", "steps = 0", "steps: must be at least 1, got 0"),
], ids=["dt-0", "steps-0"])
def test_legendre_rejects_what_it_does_not_use(tmp_path, capsys, old, new, message):
    # legendre integrates nothing: the config is the only guard on dt and steps.
    cfg = write(tmp_path, LEGENDRE_BASE.replace(old, new))
    assert main(["legendre", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("line", [
    "x0 = 0, 1e200, 0, 0",             # potential value overflows to inf
    "x0 = 0, 1, 0, 0\nframe = 1e308, 0, 0",  # lift overflows to -inf/nan
])
def test_legendre_overflow_exits_3(tmp_path, capsys, line):
    cfg = write(tmp_path, HARMONIC.replace("x0 = 0, 1, 0, 0", line)
                .replace("v0 = 0, 0, 0", "v0 = 0.5, 0, 0"))
    assert main(["legendre", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: legendre: ") and out.err.count("\n") == 1


def test_legendre_shell_overflow_names_the_shell_energy(tmp_path, capsys):
    cfg = write(tmp_path, LEGENDRE_BASE.replace("v0 = 0.6, 0, 0", "v0 = 1e200, 0, 0"))
    assert main(["legendre", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: shell energy: sum is too large for a float\n")


def test_verify_single_trial(capsys):
    assert main(["verify", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    assert all(line.endswith("PASS") for line in lines)


def test_verify_unreachable_tolerance_fails(capsys):
    assert main(["verify", "--trials", "1", "--tol", "1e-16"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("FAIL") for line in lines)


@pytest.mark.parametrize("tol, message", [
    ("inf", "must be finite, got inf"),
    ("nan", "must be finite, got nan"),
    ("0", "must be positive, got 0.0"),
    ("-1", "must be positive, got -1.0"),
], ids=["inf", "nan", "0", "-1"])
def test_verify_tolerance_follows_the_config_rules(capsys, tol, message):
    assert main(["verify", "--trials", "1", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tol: {message}\n"
    assert captured.out == ""


def test_verify_rejects_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trials: must be at least 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "-500"])
def test_verify_rejects_a_negative_seed(capsys, seed):
    # random seeds with |seed|, so seed -500 would replay trials of seed 0.
    assert main(["verify", "--trials", "1", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed: must be at least 0, got {seed}\n"
    assert captured.out == ""


def test_no_subcommand_exits_2():
    assert main([]) == 2


@pytest.mark.parametrize("boost, code", [
    ("-0.7,0,0", 0), ("-0.25,0.5,-0.125", 0), ("-inf,0,0", 2)])
def test_signed_boost_reads_like_the_attached_form(tmp_path, capsys, boost, code):
    cfg = write(tmp_path, FREE)
    results = []
    for argv, name in ((["--boost", boost], "spaced.txt"),
                       (["--boost=" + boost], "attached.txt")):
        out = tmp_path / name
        code = main(["boost", "--config", cfg, *argv, "--out", str(out)])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err,
                        out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]
    assert results[0][0] == code


@pytest.mark.parametrize("argv, message", [
    (["--corrupt-momentum", "-inf"], "corrupt-momentum: must be finite, got -inf"),
    (["--corrupt-momentum", "-nan"], "corrupt-momentum: must be finite, got -nan"),
], ids=["-inf", "-nan"])
def test_boost_reads_a_signed_corruption(tmp_path, capsys, argv, message):
    out = tmp_path / "x.txt"
    assert main(["boost", "--config", write(tmp_path, FREE), "--boost", "0.25,0,0",
                 "--out", str(out), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("tol, message", [
    ("-1e-3", "must be positive, got -0.001"),
    ("-inf", "must be finite, got -inf"),
], ids=["-1e-3", "-inf"])
def test_verify_reads_a_signed_tolerance(capsys, tol, message):
    assert main(["verify", "--trials", "1", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tol: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    [],
    ["frob"],
    ["verify", "--trials", "abc"],
    ["verify", "--bogus"],
    ["simulate"],
    ["simulate", "--config", "run.cfg", "--out", "x.csv", "--tol", "-1"],
    ["boost", "--config", "run.cfg", "--out", "x.txt", "--boost"],
    ["boost", "--config", "run.cfg", "--boost", "--out", "x.txt"],
], ids=["none", "unknown-command", "trials-abc", "unknown-option", "missing-required",
        "option-of-another-command", "missing-value", "value-is-an-option"])
def test_usage_errors_are_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: galimech")


def test_energy_column_tracks_the_oscillator(tmp_path):
    """Phase check: after a quarter period the energy is purely kinetic."""
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", "steps = 1571"))
    out = tmp_path / "orbit.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    table = rows(out)
    quarter = table[-1]
    assert abs(float(quarter[2])) <= 1e-3
    assert float(quarter[8]) == pytest.approx(0.5, abs=1e-6)
    assert abs(float(quarter[5]) + math.sin(float(quarter[1]))) <= 1e-6


_numbers = st.one_of(
    st.floats(-3, 3).map(repr),
    st.sampled_from(["0", "1e200", "-1e200", "1e308", "-1e308", "nan", "inf", "-inf",
                     "abc"]))


def _vector(n):
    return st.lists(_numbers, min_size=n, max_size=n).map(", ".join)


_potential = st.one_of(
    st.just("potential.kind = zero\n"),
    _vector(4).map("potential.kind = uniform\npotential.k = {}\n".format),
    st.tuples(_numbers, _vector(4)).map(
        "potential.kind = harmonic\npotential.kappa = {0[0]}\npotential.center = {0[1]}\n"
        .format))


@st.composite
def _config_text(draw):
    return (f"mass = {draw(_numbers)}\n" + draw(_potential)
            + f"frame = {draw(_vector(3))}\nx0 = {draw(_vector(4))}\n"
            f"v0 = {draw(_vector(3))}\ndt = {draw(_numbers)}\n"
            f"steps = {draw(st.integers(1, 5))}\ntol = {draw(_numbers)}\n")


@settings(max_examples=200, deadline=None)
@given(_config_text())
@example("mass = 1\npotential.kind = harmonic\npotential.kappa = 1\n"
         "frame = 0, 0, 0\nx0 = 0, 1e200, 0, 0\nv0 = 0, 0, 0\n"
         "dt = 0.1\nsteps = 1\ntol = 1e-6\n")
def test_any_config_ends_in_a_documented_exit_code(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    cfg, out = work / "run.cfg", work / "run.csv"
    cfg.write_text(text)
    for argv in (["simulate", "--config", str(cfg), "--out", str(out)],
                 ["legendre", "--config", str(cfg)]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv[0], code)
        if code == 0:
            written = out.read_text() if argv[0] == "simulate" else stdout.getvalue()
            assert "nan" not in written and "inf" not in written, argv[0]
