"""How ``simulate`` and ``boost`` hand their rows to a writer, forked or not.

Every test here ends with no child process left, and an alarm fails a
test that waits on a writer which never ends, so a hung writer cannot
stall the rest of the suite.
"""

import collections
import errno
import io
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from galimech import cli
from galimech.cli import main
from galimech.frame_dynamics import Sample

SRC = Path(__file__).resolve().parent.parent / "src"

FREE = """\
mass = 1.0
potential.kind = zero
x0 = 0, 1, 0, 0
v0 = 0.5, 0, 0
dt = 0.125
steps = 10
"""

# 200 blocks of rows: more than a pipe holds.
LONG = FREE.replace("steps = 10", "steps = 6400")

# The boosted run's energy overflows at step 4, the configured run's at step 14.
LOCKSTEP = """\
mass = 1.0
potential.kind = uniform
potential.k = 0, -1e153, 0, 0
x0 = 0, 0, 0, 0
v0 = 0, 0, 0
dt = 1
steps = 100
"""

SIMULATE, BOOST = ["simulate"], ["boost", "--boost=0.25,0,0"]
ENOSPC = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.fixture(autouse=True)
def no_child_left():
    def expire(signum, frame):
        pytest.fail("the CSV writer did not end")  # not an error the CLI reports

    previous = signal.signal(signal.SIGALRM, expire)
    # Then every second, so that a wait in a clean-up fails too.
    signal.setitimer(signal.ITIMER_REAL, 60, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "in-process"])
def way(request, monkeypatch):
    """The way the CLI writes its rows, whatever the machine."""
    monkeypatch.setattr(cli, "_forks", lambda: request.param == "forked")
    return request.param


def _run(tmp_path, command, text, existing):
    """Run ``command`` on config ``text``: its exit code and whether --out is as it was."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    cfg.write_text(text)
    old = b"step,earlier\r\n0,run\r\n"
    if existing:
        out.write_bytes(old)
    before = sorted(os.listdir(tmp_path))
    code = main([*command, "--config", str(cfg), "--out", str(out)])
    unchanged = sorted(os.listdir(tmp_path)) == before and (
        not existing or out.read_bytes() == old)
    return code, unchanged


@pytest.mark.parametrize("command, last", [(SIMULATE, "{steps},"),
                                           (BOOST, "max_event_discrepancy=")],
                         ids=["simulate", "boost"])
@pytest.mark.parametrize("text, steps", [(FREE, 10), (LONG, 6400)],
                         ids=["one-block", "many-blocks"])
def test_a_complete_run_reaps_its_writer(tmp_path, capsys, way, command, last, text, steps):
    assert _run(tmp_path, command, text, existing=False)[0] == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[-1].startswith(last.format(steps=steps))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, step", [(SIMULATE, 14),
                                           (["boost", "--boost=-1e154,0,0"], 4)],
                         ids=["simulate", "boost"])
@pytest.mark.parametrize("existing", [False, True], ids=["no-out", "old-out"])
def test_divergence_reaps_the_writer_before_the_output_goes(tmp_path, capsys, way,
                                                             command, step, existing):
    assert _run(tmp_path, command, LOCKSTEP, existing) == (3, True)
    assert capsys.readouterr().err == f"error: energy left finite range at step {step}\n"


@pytest.mark.parametrize("command", [SIMULATE, BOOST], ids=["simulate", "boost"])
def test_an_interrupt_reaps_the_writer(tmp_path, monkeypatch, way, command):
    """Ctrl-C in the middle of the integration leaves neither a writer nor a file."""
    integrate = cli.integrate

    def interrupted(*args):
        yield from integrate(*args[:-1], 100)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "integrate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, command, LONG, existing=False)
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("command", [SIMULATE, BOOST], ids=["simulate", "boost"])
@pytest.mark.parametrize("text", [FREE, LONG], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("existing", [False, True], ids=["no-out", "old-out"])
def test_a_write_error_is_one_line_either_way(tmp_path, capsys, monkeypatch, way, command,
                                              text, existing):
    """A full disk in the writer: exit 2, the in-process message, --out untouched.

    A forked writer inherits the failing formatter.  With many blocks it
    stops reading while the command still sends, which must not surface
    as a broken pipe.
    """
    def full(handles, start, flats):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write_block", full)
    assert _run(tmp_path, command, text, existing) == (2, True)
    captured = capsys.readouterr()
    assert captured.err == ENOSPC
    assert captured.out == ""


def test_a_writer_that_dies_unannounced_is_an_error(tmp_path, capsys, monkeypatch):
    """A forked writer that ends without a reason sent still fails the command."""
    monkeypatch.setattr(cli, "_forks", lambda: True)
    monkeypatch.setattr(cli, "_write_block", lambda *block: os._exit(9))
    assert _run(tmp_path, SIMULATE, FREE, existing=False) == (2, True)
    assert capsys.readouterr().err == "error: out: CSV writer ended with exit code 9\n"


SAMPLES = [Sample(*map(float, range(i, i + 8))) for i in range(3)]
SECTION = cli._CSV_HEADER + b"".join(b"%d" % i + cli._CSV_FIELDS % s
                                     for i, s in enumerate(SAMPLES))


def test_what_a_handle_held_before_the_fork_is_written_once(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_forks", lambda: True)
    with open(tmp_path / "a", "wb") as handle:
        handle.write(b"before\n")
        with cli._block_writer((handle,)) as write:
            collections.deque(cli._csv_sections((SAMPLES,), write), maxlen=0)
        handle.write(b"after\n")
    assert (tmp_path / "a").read_bytes() == b"before\n" + SECTION + b"after\n"


def test_in_memory_handles_are_written_in_process(monkeypatch):
    monkeypatch.setattr(cli, "_forks", lambda: False)
    handles = io.BytesIO(), io.BytesIO()
    with cli._block_writer(handles) as write:
        collections.deque(cli._csv_sections((SAMPLES, SAMPLES), write), maxlen=0)
    assert [handle.getvalue() for handle in handles] == [SECTION, SECTION]


def test_the_writer_forks_only_where_it_can_run_beside(monkeypatch):
    """A second usable CPU and no other thread; else the command writes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._forks()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert not cli._forks()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert not cli._forks()
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert not cli._forks()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_process_pinned_to_one_cpu_writes_in_process():
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        assert not cli._forks()
    finally:
        os.sched_setaffinity(0, cpus)


def test_the_writer_runs_no_exit_hook_and_flushes_no_inherited_buffer(tmp_path):
    """The forked writer ends by ``os._exit``: stdout's buffer and the hook appear once."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FREE)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]
    script = (
        "import atexit, sys\n"
        "from galimech import cli\n"
        "cli._forks = lambda: True\n"
        "atexit.register(print, 'exit hook')\n"
        "sys.stdout.write('buffered\\n')\n"
        f"code = cli.main({argv!r})\n"
        "print('exit code', code)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=50)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "buffered\nexit code 0\nexit hook\n", "")
