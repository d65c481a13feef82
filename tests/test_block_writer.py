"""How ``simulate`` and ``boost`` hand their rows to a writer, forked or not.

Every test here ends with no child process left, and an alarm fails a
test that waits on a writer which never ends, so a hung writer cannot
stall the rest of the suite.
"""

import collections
import errno
import hashlib
import io
import itertools
import os
import select
import threading

import pytest

from galimech import _child, cli
from galimech.cli import main
from galimech.frame_dynamics import Sample
from test_trajectory_digest import RUNS, _digests

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


pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture(params=["forked", "in-process"])
def way(request, monkeypatch):
    """The way the CLI writes its rows, whatever the machine."""
    monkeypatch.setattr(_child, "_forks", lambda: request.param == "forked")
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
    monkeypatch.setattr(cli, "_write_block", _full)
    assert _run(tmp_path, command, text, existing) == (2, True)
    captured = capsys.readouterr()
    assert captured.err == ENOSPC
    assert captured.out == ""


def _full(handle, rows):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_writer_that_dies_unannounced_is_an_error(tmp_path, capsys, monkeypatch):
    """A forked writer that ends without a reason sent still fails the command."""
    monkeypatch.setattr(_child, "_forks", lambda: True)
    monkeypatch.setattr(cli, "_write_block", lambda *block: os._exit(9))
    assert _run(tmp_path, SIMULATE, FREE, existing=False) == (2, True)
    assert capsys.readouterr().err == "error: out: CSV writer ended without a result\n"


def _waiting(fd, message):
    """Send ``message`` whatever the pipe's fill, waiting for room."""
    os.set_blocking(fd, True)
    os.write(fd, message)
    os.set_blocking(fd, False)
    return True


# Whether the pipe takes each message in turn, for the command that formats
# every block, every other one (in boost, the first run's), or none.
ROOM = {"every-block": (False,), "every-other-block": (False, True), "no-block": (True,)}


@pytest.fixture(params=sorted(ROOM), ids=lambda way: f"parent-formats-{way}")
def split(request, monkeypatch):
    """A forked writer, with the command formatting the blocks ``ROOM`` says.

    Yields the turns of room and the list of blocks the command formatted so far.
    """
    room = ROOM[request.param]
    turns = itertools.cycle(room)
    monkeypatch.setattr(_child, "_forks", lambda: True)
    monkeypatch.setattr(cli, "_sent", lambda fd, message: next(turns) and _waiting(fd, message))
    formatted, rows = [], cli._rows
    monkeypatch.setattr(cli, "_rows", lambda *block: formatted.append(1) or rows(*block))
    yield room, formatted


@pytest.mark.parametrize("command, runs", [(SIMULATE, 1), (BOOST, 2)], ids=["simulate", "boost"])
@pytest.mark.parametrize("text, steps", [(FREE, 10), (LONG, 6400)],
                         ids=["one-block", "many-blocks"])
def test_either_side_formats_the_in_process_bytes(tmp_path, monkeypatch, split, command, runs,
                                                  text, steps):
    """Blocks formatted by the command reach --out as those the writer formats do."""
    room, formatted = split
    assert _run(tmp_path, command, text, existing=False)[0] == 0
    forked = (tmp_path / "run.csv").read_bytes()
    messages = runs * -(-(steps + 1) // cli._BLOCK)
    assert len(formatted) == sum(not room[i % len(room)] for i in range(messages))
    monkeypatch.setattr(_child, "_forks", lambda: False)
    assert _run(tmp_path, command, text, existing=False)[0] == 0
    assert (tmp_path / "run.csv").read_bytes() == forked


@pytest.mark.parametrize("name", sorted(RUNS))
def test_either_side_formats_the_golden_bytes(tmp_path, split, name):
    out = tmp_path / name
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _digests()[name]


@pytest.mark.parametrize("command", [SIMULATE, BOOST], ids=["simulate", "boost"])
def test_the_command_formats_the_blocks_a_full_pipe_cannot_take(tmp_path, monkeypatch, command):
    """The writer starts only once the command found the pipe full and formatted a block.

    The command then waits for room to send the rows it formatted.
    """
    monkeypatch.setattr(_child, "_forks", lambda: False)
    assert _run(tmp_path, command, LONG, existing=False)[0] == 0
    in_process = (tmp_path / "run.csv").read_bytes()
    parent, (wait, go), started = os.getpid(), os.pipe(), []
    rows, write = cli._rows, cli._write_block

    def formatted(*block):
        if os.getpid() == parent:
            os.write(go, b".")
        return rows(*block)

    def late(handle, text):
        if not started:
            started.append(os.read(wait, 1))
        write(handle, text)

    monkeypatch.setattr(_child, "_forks", lambda: True)
    monkeypatch.setattr(cli, "_rows", formatted)
    monkeypatch.setattr(cli, "_write_block", late)
    try:
        assert _run(tmp_path, command, LONG, existing=False)[0] == 0
        assert (tmp_path / "run.csv").read_bytes() == in_process
    finally:
        os.close(wait)
        os.close(go)


@pytest.mark.parametrize("command", [SIMULATE, BOOST], ids=["simulate", "boost"])
def test_a_message_the_pipe_takes_in_part_is_sent_whole(tmp_path, monkeypatch, command):
    """Where ``PIPE_BUF`` is 512 bytes (macOS, FreeBSD), a write of a block's
    floats may go in part; the command sends the rest, and the bytes are the same."""
    monkeypatch.setattr(_child, "_forks", lambda: False)
    assert _run(tmp_path, command, LONG, existing=False)[0] == 0
    in_process = (tmp_path / "run.csv").read_bytes()
    sizes, write = [], os.write
    monkeypatch.setattr(os, "write", lambda fd, data: sizes.append(len(data))
                        or write(fd, data[:512]))
    monkeypatch.setattr(_child, "_forks", lambda: True)
    assert _run(tmp_path, command, LONG, existing=False)[0] == 0
    assert (tmp_path / "run.csv").read_bytes() == in_process
    assert max(sizes) > 512


def test_a_wait_for_room_leaves_the_pipe_not_blocking():
    """Once ``_write_all`` has sent what it waited for, a full pipe is again found
    full at once, so the command formats the next block rather than wait."""
    read, write = os.pipe()
    try:
        os.set_blocking(write, False)
        cli._write_all(write, b".")
        assert not os.get_blocking(write)
    finally:
        os.close(read)
        os.close(write)


@pytest.mark.parametrize("command", [SIMULATE, BOOST], ids=["simulate", "boost"])
def test_a_write_error_with_formatted_blocks_in_flight(tmp_path, capsys, monkeypatch, command):
    """The writer fails while the command sends it rows it formatted: one line, exit 2."""
    monkeypatch.setattr(_child, "_forks", lambda: True)
    monkeypatch.setattr(cli, "_sent", lambda fd, message: False)
    monkeypatch.setattr(cli, "_write_block", _full)
    assert _run(tmp_path, command, LONG, existing=True) == (2, True)
    assert capsys.readouterr() == ("", ENOSPC)


def test_the_largest_message_sent_without_waiting_fits_in_a_pipe(tmp_path, monkeypatch):
    """A write of at most ``PIPE_BUF`` bytes to a full pipe leaves it as it was."""
    largest = cli._HEAD.size + 8 * cli._BLOCK * len(Sample._fields)
    assert largest <= select.PIPE_BUF
    sizes, sent = [], cli._sent
    monkeypatch.setattr(_child, "_forks", lambda: True)
    monkeypatch.setattr(cli, "_sent", lambda fd, message: sizes.append(len(message))
                        or sent(fd, message))
    for command in SIMULATE, BOOST:
        assert _run(tmp_path, command, LONG, existing=False)[0] == 0
    assert max(sizes) == largest


SAMPLES = [Sample(*map(float, range(i, i + 8))) for i in range(3)]
SECTION = cli._CSV_HEADER + b"".join(b"%d" % i + cli._CSV_FIELDS % s
                                     for i, s in enumerate(SAMPLES))


def test_what_a_handle_held_before_the_fork_is_written_once(tmp_path, monkeypatch):
    monkeypatch.setattr(_child, "_forks", lambda: True)
    with open(tmp_path / "a", "wb") as handle:
        handle.write(b"before\n")
        with cli._block_writer((handle,)) as write:
            collections.deque(cli._csv_sections((SAMPLES,), write), maxlen=0)
        handle.write(b"after\n")
    assert (tmp_path / "a").read_bytes() == b"before\n" + SECTION + b"after\n"


def test_in_memory_handles_are_written_in_process(monkeypatch):
    monkeypatch.setattr(_child, "_forks", lambda: False)
    handles = io.BytesIO(), io.BytesIO()
    with cli._block_writer(handles) as write:
        collections.deque(cli._csv_sections((SAMPLES, SAMPLES), write), maxlen=0)
    assert [handle.getvalue() for handle in handles] == [SECTION, SECTION]


def test_the_writer_forks_only_where_it_can_run_beside(monkeypatch):
    """A second usable CPU and no other thread; else the command writes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _child._forks()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert not _child._forks()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert not _child._forks()
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert not _child._forks()
