"""The lifetime that ``_child.forked`` gives both of its users: the CSV writer
of ``simulate`` and ``boost``, and the trial-block worker of ``verify``.

Every test here ends with no child process left, and an alarm fails a test
that waits on a child which never ends.
"""

import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from galimech import cli, verify
from galimech.cli import main
from galimech.verify import render_report, run_checks
from test_block_writer import FREE

SRC = Path(__file__).resolve().parent.parent / "src"
TRIALS = 2 * verify._BLOCK + 1

pytestmark = pytest.mark.usefixtures("no_child_left")


def _argv(tmp_path, command):
    """``command``'s arguments, on a short free-particle config written to ``tmp_path``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FREE)
    return {"simulate": ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")],
            "boost": ["boost", "--boost=0.25,0,0", "--config", str(cfg),
                      "--out", str(tmp_path / "x")],
            "verify": ["verify", "--trials", str(TRIALS)]}[command]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_child_runs_no_exit_hook_and_flushes_no_inherited_buffer(tmp_path, command):
    """The child ends by ``os._exit``: stdout's buffer, the report and the hook appear once."""
    script = (
        "import atexit, sys\n"
        "from galimech import cli, verify\n"
        "cli._forks = verify._forks = lambda: True\n"
        "atexit.register(print, 'exit hook')\n"
        "sys.stdout.write('buffered\\n')\n"
        f"code = cli.main({_argv(tmp_path, command)!r})\n"
        "print('exit code', code)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=50)
    report = render_report(run_checks(trials=TRIALS)) if command == "verify" else []
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "".join(line + "\n" for line in ["buffered", *report, "exit code 0", "exit hook"]),
        "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("command", ["simulate", "boost", "verify"])
def test_a_refused_fork_is_one_error_line_and_leaves_no_file_or_fd(tmp_path, capsys,
                                                                   monkeypatch, command):
    """``os.fork`` failing with ``EAGAIN``: exit 2, one line, no --out, no temporary
    file, and every descriptor opened for the child closed again."""
    def refused():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    argv = _argv(tmp_path, command)
    monkeypatch.setattr(cli, "_forks", lambda: True)
    monkeypatch.setattr(verify, "_forks", lambda: True)
    monkeypatch.setattr(os, "fork", refused)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert main(argv) == 2
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert os.listdir(tmp_path) == ["run.cfg"]
    assert capsys.readouterr() == (
        "", f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_child_whose_parent_is_killed_ends(tmp_path, command):
    """The parent killed as it forks: the child holds no write end of a pipe it
    reads, so it still ends rather than wait for input forever."""
    script = (
        "import os, signal\n"
        "from galimech import cli, verify\n"
        "cli._forks = verify._forks = lambda: True\n"
        "fork = os.fork\n"
        "def fork_and_die():\n"
        "    if pid := fork():\n"
        "        print(pid, flush=True)\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return pid\n"
        "os.fork = fork_and_die\n"
        f"cli.main({_argv(tmp_path, command)!r})\n")
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=str(SRC))) as parent:
        child = int(parent.stdout.readline())
        try:  # the child shares the parent's stdout, which ends when both have
            rest = parent.communicate(timeout=30)[0]
        except subprocess.TimeoutExpired:
            os.kill(child, signal.SIGKILL)
            raise
    assert (parent.returncode, rest) == (-signal.SIGKILL, b"")
