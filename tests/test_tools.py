"""The mutation probe's command line, up to where probing would start."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _load_mutants():
    sys.path.insert(0, str(MUTANTS.parent))
    try:
        import mutants
    finally:
        sys.path.remove(str(MUTANTS.parent))
    return mutants


def test_mutants_rejects_an_unknown_module_in_one_line():
    done = subprocess.run([sys.executable, str(MUTANTS), "verify.py", "nosuch.py"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: not a module of src/galimech: nosuch.py\n"


def test_operators_inside_source_templates_are_mutated():
    """A template string's operators get mutants; docstrings and plain text do not."""
    mutants = _load_mutants()
    source = ('"""Doc: a - b."""\n'
              'T = ("x = {a} + 2.0 * -g  # a + b"\n'
              '     "\\ny = (c - d) / e")\n'
              'MESSAGE = "non-finite"\n')
    found = mutants.mutants("m.py", source)
    assert [(m.line, m.change) for m in found] == [
        (2, "'+' -> '-' in a string"), (2, "'*' -> '/' in a string"),
        (2, "unary '-' dropped in a string"), (3, "'-' -> '+' in a string"),
        (3, "'/' -> '*' in a string")]
    changed = [mutants.mutated_source(source, m.index).splitlines()[1] for m in found]
    assert changed == [
        "T = 'x = {a} - 2.0 * -g  # a + b\\ny = (c - d) / e'",
        "T = 'x = {a} + 2.0 / -g  # a + b\\ny = (c - d) / e'",
        "T = 'x = {a} + 2.0 * g  # a + b\\ny = (c - d) / e'",
        "T = 'x = {a} + 2.0 * -g  # a + b\\ny = (c + d) / e'",
        "T = 'x = {a} + 2.0 * -g  # a + b\\ny = (c - d) * e'"]


FORKS_A_SLEEPER = """\
import os, sys, time
sleeper = os.fork()
if sleeper == 0:
    time.sleep(600)
    os._exit(0)
with open(sys.argv[1], "w") as pid:
    pid.write(str(sleeper))
{parent}
"""


def _gone(pid: int, within_s: float) -> bool:
    """Whether process ``pid`` ends (or is left only to be reaped) within ``within_s``."""
    end = time.monotonic() + within_s
    while time.monotonic() < end:
        try:
            if Path(f"/proc/{pid}/stat").read_text().split(") ")[1][0] == "Z":
                return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("parent, outcome", [("time.sleep(600)", (None, "")),
                                             ("print('done')", (0, "done\n"))],
                         ids=["hung", "exited"])
def test_a_child_takes_what_it_forked_with_it(tmp_path, parent, outcome):
    """A forked grandchild that never ends is killed with its parent, and
    does not hold the probe up when its parent has exited."""
    mutants = _load_mutants()
    (tmp_path / "src").mkdir()
    pid_file = tmp_path / "sleeper.pid"
    script = FORKS_A_SLEEPER.format(parent=parent)
    start = time.monotonic()
    assert mutants._run(tmp_path, ("-c", script, str(pid_file)), 5) == outcome
    assert time.monotonic() - start < 30
    assert _gone(int(pid_file.read_text()), within_s=10)
