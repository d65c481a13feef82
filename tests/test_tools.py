"""The mutation probe's command line, up to where probing would start."""

import subprocess
import sys
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_mutants_rejects_an_unknown_module_in_one_line():
    done = subprocess.run([sys.executable, str(MUTANTS), "verify.py", "nosuch.py"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: not a module of src/galimech: nosuch.py\n"


def test_operators_inside_source_templates_are_mutated():
    """A template string's operators get mutants; docstrings and plain text do not."""
    sys.path.insert(0, str(MUTANTS.parent))
    try:
        import mutants
    finally:
        sys.path.remove(str(MUTANTS.parent))
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
