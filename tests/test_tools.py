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
