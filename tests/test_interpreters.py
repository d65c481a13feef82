"""The pinned outputs are a portable contract across CPython versions.

``pyproject.toml`` admits Python 3.10 and later.  Each other CPython of
at least 3.10 found here (``python3.N`` on ``PATH``, and every pyenv
version) runs ``galimech verify --trials 50`` at the pinned seeds and
the five golden runs, all in one child process.  Its reports must equal
the running interpreter's byte for byte, and its golden outputs must
match ``tests/data/golden/SHA256SUMS``.  Candidates that do not start,
such as a pyenv shim for a version that is not selected, are skipped;
the first interpreter found stands for its minor version.
"""

import glob
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from galimech.cli import main

from test_trajectory_digest import RUNS, _digests

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (42, 7, 2024)
VERIFY = ["verify", "--trials", "50"]

# Prints the minor version; exits 1 below 3.10, in any Python.
_PROBE = ("import sys; sys.stdout.write('%d.%d' % sys.version_info[:2]); "
          "sys.exit(sys.version_info < (3, 10))")

# The verify reports on stdout, the golden outputs into the given directory.
_CHILD = """
import json, os, sys
from galimech.cli import main
verify, seeds, runs, out = json.loads(sys.argv[1])
codes = [main(verify + ["--seed", str(seed)]) for seed in seeds]
codes += [main(argv + ["--out", os.path.join(out, name)]) for name, argv in runs]
sys.exit(max(codes))
"""


def _candidates() -> list[str]:
    found = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True,
                              timeout=30).stdout.strip()
        if root:
            found += sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python")))
    return list(dict.fromkeys(path for path in found if path))


def _other_interpreters() -> dict[str, str]:
    """Minor version -> the first candidate of it that starts, the running one's excluded."""
    probes = {path: subprocess.Popen([path, "-c", _PROBE], stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
              for path in _candidates()}
    running = "%d.%d" % sys.version_info[:2]
    chosen = {}
    for path, probe in probes.items():
        try:
            minor, _ = probe.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.communicate()
            continue
        if probe.returncode == 0 and minor != running:
            chosen.setdefault(minor, path)
    return chosen


def test_other_interpreters_reproduce_the_pins(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 starts here")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    children = {}
    try:
        for minor, path in interpreters.items():
            out = tmp_path / minor
            out.mkdir()
            arg = json.dumps([VERIFY, SEEDS, sorted(RUNS.items()), str(out)])
            children[minor] = subprocess.Popen([path, "-c", _CHILD, arg], env=env,
                                               stdout=subprocess.PIPE,
                                               stderr=subprocess.PIPE)

        # The running interpreter's reports, made while the children work.
        with redirect_stdout(io.StringIO()) as captured:
            assert all(main(VERIFY + ["--seed", str(seed)]) == 0 for seed in SEEDS)
        want = captured.getvalue().encode()
        outputs = {minor: child.communicate(timeout=120)
                   for minor, child in children.items()}
    finally:
        for child in children.values():
            child.kill()

    digests = _digests()
    differences = []
    for minor, (stdout, stderr) in outputs.items():
        code = children[minor].returncode
        if code != 0:
            differences.append(f"{minor}: exit {code}: {stderr.decode()[-500:]}")
            continue
        if stdout != want:
            differences.append(f"{minor}: verify report differs")
        for name in sorted(RUNS):
            got = hashlib.sha256((tmp_path / minor / name).read_bytes()).hexdigest()
            if got != digests[name]:
                differences.append(f"{minor}: {name} differs from SHA256SUMS")
    assert not differences, "\n".join(differences)
