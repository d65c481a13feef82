"""The pinned outputs are a portable contract across CPython versions.

``pyproject.toml`` admits Python 3.10 and later.  Each other CPython of
at least 3.10 found here (``python3.N`` on ``PATH``, and every pyenv
version) reports on one value of each ``_frozen`` type (``repr``,
``dataclasses.replace``, the field names, a refused assignment), then runs
``galimech verify --trials 50`` at the pinned seeds and the five golden
runs, all in one child process.  Its reports must equal
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

# For one value of each ``_frozen`` type: its ``repr``, a ``dataclasses.replace``
# of one field, its field names and what assigning that field, or a name
# that is none, raises.
_FROZEN = """
import dataclasses
from galimech import affine_values as av, chart, config, potentials as pot, verify
x, p = chart.Event(0.5, 1.0, -1.0, 2.0), chart.FourCovector(-0.5, 0.25, 0.75, -1.5)
v, u = chart.FourVector(1.5, 0.5, -0.5, 1.0), chart.Frame(1.0, 0.5, -0.25, 0.125)
q = chart.SpatialCovector(0.25, -0.5, 1.0)
for value, changes in [
        (v, {"dz": 0.25}), (p, {"pt": 2.0}), (chart.SpatialVector(1.0, 2.0, 3.0), {"y": -1.0}),
        (q, {"x": 0.5}), (u, {"dx": 0.0}), (x, {"t": 3.0}),
        (av.LagrangianValue(1.5, v, 0.25), {"value": -0.5}),
        (av.AffineMomentum(1.5, p), {"mass": 2.0}), (pot.ZeroPotential(), {}),
        (pot.UniformPotential(p), {"slope": chart.TIME_FORM}),
        (pot.HarmonicPotential(1.0), {"center": x}),
        (config.RunConfig(1.5, pot.HarmonicPotential(2.0, x), u, x, q, 0.125, 8, 1e-6),
         {"steps": 9}),
        (verify.Check("suite", 1e-12, abs), {"max_trials": 3}),
        (verify.CheckResult("suite", 3, 0.5, 1.0), {"max_error": 2.0})]:
    try:
        setattr(value, next(iter(changes), "not_a_field"), None)
        refused = "nothing"
    except Exception as exc:
        refused = type(exc).__qualname__
    print(repr(value), repr(dataclasses.replace(value, **changes)),
          [f.name for f in dataclasses.fields(value)], refused)
"""

# The ``_frozen`` and verify reports on stdout, the golden outputs into the
# given directory.
_CHILD = _FROZEN + """
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
            exec(_FROZEN, {})
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
            differences.append(f"{minor}: _frozen or verify report differs")
        for name in sorted(RUNS):
            got = hashlib.sha256((tmp_path / minor / name).read_bytes()).hexdigest()
            if got != digests[name]:
                differences.append(f"{minor}: {name} differs from SHA256SUMS")
    assert not differences, "\n".join(differences)
