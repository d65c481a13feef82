"""Golden trajectories: CLI output must stay bit-identical.

``tests/data/golden/SHA256SUMS`` holds the SHA-256 of each output below,
written by the per-object RK4 kernel.  Any change to the integrator,
the CSV layout or the float formatting shows up here; a kernel rewrite
that reorders the arithmetic does too.
"""

import hashlib
from pathlib import Path

import pytest

from galimech.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

RUNS = {
    "zero.csv": ["simulate", "--config", str(GOLDEN / "zero.cfg")],
    "uniform.csv": ["simulate", "--config", str(GOLDEN / "uniform.cfg")],
    "harmonic.csv": ["simulate", "--config", str(GOLDEN / "harmonic.cfg")],
    "uniform-boost.txt": ["boost", "--config", str(GOLDEN / "uniform.cfg"),
                          "--boost", "0.4,-0.25,0.6"],
    "harmonic-boost.txt": ["boost", "--config", str(GOLDEN / "harmonic.cfg"),
                           "--boost", "0.4,-0.25,0.6"],
}


def _digests():
    pairs = (line.split() for line in (GOLDEN / "SHA256SUMS").read_text().splitlines())
    return {name: digest for digest, name in pairs}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_golden_digest(tmp_path, name):
    out = tmp_path / name
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _digests()[name]
