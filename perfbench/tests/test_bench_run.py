"""The benchmark's loop counts failures and refuses to run without sources."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from inputs import Case, make_case

HERE = Path(__file__).resolve().parent.parent


def test_corrupt_momentum_run_counts_as_failed(tmp_path, capsys):
    case = make_case("boost-drifting-slope", 3, tmp_path)
    good = run.run_iteration(case, "run", tmp_path, "good")
    assert good.ok and good.work == 2 * case.params["steps"], good.error
    corrupt = dataclasses.replace(case, argv=case.argv + ["--corrupt-momentum", "0.5"])
    bad = run.run_iteration(corrupt, "run", tmp_path, "bad")
    assert not bad.ok and "exited 1" in bad.error

    def fake_loop(*_, **__):
        return [good, bad]

    original = run._loop
    run._loop = fake_loop
    try:
        assert run.run_workload("boost-drifting-slope", 3, 1, trace=False) is False
    finally:
        run._loop = original
    out = capsys.readouterr().out.strip().splitlines()
    assert "failed_frac 0.5" in "\n".join(out)
    result = json.loads(out[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-registry", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_peak_rss_is_the_child_own(tmp_path):
    # The client holds far more memory than a short verify needs.
    ballast = bytearray(120 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    case = Case("verify-registry", ["verify", "--trials", "2"])
    it = run.run_iteration(case, "run", tmp_path, "rss")
    assert it.ok, it.error
    assert it.record["maxrss_kb"] < 60 * 1024
    del ballast
