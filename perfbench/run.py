"""Benchmark of the galimech command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root.  Inputs are drawn from ``--seed``
(``inputs.py``); every command's output is checked against an oracle
that does not use galimech (``oracles.py``).  The loop is closed: one
client (this process) runs one child interpreter at a time and starts
the next only after the previous has exited, until ``--seconds`` would
be exceeded.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced run (``tracer.py``).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn and rewrites
``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spec
from inputs import Case, make_case
from oracles import CHECKS, OracleError
from tracer import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
MIN_TIMED = 3
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here at all."""


@dataclass
class Iteration:
    """One child process running one galimech command."""

    mode: str
    elapsed_s: float
    ok: bool = False
    error: str = ""
    work: int = 0
    output_bytes: int = 0
    record: dict = field(default_factory=dict)
    spans: str | None = None
    timed_out: bool = False


def _child_argv(mode: str, result: Path, spans: Path | None, case: Case) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), str(SRC), mode, str(result),
            *([str(spans)] if spans else []), "--", *case.argv]


def setup_time(case: Case) -> float:
    """Seconds for a fresh interpreter to import galimech.cli and load the config."""
    start = time.perf_counter()
    proc = subprocess.run(_child_argv("setup", Path(os.devnull), None, case),
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed


def run_iteration(case: Case, mode: str, work: Path, tag: str) -> Iteration:
    """Run ``case`` once in a child process and check its output."""
    result, stdout = work / f"{tag}.json", work / f"{tag}.stdout"
    spans = work / f"{tag}.spans.tsv" if mode == "trace" else None
    start = time.perf_counter()
    try:
        with open(stdout, "w", encoding="utf-8") as handle:
            proc = subprocess.run(_child_argv(mode, result, spans, case), cwd=ROOT,
                                  stdout=handle, stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Iteration(mode, time.perf_counter() - start, timed_out=True,
                         error=f"timed out after {CHILD_TIMEOUT_S} s")
    it = Iteration(mode, time.perf_counter() - start, spans=str(spans) if spans else None)
    if proc.returncode != 0 or not result.exists():
        it.error = f"child exited {proc.returncode}: {proc.stderr.strip()}"
        return it
    it.record = json.loads(result.read_text(encoding="utf-8"))
    if it.record["rc"] != 0:
        it.error = f"galimech exited {it.record['rc']}: {proc.stderr.strip()}"
        return it
    output = Path(case.out) if case.out else stdout
    try:
        it.work = CHECKS[case.workload](case, output.read_text(encoding="utf-8"))
    except (OSError, OracleError, ValueError, IndexError) as exc:
        it.error = f"oracle: {exc}"
        return it
    it.output_bytes = output.stat().st_size + (stdout.stat().st_size if case.out else 0)
    it.ok = it.work > 0
    return it


def _loop(case: Case, work: Path, seconds: float, modes: tuple[str, ...],
          minimum: int, between=None) -> list[Iteration]:
    """Closed loop over ``modes`` until the next child would overrun ``seconds``.

    ``between`` runs before each child; a hung child ends the loop.
    """
    done: list[Iteration] = []
    start = time.perf_counter()
    while True:
        if between is not None:
            between()
        mode = modes[len(done) % len(modes)]
        done.append(run_iteration(case, mode, work, f"{mode}-{len(done)}"))
        elapsed = time.perf_counter() - start
        if done[-1].timed_out or (len(done) >= minimum
                                  and elapsed + done[-1].elapsed_s > seconds):
            return done


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _wall_net(it: Iteration) -> float:
    """The command's wall time without the time the speed probe took."""
    return it.record["wall_s"] - it.record["probe_s"]


def _wall_ref(it: Iteration) -> float:
    """The command's wall time at the reference speed (``speed.py``)."""
    return _wall_net(it) * it.record["speed"]


def end_to_end(case: Case, work: Path, seconds: float) -> tuple[list[Iteration], dict]:
    # Probes are spread over the run so that one burst of load on the
    # machine does not move them all.
    setup: list[float] = []
    its = _loop(case, work, seconds, ("run",), MIN_TIMED,
                between=lambda: setup.append(setup_time(case)))
    setup += [setup_time(case) for _ in range(SETUP_PROBES - len(setup))]
    ok = [it for it in its if it.ok]
    # Set-up children are too short to carry the speed probe; the run's
    # median speed scales them.
    speed = _median(it.record["speed"] for it in ok)
    metrics = {
        "setup_s": statistics.median(setup) * speed if speed else None,
        "setup_s_unscaled": statistics.median(setup),
        "wall_ref_s": _median(_wall_ref(it) for it in ok),
        "work_per_ref_s": _median(it.work / _wall_ref(it) for it in ok),
        "peak_rss_mb": _median(it.record["maxrss_kb"] / 1024 for it in ok),
    }
    return its, metrics


def per_layer(case: Case, work: Path, seconds: float) -> tuple[list[Iteration], dict]:
    start = time.perf_counter()
    memory = run_iteration(case, "memory", work, "memory")
    its = [memory] if memory.timed_out else [memory] + _loop(
        case, work, seconds - (time.perf_counter() - start), ("run", "trace"), 2)
    ok = [it for it in its if it.ok]
    traced = [it for it in ok if it.mode == "trace"]
    layers = []
    for it in traced:
        layers.append(layer_metrics(read_spans(it.spans), it.record["calls"],
                                    it.record["counts"], it.record["steps"], spec.SUITES))
    if traced:
        OUT.mkdir(exist_ok=True)
        os.replace(traced[-1].spans, OUT / f"{case.workload}.spans.tsv")
    untraced = _median(_wall_net(it) for it in ok if it.mode == "run")
    traced_wall = _median(it.record["wall_s"] for it in traced)
    metrics = {name: _median(layer[name] for layer in layers) for name in
               (layers[0] if layers else ())}
    metrics["frame_dynamics.trajectory_bytes"] = (
        memory.record.get("trajectory_bytes") if memory.ok else None)
    metrics["cli.output_bytes"] = _median(it.output_bytes for it in ok)
    metrics["trace.overhead_frac"] = (traced_wall / untraced - 1.0
                                      if untraced and traced_wall else None)
    return its, metrics


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> bool:
    """Run one workload, print its report; True when every output was correct."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        case = make_case(workload, seed, work)
        measure = per_layer if trace else end_to_end
        its, metrics = measure(case, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {name: unit for name, unit, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)}
    failed = [it for it in its if not it.ok]
    context = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "git_sha": _git_sha(), "loop": "closed, 1 client, 1 child at a time"}
    print("context " + json.dumps(context))
    for it in failed:
        print(f"failed {it.mode}: {it.error}")
    print(f"runs {len(its)} failed {len(failed)} failed_frac {len(failed) / len(its):.4g}")
    timed = [it for it in its if it.ok and it.mode == "run"]
    if len(timed) >= 2:
        for name, values in (("wall_s", [_wall_net(it) for it in timed]),
                             ("speed", [it.record["speed"] for it in timed])):
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{name} per run: n={len(values)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f}")
    for name in sorted(metrics.keys() - units.keys()):
        print(f"{name} = {metrics[name]:.6g} (for reference, not a result)")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"{name} = {'n/a' if value is None else format(value, '.6g')} {unit}")

    correct = not failed and all(
        value is not None and math.isfinite(value) for value in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": len(its),
        "failed": len(failed),
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "galimech" / "cli.py").is_file():
        print(f"error: no galimech sources at {SRC}", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        correct = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        spec.write_benchmark_json()
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
