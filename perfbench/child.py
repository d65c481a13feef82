"""One galimech command in a fresh interpreter, as the benchmark's child process.

    child.py SRC MODE RESULT [SPANS] -- GALIMECH_ARGS...

MODE is ``setup`` (import ``galimech.cli`` and load the config, then
exit), ``run`` (time ``galimech.cli.main`` under the speed probe),
``trace`` (the same under the span tracer) or ``memory`` (the same under
the integrate memory probe).
The command's own output goes to this process's stdout; the timing and
trace results go to RESULT (JSON) and SPANS (TSV).
"""

from __future__ import annotations

import os
import sys
import time


def _peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.

    ``getrusage`` would not do: across exec, Linux carries over the peak of
    the process that spawned this one, so the benchmark's own memory
    would show up here.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    (src, mode, result, *spans), command = argv[:split], argv[split + 1:]
    # Set-up is timed from outside, so nothing beyond galimech is imported
    # before this point.
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    import galimech.cli
    if not os.path.realpath(galimech.cli.__file__).startswith(src + os.sep):
        print(f"error: galimech imported from {galimech.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if mode == "setup":
        if "--config" in command:
            galimech.cli.load_config(command[command.index("--config") + 1])
        return 0

    probe = None
    if mode == "run":
        from speed import SpeedProbe
        probe = SpeedProbe()
    elif mode == "trace":
        from tracer import Tracer
        probe = Tracer(run_id=os.path.basename(result).split(".")[0])
    elif mode == "memory":
        from tracer import MemoryProbe
        probe = MemoryProbe()
    if probe is not None:
        probe.install()
    try:
        start = time.perf_counter()
        rc = galimech.cli.main(command)
        wall = time.perf_counter() - start
    finally:
        if probe is not None:
            probe.restore()
    sys.stdout.flush()

    import json
    record = {"rc": rc, "wall_s": wall, "maxrss_kb": _peak_rss_kb()}
    if mode == "run":
        record.update(probe_s=sum(probe.samples), probes=len(probe.samples),
                      speed=probe.speed())
    elif mode == "trace":
        probe.write(spans[0])
        record.update(calls=dict(probe.calls), counts=dict(probe.counts),
                      steps=probe.steps)
    elif mode == "memory":
        record["trajectory_bytes"] = probe.peak_bytes
    with open(result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
