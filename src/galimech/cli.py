"""Command line front end.

Four subcommands: ``simulate`` writes one trajectory as CSV, ``boost``
runs the same physical motion in two frames and reports the worst event
discrepancy, ``verify`` runs the property suites, and ``legendre``
evaluates the momentum lift of a configured initial condition.  Rows
are written a block at a time; memory is bounded by one block per run.
Where ``_child._forks`` allows, ``simulate`` and ``boost`` hand their
rows to a forked writer while the command integrates: ``_child`` states
the rules of its lifetime, and ``_send`` how each block reaches it.  Only
the writer touches the output; failures and exit codes are the same.

Exit codes: 0 success, 1 verification or covariance failure, 2 invalid
input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import math
import os
import shutil
import struct
import sys
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain, cycle, islice, starmap
from typing import BinaryIO

from .affine_values import affine_momentum, shell_function
from ._child import _forks, forked
from .chart import Frame, SpatialCovector, SpatialVector, embed, metric
from .config import ConfigError, RunConfig, _float, _floats, _positive, load_config
from .frame_dynamics import Sample, integrate
from .homogeneous import legendre, mass_shell_residual
from .verify import _worst, max_event_gap, render_report, run_checks

__all__ = ["main"]

_CSV_HEADER = ",".join(("step", *Sample._fields)).encode() + b"\n"
# A row after its step index: a sample's floats; "%.17g" writes the same
# bytes as format(v, ".17g").
_CSV_FIELDS = b",%.17g" * len(Sample._fields) + b"\n"
# Steps formatted by one "%" and written by one write.  A run's block goes
# to a forked writer as one message, _HEAD.size bytes and 64 a step, which
# must fit in PIPE_BUF (4,096 on Linux) to go whole or not at all: at most
# 63 steps.  32 is as fast as 48 or 63, and 16 is 6-10% slower (simulate
# and boost in process, 2 vCPUs, Python 3.11).
_BLOCK = 32
# A message to the forked writer: a block's first row and its size, then
# that many doubles if it is positive, or as many bytes of rows as its
# negative if the sender formatted them.  A size of 0 ends the sections.
_HEAD = struct.Struct("=qq")

# Options whose value is a number and may start with "-".
_SIGNED_OPTIONS = frozenset({"--boost", "--corrupt-momentum", "--tol"})


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _rows(start: int, flat: Sequence[float]) -> bytes:
    """Rows ``start, ...`` of one run's CSV section, ``flat`` holding their samples' floats.

    The header goes first when ``start`` is 0.  One ``%`` per block.
    """
    steps = map(b"%d".__mod__, range(start, start + len(flat) // len(Sample._fields)))
    return ((b"" if start else _CSV_HEADER) + _CSV_FIELDS.join(steps) + _CSV_FIELDS) % flat


def _write_block(handle: BinaryIO, rows: bytes):
    """Write a block's ``rows`` to an output: only the process that writes calls this."""
    handle.write(rows)


def _writer(handles: Sequence[BinaryIO], pipe: BinaryIO, out: BinaryIO) -> tuple | None:
    """The forked child's body: ``_write_block`` each block ``_send`` put into
    ``pipe``, the runs' blocks taking turns.  Its message is None once the
    handles are flushed, or a write error's arguments."""
    out.close()  # the command's end of the pipe: else it never ends
    try:
        for handle in cycle(handles):
            start, size = _HEAD.unpack(pipe.read(_HEAD.size))
            if not size:
                break
            _write_block(handle, pipe.read(-size) if size < 0 else _rows(
                start, struct.unpack("=%dd" % size, pipe.read(8 * size))))
        for handle in handles:
            handle.flush()
    except OSError as exc:
        return exc.args


def _sent(fd: int, message: bytes) -> bool:
    """Whether the pipe ``fd``, which does not block, took ``message`` at once:
    a write of at most ``PIPE_BUF`` bytes goes whole or not at all."""
    try:
        os.write(fd, message)
    except BlockingIOError:
        return False
    return True


def _write_all(fd: int, data: bytes):
    """Write all of ``data`` to the pipe ``fd``, waiting for room."""
    os.set_blocking(fd, True)
    while data:
        data = data[os.write(fd, data):]
    os.set_blocking(fd, False)


def _send(fd: int, start: int, flats: Sequence[tuple]):
    """Hand each run's block from row ``start`` to the ``_writer`` reading pipe ``fd``.

    A block goes as floats while the pipe has room for them.  A full pipe
    means the writer is behind, so the block goes as rows formatted here.
    """
    for flat in flats:
        if not _sent(fd, struct.pack("=qq%dd" % len(flat), start, len(flat), *flat)):
            rows = _rows(start, flat)
            _write_all(fd, _HEAD.pack(start, -len(rows)) + rows)


@contextlib.contextmanager
def _block_writer(handles: Sequence[BinaryIO]) -> Iterator:
    """Yield ``write(start, flats)``, which writes one block of each run's rows.

    Where ``_forks`` allows, a ``forked`` ``_writer`` writes them while the
    caller goes on, to the files ``handles`` hold; only it touches them
    until it is reaped.  Its write error is raised here.
    """
    if not _forks():
        def write(start, flats):
            for handle, flat in zip(handles, flats):
                _write_block(handle, _rows(start, flat))
        yield write
        return
    for handle in handles:
        handle.flush()
    read, fd = os.pipe()
    with open(read, "rb") as blocks, open(fd, "wb") as out, \
            forked(partial(_writer, handles, blocks, out)) as receive:
        blocks.close()  # else a full pipe to a writer that stopped waits forever
        os.set_blocking(fd, False)
        with contextlib.suppress(BrokenPipeError):  # the writer's message says why
            yield partial(_send, fd)
            _write_all(fd, _HEAD.pack(0, 0))
        error = ("out: CSV writer ended without a result",)
        with contextlib.suppress(EOFError):
            error = receive()
    if error is not None:
        raise OSError(*error)


def _csv_sections(runs: Sequence[Iterable[Sample]], write: Callable
                  ) -> Iterator[tuple[Sequence[Sample], ...]]:
    """Advance ``runs`` in lockstep, handing run i's CSV rows to ``write`` as ``flats[i]``.

    ``_BLOCK`` steps at a time, to a ``_block_writer``'s ``write``; each
    block is then yielded as one tuple of samples per run.
    """
    lockstep, start = zip(*runs), 0
    while block := tuple(zip(*islice(lockstep, _BLOCK))):
        write(start, tuple(tuple(chain.from_iterable(samples)) for samples in block))
        yield block
        start += _BLOCK


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[BinaryIO]:
    """A new binary file that takes ``path``'s place only if the block completes.

    It is made in the directory of the file ``path`` names (through any
    symlink), so ``os.replace`` swaps it in atomically, with the mode a
    plain ``open`` would give it.  Whatever ends the block early removes
    it: a failed run writes no partial output and leaves an existing file
    as it was.  Only a regular file can be replaced; a device or a
    directory is refused before anything is written.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"out: not a regular file: {path}")
    try:
        fd, tmp = tempfile.mkstemp(prefix=".galimech-", suffix=".tmp",
                                   dir=os.path.dirname(target))
    except OSError as exc:
        raise OSError(f"out: {exc.strerror}: {path}") from None
    try:
        with open(fd, "wb") as handle:
            # Reading the umask means setting it; the restrictive value
            # errs on the safe side for anything created in between.
            umask = os.umask(0o077)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield handle
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _run(cfg: RunConfig, u: Frame, p0: SpatialCovector) -> Iterator[Sample]:
    return integrate(u, cfg.mass, cfg.potential, cfg.x0, p0, cfg.dt, cfg.steps)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    samples = _run(cfg, cfg.frame, cfg.p0)
    with _replacing(args.out) as handle, _block_writer((handle,)) as write:
        # A zero-length deque drains the blocks without a Python loop.
        collections.deque(_csv_sections((samples,), write), maxlen=0)
    return 0


def _cmd_boost(args) -> int:
    cfg = load_config(args.config)
    boost = SpatialVector(*_floats("boost", args.boost, 3))
    corrupt = _float("corrupt-momentum", args.corrupt_momentum)
    u1 = cfg.frame
    u2 = Frame.from_boost(u1.boost() + boost)
    # Same physical initial condition seen from the boosted frame.
    p2 = cfg.p0 - metric(boost) * cfg.mass
    if corrupt:
        p2 = p2 + SpatialCovector(corrupt, 0.0, 0.0)
    first = _run(cfg, u1, cfg.p0)
    second = _run(cfg, u2, p2)

    # The two runs advance together: the first section goes straight to
    # the output, the second to a scratch file appended once the writer is
    # reaped.  The event gap is folded per block.  Only finite samples are
    # yielded: no gap is NaN, so the fold reads both to the end.
    with _replacing(args.out) as handle, tempfile.TemporaryFile() as later:
        with _block_writer((handle, later)) as write:
            discrepancy = _worst(starmap(max_event_gap, _csv_sections((first, second), write)))
        later.seek(0)
        handle.write(b"\n")
        shutil.copyfileobj(later, handle)
        handle.write(f"\nmax_event_discrepancy={_fmt(discrepancy)}\n".encode())
    if discrepancy <= cfg.tol:
        return 0
    print(f"error: event discrepancy {discrepancy:.3e} exceeds tol {cfg.tol:.3e}",
          file=sys.stderr)
    return 1


def _cmd_verify(args) -> int:
    tol = None if args.tol is None else _positive("tol", args.tol)
    results = run_checks(trials=args.trials, seed=args.seed, tolerance=tol)
    for line in render_report(results):
        print(line)
    return 0 if all(result.passed for result in results) else 1


def _cmd_legendre(args) -> int:
    cfg = load_config(args.config)
    if cfg.v0 is None:
        raise ConfigError("v0: required for legendre")
    phi = cfg.potential.value(cfg.x0)
    if not math.isfinite(phi):
        raise OverflowError(f"legendre: potential value at x0 is {phi}")
    v = embed(cfg.v0) + cfg.frame
    p = legendre(cfg.frame, cfg.mass, cfg.potential, cfg.x0, v)
    momentum = affine_momentum(cfg.mass, cfg.frame, p)
    residual = mass_shell_residual(cfg.frame, cfg.mass, cfg.potential, cfg.x0, p)
    defect = shell_function(momentum) + phi
    if not all(map(math.isfinite, (*p.components(), *momentum.p.components(),
                                   residual, defect))):
        raise OverflowError("legendre: result left finite range")
    print("momentum = " + ",".join(_fmt(c) for c in p.components()))
    print("class_momentum = " + ",".join(_fmt(c) for c in momentum.p.components()))
    print("shell_residual = " + _fmt(residual))
    print("shell_energy_plus_potential = " + _fmt(defect))
    if abs(residual) > cfg.tol:
        print(f"error: shell residual {residual:.3e} exceeds tol {cfg.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error as one ``error: ...`` line, exit code 2."""
        self.exit(2, f"error: {message}\n")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--tol -1e-3`` as ``--tol=-1e-3`` for the signed options.

    argparse would read ``-1e-3``, ``-inf`` or ``-0.7,0,0`` as an option.
    """
    attached: list[str] = []
    for token in argv:
        if (attached and attached[-1] in _SIGNED_OPTIONS
                and token.startswith("-") and not token.startswith("--")):
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return attached


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="galimech",
        description="Frame-independent Newtonian particle mechanics tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    simulate.add_argument("--config", required=True, help="run configuration file")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.set_defaults(func=_cmd_simulate)

    boost = sub.add_parser(
        "boost", help="integrate in the configured and a boosted frame, compare")
    boost.add_argument("--config", required=True, help="run configuration file")
    boost.add_argument("--boost", required=True, metavar="BX,BY,BZ",
                       help="boost added to the configured frame")
    boost.add_argument("--out", required=True, help="output path (two CSV sections)")
    boost.add_argument("--corrupt-momentum", default="0",
                       metavar="DELTA",
                       help="test hook: offset the boosted momentum map")
    boost.set_defaults(func=_cmd_boost)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", default=None,
                        help="override every per-suite tolerance")
    verify.set_defaults(func=_cmd_verify)

    legendre_cmd = sub.add_parser(
        "legendre", help="evaluate the momentum lift of the configured state")
    legendre_cmd.add_argument("--config", required=True, help="run configuration file")
    legendre_cmd.set_defaults(func=_cmd_legendre)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
