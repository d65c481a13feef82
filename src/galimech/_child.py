"""A forked child's whole life, the same for the CSV writer of ``simulate``
and ``boost`` and for the worker of ``verify``:

- it is forked only where ``_forks`` holds: a second usable CPU, for on one
  it only adds work, and no other thread, for a fork copies only this one;
- it sends what its body returns as one ``marshal`` message (none if the
  body raises), and ends only through ``os._exit``, so no exit hook or
  inherited buffer runs twice;
- the parent does its own side, then reads that message, ``EOFError`` if
  none came whole; however its side ends, it kills the child with
  ``SIGKILL``, reaps it and closes its end of the pipe.
"""

import contextlib
import marshal
import os
import signal
import threading
from functools import partial
from typing import Callable, Iterator


def _forks() -> bool:
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)
    return hasattr(os, "fork") and len(cpus) > 1 and threading.active_count() == 1


def _send(pipe, message):
    marshal.dump(message, pipe)


@contextlib.contextmanager
def forked(body: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """Fork a child that sends what ``body()`` returns; yield the call that reads it."""
    read, write = os.pipe()
    with open(read, "rb") as pipe, open(write, "wb") as out:
        if (pid := os.fork()) == 0:
            try:
                _send(out, body())
                out.close()
            finally:
                os._exit(0)
        out.close()  # else the pipe of a child that sends nothing never ends
        try:
            yield partial(marshal.load, pipe)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
