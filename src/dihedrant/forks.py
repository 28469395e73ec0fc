"""One fork-join for independent spans of work, behind one guard.

A span is a function whose result is a list that ``marshal`` can write.
``_fork_spans`` decides how many spans run at once, and ``_joined_spans``
runs them (this process the first, a forked child each other one) and joins
their lists in span order.  A child only writes its outcome to a pipe that
the caller reads; the caller writes to no child.  The callers: a random
search's sample spans and ``run_claims``'s claim spans in
:mod:`dihedrant.analysis`, and ``echelon``'s prime spans in
:mod:`dihedrant.matrix`.  A tracer loses the spans that run in a child.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, TypeVar

T = TypeVar("T")


def _fork_spans(most: int) -> int:
    """How many spans to run at once: one per usable CPU, at most ``most`` and at least one.

    The CPUs are ``os.sched_getaffinity``'s, else ``os.cpu_count``'s.  Without ``os.fork``, or
    with other threads running, which a forked child would not have, it is one.
    """
    if most < 2:  # decided before any system call: a one-prime elimination asks this
        return 1
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, most))


def _joined_spans(spans: list[Callable[[], list[T]]]) -> list[T]:
    """The lists that the spans return, joined in span order.

    This process runs the first span; each other span runs in a forked child, which sends back
    its list (it must marshal) or its exception over a pipe and leaves by ``os._exit``.  Every
    child is reaped before this returns or raises.
    """
    children = []  # [pid, read end] of each forked span, in span order; None once reaped or closed
    try:
        for span in spans[1:]:
            children.append(_fork_span(span))
        joined = spans[0]()
        for child in children:
            pid, read = child
            child[1] = None  # the file object owns the read end from here, and closes it
            with open(read, "rb") as pipe:
                message = pipe.read()
            _, status = os.waitpid(pid, 0)
            child[0] = None
            if not message:
                raise ChildProcessError(f"a span's process ended with wait status {status} and sent nothing")
            ok, payload = marshal.loads(message)
            if not ok:
                import pickle

                raise pickle.loads(payload)
            joined += payload
        return joined
    finally:
        for pid, read in children:
            if read is not None:
                os.close(read)
            if pid is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_span(span: Callable[[], list]) -> list:
    """Fork a child that runs span() and writes the outcome to a pipe; [pid, read end]."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child: never return into the caller's stack, never flush the parent's stdio
        try:
            os.close(read)
            try:
                message = marshal.dumps((True, span()))
            except BaseException as exc:  # sent to the parent, which raises it as a serial run would
                import pickle

                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = pickle.dumps(RuntimeError(f"a forked span raised {exc!r}"))
                message = marshal.dumps((False, payload))
            with open(write, "wb") as pipe:
                pipe.write(message)
        finally:
            os._exit(0)
    os.close(write)
    return [pid, read]
