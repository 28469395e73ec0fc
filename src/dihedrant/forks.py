"""One fork-join for lists of independent items, behind one guard.

``_fork_spans`` decides how many spans run at once, and ``_joined`` runs a function over
contiguous chunks of the items in that many processes (this one and forked children) and
joins the chunks' lists in chunk order.  The spans pull the chunks from one queue, so a span
on a busy CPU takes fewer of them.  A child only writes its outcome to a pipe that the
caller reads; the caller writes to no child.  The callers: a random search's sample indices
and ``run_claims``'s claims in :mod:`dihedrant.analysis`, and ``echelon``'s primes in
:mod:`dihedrant.matrix`.  A tracer loses the chunks that run in a child.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Sequence, TypeVar

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


def _joined(function: Callable[[Sequence], list[T]], items: Sequence, spans: int) -> list[T]:
    """``function(items)``, for a function whose list over the items is its lists over their slices joined.

    With one span or fewer than two items this process calls it.  Otherwise the items are cut
    into at most 256 contiguous chunks, whose positions go to one pipe, one byte each, before
    any fork; this process and ``spans - 1`` forked children pull positions until the pipe is
    empty.  A child sends back its (position, list) pairs (they must marshal) or its exception
    and leaves by ``os._exit``.  Every child is reaped before this returns or raises.
    """
    if spans < 2 or len(items) < 2:
        return function(items)
    chunks = min(len(items), 256)
    bounds = [len(items) * k // chunks for k in range(chunks + 1)]

    def pulled() -> list[tuple[int, list[T]]]:
        done = []
        while position := os.read(queue, 1):
            k = position[0]
            done.append((k, function(items[bounds[k] : bounds[k + 1]])))
        return done

    queue, write = os.pipe()
    children = []  # [pid, read end] of each forked span; None once reaped or closed
    try:
        with open(write, "wb") as pipe:  # closed before any fork, so every span sees the end of the queue
            pipe.write(bytes(range(chunks)))
        for _ in range(spans - 1):
            children.append(_fork_span(pulled))
        done = pulled()
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
            done += payload
    finally:
        os.close(queue)
        for pid, read in children:
            if read is not None:
                os.close(read)
            if pid is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    lists = dict(done)
    return [result for k in range(chunks) for result in lists[k]]


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
