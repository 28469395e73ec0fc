"""One fork-join for independent spans of work, behind one guard.

A span is a function whose result is a list that ``marshal`` can write.
``_fork_spans`` decides how many spans run at once, ``_joined_spans`` runs
them (this process the first, a forked child each other one) and joins their
lists in span order, and ``_joined_ring`` does the same for spans that also
pass frames round a ring of pipes.  The callers: a random search's sample
spans and ``run_claims``'s claim spans in :mod:`dihedrant.analysis`, and
``echelon``'s column spans in :mod:`dihedrant.matrix`.  A tracer loses the
spans that run in a child.
"""

from __future__ import annotations

import functools
import marshal
import os
import sys
from typing import BinaryIO, Callable, TypeVar

T = TypeVar("T")


def _fork_spans(most: int) -> int:
    """How many spans to run at once: one per usable CPU, at most ``most`` and at least one.

    The CPUs are ``os.sched_getaffinity``'s, else ``os.cpu_count``'s.  Without ``os.fork``, or
    with other threads running, which a forked child would not have, it is one.
    """
    if most < 2:  # decided before any system call: small eliminations ask this once each
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


def _joined_ring(spans: list[Callable[[BinaryIO, BinaryIO], list[T]]]) -> list[T]:
    """``_joined_spans`` of spans that each read frames from the one before and write to the one after.

    Span k is called with the read end of the pipe from span k - 1 and the write end of the pipe
    to span k + 1, both modulo the number of spans, as files: one pipe per span, so 2 fds each.
    """
    fds = []  # pipe k, from span k to span k + 1, is fds[2k] (read) and fds[2k + 1] (write)
    try:
        for _ in spans:
            fds += os.pipe()
        ringed = [functools.partial(_ringed, span, fds, 2 * k - 2, 2 * k + 1) for k, span in enumerate(spans)]
        return _joined_spans(ringed)
    finally:
        for fd in fds:
            os.close(fd)


def _ringed(span: Callable[[BinaryIO, BinaryIO], list[T]], fds: list[int], read: int, write: int) -> list[T]:
    """span(its ring ends), every other end closed first; [] once a neighbour has stopped.

    Each process keeps only its own two ends open, so a span whose neighbour left reads the end
    of its pipe (``EOFError``) or finds it broken (``BrokenPipeError``).  It stops without a
    result, and the join raises the exception of the span that failed.
    """
    ends = fds[read], fds[write]
    for fd in fds:
        if fd not in ends:
            os.close(fd)
    fds.clear()  # this process's ends belong to the files below from here
    try:
        with open(ends[0], "rb") as inp, open(ends[1], "wb") as out:
            return span(inp, out)
    except (EOFError, BrokenPipeError):
        return []


def _send(out: BinaryIO, payload: bytes) -> None:
    """Write one frame: the payload's length in 8 bytes, then the payload."""
    out.write(len(payload).to_bytes(8, "little"))
    out.write(payload)
    out.flush()


def _received(inp: BinaryIO) -> bytes:
    """The payload of the next frame; ``EOFError`` if the pipe ends first."""
    head = inp.read(8)
    size = int.from_bytes(head, "little")
    payload = inp.read(size)
    if len(head) < 8 or len(payload) < size:
        raise EOFError("a ring pipe ended inside a frame")
    return payload
