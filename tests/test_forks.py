"""The one fork-join: ``forks._joined`` against the serial list."""

import os

import pytest

from dihedrant.forks import _joined

from conftest import deadline


@pytest.mark.parametrize("spans", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 255, 256, 257, 1000])
def test_the_join_equals_the_serial_list(count, spans, forks):
    if spans > 1 and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    items = list(range(count))
    with deadline(60):
        assert _joined(lambda xs: [x * x for x in xs], items, spans) == [x * x for x in items]
        assert len(forks) == (spans - 1 if count > 1 else 0)
        # one (first item, length) pair per call: contiguous chunks in order, at most 256 of them when forked
        chunks = _joined(lambda xs: [(xs[0], len(xs))] if xs else [], items, spans)
    assert [start for start, _ in chunks] == [sum(length for _, length in chunks[:k]) for k in range(len(chunks))]
    assert sum(length for _, length in chunks) == count
    assert len(chunks) == (min(count, 256) if spans > 1 and count > 1 else min(count, 1))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
