"""The one fork-join: ``forks._joined`` against the serial list, and the spans it forks."""

import os

import pytest

from dihedrant.forks import _joined

from conftest import deadline


@pytest.mark.parametrize("spans", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 255, 256, 257, 1000])
def test_the_join_equals_the_serial_list(count, spans, monkeypatch, forks):
    if spans > 1 and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr("dihedrant.forks._fork_spans", lambda: spans)
    items = list(range(count))
    with deadline(60):
        assert _joined(lambda xs: [x * x for x in xs], items) == [x * x for x in items]
        assert len(forks) == max(min(spans, count) - 1, 0)
        # one (first item, length) pair per call: contiguous chunks in order, at most 256 of them when forked
        chunks = _joined(lambda xs: [(xs[0], len(xs))] if xs else [], items)
    assert [start for start, _ in chunks] == [sum(length for _, length in chunks[:k]) for k in range(len(chunks))]
    assert sum(length for _, length in chunks) == count
    assert len(chunks) == (min(count, 256) if spans > 1 and count > 1 else min(count, 1))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("most", [None, 0, 1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
def test_the_join_forks_one_child_fewer_than_its_capped_spans(count, most, monkeypatch, forks):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr("dihedrant.forks._fork_spans", lambda: 3)
    items = list(range(count))
    with deadline(60):
        assert _joined(lambda xs: [-x for x in xs], items, most) == [-x for x in items]
    assert len(forks) == max(min(3, count, count if most is None else most) - 1, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("items, most", [([7], None), ([7], 5), (list(range(9)), 1), (list(range(9)), 0)])
def test_a_cap_below_two_asks_for_no_cpus(items, most, monkeypatch, forks):
    def asked():
        raise AssertionError("the CPUs were asked for")

    monkeypatch.setattr("dihedrant.forks._fork_spans", asked)
    assert _joined(lambda xs: [len(xs)], items, most) == [len(items)]
    assert forks == []
