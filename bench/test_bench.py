"""Tests of the benchmark's own parts: oracles, seeded inputs and span arithmetic.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from dihedrant import ExactMatrix, dihedrant, leibniz_det  # noqa: E402


def _rows(rng: Random, n: int, rational: bool) -> list[list]:
    if rational:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("rational", [False, True])
def test_oracles_agree_with_leibniz_on_small_matrices(rational):
    rng = Random(11)
    for n in range(1, 7):
        for _ in range(25):
            rows = _rows(rng, n, rational)
            det = leibniz_det(ExactMatrix(rows))
            assert oracles.residues_of(det) == oracles.det_residues(rows)
            assert oracles.dih_by_diagonals(rows) == dihedrant(ExactMatrix(rows))
            if not rational:
                assert oracles.small_int_det(rows) == det


def test_rank_oracle_on_singular_matrices():
    rng = Random(5)
    for n in range(2, 8):
        rows = inputs.half_rank_rows(rng, n, "int")
        assert oracles.rank_mod(rows, oracles.PRIMES[0]) == n // 2
        assert oracles.det_residues(rows) == (0, 0, 0)
        assert ExactMatrix(rows).rank() == n // 2


def test_search_hit_oracle_matches_the_definition():
    rng = Random(3)
    for _ in range(300):
        rows = [[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)]
        A = ExactMatrix(rows)
        assert oracles.is_search_hit(rows) == (dihedrant(A) != 0 and dihedrant(A) == leibniz_det(A))


@pytest.mark.parametrize("kind", ["int", "rat"])
def test_large_inputs_are_identical_for_a_seed(tmp_path, kind, monkeypatch):
    monkeypatch.setitem(inputs.LARGE_ORDERS, kind, 12)
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    cases_a = inputs.write_large_inputs(3, kind, first)
    cases_b = inputs.write_large_inputs(3, kind, second)
    cases_c = inputs.write_large_inputs(4, kind, other)
    for a, b, c in zip(cases_a, cases_b, cases_c):
        assert a.path.read_bytes() == b.path.read_bytes() != c.path.read_bytes()
        assert (a.rank, a.dih, a.det_residues) == (b.rank, b.dih, b.det_residues)
    assert [c.rank for c in cases_a] == [12, 6]


def test_self_times_on_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: union 5)
    # and c [9, 12] (clipped to [9, 10]); a has child d [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_summarize_reports_per_operation_medians():
    tracer = tracing.Tracer()
    tracer.names = ["op", "cli.main", "functionals.dihedrant"]
    for offset, inner in ((0.0, 1.0), (10.0, 3.0)):
        # op [t, t+4] > cli.main [t, t+4] > dihedrant [t+1, t+1+inner]
        base = len(tracer.start)
        tracer.name.extend([0, 1, 2])
        tracer.parent.extend([-1, base, base + 1])
        tracer.start.extend([offset, offset, offset + 1])
        tracer.end.extend([offset + 4, offset + 4, offset + 1 + inner])
    metrics = tracing.summarize(tracer)
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["cli.main.self_s"] == (2.0, "s")  # median of 3 and 1
    assert metrics["functionals.dihedrant.share"] == (0.5, "ratio")  # median of 1/4 and 3/4
    assert metrics["matrix.rank.calls"] == (0, "count")


def test_patched_spans_every_binding_and_restores_it():
    from dihedrant import analysis, cli, functionals

    originals = (analysis.dihedrant, cli.dihedrant, functionals.dihedrant, ExactMatrix.__init__)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        root = tracer.open(tracing.ROOT_SPAN)
        analysis.check_counterexample_ledger()
        tracer.close(root)
    assert (analysis.dihedrant, cli.dihedrant, functionals.dihedrant, ExactMatrix.__init__) == originals
    metrics = tracing.summarize(tracer)
    assert metrics["functionals.dihedrant.calls"][0] == 6
    assert metrics["functionals.leibniz_det.calls"][0] == 6
    # one span per next() step: 5 orders-4 and one order-6 expansion, plus each final step
    assert metrics["perm.symmetric_group.calls"][0] == 5 * 24 + 720 + 6


def test_benchmark_json_lists_every_per_layer_metric():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = set(tracing.summarize(tracing.Tracer())) | {"cli.output_bytes", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == produced
