"""Spans around the public calls of each ``dihedrant`` layer, for the traced run.

``patched(tracer)`` wraps each public callable at every binding its callers
use (``analysis`` and ``cli`` hold their own references to the functionals,
for instance) and restores the originals on exit.  ``symmetric_group`` is a
generator, so each ``next`` step is a span rather than the call that creates
it.  Spans stay in memory, in flat arrays, until ``summarize`` reads them
after the run.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "op"

BOUNDARIES = (
    "cli.main",
    "analysis.search",
    "functionals.dihedrant",
    "functionals.elimination_det",
    "functionals.leibniz_det",
    "perm.symmetric_group",
    "matrix.construct",
    "matrix.rank",
    "matrix_io.load",
    "schemes.evaluate",
)

CLAIM_IDS = (
    "fixtures:ledger", "eq:degenerate", "eq:n3", "thm:AT", "thm:perm", "thm:linear",
    "thm:rank1", "thm:rows1", "thm:rows2", "cor:rank2", "lem:signs", "thm:antitri",
    "scheme:4x4", "oracle:elim", "ex:expansion", "ex:corner",
)

COUNTERS = (
    ("analysis.search.space", "count"),
    ("analysis.search.hits", "count"),
    ("matrix_io.load.bytes", "B"),
)


def claim_metric(claim_id: str) -> str:
    """Metric name of a claim's wall time: ``thm:AT`` -> ``analysis.claim.thm-AT_s``."""
    return "analysis.claim." + claim_id.replace(":", "-") + "_s"


class Tracer:
    """Spans as parallel arrays: name id, parent index, start and end times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[tuple[int, str, int]] = []  # (root span, counter, amount)
        self._stack = [-1]

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def count(self, counter: str, amount: int) -> None:
        self.counts.append((self._stack[1], counter, amount))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    out = []
    for index, (s, e) in enumerate(zip(start, end)):
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children.get(index, ()), key=start.__getitem__):
            cs, ce = max(start[child], s), min(end[child], e)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(e - s - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per root span (one benchmark operation), as medians."""
    names, parent = tracer.names, tracer.parent
    own = self_times(tracer.start, tracer.end, parent)
    root_of = []
    per_root: dict[int, dict[str, list[float]]] = {}
    for index, up in enumerate(parent):
        root = index if up < 0 else root_of[up]
        root_of.append(root)
        if up < 0:
            per_root[root] = {}
            continue
        name = names[tracer.name[index]]
        acc = per_root[root].setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += own[index]
        acc[2] += tracer.end[index] - tracer.start[index]
    counted: dict[int, dict[str, int]] = {root: {} for root in per_root}
    for root, counter, amount in tracer.counts:
        counted[root][counter] = counted[root].get(counter, 0) + amount

    def median(values) -> float:
        return statistics.median(values) if values else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    walls = {root: tracer.end[root] - tracer.start[root] for root in per_root}
    for boundary in BOUNDARIES:
        stats = [per_root[root].get(boundary, (0, 0.0, 0.0)) for root in per_root]
        metrics[boundary + ".calls"] = (median([s[0] for s in stats]), "count")
        metrics[boundary + ".self_s"] = (median([s[1] for s in stats]), "s")
        metrics[boundary + ".share"] = (
            median([s[1] / walls[root] for s, root in zip(stats, per_root)]), "ratio")
    for counter, unit in COUNTERS:
        metrics[counter] = (median([counted[root].get(counter, 0) for root in per_root]), unit)
    space = metrics["analysis.search.space"][0]
    metrics["analysis.search.hit_ratio"] = (
        metrics["analysis.search.hits"][0] / space if space else 0.0, "ratio")
    for claim_id in CLAIM_IDS:
        span = "analysis.claim." + claim_id
        metrics[claim_metric(claim_id)] = (
            median([per_root[root].get(span, (0, 0.0, 0.0))[2] for root in per_root]), "s")
    return metrics


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


def _stepped(tracer: Tracer, name: str, gen_fn):
    @functools.wraps(gen_fn)
    def traced(*args, **kwargs):
        it = gen_fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            yield value
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every public layer call through ``tracer`` while the block runs."""
    import dihedrant
    from dihedrant import analysis, cli, functionals, matrix, matrix_io, perm, schemes

    traced_load = _span(tracer, "matrix_io.load", matrix_io.load_matrix)
    traced_search = _span(tracer, "analysis.search", analysis.search_dih_equals_det)

    @functools.wraps(matrix_io.load_matrix)
    def load_matrix(path, *args, **kwargs):
        value = traced_load(path, *args, **kwargs)
        tracer.count("matrix_io.load.bytes", Path(path).stat().st_size)
        return value

    @functools.wraps(analysis.search_dih_equals_det)
    def search_dih_equals_det(config, *args, **kwargs):
        hits = traced_search(config, *args, **kwargs)
        lo, hi = config.entry_range
        exhaustive = config.mode is analysis.SearchMode.EXHAUSTIVE
        tracer.count("analysis.search.space",
                     (hi - lo + 1) ** (config.n * config.n) if exhaustive else config.sample_count)
        tracer.count("analysis.search.hits", len(hits))
        return hits

    replacements = {
        id(cli.main): _span(tracer, "cli.main", cli.main),
        id(analysis.search_dih_equals_det): search_dih_equals_det,
        id(functionals.dihedrant): _span(tracer, "functionals.dihedrant", functionals.dihedrant),
        id(functionals.elimination_det): _span(tracer, "functionals.elimination_det", functionals.elimination_det),
        id(functionals.leibniz_det): _span(tracer, "functionals.leibniz_det", functionals.leibniz_det),
        id(perm.symmetric_group): _stepped(tracer, "perm.symmetric_group", perm.symmetric_group),
        id(matrix_io.load_matrix): load_matrix,
    }
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for module in (dihedrant, analysis, cli, functionals, matrix, matrix_io, perm, schemes):
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                replace(module, attr, replacements[id(value)])
    replace(matrix.ExactMatrix, "__init__", _span(tracer, "matrix.construct", matrix.ExactMatrix.__init__))
    replace(matrix.ExactMatrix, "rank", _span(tracer, "matrix.rank", matrix.ExactMatrix.rank))
    replace(schemes.Scheme, "evaluate", _span(tracer, "schemes.evaluate", schemes.Scheme.evaluate))
    claims = dict(analysis.CLAIMS)
    for claim_id, claim in claims.items():
        analysis.CLAIMS[claim_id] = claim._replace(
            run=_span(tracer, "analysis.claim." + claim_id, claim.run))
    try:
        yield tracer
    finally:
        analysis.CLAIMS.update(claims)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
