"""End-to-end and per-layer benchmark of the ``dihedrant`` package.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Every workload is a closed loop with one client: each operation goes through
the package's public entry points (``dihedrant.cli.main``, ``load_matrix``,
``ExactMatrix.rank``) on inputs generated from ``--seed``, starts after the
previous one ended, and is checked by :mod:`oracles`, which never calls the
code it checks.  One untimed, checked operation warms the caches first.

With ``--trace 0`` the metrics are end to end: ``best_op_s``, the wall time
of the fastest operation of the run; ``setup_s``, the median time a fresh
interpreter takes to import ``dihedrant`` and ``dihedrant.cli``;
``peak_rss_mb``.  The fastest operation, not the median, is the headline
because on a shared host contention only ever slows an operation: run
medians drift with the neighbours' load, the best time does not.  The
median and the extremes are printed and recorded beside it.  With
``--trace 1`` the loop runs half its time untraced and half traced, and the
metrics are per layer (see :mod:`tracing`) plus ``trace.overhead``, the
best traced over the best untraced operation time.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
same result, stamped with the environment, is written under
``.bench_results/``.  ``--workload all`` runs each workload in a child
process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 3
SETUP_RUNS = 15
SETUP_CODE = (
    "import time; t = time.perf_counter(); import dihedrant, dihedrant.cli; "
    "print(time.perf_counter() - t); print(dihedrant.__file__)"
)

EXHAUSTIVE_ARGV = ["search", "--n", "4", "--min", "1", "--max", "2",
                   "--mode", "exhaustive", "--require-nonzero"]
EXHAUSTIVE_SPACE = 2 ** 16
EXHAUSTIVE_HITS = 3136
RANDOM_N, RANDOM_RANGE, RANDOM_COUNT = 5, (-1, 1), 20_000


def cli_run(*argv: str) -> tuple[int, str]:
    """One ``dihedrant`` command through ``cli.main``; returns (exit code, stdout)."""
    from dihedrant import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Verify:
    """``verify all``: thousands of small matrices; time spreads over every layer."""

    name = "verify"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.fingerprint = (BENCH / "verify_seed7.txt").read_text(encoding="utf-8")

    def op(self, index: int):
        return [cli_run("verify", "all", "--seed", "7" if index == 0 else str(self.seed))]

    def check(self, index: int, results) -> bool:
        [(code, out)] = results
        if index == 0 and out != self.fingerprint:
            return False
        lines = out.splitlines()
        reports = [line.split() for line in lines[:-1] if not line.startswith(" ")]
        claims = {fields[0].split(":n=")[0] for fields in reports}
        return (
            code == 0
            and lines[-1] == f"ok: {len(reports)} reports, 0 failures"
            and claims == set(tracing.CLAIM_IDS)
            and all(len(f) == 3 and int(f[1]) >= 1 and f[2] == "0" for f in reports)
        )


class SearchExhaustive:
    """``search`` over every 4x4 matrix with entries in {1, 2}: 65,536 matrices, 3,136 hits."""

    name = "search-exhaustive"

    def __init__(self, seed: int, workdir: Path) -> None:
        pass

    def op(self, index: int):
        return [cli_run(*EXHAUSTIVE_ARGV)]

    def check(self, index: int, results) -> bool:
        [(code, out)] = results
        hits = json.loads(out)
        return (
            code == 0
            and len(hits) == EXHAUSTIVE_HITS
            and len({json.dumps(h) for h in hits}) == EXHAUSTIVE_HITS
            and all(len(h) == 4 and all(len(r) == 4 and set(r) <= {1, 2} for r in h) for h in hits)
            and all(oracles.is_search_hit(h) for h in hits)
        )


class SearchRandom:
    """Seeded random ``search``: 20,000 5x5 samples over {-1, 0, 1}, about 900 hits."""

    name = "search-random"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.argv = ["search", "--n", str(RANDOM_N), "--min", str(RANDOM_RANGE[0]),
                     "--max", str(RANDOM_RANGE[1]), "--mode", "random",
                     "--count", str(RANDOM_COUNT), "--seed", str(seed), "--require-nonzero"]
        self.expected = oracles.expected_random_hits(seed, RANDOM_N, *RANDOM_RANGE, RANDOM_COUNT)

    def op(self, index: int):
        return [cli_run(*self.argv)]

    def check(self, index: int, results) -> bool:
        [(code, out)] = results
        return code == 0 and json.loads(out) == self.expected


class Large:
    """``eval dih``, ``eval det-elim`` and ``load_matrix`` + ``rank`` on each large file."""

    kind = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cases = inputs.write_large_inputs(seed, self.kind, workdir)

    def op(self, index: int):
        import dihedrant

        results = []
        for case in self.cases:
            results.append(cli_run("eval", str(case.path), "dih"))
            results.append(cli_run("eval", str(case.path), "det-elim"))
            results.append(dihedrant.load_matrix(case.path).rank())
        return results

    def check(self, index: int, results) -> bool:
        for i, case in enumerate(self.cases):
            (dih_code, dih), (det_code, det), rank = results[3 * i : 3 * i + 3]
            if not (
                dih_code == det_code == 0
                and rank == case.rank
                and Fraction(dih.strip()) == case.dih
                and oracles.residues_of(Fraction(det.strip())) == case.det_residues
            ):
                return False
        return True


class LargeInt(Large):
    """Integer files at n=128, entries in [-9, 9]: big-integer Bareiss elimination."""

    name = "large-int"
    kind = "int"


class LargeRat(Large):
    """Rational files at n=64, entries p/q with |p| <= 9, 1 <= q <= 9: the Fraction path."""

    name = "large-rat"
    kind = "rat"


WORKLOADS = {w.name: w for w in (Verify, SearchExhaustive, SearchRandom, LargeInt, LargeRat)}

# Each workload's best_op_s under the name and unit a user of that command
# thinks in, printed in the summary.
ALIASES = {
    "verify": ("verify_s", "s", lambda s: s),
    "search-exhaustive": ("search_exhaustive_mps", "1/s", lambda s: EXHAUSTIVE_SPACE / s),
    "search-random": ("search_random_mps", "1/s", lambda s: RANDOM_COUNT / s),
    "large-int": ("eval_int_s", "s", lambda s: s),
    "large-rat": ("eval_rat_s", "s", lambda s: s),
}


class Loop:
    """The closed loop: runs, times and checks operations, and tallies failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def once(self, index: int, tracer=None) -> float:
        self.attempted += 1
        results = None
        gc.collect()  # every operation starts from a collected heap
        start = time.perf_counter()
        root = tracer.open(tracing.ROOT_SPAN) if tracer else None
        try:
            results = self.workload.op(index)
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
        finally:
            if tracer:
                tracer.close(root)
            wall = time.perf_counter() - start
        ok = False
        if results is not None:
            self.output_bytes += sum(len(r[1].encode()) for r in results if isinstance(r, tuple))
            try:
                ok = self.workload.check(index, results)
            except (ValueError, TypeError, IndexError, KeyError, ZeroDivisionError) as exc:
                print(f"operation {index} output unreadable: {exc!r}", file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"operation {index} of {self.workload.name} failed its check", file=sys.stderr)
        return wall

    def run(self, first: int, seconds: float, tracer=None) -> list[float]:
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_OPS or time.perf_counter() < deadline:
            walls.append(self.once(first + len(walls), tracer))
        return walls


def measure_setup() -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, origin = proc.stdout.split("\n")[:2]
        if not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"setup imported dihedrant from {origin}, not {SRC}")
        times.append(float(elapsed))
    return statistics.median(times)


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_rev": _git_revision(),
        "src_sha256": _tree_digest(SRC),
        "seed": seed,
    }


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[float]]:
    """One workload's result object and the wall times of its timed operations."""
    setup_s = None if trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as scratch:
        loop = Loop(WORKLOADS[name](seed, Path(scratch)))
        loop.once(0)
        if trace:
            plain = loop.run(1, seconds / 2)
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                walls = loop.run(1 + len(plain), seconds / 2, tracer)
            metrics = tracing.summarize(tracer)
            metrics["cli.output_bytes"] = (loop.output_bytes / loop.attempted, "B")
            metrics["trace.overhead"] = (min(walls) / min(plain), "ratio")
        else:
            walls = loop.run(1, seconds)
            metrics = {
                "best_op_s": (min(walls), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, walls


def summary_lines(name: str, record: dict) -> list[str]:
    result = record["result"]
    env = record["env"]
    lines = [f"{name}: seed {env['seed']}, python {env['python']}, nproc {env['nproc']}, "
             f"rev {env['git_rev'] or 'unknown'}, src {env['src_sha256'][:12]}"]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    if "best_op_s" in result["metrics"]:
        alias, unit, convert = ALIASES[name]
        lines.append(f"  {alias:<40} {convert(result['metrics']['best_op_s']['value']):>14.6g} {unit}")
    lines.append(f"  {'failed_ratio':<40} {result['failed'] / result['attempted']:>14.6g} "
                 f"({result['failed']}/{result['attempted']})")
    walls = record["op_walls_s"]
    lines.append(f"  {len(walls)} timed operations, median {statistics.median(walls):.4g} s, "
                 f"min {min(walls):.4g} s, max {max(walls):.4g} s")
    return lines


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "dihedrant" / "__init__.py").is_file():
        print(f"error: no dihedrant sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import dihedrant

    if not Path(dihedrant.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported dihedrant from {dihedrant.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, walls = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "result": result, "op_walls_s": walls}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(summary_lines(args.workload, record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
