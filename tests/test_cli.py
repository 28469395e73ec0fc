"""CLI behavior: output, exit codes, and determinism."""

import csv
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dihedrant import analysis, matrix
from dihedrant.cli import MAX_TABLE_ORDER, main
from dihedrant.functionals import dihedrant
from dihedrant.matrix import ExactMatrix
from dihedrant.analysis import CLAIMS, TWOS_ONES_MATRIX
from dihedrant.matrix_io import matrix_to_obj

from conftest import CPUS, FIXTURES, plain_search

README = FIXTURES.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list[str]:
    """Every ``dihedrant ...`` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("dihedrant ")]


@pytest.fixture
def csv_field_limit():
    """Start the test under csv's default 131,072-character field limit; restore the old limit after."""
    old = csv.field_size_limit(131_072)
    yield
    csv.field_size_limit(old)


# ---------------------------------------------------------------------------
# eval

def test_eval_dih_on_recorded_matrix(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", str(fixtures_dir / "minus15.json"), "dih")
    assert code == 0
    assert out == "-15\n"


def test_eval_on_one_by_one(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text("[[7]]")
    code, out, _ = run(capsys, "eval", str(path), "dih")
    assert code == 0 and out == "0\n"


def test_eval_det_leibniz_identity(capsys, tmp_path):
    path = tmp_path / "i3.json"
    path.write_text("[[1,0,0],[0,1,0],[0,0,1]]")
    code, out, _ = run(capsys, "eval", str(path), "det-leibniz")
    assert code == 0 and out == "1\n"


def test_eval_det_elim_with_rational_entries(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text('[["1/2", 0], [0, "1/3"]]')
    code, out, _ = run(capsys, "eval", str(path), "det-elim")
    assert code == 0 and out == "1/6\n"


def test_eval_csv_and_format_override(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(capsys, "eval", str(fixtures_dir / "minus15.csv"), "det-elim")
    assert code == 0 and out == "-15\n"
    path = tmp_path / "m.dat"
    path.write_text("2,0\n0,2\n")
    code, out, _ = run(capsys, "eval", str(path), "dih", "--format", "csv")
    assert code == 0 and out == "0\n"


def test_eval_parse_error_names_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[[1, 2], [3, "x"]]')
    code, _, err = run(capsys, "eval", str(path), "dih")
    assert code == 2
    assert "row 2, column 2" in err


def test_eval_nonsquare_exits_two(capsys, tmp_path):
    path = tmp_path / "rect.json"
    path.write_text("[[1, 2, 3], [4, 5, 6]]")
    code, _, err = run(capsys, "eval", str(path), "dih")
    assert code == 2 and "square" in err


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "", "matrix must have at least one row"),
    ("empty.json", "[]", "matrix must have at least one row"),
    ("object.json", "{}", "rows must be a sequence of rows, not a dict"),
    ("null.json", "null", "rows must be a sequence of rows, not a NoneType"),
])
def test_eval_of_a_document_with_no_rows_exits_two(name, text, message, capsys, tmp_path):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "eval", str(path), "dih")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eval_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "absent.json"), "dih")
    assert code == 2 and "error" in err


def test_eval_cap_exceeded_exits_three(capsys, tmp_path):
    # the n!-term oracle stops above order 10, before its first term
    path = tmp_path / "i11.json"
    path.write_text(json.dumps([[1 if i == j else 0 for j in range(11)] for i in range(11)]))
    code, out, err = run(capsys, "eval", str(path), "det-leibniz")
    assert code == 3 and out == "" and "cap" in err
    code, out, _ = run(capsys, "eval", str(path), "det-elim")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("depth", [1_500, 100_000])
def test_eval_deeply_nested_json_exits_two(capsys, tmp_path, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    code, out, err = run(capsys, "eval", str(path), "dih")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    too_deep = "error: invalid JSON: nesting too deep\n"
    if depth == 100_000:  # past the JSON decoder's limit on every supported Python
        assert err == too_deep
    else:  # Python 3.13's decoder reads 1,500 levels, and the loader refuses the nested entry
        not_exact = "error: row 1, column 1: entries must be exact (int, Fraction, or 'p/q'), got [[...]]\n"
        assert err in (too_deep, not_exact)


@pytest.mark.parametrize("functional", ["det-elim", "dih"])
def test_eval_prints_values_past_the_int_digit_limit(capsys, tmp_path, int_digit_limit, functional):
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[10**2000 if i == j else 0 for j in range(3)] for i in range(3)]))
    code, out, err = run(capsys, "eval", str(path), functional)
    assert code == 0 and err == ""
    sys.set_int_max_str_digits(0)
    assert out == str(10**6000) + "\n"


@pytest.mark.parametrize("name, template", [("wide.csv", "{},0\n0,1\n"), ("wide.json", "[[{}, 0], [0, 1]]")])
def test_eval_reads_entries_past_the_int_digit_limit(capsys, tmp_path, int_digit_limit, name, template):
    digits = "7" * 5001
    path = tmp_path / name
    path.write_text(template.format(digits))
    code, out, err = run(capsys, "eval", str(path), "det-elim")
    assert code == 0 and err == ""
    assert out == digits + "\n"


def test_eval_reads_csv_cells_past_the_field_limit(capsys, tmp_path, int_digit_limit, csv_field_limit):
    digits = "1" * 140_000
    path = tmp_path / "long.csv"
    path.write_text(digits + "\n")
    code, out, err = run(capsys, "eval", str(path), "det-elim")
    assert code == 0 and err == ""
    assert out == digits + "\n"


def test_main_restores_the_limits_it_lifts(capsys, tmp_path, int_digit_limit, csv_field_limit):
    # main lifts both for its own run only, so a library caller keeps the guard against quadratic int parsing
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("1,2\n3,4\n")
    bad.write_text("1,2\n3\n")
    for path, expected in ((good, 0), (bad, 2)):
        code, _, _ = run(capsys, "eval", str(path), "det-elim")
        assert code == expected
        assert sys.get_int_max_str_digits() == 4300 and csv.field_size_limit() == 131_072


@pytest.mark.parametrize("name", ["long.json", "junk.csv"])
def test_eval_error_quotes_long_values_briefly(capsys, tmp_path, name):
    # one entry of 200,000 numbers (a 1.49 MB document), or one 100,000-character cell
    text = json.dumps([[list(range(200_000))]]) if name.endswith(".json") else "x" * 100_000 + "\n"
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "eval", str(path), "dih")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200


# ---------------------------------------------------------------------------
# verify

def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "thm:AT", "--seed", "1", "--trials", "50")
    assert code == 0
    assert out.splitlines()[0] == "thm:AT  50  0"
    assert out.splitlines()[-1] == "ok: 1 reports, 0 failures"


def test_verify_sign_lemma(capsys):
    code, out, _ = run(capsys, "verify", "lem:signs")
    assert code == 0
    assert "lem:signs  156  0" in out


def test_verify_unknown_claim(capsys):
    code, out, err = run(capsys, "verify", "thm:bogus")
    assert (code, out) == (2, "")
    assert err == f"error: unknown claim 'thm:bogus'; known claims: all, {', '.join(CLAIMS)}\n"


def test_verify_failure_prints_witness_and_exits_one(capsys, monkeypatch):
    import dihedrant.analysis as analysis
    from dihedrant.analysis import Claim, TheoremReport

    report = TheoremReport("test:failing", 3, 1, witness="[[0]]")
    failing = Claim("test:failing", lambda seed, trials: [report])
    patched = dict(analysis.CLAIMS)
    patched["test:failing"] = failing
    monkeypatch.setattr(analysis, "CLAIMS", patched)
    code, out, _ = run(capsys, "verify", "test:failing")
    assert code == 1
    assert "witness: [[0]]" in out
    assert out.splitlines()[-1] == "FAILED: 1 reports, 1 failures"


@pytest.mark.parametrize("claim, trials", [("all", "0"), ("thm:AT", "-5"), ("ex:corner", "0")])
def test_verify_rejects_fewer_than_one_trial(capsys, claim, trials):
    code, out, err = run(capsys, "verify", claim, "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"error: trials must be at least 1, got {trials}\n"


def test_verify_runs_at_the_trials_limit(capsys):
    code, out, err = run(capsys, "verify", "eq:degenerate", "--trials", str(analysis.MAX_TRIALS))
    assert (code, err) == (0, "")
    assert out == f"eq:degenerate  {2 * analysis.MAX_TRIALS}  0\nok: 1 reports, 0 failures\n"


@pytest.mark.parametrize("trials", [analysis.MAX_TRIALS + 1, 99999999999999999999])
def test_verify_refuses_trials_above_the_limit_before_any_work(capsys, monkeypatch, forks, trials):
    monkeypatch.setattr(analysis, "CLAIMS", {claim_id: claim._replace(run=None) for claim_id, claim in CLAIMS.items()})
    code, out, err = run(capsys, "verify", "all", "--trials", str(trials))
    assert (code, out, forks) == (3, "", [])
    assert err == f"error: {trials} trials exceed the limit of {analysis.MAX_TRIALS} per claim\n"


def test_a_failing_claim_prints_as_in_one_process(capsys, monkeypatch, forks):
    real = analysis.dihedrant
    monkeypatch.setattr(analysis, "dihedrant", lambda A: real(A) + (A.n == 6))  # fails in every claim of order 6
    forked = run(capsys, "verify", "all", "--seed", "7", "--trials", "20")
    assert bool(forks) == (hasattr(os, "fork") and CPUS > 1)
    monkeypatch.delattr(os, "fork", raising=False)  # as on a platform without fork: every claim runs here
    assert forked == run(capsys, "verify", "all", "--seed", "7", "--trials", "20")
    assert forked[0] == 1 and "  witness: " in forked[1]


def test_verify_all_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "all", "--seed", "7", "--trials", "20")
    code2, out2, _ = run(capsys, "verify", "all", "--seed", "7", "--trials", "20")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[-1].startswith("ok:")


@pytest.mark.parametrize("name, text", [("zero.csv", "1,2\n3/0,4\n"), ("zero.json", '[[1, 2], ["3/0", 4]]')])
def test_eval_zero_denominator_exits_two(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "eval", str(path), "det-elim")
    assert code == 2 and out == ""
    assert err == "error: row 2, column 1: zero denominator: '3/0'\n"


# ---------------------------------------------------------------------------
# signs

def test_signs_order_three(capsys):
    code, out, _ = run(capsys, "signs", "3")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 7  # header + 6 elements
    assert all(line.endswith("yes") for line in lines[1:])


def test_signs_order_four(capsys):
    code, out, _ = run(capsys, "signs", "4")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 9
    assert sum(1 for line in lines[1:] if line.endswith("no")) == 4


def test_signs_order_one(capsys):
    code, out, _ = run(capsys, "signs", "1")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3
    assert lines[1].startswith("rho_1")
    assert lines[2].startswith("mu_1")


def test_signs_rejects_nonpositive_order(capsys):
    code, _, err = run(capsys, "signs", "0")
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# scheme

def test_scheme_order_three(capsys):
    code, out, _ = run(capsys, "scheme", "3")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 6
    assert lines[0] == "+ a11 a22 a33"


def test_scheme_order_four(capsys):
    code, out, _ = run(capsys, "scheme", "4")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 8
    assert sum(1 for line in lines if line.startswith("+")) == 4


def test_scheme_corrected(capsys):
    code, out, _ = run(capsys, "scheme", "4x4-corrected")
    assert code == 0
    lines = out.splitlines()
    term_lines = [line for line in lines if line.startswith(("+", "-"))]
    label_lines = [line for line in lines if line.startswith("coset")]
    assert len(term_lines) == 24
    assert len(label_lines) == 3


def test_scheme_bad_argument(capsys):
    code, _, err = run(capsys, "scheme", "many")
    assert code == 2 and "4x4-corrected" in err


def test_scheme_4x4_is_a_usage_error(capsys):
    assert run(capsys, "scheme", "4x4") == (2, "", "error: expected an order or '4x4-corrected', got '4x4'\n")


@pytest.mark.parametrize("command", ["signs", "scheme"])
def test_table_order_limit(capsys, command):
    limit = MAX_TABLE_ORDER
    code, out, _ = run(capsys, command, str(limit))
    assert code == 0 and len(out.splitlines()) == 2 * limit + (command == "signs")
    code, out, err = run(capsys, command, str(limit + 1))
    assert code == 3 and out == ""
    assert err == f"error: order {limit + 1} exceeds the table limit of {limit}\n"


# ---------------------------------------------------------------------------
# search

def test_search_json_output(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "3", "--min", "0", "--max", "1",
        "--mode", "exhaustive", "--require-nonzero",
    )
    assert code == 0
    hits = json.loads(out)
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert identity in hits


def test_search_random_mode_is_seeded(capsys):
    args = ("search", "--n", "4", "--count", "150", "--seed", "9", "--min", "-2", "--max", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1) is not None


def _pinned_and_unpinned(argv: list[str]) -> list[subprocess.CompletedProcess]:
    """``dihedrant argv`` in a process on every usable CPU, then in one pinned to one CPU."""
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); assert len(os.sched_getaffinity(0)) == 1; "
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    driver = "import os, sys; {}from dihedrant.cli import main; sys.exit(main(sys.argv[1:]))"
    return [
        subprocess.run([sys.executable, "-c", driver.format(pinned), *argv], env=env, capture_output=True, timeout=300)
        for pinned in ("", pin)
    ]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_search_output_does_not_depend_on_the_cpus():
    # 3,001 samples of order 5 split across every usable CPU; pinned to one CPU they run in one process
    argv = ["search", "--n", "5", "--min", "-1", "--max", "1", "--count", "3001", "--seed", "3", "--require-nonzero"]
    procs = _pinned_and_unpinned(argv)
    assert [(proc.returncode, proc.stderr) for proc in procs] == [(0, b""), (0, b"")]
    assert procs[0].stdout == procs[1].stdout and procs[0].stdout.startswith(b"[[[")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_verify_output_does_not_depend_on_the_cpus():
    # the 16 claims spread over every usable CPU; pinned to one CPU they run in one process
    fingerprint = (FIXTURES.parent / "bench" / "verify_seed7.txt").read_bytes()
    procs = _pinned_and_unpinned(["verify", "all", "--seed", "7"])
    assert [(proc.returncode, proc.stderr, proc.stdout) for proc in procs] == [(0, b"", fingerprint)] * 2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_eval_output_does_not_depend_on_the_cpus(tmp_path):
    # a 96x96 elimination shares its primes among every usable CPU; pinned to one CPU it runs in one process
    rng = random.Random(96)
    rows = [[rng.randint(-9, 9) for _ in range(96)] for _ in range(96)]
    path = tmp_path / "m96.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    det = matrix._eliminated([row[:] for row in rows])[1]
    for functional, expected in (("det-elim", det), ("dih", dihedrant(ExactMatrix(rows)))):
        procs = _pinned_and_unpinned(["eval", str(path), functional])
        assert [(proc.returncode, proc.stderr, proc.stdout) for proc in procs] == [(0, b"", f"{expected}\n".encode())] * 2


def test_search_exhaustive_budget_exits_three(capsys):
    code, _, err = run(capsys, "search", "--n", "4", "--mode", "exhaustive")
    assert code == 3 and "budget" in err


def test_search_budget_is_checked_before_the_work(capsys):
    # 19^90000 matrices: the message names the power, never its 115,000 digits
    code, out, err = run(capsys, "search", "--n", "300", "--mode", "exhaustive")
    assert code == 3 and out == ""
    assert err == "error: exhaustive space of 19^90000 matrices exceeds the budget of 2000000\n"
    code, out, err = run(capsys, "search", "--n", "3", "--count", str(10**12))
    assert code == 3 and out == ""
    assert err == (
        "error: search at order 3 counts as 1000000000000 matrices of order 4"
        " and exceeds the budget of 2000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "100", "--count", "200"),
        ("--n", "2000", "--min", "2", "--max", "2", "--mode", "exhaustive"),
        ("--n", "2000", "--count", "0"),
    ],
)
def test_search_refuses_large_orders_at_once(capsys, argv):
    # one 100x100 elimination costs as much as 15,625 of order 4; a search costs at least one
    start = time.perf_counter()
    code, out, err = run(capsys, "search", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and f"order {argv[1]}" in err and "budget" in err


def test_search_tests_a_one_value_range_as_its_one_matrix(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--n", "18", "--min", "2", "--max", "2", "--mode", "exhaustive")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out) == [[[2] * 18] * 18]  # rank 1: dih = det = 0


def test_search_weighs_a_one_value_range_by_its_order(capsys):
    # one matrix of order 504 counts as 504**3 / 4**3 > 2,000,000 of order 4; 503 is the largest admitted
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--n", "504", "--min", "2", "--max", "2", "--mode", "exhaustive")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == "error: search at order 504 counts as 2000376 matrices of order 4 and exceeds the budget of 2000000\n"
    code, out, _ = run(capsys, "search", "--n", "503", "--min", "2", "--max", "2", "--mode", "exhaustive")
    assert code == 0 and json.loads(out) == [[[2] * 503] * 503]


@pytest.mark.parametrize("argv", [("verify", "thm:AT", "--seed", "-1"), ("search", "--n", "3", "--seed", "-1")])
def test_negative_seed_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("flags", [(), ("--require-nonzero",)])
def test_search_prints_the_hits_as_json(capsys, flags):
    code, out, _ = run(capsys, "search", "--n", "3", "--min", "0", "--max", "1", "--mode", "exhaustive", *flags)
    assert code == 0
    assert out == json.dumps(plain_search(3, 0, 1, require_nonzero=bool(flags))) + "\n"


def test_verify_all_seed_seven_is_the_recorded_fingerprint(capsys):
    code, out, _ = run(capsys, "verify", "all", "--seed", "7")
    assert code == 0
    assert out == (Path(__file__).resolve().parent.parent / "bench" / "verify_seed7.txt").read_text(encoding="utf-8")


def test_search_finds_recorded_matrix(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "4", "--min", "1", "--max", "2",
        "--mode", "exhaustive", "--require-nonzero",
    )
    assert code == 0
    assert matrix_to_obj(TWOS_ONES_MATRIX) in json.loads(out)


# ---------------------------------------------------------------------------
# usage

def test_readme_has_cli_examples():
    assert len(readme_examples()) >= 8


@pytest.mark.parametrize("line", readme_examples(), ids=lambda line: line.partition("#")[0].strip())
def test_readme_example_runs(capsys, monkeypatch, line):
    # a trailing "# -> v" names the value the line prints
    command, _, comment = line.partition("#")
    monkeypatch.chdir(README.parent)
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    if comment.strip().startswith("->"):
        assert out.strip() == comment.strip()[2:].strip()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# arbitrary argv

_JUNK = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)  # never parses as an int


def _or_junk(*values):
    """One of the values (a list, or a strategy for ints) nine times in ten, else junk."""
    valid = st.one_of(*(st.sampled_from(v) if isinstance(v, list) else v.map(str) for v in values))
    return st.integers(0, 9).flatmap(lambda k: valid if k else _JUNK)


_SEED = st.integers(-2, 2**70)
# each subcommand's positionals, then its flags, each flag with its value and whether it is always given:
# --trials, --count and the search box are always bounded, so no run outgrows a small budget
_ARGS = {
    "eval": (
        [_or_junk([str(p) for p in sorted(FIXTURES.iterdir())] + [str(FIXTURES), str(FIXTURES / "none.json")]),
         _or_junk(["dih", "det-leibniz", "det-elim"])],
        {"--format": (_or_junk(["json", "csv"]), False)},
    ),
    "verify": (
        [_or_junk(["all", "nosuch", *CLAIMS])],
        {"--seed": (_or_junk(_SEED), False), "--trials": (_or_junk(st.integers(-1, 2)), True)},
    ),
    "signs": ([_or_junk(st.integers(-2, 6))], {}),
    "scheme": ([_or_junk(st.integers(-2, 6), ["4x4-corrected"])], {}),
    "search": ([], {
        "--n": (_or_junk(st.integers(-1, 6)), True),
        "--min": (_or_junk(st.integers(-1, 2)), True),
        "--max": (_or_junk(st.integers(-1, 2)), True),
        "--mode": (_or_junk(["random", "exhaustive"]), False),
        "--seed": (_or_junk(_SEED), False),
        "--count": (_or_junk(st.integers(-1, 50)), True),
        "--require-nonzero": (None, False),
    }),
}


@st.composite
def bounded_argv(draw) -> list[str]:
    """A subcommand, then its arguments and a little junk in any order; a flag keeps its value beside it."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    positionals, flags = _ARGS[command]
    groups = [[draw(value)] for value in positionals]
    for flag, (value, always) in flags.items():
        if always or draw(st.booleans()):
            groups.append([flag] if value is None else [flag, draw(value)])
    if draw(st.integers(0, 4)) == 0:
        groups.append([draw(_JUNK)])
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(deadline=None)
@given(bounded_argv())
def test_any_bounded_argv_ends_in_a_documented_exit_code(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 after --help
        code = exc.code
    assert code in (0, 1, 2, 3)
