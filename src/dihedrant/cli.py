"""Command-line front end.

Subcommands: ``eval`` (apply a functional to a matrix file), ``verify``
(run claim suites), ``signs`` (sig/sgn classification table), ``scheme``
(print a scheme as text), ``search`` (hunt for dih == det matrices).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource limit.  All output is deterministic given the flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import analysis
from .functionals import dihedrant, elimination_det, leibniz_det
from .matrix_io import load_matrix
from .perm import ResourceLimitError
from .schemes import corrected_scheme_4x4, false_sarrus_scheme, render_scheme_text

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Largest order ``signs`` and ``scheme`` print: both build 2n permutations of
# length n, so time, memory and output grow as n**2; checked before the build.
MAX_TABLE_ORDER = 256


def main(argv: list[str] | None = None) -> int:
    """Run one command; the two process-wide limits it lifts are restored when it returns or raises."""
    args = _build_parser().parse_args(argv)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:  # exact values may run past 4,300 digits
        sys.set_int_max_str_digits(0)
    cells = csv.field_size_limit(2**31 - 1)  # and CSV cells past 131,072 characters, as JSON entries may
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        csv.field_size_limit(cells)
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedrant",
        description="Exact dihedrant and determinant tooling for square matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a functional on a matrix file")
    p_eval.add_argument("path", help="matrix file (JSON array of arrays, or CSV)")
    p_eval.add_argument(
        "functional",
        choices=("dih", "det-leibniz", "det-elim"),
        help="dihedrant, n!-expansion determinant, or elimination determinant",
    )
    p_eval.add_argument("--format", choices=("json", "csv"), help="override extension-based detection")
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run one claim suite, or all of them")
    p_verify.add_argument("claim", help="claim id, or 'all'")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.set_defaults(handler=_cmd_verify)

    p_signs = sub.add_parser("signs", help="print the sig/sgn table for D_n")
    p_signs.add_argument("n", type=int)
    p_signs.set_defaults(handler=_cmd_signs)

    p_scheme = sub.add_parser("scheme", help="print a scheme as signed monomials")
    p_scheme.add_argument("which", help="an order n, or '4x4-corrected'")
    p_scheme.set_defaults(handler=_cmd_scheme)

    p_search = sub.add_parser("search", help="find matrices with dih == det")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--min", type=int, default=-9, dest="lo")
    p_search.add_argument("--max", type=int, default=9, dest="hi")
    p_search.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--count", type=int, default=200, help="samples in random mode")
    p_search.add_argument("--require-nonzero", action="store_true")
    p_search.set_defaults(handler=_cmd_search)

    return parser


def _cmd_eval(args) -> int:
    A = load_matrix(args.path, fmt=args.format)
    if args.functional == "dih":
        value = dihedrant(A)
    elif args.functional == "det-leibniz":
        value = leibniz_det(A)
    else:
        value = elimination_det(A)
    print(value)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.claim != "all" and args.claim not in analysis.CLAIMS:
        known = ", ".join(analysis.claim_ids())
        raise ValueError(f"unknown claim {args.claim!r}; known claims: all, {known}")
    ids = analysis.claim_ids() if args.claim == "all" else [args.claim]
    reports = analysis.run_claims(ids, seed=args.seed, trials=args.trials)
    for report in reports:
        print(report.render())
    failures = sum(r.failures for r in reports)
    status = "ok" if failures == 0 else "FAILED"
    print(f"{status}: {len(reports)} reports, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _check_table_order(n: int) -> None:
    if n > MAX_TABLE_ORDER:
        raise ResourceLimitError(f"order {n} exceeds the table limit of {MAX_TABLE_ORDER}")


def _cmd_signs(args) -> int:
    _check_table_order(args.n)
    rows = analysis.classify_signs(args.n)
    name_w = max(7, max(len(r.element.name) for r in rows))
    perm_w = max(5, max(len(str(r.element.perm)) for r in rows))
    print(f"{'element':<{name_w}}  {'perm':<{perm_w}}  sig  sgn  agree")
    for row in rows:
        agree = "yes" if row.agree else "no"
        print(
            f"{row.element.name:<{name_w}}  {str(row.element.perm):<{perm_w}}"
            f"  {row.sig:+d}   {row.sgn:+d}   {agree}"
        )
    return EXIT_OK


def _cmd_scheme(args) -> int:
    if args.which == "4x4-corrected":
        blocks = []
        for scheme in corrected_scheme_4x4():
            blocks.append(scheme.label + "\n" + render_scheme_text(scheme))
        print("\n\n".join(blocks))
        return EXIT_OK
    try:
        n = int(args.which)
    except ValueError:
        raise ValueError(f"expected an order or '4x4-corrected', got {args.which!r}") from None
    _check_table_order(n)
    print(render_scheme_text(false_sarrus_scheme(n)))
    return EXIT_OK


def _cmd_search(args) -> int:
    config = analysis.SearchConfig(
        n=args.n,
        entry_range=(args.lo, args.hi),
        sample_count=args.count,
        seed=args.seed,
        mode=args.mode,
    )
    hits = analysis.search_dih_equals_det(config, require_nonzero=args.require_nonzero)
    print(json.dumps(hits))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
