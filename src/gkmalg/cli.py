"""Command-line front end: build, verify, roots, wigner.

Exit codes are a stable contract:

* 0 - success
* 1 - internal or I/O failure (unreadable/corrupt dump)
* 2 - usage error (bad flags, unsupported manifold, malformed labels)
* 3 - verification failure (report carries a reproducible witness)

3j symbols are memoised within one process only; nothing is persisted
between invocations.  Set ``GKMALG_TRACEBACK=1`` to print the traceback of
an internal error (exit 1) after its one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from .algebra import build_algebra
from .modes import parse_manifold
from .serialize import DumpFormatError, dump_algebra, load_algebra
from .verify import DEFAULT_BUDGET, SUITES, run_suites
from .wigner import SpinTriple, wigner3j

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

_TRACEBACK_ENV = "GKMALG_TRACEBACK"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmalg",
        description="Build and verify centrally extended current algebras over compact manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct an algebra and write a JSON dump")
    b.add_argument("--algebra", required=True, help="su2, su3, or u1^n")
    b.add_argument("--manifold", required=True, help="t<n>, s1, s2, s3, s3-integer")
    b.add_argument("--cutoff", required=True, type=int)
    b.add_argument(
        "--charges",
        required=True,
        help="comma-separated rational central charges, one per operator",
    )
    b.add_argument("--out", required=True)
    b.add_argument(
        "--brackets",
        action="store_true",
        help="include the full generator bracket table in the dump",
    )

    v = sub.add_parser("verify", help="run verification suites against a dump")
    v.add_argument("dump")
    v.add_argument("--suite", default="all", choices=SUITES)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        help="max exhaustive triples before switching to seeded sampling",
    )
    v.add_argument(
        "--oracle-samples",
        type=_positive_int,
        help="max quantities the quadrature oracle checks (default: the budget)",
    )
    v.add_argument("--format", choices=("json", "text"), default="json")

    r = sub.add_parser("roots", help="print a root space basis and its dimension")
    r.add_argument("dump")
    r.add_argument(
        "--alpha",
        required=True,
        help="root coordinates (comma-separated rationals), 0 for the Cartan space, or +a/-a for rank 1",
    )
    r.add_argument("--n", required=True, help="comma-separated eigenvalue vector")
    r.add_argument("--format", choices=("json", "text"), default="text")

    w = sub.add_parser("wigner", help="evaluate coupling coefficients exactly")
    # let negative half-integers like -1/2 pass as values, not option flags
    w._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    w.add_argument(
        "--3j",
        dest="three_j",
        nargs=6,
        required=True,
        metavar=("J1", "J2", "J3", "M1", "M2", "M3"),
        help="labels as integers or half-integers written p/q (e.g. 1/2)",
    )
    w.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _cmd_build(args) -> int:
    try:
        geometry = parse_manifold(args.manifold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        charges = [Fraction(tok) for tok in args.charges.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        print(f"error: bad charges {args.charges!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        alg = build_algebra(args.algebra, geometry, args.cutoff, charges)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = dump_algebra(
        alg,
        build_params={
            "algebra": args.algebra,
            "manifold": args.manifold,
            "cutoff": args.cutoff,
            "charges": args.charges,
        },
        include_brackets=args.brackets,
    )
    try:
        Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"wrote {args.out}: {len(alg.generator_ids())} generators within cutoff {args.cutoff}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        alg = load_algebra(args.dump)
    except DumpFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    oracle_samples = args.budget if args.oracle_samples is None else args.oracle_samples
    report = run_suites(
        alg,
        suite=args.suite,
        seed=args.seed,
        budget=args.budget,
        oracle_samples=oracle_samples,
    )
    for check in report.failures():
        check.witness = dict(check.witness or {})
        check.witness["replay"] = (
            f"gkmalg verify {shlex.quote(args.dump)} --suite {args.suite} --seed {args.seed}"
            f" --budget {args.budget} --oracle-samples {oracle_samples}"
        )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _parse_alpha(token: str, alg):
    token = token.strip()
    rank = len(alg.cw.roots[0])
    if token == "0":
        return tuple(Fraction(0) for _ in range(rank))
    if token in ("+a", "-a", "+alpha", "-alpha"):
        if rank != 1:
            raise ValueError("named roots +a/-a only make sense at rank 1")
        alpha = alg.cw.roots[-1]  # the positive one sorts last
        return alpha if token.startswith("+") else tuple(-x for x in alpha)
    return tuple(Fraction(x) for x in token.split(","))


def _cmd_roots(args) -> int:
    try:
        alg = load_algebra(args.dump)
    except DumpFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if alg.cw is None:
        print("error: root spaces need a semisimple base algebra", file=sys.stderr)
        return EXIT_USAGE
    try:
        alpha = _parse_alpha(args.alpha, alg)
        nvec = tuple(Fraction(x) for x in args.n.split(","))
        basis = alg.root_space(alpha, nvec)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        payload = {
            "alpha": [str(x) for x in alpha],
            "n": [str(x) for x in nvec],
            "dimension": len(basis),
            "basis": [
                {repr(g): str(c) for g, c in elem.coeffs.items()} for elem in basis
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"root space alpha={args.alpha} n={args.n}: dimension {len(basis)}")
        for elem in basis:
            parts = [f"({c}) {g}" for g, c in sorted(elem.coeffs.items(), key=lambda kv: repr(kv[0]))]
            print("  " + " + ".join(parts))
    return EXIT_OK


def _cmd_wigner(args) -> int:
    try:
        triple = SpinTriple.of(*args.three_j)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    value = wigner3j(triple)
    if args.format == "json":
        print(
            json.dumps(
                {"exact": str(value), "terms": value.to_records(), "float": float(value)}
            )
        )
    else:
        if value.is_zero:
            print("0")
        else:
            print(f"{value}  ≈ {float(value):.16g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "build":
            code = _cmd_build(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        elif args.command == "roots":
            code = _cmd_roots(args)
        else:
            code = _cmd_wigner(args)
    except Exception as exc:  # unexpected: report as internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        if os.environ.get(_TRACEBACK_ENV) == "1":
            traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
