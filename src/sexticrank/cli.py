"""Command line surface.

Subcommands: ``rank`` for a single pair's component breakdown,
``certify`` for a machine-verifiable rank certificate (build or
re-verify), ``census`` for the exhaustive sixth-power-free sweep, and
``oracle`` for the independent bounded-height point search.  ``certify``
and ``oracle`` import their engines when they run, so ``rank`` and
``census`` load only ``exactnum`` and ``rankalg`` of the package.

Exit codes: 0 success, 1 a verification or consistency failure or
stdout closed early, 2 usage error, 130 interrupted (Ctrl-C, SIGINT),
with one line on stderr and no traceback.
"""

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction

from .exactnum import parse_rational
from .rankalg import (CASE_RANK, CRITERIA, MAX_CENSUS_BOUND,
                      breakdown_to_json, census_blocks, rank_breakdown)


def rational_arg(text: str) -> Fraction:
    """Exact rational literal: an integer or p/q.  No floats."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return n


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that reads any "-" and then a digit or ".", such as
    "-p/q" or "-1/-2", as a value rather than an option, so A or B takes
    it and ``rational_arg`` accepts or names it.  argparse has no public
    hook for this; its own pattern accepts only "-5" and "-.5"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sexticrank",
        description="Exact Mordell-Weil rank of y^2 = x^3 + A*t^6 + B "
                    "over Q(t), with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="component breakdown for one pair")
    p.add_argument("A", type=rational_arg)
    p.add_argument("B", type=rational_arg)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_rank, parser=p)

    p = sub.add_parser(
        "certify",
        help="build (or with --verify re-check) a rank certificate")
    p.add_argument("A", type=rational_arg, nargs="?")
    p.add_argument("B", type=rational_arg, nargs="?")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", metavar="FILE",
                   help="also write the certificate JSON to FILE")
    p.add_argument("--verify", metavar="FILE",
                   help="re-verify an existing certificate file, "
                        "given without A, B or --output")
    p.set_defaults(run=cmd_certify, parser=p)

    p = sub.add_parser("census",
                       help="stream all sixth-power-free pairs up to a bound")
    p.add_argument("--bound", type=positive_int, required=True)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(run=cmd_census, parser=p)

    p = sub.add_parser("oracle",
                       help="independent bounded-height point search")
    p.add_argument("A", type=rational_arg)
    p.add_argument("B", type=rational_arg)
    p.add_argument("--k", type=int, choices=[1, 2, 3, 4],
                   help="restrict to one component (default: all four)")
    p.add_argument("--height", type=positive_int, default=12)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_oracle, parser=p)

    return parser


def _require_nonzero(args):
    if args.A is None or args.B is None:
        args.parser.error("A and B are required")
    if args.A == 0:
        args.parser.error("A must be nonzero")
    if args.B == 0:
        args.parser.error("B must be nonzero")


def _component_text(reason) -> str:
    cube_name, name = CRITERIA[reason.k]
    bits = []
    if reason.cube_root is not None:
        bits.append(f"{cube_name} = {reason.cube_value}"
                    f" = ({reason.cube_root})^3")
    else:
        bits.append(f"{cube_name} = {reason.cube_value} is not a cube")
    v = reason.square_value
    if reason.square_kind == "square":
        bits.append(f"{name} = {v} = ({reason.square_root})^2")
    elif reason.square_kind == "neg3_square":
        bits.append(f"-3*{name} = {-3 * v} = ({reason.square_root})^2"
                    " (twisted)")
    else:
        bits.append(f"neither {name} = {v} nor -3*{name} = {-3 * v}"
                    " is a square")
    return "; ".join(bits)


def cmd_rank(args) -> int:
    _require_nonzero(args)
    bd = rank_breakdown(args.A, args.B)
    data = breakdown_to_json(bd)
    if args.format == "json":
        print(json.dumps(data, indent=2))
        return 0
    cls = {n: data[f"{n}_class"] for n in "AB"}
    print(f"A = {bd.A} (class {cls['A'] or 'unknown'}), "
          f"B = {bd.B} (class {cls['B'] or 'unknown'})")
    for n in "AB":
        if cls[n] is None:
            print(f"{n} class unknown: {data[f'{n}_class_reason']}")
    print(f"r = {list(bd.r)}")
    for reason in bd.reasons:
        flag = 1 if reason.satisfied else 0
        print(f"  r{reason.k} = {flag}: {_component_text(reason)}")
    print(f"rank = {bd.rank}")
    return 0


def cmd_certify(args) -> int:
    from .generators import (construction_text, full_certificate,
                             verify_certificate_json)

    if args.verify:
        if args.A is not None or args.B is not None or args.output:
            args.parser.error("--verify takes no A, B or --output")
        # ValueError covers bad JSON and bytes that are not UTF-8, and
        # RecursionError JSON nested deeper than the interpreter's stack
        try:
            with open(args.verify, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            args.parser.error(f"cannot read certificate: {exc}")
        report = verify_certificate_json(data)
        return _emit_verification(report, args.format)

    _require_nonzero(args)
    cert = full_certificate(args.A, args.B)
    data, failures = cert.data, cert.report.failures
    if args.output or args.format == "json":
        text = json.dumps(data, indent=2)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            args.parser.error(f"cannot write certificate: {exc}")
    if args.format == "json":
        print(text)
    else:
        print(f"A = {data['A']}, B = {data['B']}: rank {data['rank']}")
        for w, stored in zip(cert.witnesses, data["witnesses"]):
            print(f"witness k={w.k}: {stored['subfamily_point']}"
                  f" on {w.curve}")
            print(f"  construction: {construction_text(w.k, w.used_descent)}")
            print(f"  embeds as {stored['embedded_point']}")
        total = len(data["checks"])
        print(f"checks passed: {total - len(failures)}/{total}")
        for name in failures:
            print(f"  FAILED: {name}")
        print(f"re-verification from JSON: {'FAILED' if failures else 'ok'}")
    for name in failures:
        print(f"verification failure: {name}", file=sys.stderr)
    return 1 if failures else 0


def _emit_verification(report, fmt: str) -> int:
    if fmt == "json":
        out = {"ok": report.ok,
               "checks": [c._asdict() for c in report.checks]}
        print(json.dumps(out, indent=2))
    else:
        for c in report.checks:
            print(f"{'ok  ' if c.passed else 'FAIL'} {c.name}")
        print(f"certificate {'verifies' if report.ok else 'DOES NOT verify'}")
    return 0 if report.ok else 1


def cmd_census(args) -> int:
    if args.bound > MAX_CENSUS_BOUND:
        args.parser.error(f"--bound is above the limit of {MAX_CENSUS_BOUND}")
    # rows per distinct ending: a row's last four characters hold
    # "rank\tcase", as the rank is one digit and a case label one or two
    # characters (a one-character label brings the tab before the rank).
    # Each possible ending, a rank 0..3 and a case, is decoded up front to
    # the rank and whether the case disagrees with it; a block that counts
    # a disagreeing one is read row by row, to name them in order.
    decoded = {f"\t{r}\t{case}"[-4:]: (r, r != CASE_RANK[case])
               for case in CASE_RANK for r in range(4)}
    bad = {ending for ending, (_, wrong) in decoded.items() if wrong}
    endings = Counter()
    disagreements = []
    blocks = census_blocks(args.bound, args.jobs)
    try:
        for text, counts in blocks:
            sys.stdout.write(text)
            endings.update(counts)
            if not bad.isdisjoint(counts):
                disagreements += [line.split("\t", 2)[:2] for line in
                                  text.splitlines() if line[-4:] in bad]
    finally:
        # a pooled census collects what its workers hold before it ends
        blocks.close()
    histogram = Counter()
    for ending, count in endings.items():
        histogram[decoded[ending][0]] += count
    pairs = endings.total()
    print(f"# pairs {pairs}")
    print("# rank histogram "
          + " ".join(f"{r}:{histogram[r]}" for r in sorted(histogram)))
    print(f"# classify agreements {pairs - len(disagreements)}/{pairs}")
    if disagreements:
        for a, b in disagreements:
            print(f"disagreement at A = {a}, B = {b}", file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    from .oracle import MAX_HEIGHT, cross_validate

    _require_nonzero(args)
    if args.height > MAX_HEIGHT:
        args.parser.error(f"--height is above the limit of {MAX_HEIGHT}")
    ks = [args.k] if args.k else [1, 2, 3, 4]
    bd = rank_breakdown(args.A, args.B)
    results = [cross_validate(bd, k, height=args.height) for k in ks]
    if args.format == "json":
        out = {
            "A": str(args.A),
            "B": str(args.B),
            "height": args.height,
            "results": [{
                "k": cv.k,
                "satisfied": cv.satisfied,
                "used_descent": cv.used_descent,
                "agrees": cv.agrees,
                "conclusive": cv.conclusive,
                "constructed": (cv.constructed.to_str("s")
                                if cv.constructed else None),
                "found": [P.to_str("s") for P in cv.found],
            } for cv in results],
        }
        print(json.dumps(out, indent=2))
    else:
        for cv in results:
            verdict = "agrees" if cv.agrees else "DISAGREES"
            if not cv.conclusive:
                verdict += " (inconclusive: generator beyond search height)"
            print(f"k={cv.k}: criterion {'holds' if cv.satisfied else 'fails'}"
                  f", search found {len(cv.found)} point(s), {verdict}")
            for P in cv.found:
                print(f"  {P.to_str('s')}")
    return 0 if all(cv.agrees for cv in results) else 1


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except ValueError as exc:
        # literals within MAX_LITERAL_DIGITS can still give a point too
        # large to print; any other ValueError is a fault, not a usage error.
        # parse_args reports its own errors, so args is set by now
        if "integer string conversion" not in str(exc):
            raise
        args.parser.error("an integer to print has more than "
                          f"{sys.get_int_max_str_digits()} digits, above the "
                          "limit of int/str conversion")
    except KeyboardInterrupt:
        # Ctrl-C; a census has closed its pool by now (cmd_census)
        print("sexticrank: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; point the
        # descriptor at devnull so the interpreter's final flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
