"""Output checks against references that do not come from sexticrank.

Ranks, components and classes come from ``reference.Reference`` over
sympy factorizations; points are checked with sympy algebra; JSON
outputs are validated against the schemas in ``docs/``.  Each checker
raises ``CheckFailed`` naming what was wrong.
"""

import json
import re
from fractions import Fraction

import jsonschema
from sympy import Rational, Symbol, cancel
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

from inputs import ORACLE_DESCENT_POINTS, sixth_power_free

CENSUS_HEADER = "A\tB\tA_class\tB_class\tr1\tr2\tr3\tr4\trank\tclassify_case"
CASE_RANK = {"0": 0, "1": 1, "2a": 2, "2b": 2, "2c": 2, "2d": 2, "3": 3}

_S, _T = Symbol("s"), Symbol("t")
_TRANSFORMS = standard_transformations + (convert_xor,)
_ORACLE_LINE = re.compile(
    r"^k=([1-4]): criterion (holds|fails), search found (\d+) point\(s\), "
    r"(agrees|DISAGREES)( \(inconclusive: generator beyond search height\))?$")


class CheckFailed(Exception):
    """An output disagrees with its reference."""


# -- failed ops -------------------------------------------------------------------

#: a negative p/q literal, which the CLI's argparse reads as an option
_NEGATIVE_FRACTION = re.compile(r"-\d+/\d+")
#: exactnum trial-divides below this; a larger prime in a denominator is
#: what makes classify() raise FactorBudgetExceeded
TRIAL_LIMIT = 10 ** 6


def known_defect(record, ref) -> bool:
    """The failed op is one of the two known defects: argparse exits 2 on
    a "-p/q" argument, or classify() raises FactorBudgetExceeded on a
    denominator with a prime beyond trial division."""
    if record.error.startswith("RuntimeError: exit 2:"):
        return any(_NEGATIVE_FRACTION.fullmatch(arg) for arg in record.argv)
    if record.kind == "classify" and record.error.startswith(
            "FactorBudgetExceeded"):
        return any(p >= TRIAL_LIMIT and e < 0
                   for x in record.key for p, e in ref.exponents(x).items())
    return False


def check_failures(records, ref):
    """Every failed op is a known defect.  Any other failure, such as exit 1
    on a certificate that does not verify or an oracle that disagrees, is a
    wrong output."""
    for record in records:
        _require(record.ok or known_defect(record, ref),
                 f"{record.kind} {record.key} failed: {record.error}")


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def load_schema(root, name: str) -> dict:
    with open(root / "docs" / name) as fh:
        return json.load(fh)


def _validate(data, schema, what: str):
    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"{what} violates its schema: {exc.message}")


def parse_point(text: str, var: Symbol):
    """sympy (x, y) from the display form "(x, y)"."""
    try:
        point = parse_expr(text, local_dict={var.name: var},
                           transformations=_TRANSFORMS)
    except (SyntaxError, TypeError, ValueError) as exc:
        raise CheckFailed(f"unparsable point {text!r}: {exc}")
    _require(isinstance(point, tuple) or getattr(point, "is_Tuple", False),
             f"not a point: {text!r}")
    _require(len(point) == 2, f"not a point: {text!r}")
    return point[0], point[1]


def _on_curve(point, C) -> bool:
    x, y = point
    return cancel(y ** 2 - x ** 3 - C) == 0


def _subfamily_rhs(A, B, k: int):
    A, B = Fraction(A), Fraction(B)
    return _S ** k * (_rational(A) * _S + _rational(B))


def _rational(q: Fraction):
    return Rational(q.numerator, q.denominator)


# -- rank, classify ---------------------------------------------------------

def check_rank_json(text: str, A, B, ref, schema):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"rank {A} {B}: output is not JSON: {exc}")
    _validate(data, schema, f"rank {A} {B}")
    r = ref.components(A, B)
    expected = {"A": str(Fraction(A)), "B": str(Fraction(B)),
                "A_class": ref.sixth_class(A), "B_class": ref.sixth_class(B),
                "r": list(r), "rank": sum(r)}
    for key, value in expected.items():
        _require(data[key] == value,
                 f"rank {A} {B}: {key} is {data[key]!r}, reference {value!r}")


def check_classify(summary: str, A, B, ref):
    rank, case, a_bar, b_bar = summary.split()
    expected = (ref.rank(A, B), ref.sixth_class(A), ref.sixth_class(B))
    got = (int(rank), int(Fraction(a_bar)), int(Fraction(b_bar)))
    _require(got == expected,
             f"classify {A} {B}: (rank, A_bar, B_bar) = {got}, "
             f"reference {expected}")
    _require(CASE_RANK.get(case) == int(rank),
             f"classify {A} {B}: case {case!r} does not give rank {rank}")


# -- certificates ---------------------------------------------------------------

def check_certificate(text: str, A, B, ref, schema):
    """A built certificate: schema, rank and criteria, and every witness
    point re-checked with sympy."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"certify {A} {B}: output is not JSON: {exc}")
    _validate(data, schema, f"certificate {A} {B}")
    what = f"certificate {A} {B}"
    _require((Fraction(data["A"]), Fraction(data["B"])) == (A, B),
             f"{what}: wrong pair {data['A']}, {data['B']}")
    r = ref.components(A, B)
    _require(data["r"] == list(r) and data["rank"] == sum(r),
             f"{what}: r = {data['r']}, rank {data['rank']}; reference r = {list(r)}")
    ks = [w["k"] for w in data["witnesses"]]
    _require(ks == [k for k in (1, 2, 3, 4) if r[k - 1]],
             f"{what}: witnesses for k = {ks}, reference r = {list(r)}")
    _require(all(c["passed"] for c in data["checks"]),
             f"{what}: a recorded check failed")
    sextic = _rational(Fraction(A)) * _T ** 6 + _rational(Fraction(B))
    for w in data["witnesses"]:
        k = w["k"]
        sub = parse_point(w["subfamily_point"], _S)
        emb = parse_point(w["embedded_point"], _T)
        _require(_on_curve(sub, _subfamily_rhs(A, B, k)),
                 f"{what}: k={k} point {w['subfamily_point']} is not on "
                 f"y^2 = x^3 + s^{k}*(A*s + B)")
        _require(_on_curve(emb, sextic),
                 f"{what}: k={k} embedded point {w['embedded_point']} is not "
                 "on y^2 = x^3 + A*t^6 + B")
        pushed = (sub[0].subs(_S, _T ** 6) / _T ** (2 * k),
                  sub[1].subs(_S, _T ** 6) / _T ** (3 * k))
        _require(all(cancel(p - e) == 0 for p, e in zip(pushed, emb)),
                 f"{what}: k={k} embedded point is not the base change of "
                 "the subfamily point")


def check_verify_output(text: str, what: str):
    lines = text.splitlines()
    _require(lines and lines[-1] == "certificate verifies"
             and not any(line.startswith("FAIL") for line in lines),
             f"{what}: re-verification did not pass")


# -- census ---------------------------------------------------------------------

def census_expectation(bound: int, ref) -> dict:
    """Footer numbers and rank-3 pairs of the census, from the reference."""
    values = sixth_power_free(bound)
    hist, rank3 = {}, []
    for a in values:
        for b in values:
            rank = ref.rank(a, b)
            hist[rank] = hist.get(rank, 0) + 1
            if rank == 3:
                rank3.append((a, b))
    return {"pairs": len(values) ** 2, "histogram": dict(sorted(hist.items())),
            "rank3": rank3}


def _census_rows(values, ref):
    """Expected first nine TSV fields of every census row, in order."""
    sq = {v: ref.squarish(v) for v in values}
    exps = {v: ref.exponents(v) for v in values}
    cube = {v: all(e % 3 == 0 for e in exps[v].values()) for v in values}

    def cube_class(v, shift_two):
        e = dict(exps[v])
        e[2] = e.get(2, 0) + shift_two
        return frozenset((p, n % 3) for p, n in e.items() if n % 3)

    four_a = {v: cube_class(v, 2) for v in values}
    inverse = {v: frozenset((p, -n % 3) for p, n in cube_class(v, 0))
               for v in values}
    for a in values:
        for b in values:
            cube4ab = four_a[a] == inverse[b]
            r = (int(cube4ab and sq[a]), int(cube[a] and sq[b]),
                 int(cube[b] and sq[a]), int(cube4ab and sq[b]))
            yield a, b, "\t".join(map(str, (a, b, a, b) + r + (sum(r),)))


def check_census(text: str, bound: int, ref, expect: dict):
    """Every row against the reference, then footer and rank-3 set against
    the recorded expectation."""
    lines = text.split("\n")
    _require(lines[-1] == "", "census output does not end in a newline")
    _require(lines[0] == CENSUS_HEADER, f"census header is {lines[0]!r}")
    rows, footer = lines[1:-4], lines[-4:-1]
    values = sixth_power_free(bound)
    _require(len(rows) == len(values) ** 2,
             f"census has {len(rows)} rows, expected {len(values) ** 2}")
    rank3 = []
    for row, (a, b, head) in zip(rows, _census_rows(values, ref)):
        prefix, _, case = row.rpartition("\t")
        _require(prefix == head, f"census row {row!r}, reference {head!r}")
        _require(CASE_RANK.get(case) == int(prefix.rpartition("\t")[2]),
                 f"census row {row!r}: case disagrees with rank")
        if head.endswith("\t3"):
            rank3.append((a, b))
    pairs = expect["pairs"]
    hist = " ".join(f"{r}:{n}" for r, n in expect["histogram"].items())
    expected_footer = [f"# pairs {pairs}", f"# rank histogram {hist}",
                       f"# classify agreements {pairs}/{pairs}"]
    _require(footer == expected_footer,
             f"census footer {footer}, expected {expected_footer}")
    _require(rank3 == [tuple(p) for p in expect["rank3"]],
             f"census rank-3 pairs {rank3}, expected {expect['rank3']}")


# -- oracle -----------------------------------------------------------------------

def check_oracle(text: str, A, B, ks, ref, must_find=None):
    """Every k line agrees, its criterion matches the reference, and every
    point found lies on its subfamily curve."""
    what = f"oracle {A} {B}"
    r = ref.components(A, B)
    blocks, current = [], None
    for line in text.splitlines():
        m = _ORACLE_LINE.match(line)
        if m:
            current = [m, []]
            blocks.append(current)
        else:
            _require(current is not None and line.startswith("  "),
                     f"{what}: unexpected line {line!r}")
            current[1].append(line.strip())
    _require([int(m.group(1)) for m, _ in blocks] == list(ks),
             f"{what}: reported components differ from {list(ks)}")
    for m, points in blocks:
        k = int(m.group(1))
        _require(m.group(4) == "agrees", f"{what}: k={k} disagrees")
        _require((m.group(2) == "holds") == bool(r[k - 1]),
                 f"{what}: k={k} criterion {m.group(2)}, reference r = {list(r)}")
        _require(int(m.group(3)) == len(points),
                 f"{what}: k={k} point count does not match the listing")
        for p in points:
            _require(_on_curve(parse_point(p, _S), _subfamily_rhs(A, B, k)),
                     f"{what}: k={k} point {p} is not on its curve")
    if must_find is not None:
        _require(any(must_find in points for _, points in blocks),
                 f"{what}: search did not find {must_find}")


def check_descent(text: str, A, B, ref):
    check_oracle(text, A, B, (1,), ref,
                 must_find=ORACLE_DESCENT_POINTS.get((A, B)))
