"""Explicit generators and machine-checkable rank certificates.

Each satisfied rank criterion k = 1..4 comes with a constructive
witness: a point on the subfamily curve y^2 = x^3 + s^k (A s + B),
written down in closed form from the cube and square roots that
``rank_breakdown`` stored for the criterion.  When the square condition
only holds through -3 (so the naive point P has coordinates in
Q(sqrt(-3))), the witness is the rational point omega(P) + conj(omega(P))
of Galois descent, also in closed form (``descended_point``).  The
subfamily point is then pushed to the sextic curve y^2 = x^3 + A t^6 + B
along the one map that certificates use, the degree-6 base change
s = t^6 with the twist (x, y) -> (x/t^2k, y/t^3k) (``base_change_embed``),
where it satisfies an eigenspace identity under t -> zeta6*t that pins
down which criterion it came from.

A certificate proves the lower bound rank >= r: its witnesses are
nonzero points with distinct eigenspace tags on a curve whose type II
fibres rule out torsion, so they are independent and of infinite order.
Each witness's Shioda height is read off the degrees of its x, and
distinct tags make the height pairing diagonal, so the witnesses'
regulator is the product of their heights.  No check uses the group
law.  The upper bound is the rank theorem, which the census and the
oracle cross-check.  ``verify_certificate_json`` is the one checker: it
recomputes every check from the certificate's JSON alone, trusting
nothing but the point strings, which it reads only as the one text
``CurvePoint.to_str`` writes (in s, and in t once embedded).
``full_certificate`` constructs the points, serialises them once
(``certificate_to_json``), runs that verifier on the dict it built and
stores the checks in it, so ``certify`` prints the very certificate its
verifier read.

``galois_descent_combine`` and ``multiples_nonzero`` take the descent
sum and a point's multiples through the group law; no certificate
calls them, and the tests use them to cross-check ``descended_point``
and the heights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import NamedTuple, Optional

from .curve import CurvePoint, FunctionFieldCurve, O
from .exactnum import excerpt, parse_rational
from .funcfield import Poly, RatFunc, parse_point, restrict_to_rational
from .rankalg import CRITERIA, RankBreakdown, rank_breakdown

__all__ = [
    "GeneratorWitness",
    "subfamily_generator",
    "galois_descent_combine",
    "base_change_embed",
    "eigenspace_check",
    "multiples_nonzero",
    "shioda_height",
    "direct_point",
    "descended_point",
    "construction_text",
    "CertificateCheck",
    "RankCertificate",
    "full_certificate",
    "certificate_to_json",
    "verify_certificate_json",
    "VerificationReport",
]


class GeneratorWitness(NamedTuple):
    """A point over Q on one subfamily curve, with its origin story:
    ``used_descent`` says whether it is the Galois descent of a point
    over Q(sqrt(-3)) or criterion k's direct point."""

    k: int
    curve: FunctionFieldCurve
    point: CurvePoint
    used_descent: bool


#: how each criterion's point is built; a twisted one adds the descent
_CONSTRUCTIONS = {
    1: "x the cube root of B^2/(4A), y = sqrt(A) * (s + B/(2A))",
    2: "x = -cbrt(A)*s, y = sqrt(B)*s",
    3: ("parameter inversion of the k=2 point of the swapped pair: "
        "x = -cbrt(B)*s, y = sqrt(A)*s^2"),
    4: ("parameter inversion of the k=1 point of the swapped pair: "
        "x = cbrt(A^2/(4B))*s^2, y = sqrt(B)*(s^2 + A*s^3/(2B))"),
}


def construction_text(k: int, used_descent: bool) -> str:
    """How criterion k's witness is built, as ``certify`` prints it."""
    if used_descent:
        return (_CONSTRUCTIONS[k] + "; then Galois descent: omega-twist "
                "plus its conjugate")
    return _CONSTRUCTIONS[k]


def subfamily_generator(bd: RankBreakdown, k: int) -> Optional[GeneratorWitness]:
    """The closed-form generator on y^2 = x^3 + s^k (A s + B).

    None when criterion k (``CRITERIA[k]``) fails in bd, the breakdown
    of (A, B).  The cube root c and square root r stored in its reason
    give the point (``direct_point``); when r^2 is -3 times the square
    value, the naive point lies over Q(sqrt(-3)) and the rational
    witness is its descent omega(P) + conj(omega(P)), in closed form by
    ``descended_point``.  The k = 3, 4 points are the k = 2, 1 points of
    the swapped pair (B, A) pushed through the parameter inversion
    s -> 1/s, (x, y) -> (s^2 x, s^3 y).
    """
    if k not in CRITERIA:
        raise ValueError("k must be 1, 2, 3 or 4")
    reason = bd.reasons[k - 1]
    if not reason.satisfied:
        return None
    A, B = bd.A, bd.B
    c, r = reason.cube_root, reason.square_root
    twisted = reason.square_kind == "neg3_square"
    base, (a, b) = (k, (A, B)) if k <= 2 else (5 - k, (B, A))
    x, y = (descended_point(base, c, r) if twisted
            else direct_point(base, a, b, c, r))
    point = _inverted_point(x, y, k)
    curve = FunctionFieldCurve.subfamily(A, B, k, 1)
    curve.require_on_curve(point)
    return GeneratorWitness(k=k, curve=curve, point=point,
                            used_descent=twisted)


def _inverted_point(x: list, y: list, k: int) -> CurvePoint:
    """The point with coefficient lists x and y in s; for k = 3, 4 they
    are the swapped pair's, and s -> 1/s, (x, y) -> (s^2 x, s^3 y)
    reverses x padded to degree 2 and y padded to degree 3."""
    if k >= 3:
        x = (x + [0] * (3 - len(x)))[::-1]
        y = (y + [0] * (4 - len(y)))[::-1]
    return CurvePoint(RatFunc(Poly(x)), RatFunc(Poly(y)))


def direct_point(k: int, a, b, c, r) -> tuple:
    """Coefficient lists in s of x and y of criterion k's point on
    y^2 = x^3 + s^k (a s + b), for k = 1 or 2.  c is the criterion's
    cube root and r a square root of its square value, in whatever field
    holds r:

    k = 1: x = b/c,  y = r b/(2a) + r s    (c^3 = 4ab, r^2 = a);
    k = 2: x = -c s, y = r s               (c^3 = a,   r^2 = b).
    """
    if k == 1:
        return [b / c], [r * (b / (2 * a)), r]
    return [0, -c], [0, r]


def descended_point(k: int, c, d) -> tuple:
    """Coefficient lists in s of x and y of omega(P) + conj(omega(P)),
    the rational point that the twisted k = 1 or k = 2 point P descends
    to.  c is the criterion's cube root and d^2 = -3 times its square
    value; the sum is the one ``galois_descent_combine`` takes through
    the group law, solved once for symbolic c and d:

    k = 1: x = c^2/(4d^2) + 16d^2/(9c) s + 64d^6/(81c^4) s^2,
           y = -c^3/(8d^3) + 5d/3 s + 64d^5/(27c^3) s^2
               + 512d^9/(729c^6) s^3;
    k = 2: x = 4d^2/(9c^2) - c s,  y = 8d^3/(27c^3) - d s.
    """
    if k == 1:
        return ([c**2 / (4 * d**2), 16 * d**2 / (9 * c),
                 64 * d**6 / (81 * c**4)],
                [-c**3 / (8 * d**3), 5 * d / 3, 64 * d**5 / (27 * c**3),
                 512 * d**9 / (729 * c**6)])
    return [4 * d**2 / (9 * c**2), -c], [8 * d**3 / (27 * c**3), -d]


def galois_descent_combine(curve: FunctionFieldCurve, P: CurvePoint) -> CurvePoint:
    """Rational point omega(P) + conj(omega(P)) from a twisted one,
    through the group law, with P's coefficients in Q(sqrt(-3));
    ``descended_point`` is its closed form.

    For the construction points the plain trace P + conj(P) vanishes
    identically (x is rational, y purely imaginary), but the
    omega-twist moves P off its own conjugate's inverse and the sum
    lands in E(Q(s)).
    """
    curve.require_on_curve(P)
    tw = curve.omega_point(P)
    combined = curve.add(tw, curve.galois_conj_point(tw))
    if combined.is_infinity:
        raise ArithmeticError("descent degenerated to the zero point")
    rational = CurvePoint(restrict_to_rational(combined.x),
                          restrict_to_rational(combined.y))
    curve.require_on_curve(rational)
    return rational


def base_change_embed(P: CurvePoint, k: int) -> CurvePoint:
    """Push a point of subfamily k to the sextic y^2 = x^3 + A t^6 + B.

    The map is the degree-6 base change s = t^6, then the twist
    (x, y) -> (x/t^2k, y/t^3k), which takes y^2 = x^3 + t^6k (A t^6 + B)
    onto the sextic.  Both steps are monomial maps: the substitution
    spreads the coefficients to every sixth index and the twist moves
    each denominator by a power of t, so a point over a monomial
    denominator stays over one.
    """
    if P.is_infinity:
        return P
    inner = RatFunc(Poly.monomial(1, 6))
    x, y = P.x.substitute(inner), P.y.substitute(inner)
    return CurvePoint(RatFunc(x.num, x.den * Poly.monomial(1, 2 * k)),
                      RatFunc(y.num, y.den * Poly.monomial(1, 3 * k)))


#: fiber positions tried when certifying nonvanishing by specialization
_SPECIALIZE_AT = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3),
                  Fraction(1, 2), Fraction(-2), Fraction(5), Fraction(7))


def multiples_nonzero(E: FunctionFieldCurve, P: CurvePoint, n_max: int = 6) -> bool:
    """Certify n*P != O for n = 1..n_max.

    Evaluating sections at a smooth fiber is a group homomorphism, so
    if every multiple of the specialized point is nonzero there, the
    same holds over the function field.  An inconclusive fiber (the
    specialized point could be torsion on it) falls through to the
    next one, and ultimately to the exact symbolic computation.
    """
    def nonzero(curve: FunctionFieldCurve, Q: CurvePoint) -> bool:
        # Q, 2Q, ..., n_max*Q as one running sum, stopping at the first O
        return all(not R.is_infinity for R in accumulate([Q] * n_max, curve.add))

    if P.is_infinity:
        return False
    for t0 in _SPECIALIZE_AT:
        try:
            fiber = E.specialize(t0)
            P0 = E.specialize_point(P, t0)
        except (ValueError, ZeroDivisionError):
            continue
        if not fiber.contains(P0):
            continue
        if nonzero(fiber, P0):
            return True
    return nonzero(E, P)


def _scaled_by_zeta6_power(f: RatFunc, e: int) -> bool:
    """f(zeta6*t) == zeta6^e * f, read off the exponents of f."""
    delta = f.den.degree
    return (all((j - delta) % 6 == 0 for j, c in enumerate(f.den.coeffs) if c)
            and all((i - delta - e) % 6 == 0
                    for i, c in enumerate(f.num.coeffs) if c))


def eigenspace_check(k: int, embedded: CurvePoint) -> bool:
    """Does t -> zeta6*t act on the point as tau^k?

    The degree-6 base change has deck group generated by zeta6, which
    fixes A*t^6 + B for every A and B; a point coming from subfamily k
    transforms by tau^k(x, y) = (omega^k x, (-1)^k y), and points with
    different tags are independent.  For f = n/d reduced with d monic
    of degree delta, f(zeta6*t) = n(zeta6*t)/zeta6^delta over the monic
    d(zeta6*t)/zeta6^delta, again reduced, so it equals zeta6^e * f
    exactly when, mod 6, every exponent of d is delta and every exponent
    of n is delta + e.  As omega = zeta6^4 and -1 = zeta6^3, the
    identity is that rule for x with e = 4k and for y with e = 3k; it is
    false for O.
    """
    if embedded.is_infinity:
        return False
    return (_scaled_by_zeta6_power(embedded.x, 4 * k)
            and _scaled_by_zeta6_power(embedded.y, 3 * k))


def shioda_height(embedded: CurvePoint) -> int:
    """<P, P> of a nonzero point P on the sextic y^2 = x^3 + A t^6 + B.

    The surface is rational with irreducible singular fibres (six of
    type II, a smooth one at infinity), so no fibre correction enters
    and <P, P> = 2 + 2 (P.O).  P meets O where x has a pole: at a
    finite pole of order 2m with multiplicity m, and at infinity by
    the excess of deg x over the weight 2 of the fibre there, halved.
    For reduced x = n/d that is 2 + deg d + max(0, deg n - deg d - 2)
    (Shioda 1990; Oguiso-Shioda 1991).  Every nonzero section has
    height >= 2, so a nonzero point has infinite order.
    """
    num, den = embedded.x.num.degree, embedded.x.den.degree
    return 2 + den + max(0, num - den - 2)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class CertificateCheck(NamedTuple):
    name: str
    passed: bool


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def failures(self) -> tuple:
        return tuple(c.name for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return not self.failures


class RankCertificate(NamedTuple):
    """A certificate's JSON form, as ``certify`` prints it, with the
    witnesses it was built from and the report that
    ``verify_certificate_json`` made on that same dict."""

    data: dict
    witnesses: tuple
    report: VerificationReport


def full_certificate(A, B) -> RankCertificate:
    """Breakdown plus one witness per satisfied criterion, serialised
    once, verified by ``verify_certificate_json`` and given its checks."""
    bd = rank_breakdown(A, B)
    witnesses = tuple(subfamily_generator(bd, c.k)
                      for c in bd.reasons if c.satisfied)
    data = certificate_to_json(bd, witnesses)
    report = verify_certificate_json(data)
    data["checks"] = [c._asdict() for c in report.checks]
    return RankCertificate(data, witnesses, report)


def certificate_to_json(bd: RankBreakdown, witnesses) -> dict:
    """The JSON form of bd and its witnesses, each embedded in the
    sextic curve; ``full_certificate`` adds the checks last."""
    return {
        "A": str(bd.A),
        "B": str(bd.B),
        "rank": bd.rank,
        "r": list(bd.r),
        "witnesses": [
            {
                "k": w.k,
                "subfamily_point": w.point.to_str("s"),
                "embedded_point": base_change_embed(w.point, w.k).to_str("t"),
            }
            for w in witnesses
        ],
    }


def _field(obj, name: str, kind: type):
    """obj[name] of certificate JSON; ValueError unless it is a kind."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"no field {name!r}")
    value = obj[name]
    if not isinstance(value, kind):
        raise ValueError(f"field {name!r} is {excerpt(value)}, "
                         f"not a {kind.__name__}")
    return value


def _read_field(obj, name: str, read, *args):
    """read(obj[name], *args) of a text field, naming it in a ValueError."""
    text = _field(obj, name, str)
    try:
        return read(text, *args)
    except ValueError as exc:
        raise ValueError(f"field {name!r}: {exc}")


def _canonical_rational(text: str) -> Fraction:
    """A rational written as ``str(Fraction)`` writes it, so that a
    certificate's A and B have one text each, as its points do."""
    value = parse_rational(text)
    if str(value) != text:
        raise ValueError(f"{excerpt(text)} is not canonical; it is "
                         f"written {excerpt(str(value))}")
    return value


def _point_field(obj, name: str, var: str) -> CurvePoint:
    """obj[name], a point as ``CurvePoint.to_str(var)`` writes it."""
    parsed = _read_field(obj, name, parse_point, var)
    return O if parsed is None else CurvePoint(*parsed)


def verify_certificate_json(data) -> VerificationReport:
    """Check a certificate from its serialized form alone.

    This is the only certificate checker: ``full_certificate`` takes its
    checks from it too.  It reads A, B, rank, r, and each witness's k,
    subfamily_point and embedded_point, and recomputes every check from
    them; the stored check results and any other field prove nothing.  A
    malformed field, a stored rank or r that differs from the recomputed
    one, an A or B not written as ``str(Fraction)`` writes it and a point
    not written as ``to_str`` writes it each add one
    named failed check, and only when they fail, so a certificate that
    verifies gets exactly the check names stored in it.  A name quotes
    at most 40 characters of any input (``excerpt``).
    """
    try:
        A = _read_field(data, "A", _canonical_rational)
        B = _read_field(data, "B", _canonical_rational)
        witnesses = _field(data, "witnesses", list)
        # more witnesses than criteria cannot have distinct indices, so
        # refuse them before parsing any point
        if len(witnesses) > len(CRITERIA):
            raise ValueError(f"{len(witnesses)} witnesses, more than the "
                             f"{len(CRITERIA)} criteria")
        bd = rank_breakdown(A, B)
    except ValueError as exc:
        return VerificationReport(
            (CertificateCheck(f"malformed certificate: {exc}", False),))
    E = FunctionFieldCurve.sextic(A, B)
    checks = []

    def check(name: str, passed: bool):
        checks.append(CertificateCheck(name, passed))

    rank, r = data.get("rank"), data.get("r")
    if (type(rank) is not int or rank != bd.rank or r != list(bd.r)
            or any(type(c) is not int for c in r)):
        check("stored rank and criteria match recomputation", False)
    ks, heights = [], []
    for wd in witnesses:
        k = wd.get("k") if isinstance(wd, dict) else None
        try:
            if type(k) is not int or k not in (1, 2, 3, 4):
                k = excerpt(k)
                raise ValueError(f"field 'k' is {k}, not 1, 2, 3 or 4")
            ks.append(k)
            sub = FunctionFieldCurve.subfamily(A, B, k, 1)
            point = _point_field(wd, "subfamily_point", "s")
            emb = _point_field(wd, "embedded_point", "t")
            check(f"k={k}: point on subfamily curve", sub.contains(point))
            check(f"k={k}: point is nonzero", not point.is_infinity)
            on_sextic = E.contains(emb)
            check(f"k={k}: embedded point on sextic curve", on_sextic)
            check(f"k={k}: embedding consistent with base change",
                  base_change_embed(point, k) == emb)
            check(f"k={k}: eigenspace identity for tau^{k}",
                  eigenspace_check(k, emb))
            # heights only exist for points of the sextic's group
            if on_sextic and not emb.is_infinity:
                heights.append(shioda_height(emb))
                check(f"k={k}: Shioda height {heights[-1]}", True)
            else:
                check(f"k={k}: Shioda height", False)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            check(f"k={k}: parse/verify error: {exc}", False)

    check("type II fiber present, so the group is torsion free",
          E.fiber_report().has_type_II)
    # distinct tags make the height pairing diagonal, so the witnesses'
    # regulator is the product of their heights
    distinct = "witness eigenspace indices pairwise distinct"
    if len(heights) == len(witnesses):
        distinct += f", so the witnesses' regulator is {prod(heights)}"
    check(distinct, len(set(ks)) == len(ks))
    check("witness count equals computed rank", len(witnesses) == bd.rank)
    return VerificationReport(tuple(checks))
