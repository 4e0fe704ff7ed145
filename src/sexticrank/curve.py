"""Elliptic curves y^2 = x^3 + C(t) over Q(t).

Covers the sextic-twist family C = A*t^6 + B, its subfamilies
C = s^k (A s^m + B), the chord-tangent group law, multiplication by
omega, Galois conjugation over Q, and an exact Kodaira fiber analysis
feeding the Shioda-Tate bound on the geometric Mordell-Weil rank.
The group law also takes points with Q(sqrt(-3)) coefficients.

Points and curves are ``NamedTuple``s of ``RatFunc``s: ``CurvePoint(x, y)``
(``O = CurvePoint()``, with both coordinates None) and
``FunctionFieldCurve(C, var)``.  The constructors coerce nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import OMEGA
from .funcfield import (
    Poly,
    RatFunc,
    lift_to_ext,
    poly_gcd,
)

__all__ = [
    "CurvePoint",
    "FunctionFieldCurve",
    "FiberReport",
    "FiberSummary",
    "LEGAL_KM",
]

#: the (k, m) pairs for which s^k (A s^m + B) gives a curve in the family
LEGAL_KM = frozenset(
    [(k, 1) for k in range(6)] + [(0, 2), (2, 2), (4, 2), (0, 3), (3, 3), (0, 6)]
)

_KODAIRA = {1: "II", 2: "IV", 3: "I0*", 4: "IV*", 5: "II*"}


class CurvePoint(NamedTuple):
    """Affine point (x, y) with rational-function coordinates, or O."""

    x: Optional[RatFunc] = None
    y: Optional[RatFunc] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_str(self, var: str = "t") -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x.to_str(var)}, {self.y.to_str(var)})"

    def __str__(self):
        return self.to_str()


O = CurvePoint()


class FiberReport(NamedTuple):
    """One Galois orbit of singular fibers."""

    place: str
    count: int
    v_C: int
    v_delta: int
    kodaira: str
    components_away: int  # fiber components not meeting the zero section


class FiberSummary(NamedTuple):
    fibers: tuple
    total_v_delta: int
    geometric_rank: int
    has_type_II: bool


class FunctionFieldCurve(NamedTuple):
    """y^2 = x^3 + C(t) with C a nonzero rational function."""

    C: RatFunc
    var: str = "t"

    @classmethod
    def sextic(cls, A, B) -> "FunctionFieldCurve":
        """The main family y^2 = x^3 + A*t^6 + B."""
        return cls.subfamily(A, B, 0, 6, var="t")

    @classmethod
    def subfamily(cls, A, B, k: int, m: int, var: str = "s") -> "FunctionFieldCurve":
        """y^2 = x^3 + s^k (A s^m + B) for a legal exponent pair."""
        A, B = Fraction(A), Fraction(B)
        if A == 0 or B == 0:
            raise ValueError("A and B must be nonzero")
        if (k, m) not in LEGAL_KM:
            raise ValueError(f"illegal exponent pair (k, m) = ({k}, {m})")
        coeffs = [Fraction(0)] * k + [B] + [Fraction(0)] * (m - 1) + [A]
        return cls(RatFunc(Poly(coeffs)), var=var)

    # -- structure -----------------------------------------------------------

    def __str__(self):
        c = self.C.to_str(self.var)
        sign, c = ("-", c[1:]) if c.startswith("-") else ("+", c)
        return f"y^2 = x^3 {sign} {c}"

    # -- membership and the group law ------------------------------------------

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        # y^2 = x^3 + C with denominators cleared: Poly products only, no
        # gcd, so large coprime denominators cannot stall the test
        (xn, xd), (yn, yd), (cn, cd) = ((f.num, f.den) for f in (P.x, P.y, self.C))
        xd3 = xd * xd * xd
        return yn * yn * xd3 * cd == (xn * xn * xn * cd + cn * xd3) * yd * yd

    def require_on_curve(self, P: CurvePoint):
        if not self.contains(P):
            raise ValueError(f"point {P} is not on {self}")

    def negate(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        return CurvePoint(P.x, -P.y)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y1 == -y2:
                return O
            # same point (y is determined by x up to sign), tangent line
            lam = (3 * x1 * x1) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        y3 = lam * (x1 - x3) - y1
        return CurvePoint(x3, y3)

    # -- extra structure: CM action and Galois action -------------------------

    def omega_point(self, P: CurvePoint) -> CurvePoint:
        """Multiplication by omega in the endomorphism ring: (x,y) -> (omega*x, y).

        Satisfies omega^2 + omega + 1 = 0, so P + omega(P) + omega^2(P) = O.
        """
        if P.is_infinity:
            return P
        return CurvePoint(OMEGA * P.x, P.y)

    def galois_conj_point(self, P: CurvePoint) -> CurvePoint:
        """Coefficient-wise conjugation sqrt(-3) -> -sqrt(-3).

        Only meaningful when C itself has rational coefficients, which
        is checked.
        """
        if _conj_ratfunc(self.C) != self.C:
            raise ValueError("curve is not defined over Q")
        if P.is_infinity:
            return P
        return CurvePoint(_conj_ratfunc(P.x), _conj_ratfunc(P.y))

    def point_substitute(self, P: CurvePoint, inner: RatFunc) -> CurvePoint:
        """Substitute the curve parameter in both coordinates.

        inner must be a Laurent monomial c*t^d with d != 0 (see
        RatFunc.substitute; anything else raises ValueError).  The
        result lies on this curve again whenever C(inner) = C, as for
        inner = -omega*t on the sextic; callers verify membership.
        """
        if P.is_infinity:
            return P
        return CurvePoint(P.x.substitute(inner), P.y.substitute(inner))

    # -- specialization at a fiber -----------------------------------------------

    def specialize(self, t0) -> "FunctionFieldCurve":
        """The fiber curve at t = t0, as a constant-C curve.

        Requires a smooth fiber (C(t0) nonzero and finite).  Evaluation
        of sections there is a group homomorphism, so nonvanishing of a
        specialized multiple proves nonvanishing upstairs.
        """
        c0 = self.C.evaluate(t0)
        if not c0:
            raise ValueError(f"fiber at {t0} is singular")
        return FunctionFieldCurve(RatFunc.constant(c0), var=self.var)

    def specialize_point(self, P: CurvePoint, t0) -> CurvePoint:
        """P evaluated at t = t0; ZeroDivisionError if a coordinate has
        a pole there (the section passes through O on that fiber)."""
        if P.is_infinity:
            return P
        x0 = P.x.evaluate(t0)
        y0 = P.y.evaluate(t0)
        return CurvePoint(RatFunc.constant(x0), RatFunc.constant(y0))

    # -- fibers ---------------------------------------------------------------

    def fiber_report(self) -> FiberSummary:
        """Kodaira types of the singular fibers and the Shioda-Tate rank.

        Works for polynomial C of degree <= 6 whose roots have
        multiplicity <= 5 (all curves in the family).  Roots are never
        computed: only multiplicity counts matter, obtained from a gcd
        chain, so everything is exact over Q.
        """
        if not self.C.is_polynomial():
            raise ValueError("fiber analysis expects polynomial C")
        p = self.C.num
        if p.degree < 1:
            raise ValueError("constant C gives an isotrivial surface")
        if p.degree > 6:
            raise ValueError("degree of C exceeds 6")
        fibers = []
        k0 = p.root_multiplicity_at_zero()
        if k0:
            fibers.append(self._orbit(f"{self.var} = 0", 1, k0))
        profile = _multiplicity_profile(_strip_zero_root(p, k0))
        for mult in sorted(profile):
            count = profile[mult]
            desc = f"{count} root(s) of C/{self.var}^{k0}" if k0 else f"{count} root(s) of C"
            fibers.append(self._orbit(desc, count, mult))
        v_inf = 6 - p.degree
        if v_inf:
            fibers.append(self._orbit(f"{self.var} = infinity", 1, v_inf))
        total = sum(f.count * f.v_delta for f in fibers)
        drop = sum(f.count * f.components_away for f in fibers)
        return FiberSummary(
            fibers=tuple(fibers),
            total_v_delta=total,
            geometric_rank=8 - drop,
            has_type_II=any(f.kodaira == "II" for f in fibers),
        )

    @staticmethod
    def _orbit(place: str, count: int, v_C: int) -> FiberReport:
        if v_C not in _KODAIRA:
            raise ValueError(f"C vanishes to order {v_C}, outside the family")
        return FiberReport(
            place=place,
            count=count,
            v_C=v_C,
            v_delta=2 * v_C,
            kodaira=_KODAIRA[v_C],
            components_away=2 * (v_C - 1),
        )


def _conj_ratfunc(f: RatFunc) -> RatFunc:
    f = lift_to_ext(f)
    conj = lambda c: c.conj()
    return RatFunc(f.num.map_coeffs(conj), f.den.map_coeffs(conj))


def _strip_zero_root(p: Poly, k0: int) -> Poly:
    if not k0:
        return p
    return Poly(p.coeffs[k0:])


def _multiplicity_profile(p: Poly) -> dict:
    """Distinct-root counts by multiplicity, over the algebraic closure.

    Uses the derivative gcd chain: deg g_j - deg g_{j+1} counts the
    distinct roots of multiplicity > j.
    """
    counts = []  # counts[j] = number of distinct roots of multiplicity >= j+1
    g = p.monic()
    while g.degree > 0:
        h = poly_gcd(g, g.derivative())
        counts.append(g.degree - h.degree)
        g = h
    profile = {}
    for j, c in enumerate(counts):
        exact = c - (counts[j + 1] if j + 1 < len(counts) else 0)
        if exact:
            profile[j + 1] = exact
    return profile
