"""Univariate polynomials and rational functions with exact coefficients.

Each coefficient carries its own type: ``int`` becomes
``fractions.Fraction``, and a :class:`~sexticrank.exactnum.QuadExt`
(an element of Q(sqrt(-3))) stays as given, so the two mix in
arithmetic as they do on their own.  The commands compute over Q;
Q(sqrt(-3)) serves the group-law references that the tests compare the
closed forms with.  On top sit a text form ("(3/2)*t^2 - 1") and a
reader for the one shape of it that certificate points take, over Q
and over a power of the variable, so a saved point can be re-checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .exactnum import QuadExt, excerpt

__all__ = [
    "Poly",
    "RatFunc",
    "poly_gcd",
    "parse_ratfunc",
    "parse_point",
    "lift_to_ext",
    "restrict_to_rational",
]


def _scalar(c):
    """c as a coefficient: an int as a Fraction, a Fraction or QuadExt
    as given, anything else NotImplemented."""
    if isinstance(c, (Fraction, QuadExt)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    return NotImplemented


class Poly:
    """Immutable dense polynomial; ``coeffs[i]`` is the t^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def variable(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        return cls([0] * k + [c])

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def monomial_degree(self) -> Optional[int]:
        """k when self is c*t^k with c nonzero, otherwise None."""
        if not self.coeffs or any(self.coeffs[:-1]):
            return None
        return self.degree

    def root_multiplicity_at_zero(self) -> int:
        """Order of vanishing at t = 0 (0 for nonzero constant term)."""
        if not self.coeffs:
            raise ValueError("zero polynomial vanishes everywhere")
        k = 0
        while not self.coeffs[k]:
            k += 1
        return k

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            s = _scalar(other)
            if s is NotImplemented:
                return NotImplemented
            other = Poly.constant(s)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self + (-other)
        s = _scalar(other)
        if s is NotImplemented:
            return NotImplemented
        return self + (-s)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            s = _scalar(other)
            if s is NotImplemented:
                return NotImplemented
            return Poly([c * s for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        # only nonzero terms of either side are multiplied: embedded
        # points are nonzero at every sixth power of t only
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly([])
        r = self
        inv_lead = Fraction(1) / other.leading()
        while not r.is_zero() and r.degree >= other.degree:
            k = r.degree - other.degree
            c = r.leading() * inv_lead
            term = Poly.monomial(c, k)
            q = q + term
            r = r - term * other
        return q, r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, v):
        """Horner evaluation; v may live in any ring containing the coefficients."""
        if not self.coeffs:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (Fraction(1) / self.leading())

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    # -- plumbing --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        s = _scalar(other)
        if s is NotImplemented:
            return NotImplemented
        return self == Poly.constant(s)

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return self.to_str()

    def to_str(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            sign, body = _coeff_term(c, k, var)
            if not parts:
                parts.append(body if sign > 0 else "-" + body)
            else:
                parts.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(parts)


def _coeff_term(c, k: int, var: str):
    """Render one c*var^k term; returns (sign, body-without-sign)."""
    if isinstance(c, QuadExt) and not c.is_rational():
        # mixed element: keep its own signs inside parentheses
        s = str(c)
        if k == 0:
            return 1, f"({s})"
        return 1, f"({s})*{_varpow(var, k)}"
    cr = c.a if isinstance(c, QuadExt) else c
    sign = 1 if cr > 0 else -1
    a = abs(cr)
    if k == 0:
        return sign, str(a)
    vp = _varpow(var, k)
    if a == 1:
        return sign, vp
    if a.denominator == 1:
        return sign, f"{a}*{vp}"
    return sign, f"({a})*{vp}"


def _varpow(var: str, k: int) -> str:
    return var if k == 1 else f"{var}^{k}"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the coefficients' field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFunc:
    """Quotient of two polynomials, kept in lowest terms with monic
    denominator so equality is literal equality.

    A denominator c*t^k (k >= 0) is reduced by cancelling the common
    power of t, with no gcd; any other denominator goes through
    :func:`poly_gcd`.  Both give the same normal form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.constant(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.monomial_degree() is not None:
            # den = c*t^k: the gcd is a power of t, cancelled by slicing
            m = den.degree
            if num:
                m = min(m, num.root_multiplicity_at_zero())
            if m:
                num = Poly(num.coeffs[m:])
                den = Poly(den.coeffs[m:])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead = den.leading()
        if lead != 1:
            inv = Fraction(1) / lead
            num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def constant(cls, c) -> "RatFunc":
        return cls(Poly.constant(c))

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls(Poly.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        c = _scalar(other)
        if c is NotImplemented:
            return None
        return RatFunc.constant(c)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- evaluation and substitution -------------------------------------------

    def evaluate(self, v):
        """Value at a point; raises ZeroDivisionError at a pole."""
        dv = self.den.evaluate(v)
        if not dv:
            raise ZeroDivisionError(f"pole at {v}")
        return self.num.evaluate(v) / dv

    def substitute(self, inner: "RatFunc") -> "RatFunc":
        """The composite self(inner(t)) for a Laurent monomial inner =
        c*t^d with d != 0, e.g. t^6 or 1/t.

        The t^i coefficient is scaled by c^i and moved to t^(d*i); for
        d < 0 the powers of t move into the denominator.  Any other
        inner raises ValueError.
        """
        a, b = inner.num.monomial_degree(), inner.den.monomial_degree()
        if a is None or b is None or a == b:
            raise ValueError(
                f"can only substitute c*t^d with d != 0, not {inner}")
        c, d = inner.num.leading(), a - b

        def spread(p: Poly):
            """(q, k) with p(c*t^d) = q * t^k and q a polynomial."""
            k = min(0, d * p.degree)
            out = [Fraction(0)] * (abs(d) * p.degree + 1)
            ci = Fraction(1)
            for i, coeff in enumerate(p.coeffs):
                out[d * i - k] = coeff * ci
                ci = ci * c
            return Poly(out), k

        (num, kn), (den, kd) = spread(self.num), spread(self.den)
        shift = Poly.monomial(1, abs(kn - kd))
        return RatFunc(num * shift, den) if kn > kd else RatFunc(num, den * shift)

    # -- plumbing ----------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, RatFunc) else other
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        return self.to_str()

    def to_str(self, var: str = "t") -> str:
        if self.den.degree == 0:
            return self.num.to_str(var)
        ns = self.num.to_str(var)
        ds = self.den.to_str(var)
        if " + " in ns or " - " in ns:  # multi-term numerator needs grouping
            ns = f"({ns})"
        return f"{ns}/({ds})"


def lift_to_ext(f: RatFunc) -> RatFunc:
    """f with every coefficient a QuadExt."""
    up = lambda c: c if isinstance(c, QuadExt) else QuadExt(c)
    return RatFunc(f.num.map_coeffs(up), f.den.map_coeffs(up))


def restrict_to_rational(f: RatFunc) -> RatFunc:
    """f with every coefficient a Fraction; ValueError if one is irrational."""

    def down(c) -> Fraction:
        if isinstance(c, Fraction):
            return c
        if not c.is_rational():
            raise ValueError(f"coefficient {c} is not rational")
        return c.a

    return RatFunc(f.num.map_coeffs(down), f.den.map_coeffs(down))


# ---------------------------------------------------------------------------
# reading points back
# ---------------------------------------------------------------------------

#: largest degree, of a term or of the denominator, that the reader
#: builds; certificate points need at most 18
MAX_PARSE_DEGREE = 64
#: most terms the reader takes in one coordinate; every certificate
#: point of a pair with |A|, |B| <= 60 has at most 4 per coordinate
MAX_PARSE_TERMS = 4


def _power(text: str, var: str, what: str) -> int:
    """k of "var" or "var^k", refused above MAX_PARSE_DEGREE."""
    base, caret, k = text.partition("^")
    if base != var or caret and not k.isdecimal():
        raise ValueError(f"{what} {excerpt(text)} is not a power of {var}")
    k = int(k) if caret else 1
    if k > MAX_PARSE_DEGREE:
        raise ValueError(f"degree {k} is above the reader's limit "
                         f"of {MAX_PARSE_DEGREE}")
    return k


def _term(text: str, var: str) -> tuple:
    """(k, c) of an unsigned term "c", "var^k" or "c*var^k", with c an
    integer or p/q (in parentheses before a power)."""
    coeff, star, power = text.partition("*")
    if not star and text.startswith(var):
        coeff, power = "1", text
    k = _power(power, var, "term") if power or star else 0
    p, slash, q = coeff.strip("()").partition("/")
    den = int(q) if q.isdecimal() else (0 if slash else 1)
    if not (p.isdecimal() and den):
        raise ValueError(f"coefficient {excerpt(coeff)} is not an integer "
                         "or p/q with q > 0")
    return k, Fraction(int(p), den)


def parse_ratfunc(text: str, var: str) -> RatFunc:
    """f from ``f.to_str(var)``, for f over Q with a power of var as
    denominator.  More than MAX_PARSE_TERMS terms, a degree above
    MAX_PARSE_DEGREE and any other denominator are refused before any
    arithmetic; each integer is read by ``int``, within the interpreter's
    int/str digit limit.  The text must be exactly what ``to_str``
    writes for f, so f has one text, and no gcd is taken."""
    num, slash, den = text.rpartition("/(")
    if slash:
        e = _power(den[:-1], var, "denominator")
        num = num[1:-1] if num.startswith("(") else num
    else:
        num, e = text, 0
    if num.count(" ") > 2 * (MAX_PARSE_TERMS - 1):
        raise ValueError(f"{excerpt(text)} has more than {MAX_PARSE_TERMS} "
                         "terms, above the reader's limit")
    words = ("- " + num[1:] if num.startswith("-") else "+ " + num).split(" ")
    terms = [_term(body, var) for body in words[1::2]]
    coeffs = [Fraction(0)] * (max(k for k, _ in terms) + 1)
    for sign, (k, c) in zip(words[::2], terms):
        coeffs[k] = -c if sign == "-" else c
    f = RatFunc(Poly(coeffs), Poly.monomial(1, e))
    if f.to_str(var) != text:
        raise ValueError(f"{excerpt(text)} is not canonical; it is "
                         f"written {excerpt(f.to_str(var))}")
    return f


def parse_point(text: str, var: str):
    """Read back ``P.to_str(var)``: "O" as None, "(x, y)" as the pair of
    coordinates, each read by :func:`parse_ratfunc`."""
    if text == "O":
        return None
    x, comma, y = text[1:-1].partition(", ")
    if not (text.startswith("(") and text.endswith(")") and comma):
        raise ValueError(f"{excerpt(text)} is not O or (x, y)")
    return parse_ratfunc(x, var), parse_ratfunc(y, var)
