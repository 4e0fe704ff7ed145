"""Univariate polynomials and rational functions with exact coefficients.

Each coefficient carries its own type: ``int`` becomes
``fractions.Fraction``, and a :class:`~sexticrank.exactnum.QuadExt`
(an element of Q(sqrt(-3))) stays as given, so the two mix in
arithmetic as they do on their own.  The commands compute over Q;
Q(sqrt(-3)) serves the group-law references that the tests compare the
closed forms with.  On top sit a text form ("(3/2)*t^2 - 1") and a
parser for it over Q, used by the certificate files so that a saved
point can be re-read and re-checked from scratch.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .exactnum import QuadExt, square_and_multiply

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

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            s = _scalar(other)
            if s is NotImplemented:
                return NotImplemented
            return Poly([c * s for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return square_and_multiply(Poly.constant(1), self, n)

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

    def __rsub__(self, other):
        return -(self - other)

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

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return square_and_multiply(RatFunc.constant(1), self, n)

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
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^(),]))")

#: largest numerator or denominator degree, and exponent, that the parser
#: builds; certificate points need at most 18
MAX_PARSE_DEGREE = 64
#: largest coefficient size in bits that the parser lets a power reach;
#: the display form raises only the variable to a power
MAX_PARSE_BITS = 1 << 16
#: deepest nesting of parentheses that the parser descends into; each
#: level costs five stack frames, and certificate points need at most 3
MAX_PARSE_DEPTH = 64
#: most tokens the lexer reads from one text; every token can cost an
#: operation on rational functions, and the certificate points of every
#: pair with |A|, |B| <= 60 have at most 72
MAX_PARSE_TOKENS = 4096


def _check_degree(bound: int):
    """Refuse, before computing it, a result whose degree may pass the cap."""
    if bound > MAX_PARSE_DEGREE:
        raise ValueError(f"degree or exponent {bound} is above the parser's limit "
                         f"of {MAX_PARSE_DEGREE}")


def _check_bits(bound: int):
    if bound > MAX_PARSE_BITS:
        raise ValueError(f"power with coefficients of up to {bound} bits is above "
                         f"the parser's limit of {MAX_PARSE_BITS}")


def _size(f: RatFunc) -> int:
    return max(f.num.degree, f.den.degree)


def _bits(p: Poly) -> int:
    """A count b such that the numerator and denominator of every
    coefficient of p^n together have at most n*b bits: the bits of all
    of p's coefficients and one more for each, plus the growth from
    summing products."""
    return len(p.coeffs).bit_length() + 2 + sum(
        c.numerator.bit_length() + c.denominator.bit_length() + 1
        for c in p.coeffs)


def _lex(text: str) -> list:
    """The tokens of text, refused before any arithmetic once there are
    more than MAX_PARSE_TOKENS."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character at {text[pos:]!r}")
            break
        if len(tokens) == MAX_PARSE_TOKENS:
            raise ValueError(f"more than {MAX_PARSE_TOKENS} tokens, above "
                             "the parser's limit")
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over +, -, *, /, ^, parentheses, integers and
    one free variable, building over Q.  The grammar has no functions,
    so a name followed by "(", such as sqrt, is refused."""

    def __init__(self, tokens: list, var: Optional[str]):
        self.tokens = tokens
        self.pos = 0
        self.var = var
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, got {val!r}")

    def parse(self) -> RatFunc:
        v = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input from {self.tokens[self.pos]}")
        return v

    def expr(self) -> RatFunc:
        v = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.pos += 1
                w = self.term()
                _check_degree(_size(v) + _size(w))
                v = v + w if op == "+" else v - w
            else:
                return v

    def term(self) -> RatFunc:
        v = self.unary()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.pos += 1
                w = self.unary()
                _check_degree(_size(v) + _size(w))
                v = v * w if op == "*" else v / w
            else:
                return v

    def unary(self) -> RatFunc:
        sign = 1
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.pos += 1
                if op == "-":
                    sign = -sign
            else:
                break
        v = self.power()
        return v if sign > 0 else -v

    def power(self) -> RatFunc:
        v = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.pos += 1
            n = self.exponent()
            _check_degree(abs(n) * max(_size(v), 1))
            _check_bits(abs(n) * (_bits(v.num) + _bits(v.den)))
            v = v ** n
        return v

    def exponent(self) -> int:
        sign = 1
        kind, val = self.take()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val = self.take()
        if kind != "int":
            raise ValueError(f"expected integer exponent, got {val!r}")
        return sign * val

    def parenthesized(self) -> RatFunc:
        """The expression after an opening parenthesis, and its closing one."""
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            raise ValueError(f"parentheses nested above the parser's limit "
                             f"of {MAX_PARSE_DEPTH}")
        v = self.expr()
        self.expect(")")
        self.depth -= 1
        return v

    def atom(self) -> RatFunc:
        kind, val = self.take()
        if kind == "int":
            return RatFunc.constant(val)
        if kind == "op" and val == "(":
            return self.parenthesized()
        if kind == "name":
            if self.var is None and self.peek() != ("op", "("):
                self.var = val
            if val == self.var:
                return RatFunc.variable()
            where = f" (variable is {self.var!r})" if self.var else ""
            raise ValueError(f"unexpected name {val!r}{where}")
        raise ValueError(f"unexpected token {val!r}")


def parse_ratfunc(text: str, var: Optional[str] = None) -> RatFunc:
    """Parse the display form back into a RatFunc over Q.

    The variable name is inferred from the first identifier unless
    pinned with ``var``.
    """
    return _Parser(_lex(text), var).parse()


def parse_point(text: str, var: Optional[str] = None):
    """Parse "(x, y)" with x and y in the display grammar, or "O".

    x and y share one variable: the pinned var, or else the one x names
    (or, for a constant x, the one y names)."""
    s = text.strip()
    if s == "O":
        return None
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"point must look like (x, y), got {text!r}")
    body = _lex(s)[1:-1]
    depth = 0
    for i, tok in enumerate(body):
        if tok == ("op", "("):
            depth += 1
        elif tok == ("op", ")"):
            depth -= 1
        elif tok == ("op", ",") and depth == 0:
            parser = _Parser(body[:i], var)
            x = parser.parse()
            return x, _Parser(body[i + 1:], parser.var).parse()
    raise ValueError(f"no top-level comma in point {text!r}")
