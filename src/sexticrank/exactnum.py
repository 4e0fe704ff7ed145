"""Exact arithmetic on Q and Q(sqrt(-3)).

Rationals are stdlib ``fractions.Fraction``, read from text only in the
integer-or-p/q grammar of ``parse_rational``;
on top of that this module provides perfect-power detection, the
square-or-(-3)-times-square trichotomy, canonical sixth-power residue
classes, and the quadratic extension Q(sqrt(-3)), in which the tests'
group-law references take the Galois descent; the commands compute over
Q alone.  Everything is unconditional: a computation either returns an
exact answer or raises a typed error, never a heuristic guess.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "excerpt",
    "parse_rational",
    "is_kth_power",
    "SquareTest",
    "is_square_or_neg3_square",
    "SixthPowerClass",
    "sixth_power_class",
    "square_and_multiply",
    "QuadExt",
    "OMEGA",
    "FactorBudgetExceeded",
    "factorint",
]


#: ASCII digits only: \d and Fraction() also read other scripts' digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

#: most digits a literal may have, numerator and denominator together.
#: Measured on 2 cores, CPython 3.11, at 2,000 digits: rank takes
#: 1.5 s, certify and certify --verify 1.0-3.6 s and oracle 0.2 s, on
#: direct and descent pairs with integer and p/q literals.  At 2,200
#: digits 4AB has 4,400 digits, over the interpreter's 4,300-digit
#: int/str limit, and rank fails.
MAX_LITERAL_DIGITS = 2000


def excerpt(value) -> str:
    """repr of value, or of a longer text's first 40 characters and length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Exact rational literal: an integer or p/q of at most
    MAX_LITERAL_DIGITS ASCII digits.  No floats; ValueError for anything
    else, including a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{excerpt(text)} is not an integer or p/q rational "
                         "literal")
    digits = sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(f"literal has {digits} digits, above the limit "
                         f"of {MAX_LITERAL_DIGITS}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{excerpt(text)} has a zero denominator")


# ---------------------------------------------------------------------------
# perfect powers
# ---------------------------------------------------------------------------

def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton iteration from an over-estimate; exact integer arithmetic.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _int_kth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of an integer, or None.

    Even k and negative n gives None (no root in Q); odd k passes the
    sign through.
    """
    if n == 0:
        return 0
    neg = n < 0
    if neg and k % 2 == 0:
        return None
    r = _iroot(-n if neg else n, k)
    if r ** k != abs(n):
        return None
    return -r if neg else r


def is_kth_power(x: RationalLike, k: int):
    """Exact k-th root of a rational, or None if x is not a k-th power.

    For even k only nonnegative x can succeed and the nonnegative root
    is returned.  Works on the numerator and denominator separately
    (they are coprime), so no factorization is needed.  Accepts plain
    ints and returns an int for them.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if isinstance(x, int):
        return _int_kth_root(x, k)
    rn = _int_kth_root(x.numerator, k)
    if rn is None:
        return None
    rd = _int_kth_root(x.denominator, k)
    if rd is None:
        return None
    return Fraction(rn, rd)


class SquareTest(NamedTuple):
    """Outcome of the square / -3*square trichotomy."""

    kind: str  # "square" | "neg3_square" | "neither"
    root: Optional[Fraction]


def is_square_or_neg3_square(x: RationalLike) -> SquareTest:
    """Classify nonzero x as a square, -3 times a square, or neither.

    Returns ``SquareTest("square", r)`` with x = r^2, or
    ``SquareTest("neg3_square", r)`` with -3x = r^2.  The two cases
    exclude each other (their quotient -3 is not a square in Q).
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("square class of 0 is undefined")
    r = is_kth_power(x, 2)
    if r is not None:
        return SquareTest("square", r)
    r = is_kth_power(-3 * x, 2)
    if r is not None:
        return SquareTest("neg3_square", r)
    return SquareTest("neither", None)


# ---------------------------------------------------------------------------
# integer factorization (trial division + Brent rho, budgeted)
# ---------------------------------------------------------------------------

class FactorBudgetExceeded(Exception):
    """Factorization gave up within its budget; the input is too large.

    Raised instead of ever returning a heuristic or unverified answer.
    """


_TRIAL_LIMIT = 10 ** 6
#: past the primes below this, trial division goes on only while the
#: cofactor is too large to certify: Miller-Rabin proves a prime, and rho
#: splits a composite, long before division by every candidate to 10^6
_SMALL_TRIAL_LIMIT = 100
# Deterministic Miller-Rabin is proven for n below this bound with the
# twelve bases used in _is_prime.
_MR_CERTAIN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: Brent rho iterations spent on one cofactor before giving up
_RHO_BUDGET = 1_000_000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: int) -> Optional[int]:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor
    of composite odd n, or None once the iteration budget is spent."""
    if n % 2 == 0:
        return 2
    spent = 0
    c = 1
    while spent < budget:
        y, m = 2, 128
        g = r = q = 1
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        c += 1  # cycle found no factor with this polynomial, perturb it
    return None


def factorint(n: int) -> dict[int, int]:
    """Factor a positive integer into {prime: exponent}.

    Trial division by the primes below 100, and on up to 10^6 while the
    cofactor is too large to certify; then Miller-Rabin and Brent rho,
    at most _RHO_BUDGET iterations a cofactor.
    Raises FactorBudgetExceeded rather than returning anything
    unverified (also when primality of a huge cofactor cannot be
    settled deterministically).
    """
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p <= _TRIAL_LIMIT and p * p <= n and (
            p < _SMALL_TRIAL_LIMIT or n >= _MR_CERTAIN_BOUND):
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= _MR_CERTAIN_BOUND:
            raise FactorBudgetExceeded(
                f"input too large: cannot certify factorization of {m}")
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m, _RHO_BUDGET)
        if d is None:
            raise FactorBudgetExceeded(
                f"input too large: rho budget exhausted on {m}")
        stack.append(d)
        stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# sixth-power residue classes
# ---------------------------------------------------------------------------

class SixthPowerClass:
    """Canonical representative of a class in Q*/(Q*)^6.

    Stored as a sign and the prime exponents of the representative,
    each in 1..5; the representative itself is therefore a
    sixth-power-free *integer* (all denominator content is absorbed by
    multiplying with p^6).  Multiplication of classes is exponent
    arithmetic mod 6, so products never need re-factoring.
    """

    __slots__ = ("sign", "powers")

    def __init__(self, sign: int, powers: dict[int, int]):
        assert sign in (1, -1)
        self.sign = sign
        self.powers = tuple(sorted([(p, e % 6) for p, e in powers.items() if e % 6]))

    @property
    def rep(self) -> Fraction:
        """The unique sixth-power-free integer representative."""
        n = self.sign
        for p, e in self.powers:
            n *= p ** e
        return Fraction(n)

    def __mul__(self, other: "SixthPowerClass") -> "SixthPowerClass":
        merged = dict(self.powers)
        for p, e in other.powers:
            merged[p] = merged.get(p, 0) + e
        return SixthPowerClass(self.sign * other.sign, merged)

    def is_square(self) -> bool:
        return self.sign > 0 and all(e % 2 == 0 for _, e in self.powers)

    def is_cube(self) -> bool:
        return all(e % 3 == 0 for _, e in self.powers)

    def neg3_times_is_square(self) -> bool:
        # a square is positive, so only a negative class can qualify
        return self.sign < 0 and (self * _NEG3_CLASS).is_square()

    def __eq__(self, other) -> bool:
        return (isinstance(other, SixthPowerClass)
                and self.sign == other.sign and self.powers == other.powers)

    def __hash__(self):
        return hash((self.sign, self.powers))

    def __repr__(self):
        return f"SixthPowerClass({self.rep})"


_NEG3_CLASS = SixthPowerClass(-1, {3: 1})


def sixth_power_class(x: RationalLike) -> SixthPowerClass:
    """Canonical sixth-power-free class of a nonzero rational.

    Two rationals map to the same class exactly when their quotient is
    a sixth power in Q*.  Requires factoring numerator and denominator;
    raises FactorBudgetExceeded if that cannot be completed within
    budget.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("sixth-power class of 0 is undefined")
    powers = dict(factorint(abs(x.numerator)))
    for p, e in factorint(x.denominator).items():
        powers[p] = powers.get(p, 0) - e
    return SixthPowerClass(1 if x > 0 else -1, powers)


def square_and_multiply(one, base, n: int):
    """base^n for n >= 0, where one is the identity: n.bit_length() - 1
    squarings and popcount(n) products."""
    result = one * base if n & 1 else one
    while n := n >> 1:
        base = base * base
        if n & 1:
            result = result * base
    return result


# ---------------------------------------------------------------------------
# the quadratic extension Q(sqrt(-3))
# ---------------------------------------------------------------------------

class QuadExt:
    """Element a + b*sqrt(-3) of Q(sqrt(-3)).

    Immutable; arithmetic coerces ints and Fractions.  Conjugation
    flips the sign of b and the norm is a^2 + 3 b^2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- ring / field structure -------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a * other.a - 3 * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(sqrt(-3))")
        return QuadExt(self.a / n, -self.b / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return square_and_multiply(QuadExt(1), self, n)

    # -- structure maps ----------------------------------------------------

    def conj(self) -> "QuadExt":
        return QuadExt(self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a + 3 * self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, QuadExt):
            return v
        if isinstance(v, (int, Fraction)):
            return QuadExt(v)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bs = "sqrt(-3)" if self.b == 1 else (
            "-sqrt(-3)" if self.b == -1 else f"{self.b}*sqrt(-3)")
        if self.a == 0:
            return bs
        return f"{self.a} + {bs}" if self.b > 0 else f"{self.a} - {bs[1:]}"


#: primitive third root of unity (-1 + sqrt(-3)) / 2
OMEGA = QuadExt(Fraction(-1, 2), Fraction(1, 2))
