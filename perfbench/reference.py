"""Independent reference for the rank formula of y^2 = x^3 + A*t^6 + B.

Nothing here imports sexticrank.  Every answer is read off prime
factorizations supplied by the caller: the checks pass
``sympy.factorint``, input generation passes the small trial division
below.  The four components are

    r1: 4AB a cube and A or -3A a square
    r2: A a cube   and B or -3B a square
    r3: B a cube   and A or -3A a square
    r4: 4AB a cube and B or -3B a square
"""

from fractions import Fraction


def trial_factor(n: int) -> dict:
    """Prime factorization of a small positive integer."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Reference:
    """Rank components and sixth-power classes from a factorization
    function ``factor(n) -> {prime: exponent}`` on positive integers."""

    def __init__(self, factor):
        self._factor = factor
        self._memo = {}
        self._squarish_memo = {}

    def exponents(self, x: Fraction) -> dict:
        """Prime exponents of nonzero rational x (negative for the
        denominator)."""
        key = abs(Fraction(x))
        if key not in self._memo:
            exps = dict(self._factor(key.numerator))
            for p, e in self._factor(key.denominator).items():
                exps[p] = exps.get(p, 0) - e
            self._memo[key] = {int(p): int(e) for p, e in exps.items()}
        return self._memo[key]

    def sixth_class(self, x) -> int:
        """The sixth-power-free integer in the class of x in Q*/Q*^6."""
        x = Fraction(x)
        rep = 1 if x > 0 else -1
        for p, e in self.exponents(x).items():
            rep *= p ** (e % 6)
        return rep

    def _is_cube(self, exps: dict) -> bool:
        return all(e % 3 == 0 for e in exps.values())

    def is_square(self, x) -> bool:
        """x is a square in Q."""
        return x > 0 and all(e % 2 == 0 for e in self.exponents(x).values())

    def squarish(self, x: Fraction) -> bool:
        """x or -3x is a square in Q."""
        if x not in self._squarish_memo:
            self._squarish_memo[x] = self.is_square(x) or self.is_square(-3 * x)
        return self._squarish_memo[x]

    def components(self, A, B) -> tuple:
        A, B = Fraction(A), Fraction(B)
        sA, sB = self.squarish(A), self.squarish(B)
        if not (sA or sB):
            return (0, 0, 0, 0)
        ea, eb = self.exponents(A), self.exponents(B)
        e4ab = {2: 2}
        for exps in (ea, eb):
            for p, e in exps.items():
                e4ab[p] = e4ab.get(p, 0) + e
        cube4ab = self._is_cube(e4ab)
        return (int(cube4ab and sA), int(self._is_cube(ea) and sB),
                int(self._is_cube(eb) and sA), int(cube4ab and sB))

    def rank(self, A, B) -> int:
        return sum(self.components(A, B))


def sympy_reference() -> Reference:
    """The reference used by the output checks (sympy factorization)."""
    from sympy import factorint

    return Reference(factorint)
