import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sexticrank import exactnum
from sexticrank.exactnum import (
    MAX_LITERAL_DIGITS,
    OMEGA,
    FactorBudgetExceeded,
    QuadExt,
    SixthPowerClass,
    factorint,
    is_kth_power,
    is_square_or_neg3_square,
    parse_rational,
    sixth_power_class,
    square_and_multiply,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
).filter(lambda x: x != 0)

small_rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=60
).filter(lambda x: x != 0)


# -- frozen expected values -------------------------------------------------

def test_kth_power_known_values():
    assert is_kth_power(64, 3) == 4
    assert is_kth_power(64, 2) == 8
    assert is_kth_power(-64, 3) == -4
    assert is_kth_power(-64, 2) is None
    assert is_kth_power(Fraction(27, 8), 3) == Fraction(3, 2)
    assert is_kth_power(Fraction(1, 729), 6) == Fraction(1, 3)
    assert is_kth_power(Fraction(10), 2) is None
    assert is_kth_power(0, 5) == 0


def test_square_trichotomy_known_values():
    t = is_square_or_neg3_square(Fraction(9, 4))
    assert t.kind == "square" and t.root == Fraction(3, 2)
    t = is_square_or_neg3_square(-12)
    assert t.kind == "neg3_square" and t.root == 6
    t = is_square_or_neg3_square(Fraction(-1, 3))
    assert t.kind == "neg3_square" and t.root == 1
    assert is_square_or_neg3_square(5).kind == "neither"
    assert is_square_or_neg3_square(-5).kind == "neither"
    with pytest.raises(ValueError):
        is_square_or_neg3_square(0)


def test_sixth_power_class_known_values():
    assert sixth_power_class(Fraction(-27, 64)).rep == -27
    assert sixth_power_class(1).rep == 1
    assert sixth_power_class(64).rep == 1
    assert sixth_power_class(-64).rep == -1
    assert sixth_power_class(Fraction(1, 16)).rep == 4
    assert sixth_power_class(16).rep == 16
    assert sixth_power_class(-432).rep == -432
    assert sixth_power_class(Fraction(2, 3)).rep == 2 * 3 ** 5


def test_sixth_power_class_predicates():
    assert sixth_power_class(16).is_square()
    assert not sixth_power_class(16).is_cube()
    assert sixth_power_class(-27).is_cube()
    assert not sixth_power_class(-27).is_square()
    assert sixth_power_class(-27).neg3_times_is_square()  # 81 = 9^2
    assert sixth_power_class(1).is_square() and sixth_power_class(1).is_cube()
    c = sixth_power_class(4) * sixth_power_class(2)
    assert c.rep == 8 and c.is_cube()


def test_quadext_known_values():
    v = QuadExt(1, 1)  # 1 + sqrt(-3)
    assert v * v == QuadExt(-2, 2)
    assert OMEGA ** 3 == 1
    assert OMEGA ** 2 + OMEGA + 1 == 0
    assert OMEGA.norm() == 1
    assert OMEGA.conj() == OMEGA ** 2
    assert (v / v) == 1
    assert str(OMEGA) == "-1/2 + 1/2*sqrt(-3)"


class _Exponent:
    """A power of a formal base that counts the products that built it."""

    def __init__(self, e, counts):
        self.e, self.counts = e, counts

    def __mul__(self, other):
        self.counts["squarings" if self is other else "products"] += 1
        return _Exponent(self.e + other.e, self.counts)


def test_square_and_multiply_stops_squaring_at_the_top_bit():
    for n in range(1, 71):
        counts = {"squarings": 0, "products": 0}
        power = square_and_multiply(_Exponent(0, counts),
                                    _Exponent(1, counts), n)
        assert power.e == n
        assert counts == {"squarings": n.bit_length() - 1,
                          "products": bin(n).count("1")}


def test_parse_rational_caps_the_digits_of_numerator_and_denominator():
    half = MAX_LITERAL_DIGITS // 2
    nines = "9" * MAX_LITERAL_DIGITS
    assert parse_rational("-" + nines) == 1 - 10 ** MAX_LITERAL_DIGITS
    assert parse_rational("7" * half + "/" + "3" * half) == Fraction(7, 3)
    for text in ("9" * (MAX_LITERAL_DIGITS + 1),
                 "7" * half + "/" + "3" * (half + 1)):
        with pytest.raises(ValueError, match="digits, above the limit"):
            parse_rational(text)


@pytest.mark.parametrize("text", ["\u0661\u0666", "\uff11\uff16", "3/\u0664",
                                  "16\n"])
def test_parse_rational_reads_ascii_digits_only(text):
    # Arabic-Indic 16, fullwidth 16, 3 over Arabic-Indic 4, a newline
    with pytest.raises(ValueError, match="is not an integer or p/q"):
        parse_rational(text)


def test_factorint_known_values():
    assert factorint(1) == {}
    assert factorint(2 ** 10 * 3 ** 4 * 97) == {2: 10, 3: 4, 97: 1}
    assert factorint(1_000_003) == {1_000_003: 1}
    # cofactors past the primes below 100 go to Miller-Rabin and rho
    assert factorint(2 ** 5 * 7 * (10 ** 18 + 3)) == {2: 5, 7: 1, 10 ** 18 + 3: 1}
    assert factorint(999_983 ** 3) == {999_983: 3}
    assert factorint(101 ** 2 * 1_009 ** 5) == {101: 2, 1_009: 5}
    # twin semiprime beyond the trial division bound
    p, q = 1_000_033, 1_000_037
    assert factorint(p * q) == {p: 1, q: 1}
    with pytest.raises(ValueError):
        factorint(0)


def test_factorint_budget_error_is_typed(monkeypatch):
    # far beyond what deterministic primality certification covers: it
    # fails before rho runs
    n = (10 ** 59 + 213) * (10 ** 59 + 223)
    with pytest.raises(FactorBudgetExceeded, match="cannot certify"):
        factorint(n)
    # a semiprime past trial division whose rho runs out of iterations
    monkeypatch.setattr(exactnum, "_RHO_BUDGET", 1)
    with pytest.raises(FactorBudgetExceeded, match="rho budget exhausted"):
        factorint(1_000_003 * 1_000_033)


# -- brute-force oracle for squares in Q(sqrt(-3)) --------------------------

def _all_heights(bound):
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if p and math.gcd(abs(p), q) == 1:
                yield Fraction(p, q)


def test_ext_square_against_enumeration():
    # -3*r^2 with u of height <= 30 needs r up to height sqrt(3*30) < 10
    roots = list(_all_heights(12))
    ext_squares = {r * r for r in roots} | {-3 * r * r for r in roots}
    for u in _all_heights(30):
        expected = u in ext_squares
        assert (is_square_or_neg3_square(u).kind != "neither") == expected, u


# -- property tests ---------------------------------------------------------

@given(rationals, st.integers(min_value=1, max_value=6))
def test_kth_power_round_trip(x, k):
    y = x ** k
    r = is_kth_power(y, k)
    assert r is not None
    assert r ** k == y
    if k % 2 == 1:
        assert r == x
    else:
        assert r == abs(x)


@given(rationals)
def test_square_trichotomy_is_consistent(x):
    t = is_square_or_neg3_square(x)
    if t.kind == "square":
        assert t.root * t.root == x
        assert is_kth_power(-3 * x, 2) is None
    elif t.kind == "neg3_square":
        assert t.root * t.root == -3 * x
        assert is_kth_power(x, 2) is None
    else:
        assert t.root is None


@settings(max_examples=60)
@given(small_rationals, small_rationals)
def test_sixth_power_class_invariance(x, w):
    assert sixth_power_class(x * w ** 6) == sixth_power_class(x)


@settings(max_examples=60)
@given(small_rationals, small_rationals)
def test_sixth_power_class_multiplicative(x, y):
    assert sixth_power_class(x) * sixth_power_class(y) == sixth_power_class(x * y)


@settings(max_examples=60)
@given(small_rationals)
def test_sixth_power_class_rep_is_idempotent(x):
    c = sixth_power_class(x)
    assert sixth_power_class(c.rep) == c
    quotient = x / c.rep
    assert is_kth_power(quotient, 6) is not None


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factorint_recombines(n):
    fs = factorint(n)
    prod = 1
    for p, e in fs.items():
        prod *= p ** e
    assert prod == n


quad_elems = st.builds(
    QuadExt,
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)


@given(quad_elems, quad_elems, quad_elems)
def test_quadext_ring_axioms(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u * v).conj() == u.conj() * v.conj()
    assert (u * v).norm() == u.norm() * v.norm()


@given(quad_elems.filter(bool))
def test_quadext_inverse(u):
    assert u * u.inverse() == 1
    assert (1 / u) * u == QuadExt(1)
