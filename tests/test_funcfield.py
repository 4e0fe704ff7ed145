import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sexticrank import funcfield
from sexticrank.curve import CurvePoint, FunctionFieldCurve
from sexticrank.exactnum import OMEGA, QuadExt
from sexticrank.funcfield import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_TERMS,
    Poly,
    RatFunc,
    lift_to_ext,
    parse_point,
    parse_ratfunc,
    poly_gcd,
    restrict_to_rational,
)
from sexticrank.generators import base_change_embed, full_certificate

#: primitive sixth root of unity -omega
ZETA6 = -OMEGA

frac = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(frac, min_size=0, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.tuples(polys, nonzero_polys).map(lambda nd: RatFunc(*nd))
nonzero_frac = frac.filter(bool)
quad = st.builds(QuadExt, frac, frac)
quad_polys = st.lists(quad, min_size=0, max_size=6).map(Poly)


# -- display form -------------------------------------------------------------

def test_poly_display():
    assert str(Poly([-1, 0, Fraction(3, 2)])) == "(3/2)*t^2 - 1"
    assert str(Poly([0, 1])) == "t"
    assert str(Poly([0, -1, 2])) == "2*t^2 - t"
    assert str(Poly([])) == "0"
    assert str(Poly([Fraction(1, 3)])) == "1/3"
    assert Poly([0, 0, 5]).to_str("s") == "5*s^2"


def test_ratfunc_display():
    f = RatFunc(Poly([1, 0, 1]), Poly([0, 0, 1]))
    assert str(f) == "(t^2 + 1)/(t^2)"
    assert str(RatFunc(Poly([7]))) == "7"


def test_quadext_coeff_display_round_trip():
    p = RatFunc(Poly([OMEGA, QuadExt(1)]))
    assert "sqrt(-3)" in str(p)


# -- reading the display form back --------------------------------------------

def test_parse_basic():
    f = parse_ratfunc("(3/2)*t^2 - 1", "t")
    assert f == RatFunc(Poly([-1, 0, Fraction(3, 2)]))
    assert all(type(c) is Fraction for _, c in f.num.terms + f.den.terms)
    assert parse_ratfunc("(t^3 + 2)/(t^2)", "t") == RatFunc(Poly([2, 0, 0, 1]),
                                                            Poly([0, 0, 1]))
    assert parse_ratfunc("-t", "t") == RatFunc(Poly([0, -1]))
    assert parse_ratfunc("0", "s") == RatFunc(Poly([]))


def test_parse_constant_over_a_power():
    f = RatFunc(Poly([Fraction(1, 4)]), Poly([0, 0, 1]))
    assert f.to_str("t") == "1/4/(t^2)"
    assert parse_ratfunc("1/4/(t^2)", "t") == f


def test_parse_refuses_sqrt():
    # the reader builds over Q only; sqrt(-3) is no rational coefficient
    for text in ["sqrt(-3)", "(-1 + sqrt(-3))/2", "sqrt(2)"]:
        with pytest.raises(ValueError, match="is not an integer or p/q"):
            parse_ratfunc(text, "t")
    with pytest.raises(ValueError, match="^coefficient 'sqrt\\(-3\\)' is not"):
        parse_point("(s, sqrt(-3)*s^2)", "s")


def test_parse_rejects_garbage():
    for text, var in [("t + ", "t"), ("t $ 2", "t"), ("t + u", "t"),
                      ("s + 1", "t"), (" t", "t"), ("t^-2", "t"), ("2^3", "t"),
                      ("1/0", "t"), ("-0", "t"), ("t + t", "t")]:
        with pytest.raises(ValueError):
            parse_ratfunc(text, var)


@pytest.mark.parametrize("text,named", [
    ("t + t^2", "is not canonical; it is written 't^2 + t'"),
    ("1*s", "is not canonical; it is written 's'"),
    ("(2/4)*s", "is not canonical; it is written '(1/2)*s'"),
    ("t/(t^2)", "is not canonical; it is written '1/(t)'"),
    ("s/(s + 1)", "denominator 's + 1' is not a power of s"),
    ("s^4 + s^3 + s^2 + s + 1", f"more than {MAX_PARSE_TERMS} terms"),
    (f"s^{MAX_PARSE_DEGREE + 1}", "degree 65 is above the reader's limit"),
    ("sqrt(-3)*s", "coefficient 'sqrt(-3)' is not an integer or p/q"),
], ids=["out-of-order", "unit-coefficient", "unreduced-coefficient",
        "unreduced-fraction", "other-denominator", "five-terms", "degree-65",
        "sqrt"])
def test_parse_refuses_by_name(text, named):
    var = "t" if "t" in text.replace("sqrt", "") else "s"
    with pytest.raises(ValueError) as info:
        parse_ratfunc(text, var)
    assert named in str(info.value)


def test_parse_point():
    x, y = parse_point("(t^2 - 1, (1/2)*t^3)", "t")
    assert x == RatFunc(Poly([-1, 0, 1]))
    assert y == RatFunc(Poly([0, 0, 0, Fraction(1, 2)]))
    assert parse_point("O", "t") is None
    for text in ["t^2 - 1", " O", "(t, t", "(t,t)", "(t, t, t)"]:
        with pytest.raises(ValueError):
            parse_point(text, "t")


def test_parse_point_reads_one_variable():
    x, y = parse_point("(4, s + 8)", "s")
    assert x == RatFunc.constant(4) and y == RatFunc(Poly([8, 1]))
    assert parse_point("(s, s^2)", "s") == (RatFunc(Poly([0, 1])),
                                           RatFunc(Poly([0, 0, 1])))
    for text, var in [("(s, t^2)", "s"), ("(4, t)", "s"), ("(s, s)", "t")]:
        with pytest.raises(ValueError, match="^coefficient '[st]"):
            parse_point(text, var)


def test_parse_degree_cap():
    cap = MAX_PARSE_DEGREE
    assert parse_ratfunc(f"t^{cap}", "t") == RatFunc(Poly.monomial(1, cap))
    assert parse_ratfunc(f"1/(t^{cap})", "t") == RatFunc(Poly([1]),
                                                        Poly.monomial(1, cap))
    for text in [f"t^{cap + 1}", f"1/(t^{cap + 1})", f"t^{cap + 1} + 1",
                 "s^20000", "t^" + "9" * 4000]:
        with pytest.raises(ValueError, match="above the reader's limit"):
            parse_ratfunc(text, "t" if "t" in text else "s")


def test_parse_coefficient_size_cap():
    # every integer goes through int once, within the interpreter's
    # int/str digit limit
    digits = sys.get_int_max_str_digits()
    p, q = 10 ** (digits - 1) + 1, 10 ** (digits - 1) + 3
    text = f"({p}/{q})*t^{MAX_PARSE_DEGREE} - {p}/{q}"
    c = Fraction(p, q)
    assert parse_ratfunc(text, "t") == RatFunc(
        Poly([-c] + [0] * (MAX_PARSE_DEGREE - 1) + [c]))
    with pytest.raises(ValueError, match="integer string conversion"):
        parse_ratfunc(f"{10 * p}*t + 1", "t")


def test_parse_term_cap():
    # the count is taken on the separators, before any term is read
    terms = ["s^4", "2*s^3", "s^2", "1"]
    parse_ratfunc(" + ".join(terms), "s")
    with pytest.raises(ValueError, match="more than 4 terms"):
        parse_ratfunc(" + ".join(["s^5"] + terms), "s")
    long = " + ".join(f"s^{k}" for k in range(MAX_PARSE_DEGREE, 0, -1))
    with pytest.raises(ValueError, match="more than 4 terms") as info:
        parse_ratfunc(long, "s")
    assert len(str(info.value)) < 200
    with pytest.raises(ValueError, match="characters\\) is not a power of s"):
        parse_point("(" + "+".join(["s"] * 100_000) + ", 1)", "s")


# -- algebra -------------------------------------------------------------------

def test_divmod():
    a = Poly([1, 0, 0, 1])  # t^3 + 1
    b = Poly([1, 1])        # t + 1
    q, r = divmod(a, b)
    assert q == Poly([1, -1, 1])
    assert r.is_zero()


def test_gcd():
    a = Poly([0, 0, 1]) * Poly([-1, 1])
    b = Poly([0, 1]) * Poly([-1, 1]) * Poly([2, 1])
    assert poly_gcd(a, b) == Poly([0, 1]) * Poly([-1, 1])


def test_product_multiplies_no_zero_coefficient():
    calls = []

    class Counted(Fraction):
        def __mul__(self, other):
            calls.append((self, other))
            return Fraction.__mul__(self, other)

    a = Poly([Counted(c) for c in (1, 0, 0, 2, 0, 0, 0, -3)])
    b = Poly([Counted(c) for c in (0, 0, 5, 0, 0, 0, 0, 0, 7)])
    # (1 + 2t^3 - 3t^7)(5t^2 + 7t^8)
    assert a * b == Poly([0, 0, 5, 0, 0, 10, 0, 0, 7, -15, 0, 14, 0, 0, 0,
                          -21])
    assert len(calls) == 3 * 2 and all(x and y for x, y in calls)
    calls.clear()
    assert b * a == a * b
    assert len(calls) == 2 * 2 * 3


@pytest.fixture
def zeros_made(monkeypatch):
    """Every zero that funcfield constructs as a Fraction, and every
    Fraction product with a zero factor, while the test runs."""
    made = []

    class Spy(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __call__(cls, *args):
            f = Fraction(*args)
            if not f:
                made.append(("constructed", args))
            return f

    def counted(op):
        def wrapped(a, b):
            if not (a and b):
                made.append(("multiplied", a, b))
            return op(a, b)
        return wrapped

    monkeypatch.setattr(funcfield, "Fraction", Spy("Fraction", (), {}))
    monkeypatch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
    return made


def test_substitute_creates_no_zero_coefficient(zeros_made):
    f = RatFunc(Poly([0, 0, 3, 0, 0, 0, -5]), Poly([0, 1, 0, 0, 2]))
    g = RatFunc(Poly([7, 0, 0, 1]), Poly([0, 0, 0, 0, 0, 1]))
    outer = [f.substitute(RatFunc(Poly.monomial(2, 6))),
             g.substitute(RatFunc(Poly.monomial(1, 6))),
             g.substitute(RatFunc(Poly.constant(3), Poly.monomial(1, 2)))]
    assert zeros_made == []
    assert outer[1] == RatFunc(Poly([7] + [0] * 17 + [1]), Poly.monomial(1, 30))
    # (7 + t^3)/t^5 at 3/t^2 is (27 t^4 + 7 t^10)/243
    assert outer[2] == RatFunc(Poly([0, 0, 0, 0, 27, 0, 0, 0, 0, 0, 7]),
                               Poly.constant(243))


def test_monomial_normalisation_creates_no_zero_coefficient(zeros_made):
    num = Poly([0, 0, 0, 3, 0, 0, 0, 0, 0, -5, 0, 0, 0, 0, 0, 1])
    f = RatFunc(num, Poly.monomial(4, 5))
    assert zeros_made == []
    assert f == RatFunc(Poly([Fraction(3, 4), 0, 0, 0, 0, 0, Fraction(-5, 4),
                              0, 0, 0, 0, 0, Fraction(1, 4)]), Poly.monomial(1, 2))


def test_base_change_embed_creates_no_zero_coefficient(zeros_made):
    witnesses = full_certificate(-27, -432).witnesses
    zeros_made.clear()
    embedded = [base_change_embed(w.point, w.k) for w in witnesses]
    assert zeros_made == []
    sextic = FunctionFieldCurve.sextic(-27, -432)
    assert len(embedded) == 3 and all(sextic.contains(P) for P in embedded)


def test_substitute_inversion():
    f = RatFunc(Poly([1, 0, 1]))  # t^2 + 1
    inv = RatFunc(Poly([1]), Poly([0, 1]))  # 1/t
    assert f.substitute(inv) == RatFunc(Poly([1, 0, 1]), Poly([0, 0, 1]))
    # t -> 1/t twice is the identity
    assert f.substitute(inv).substitute(inv) == f


def test_substitute_power():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))  # t/(t+1)
    sq = RatFunc(Poly([0, 0, 1]))
    assert f.substitute(sq) == RatFunc(Poly([0, 0, 1]), Poly([1, 0, 1]))


@pytest.mark.parametrize("inner", [
    RatFunc(Poly([1, 1])),                 # t + 1
    RatFunc(Poly([2])),                    # a constant
    RatFunc(Poly([0, 1]), Poly([1, 1])),   # t/(t + 1)
])
def test_substitute_rejects_non_monomial_inner(inner):
    f = RatFunc(Poly([1, 0, 1]))
    with pytest.raises(ValueError):
        f.substitute(inner)


def test_evaluate():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert f.evaluate(Fraction(1)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(Fraction(-1))
    g = lift_to_ext(f)
    assert g.evaluate(OMEGA) == OMEGA / (OMEGA + 1)


def test_root_multiplicity_and_derivative():
    p = Poly([0, 0, 0, 2, 1])
    assert p.root_multiplicity_at_zero() == 3
    assert Poly([5]).root_multiplicity_at_zero() == 0
    assert p.derivative() == Poly([0, 0, 6, 4])


def test_lift_restrict_round_trip():
    f = RatFunc(Poly([1, 2]), Poly([0, 0, 3]))
    assert restrict_to_rational(lift_to_ext(f)) == f
    bad = RatFunc(Poly([OMEGA]))
    with pytest.raises(ValueError):
        restrict_to_rational(bad)


def test_scalar_rule():
    # an int becomes a Fraction, so no division yields a float
    assert all(type(c) is Fraction for _, c in Poly([1, 2]).terms)
    half = RatFunc(Poly([1]), Poly([2]))
    assert half == RatFunc.constant(Fraction(1, 2))
    assert [type(c) for _, c in half.num.terms + half.den.terms] == [Fraction, Fraction]
    for scalar in [0.5, 1j, "2"]:
        with pytest.raises(TypeError):
            Poly([1]) * scalar
        with pytest.raises(TypeError):
            RatFunc.constant(1) + scalar


def test_normalization_makes_equality_literal():
    a = RatFunc(Poly([0, 2]), Poly([2, 2]))
    b = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert a == b and hash(a) == hash(b)
    # QuadExt coefficients with b = 0 equal their rational values
    ext, rat = Poly([QuadExt(2), 0, QuadExt(1)]), Poly([2, 0, 1])
    assert ext == rat and hash(ext) == hash(rat)
    ext_f, rat_f = RatFunc(ext, Poly([0, QuadExt(3)])), RatFunc(rat, Poly([0, 3]))
    assert ext_f == rat_f and hash(ext_f) == hash(rat_f)
    ext_p, rat_p = CurvePoint(ext_f, RatFunc(ext)), CurvePoint(rat_f, RatFunc(rat))
    assert ext_p == rat_p and hash(ext_p) == hash(rat_p)


# -- property tests --------------------------------------------------------------

@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def spread(cs, d):
    """The polynomial with cs[i] at t^(d*i) and zero elsewhere: nonzero
    only at every d-th power of t, as embedded points are."""
    out = [0] * (d * len(cs))
    out[::d] = cs
    return Poly(out)


def spread_polys(coeffs):
    return st.builds(spread, st.lists(coeffs, max_size=5), st.integers(1, 6))


@given(st.sampled_from([frac, quad]).flatmap(
    lambda coeffs: st.tuples(spread_polys(coeffs), spread_polys(coeffs))))
def test_spread_product_matches_the_schoolbook_sum(ab):
    a, b = ab
    out = [0] * (a.degree + b.degree + 1)
    for i in range(a.degree + 1):
        for j in range(b.degree + 1):
            out[i + j] = out[i + j] + a[i] * b[j]
    assert a * b == Poly(out)


@given(polys, nonzero_polys)
def test_divmod_invariant(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(polys, polys)
@settings(max_examples=50)
def test_gcd_divides(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert (a % g).is_zero() and (b % g).is_zero()


#: the functions the reader takes: at most MAX_PARSE_TERMS terms over a
#: power of the variable, of degree at most MAX_PARSE_DEGREE
readable = st.builds(
    lambda terms, k: RatFunc(Poly([terms.get(i, 0)
                                   for i in range(MAX_PARSE_DEGREE + 1)]),
                             Poly.monomial(1, k)),
    st.dictionaries(st.integers(0, MAX_PARSE_DEGREE), nonzero_frac,
                    max_size=MAX_PARSE_TERMS),
    st.integers(0, MAX_PARSE_DEGREE))


@given(readable, st.sampled_from("st"))
def test_str_parse_round_trip(f, var):
    assert parse_ratfunc(f.to_str(var), var) == f


@given(st.text(alphabet="t0123456789٣+-*/^() ", max_size=30))
def test_parse_reads_only_canonical_text(text):
    # any other text is refused with a ValueError, never another error
    try:
        f = parse_ratfunc(text, "t")
    except ValueError:
        return
    assert f.to_str("t") == text


@given(ratfuncs, ratfuncs)
@settings(max_examples=60)
def test_ratfunc_field_ops(f, g):
    assert f + g - g == f
    if not g.is_zero():
        assert (f * g) / g == f


@given(ratfuncs)
def test_compose_with_identity(f):
    t = RatFunc.variable()
    assert f.substitute(t) == f


def reference_normal_form(num, den):
    """Lowest terms by the general gcd, then a monic denominator."""
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    inv = Fraction(1) / den.leading()
    return num * inv, den * inv


@given(polys, nonzero_frac, st.integers(0, 8))
def test_monomial_denominator_normal_form(num, c, k):
    den = Poly.monomial(c, k)
    f = RatFunc(num, den)
    assert (f.num, f.den) == reference_normal_form(num, den)


@given(quad_polys, st.integers(0, 8))
def test_monomial_denominator_normal_form_over_ext(num, k):
    den = Poly.monomial(ZETA6, k)
    f = RatFunc(num, den)
    assert (f.num, f.den) == reference_normal_form(num, den)


def laurent_monomial(c, d: int) -> RatFunc:
    """c*t^d as a RatFunc, for any integer d."""
    if d >= 0:
        return RatFunc(Poly.monomial(c, d))
    return RatFunc(Poly([c]), Poly.monomial(1, -d))


@given(ratfuncs, nonzero_frac, st.integers(-3, 6).filter(bool), nonzero_frac)
def test_substitute_laurent_monomial(f, c, d, v):
    inner = laurent_monomial(c, d)
    try:
        expected = f.evaluate(c * v ** d)
    except ZeroDivisionError:
        assume(False)
    assert f.substitute(inner).evaluate(v) == expected


@given(ratfuncs, st.integers(-3, 6).filter(bool), nonzero_frac)
@settings(max_examples=50)
def test_substitute_zeta6_power(f, d, v):
    g = lift_to_ext(f)
    inner = laurent_monomial(ZETA6, d)
    w = QuadExt(v)
    try:
        expected = g.evaluate(ZETA6 * w ** d)
    except ZeroDivisionError:
        assume(False)
    assert g.substitute(inner).evaluate(w) == expected
