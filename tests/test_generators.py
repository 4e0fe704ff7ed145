import json
import math
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sexticrank import cli, generators, rankalg
from sexticrank.curve import CurvePoint, FunctionFieldCurve, O
from sexticrank.exactnum import (OMEGA, QuadExt, is_kth_power,
                                  is_square_or_neg3_square)
from sexticrank.funcfield import Poly, RatFunc, lift_to_ext, parse_ratfunc
from sexticrank.generators import (
    VerificationReport,
    base_change_embed,
    eigenspace_check,
    full_certificate,
    descended_point,
    direct_point,
    galois_descent_combine,
    multiples_nonzero,
    shioda_height,
    subfamily_generator,
    verify_certificate_json,
)
from sexticrank.rankalg import CRITERIA, rank_breakdown


def pt(xs, ys):
    """The point with coordinates xs and ys, each as to_str writes it in s."""
    return CurvePoint(parse_ratfunc(xs, "s"), parse_ratfunc(ys, "s"))


# -- closed-form points, direct cases -----------------------------------------

def test_k1_direct_point():
    w = subfamily_generator(rank_breakdown(1, 16), 1)
    assert not w.used_descent
    assert w.point == pt("4", "s + 8")
    w.curve.require_on_curve(w.point)


def test_k2_direct_point():
    w = subfamily_generator(rank_breakdown(1, 16), 2)
    assert w.point == pt("-s", "4*s")


def test_k3_direct_point():
    w = subfamily_generator(rank_breakdown(4, 1), 3)
    assert w.point == pt("-s", "2*s^2")


def test_k4_direct_point():
    w = subfamily_generator(rank_breakdown(1, 16), 4)
    assert w.point == pt("(1/4)*s^2", "(1/8)*s^3 + 4*s^2")


def test_generator_absent_when_criterion_fails():
    bd = rank_breakdown(1, 16)
    assert subfamily_generator(bd, 3) is None  # 16 is not a cube
    for k in (0, 5):
        with pytest.raises(ValueError):
            subfamily_generator(bd, k)
    bd = rank_breakdown(2, 3)
    for k in (1, 2, 3, 4):
        assert subfamily_generator(bd, k) is None


@pytest.mark.parametrize("A,B", [(1, 16), (-27, -432), (2, 3), (8, 5),
                                 (16, 8), (-3, 1)])
def test_roots_are_taken_once_per_breakdown(A, B, monkeypatch, capsys):
    # the generator builds its point from the roots that rank_breakdown
    # stored, so certify evaluates the root route once to build and once
    # in the verifier, and oracle once for all four k
    assert not hasattr(generators, "is_kth_power")
    assert not hasattr(generators, "is_square_or_neg3_square")
    calls = []
    real = rankalg.rank_breakdown

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if (module.__name__.partition(".")[0] == "sexticrank"
                and getattr(module, "rank_breakdown", None) is real):
            monkeypatch.setattr(module, "rank_breakdown", counted)
    for argv, expected in ((["certify", str(A), str(B)], 2),
                           (["oracle", str(A), str(B)], 1)):
        calls.clear()
        assert cli.main(argv) == 0, argv
        assert len(calls) == expected, argv
    capsys.readouterr()


@pytest.mark.parametrize("A,B", [(8, 9), (-27, -432), (2, 3)])
def test_certify_serialises_its_certificate_once(A, B, monkeypatch, capsys):
    # the certificate its verifier read is the one certify prints
    calls = []
    real = generators.certificate_to_json

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if (module.__name__.partition(".")[0] == "sexticrank"
                and getattr(module, "certificate_to_json", None) is real):
            monkeypatch.setattr(module, "certificate_to_json", counted)
    for fmt in ("text", "json"):
        calls.clear()
        assert cli.main(["certify", str(A), str(B), "--format", fmt]) == 0
        assert len(calls) == 1, fmt
    capsys.readouterr()


# -- Galois descent -------------------------------------------------------------

def pre_descent(bd, w):
    """The point over Q(sqrt(-3)) that the twisted witness w of the
    breakdown bd descends from: criterion k's direct point with
    r = (d/3)*sqrt(-3), where d^2 = -3 times the square value, inverted
    for k = 3, 4."""
    A, B = bd.A, bd.B
    cube_name, square_name = CRITERIA[w.k]
    values = {"4AB": 4 * A * B, "A": A, "B": B}
    c = is_kth_power(values[cube_name], 3)
    d = is_square_or_neg3_square(values[square_name]).root
    base, (a, b) = (w.k, (A, B)) if w.k <= 2 else (5 - w.k, (B, A))
    x, y = direct_point(base, a, b, c, QuadExt(0, d / 3))
    if w.k >= 3:
        x, y = (x + [0] * (3 - len(x)))[::-1], (y + [0] * (4 - len(y)))[::-1]
    return CurvePoint(RatFunc(Poly(x)), RatFunc(Poly(y)))


def test_descent_regression_k3():
    # A = -3: only -3A = 9 is a square, so the naive point is twisted
    bd = rank_breakdown(-3, 1)
    w = subfamily_generator(bd, 3)
    assert w.used_descent
    assert pre_descent(bd, w) == CurvePoint(
        RatFunc(Poly([0, -1])),
        RatFunc(Poly([0, 0, QuadExt(0, 1)])))
    assert w.point == pt("4*s^2 - s", "8*s^3 - 3*s^2")
    w.curve.require_on_curve(w.point)


def test_descent_k1_x_coordinate():
    # hand derivation: lambda = -9s/2 + 4/3, x = lambda^2 - 4/3
    w = subfamily_generator(rank_breakdown(-27, 16), 1)
    assert w.used_descent
    assert w.point.x == parse_ratfunc("(81/4)*s^2 - 12*s + 4/9", "s")


def test_descent_combine_is_rational_and_nonzero():
    for (A, B, k) in [(-3, 1, 3), (-27, 16, 1), (-27, -432, 2), (-12, 2, 4)]:
        bd = rank_breakdown(A, B)
        w = subfamily_generator(bd, k)
        if w is None:
            continue
        assert w.used_descent
        assert all(type(c) is Fraction
                   for _, c in w.point.x.num.terms + w.point.x.den.terms)
        assert not w.point.is_infinity
        E = w.curve
        tw = E.omega_point(pre_descent(bd, w))
        rebuilt = E.add(tw, E.galois_conj_point(tw))
        assert rebuilt == CurvePoint(lift_to_ext(w.point.x),
                                     lift_to_ext(w.point.y))


def test_plain_trace_vanishes_in_descent_cases():
    # the reason the omega-twist is needed at all
    bd = rank_breakdown(-3, 1)
    w = subfamily_generator(bd, 3)
    E = w.curve
    P = pre_descent(bd, w)
    assert E.add(P, E.galois_conj_point(P)) == O


def test_descended_point_equals_group_law_descent():
    # the closed form against omega(P) + conj(omega(P)) through the group law
    counts = dict.fromkeys((1, 2, 3, 4), 0)
    values = [v for v in range(-60, 61) if v]
    for A in values:
        for B in values:
            bd = rank_breakdown(A, B)
            for k in (1, 2, 3, 4):
                w = subfamily_generator(bd, k)
                if w is not None and w.used_descent:
                    counts[k] += 1
                    P = pre_descent(bd, w)
                    assert galois_descent_combine(w.curve, P) == w.point, \
                        (A, B, k)
    assert counts == {1: 12, 2: 24, 3: 24, 4: 12}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_descended_point_lies_on_the_curve_identically(k):
    # c^3 = the cube value and d^2 = -3 * the square value of CRITERIA[k]
    c, d, s = sympy.symbols("c d s", nonzero=True)
    square = -d**2 / 3
    A, B = {1: (square, -3 * c**3 / (4 * d**2)), 2: (c**3, square),
            3: (square, c**3), 4: (-3 * c**3 / (4 * d**2), square)}[k]
    xs, ys = descended_point(k if k <= 2 else 5 - k, c, d)
    x = sum(a * s**i for i, a in enumerate(xs))
    y = sum(a * s**i for i, a in enumerate(ys))
    if k >= 3:  # parameter inversion of the swapped pair's point
        x, y = s**2 * x.subs(s, 1 / s), s**3 * y.subs(s, 1 / s)
    assert sympy.simplify(y**2 - x**3 - s**k * (A * s + B)) == 0


# -- base change ------------------------------------------------------------------

def test_embed_to_sextic():
    w = subfamily_generator(rank_breakdown(1, 16), 1)
    W = base_change_embed(w.point, 1)
    E = FunctionFieldCurve.sextic(1, 16)
    assert E.contains(W)
    assert W.to_str("t") == "(4/(t^2), (t^6 + 8)/(t^3))"


def test_embed_twists_by_shifting_the_denominator(monkeypatch):
    # the twist (x, y) -> (x/t^2k, y/t^3k) moves the denominators only:
    # no RatFunc quotient is taken
    def refuse(*args):
        raise AssertionError("base_change_embed divided by a power of t")

    monkeypatch.setattr(RatFunc, "__truediv__", refuse)
    twists = set()
    for A, B in [(8, 9), (-3, 1), (4, 4), (1, 16), (-27, -432)]:
        bd = rank_breakdown(A, B)
        sextic = FunctionFieldCurve.sextic(A, B)
        for k in range(1, 5):
            w = subfamily_generator(bd, k)
            if w is not None:
                assert sextic.contains(base_change_embed(w.point, k))
                twists.add(k)
    assert twists == {1, 2, 3, 4}


def test_embed_keeps_the_zero_point():
    assert base_change_embed(O, 1) == O


def test_eigenspace_identity_tags_the_component():
    for (A, B) in [(1, 16), (16, 1), (1, 1), (-3, 1)]:
        bd = rank_breakdown(A, B)
        for comp in bd.reasons:
            if not comp.satisfied:
                continue
            w = subfamily_generator(bd, comp.k)
            W = base_change_embed(w.point, comp.k)
            assert eigenspace_check(comp.k, W)
            for other in (1, 2, 3, 4):
                if other != comp.k:
                    assert not eigenspace_check(other, W)


def eigenspace_by_substitution(k, P):
    """The eigenspace identity computed over Q(sqrt(-3))(t): substitute
    t -> -omega*t and compare with tau^k(x, y) = (omega^k x, (-1)^k y)."""
    x, y = lift_to_ext(P.x), lift_to_ext(P.y)
    zeta6_t = RatFunc(Poly([0, -OMEGA]))
    return (x.substitute(zeta6_t) == x * OMEGA ** k
            and y.substitute(zeta6_t) == y * (-1) ** k)


nonzero_fracs = st.fractions(min_value=-9, max_value=9,
                             max_denominator=4).filter(bool)
quad_coeffs = st.builds(QuadExt, nonzero_fracs,
                        st.fractions(min_value=-9, max_value=9,
                                     max_denominator=4))


@st.composite
def residue_ratfuncs(draw, field, e):
    """n/d with the exponents of d all delta mod 6 and those of n all
    delta + e mod 6, so that f(zeta6*t) = zeta6^e f; d is a monomial when
    it has one term.  Half the draws add one stray term to n or d."""
    coeff = nonzero_fracs if field is Fraction else quad_coeffs
    delta = draw(st.integers(0, 5))
    terms = [{}, {}]  # exponent -> coefficient, for n and for d
    for part, base in ((0, (delta + e) % 6), (1, delta)):
        for m in draw(st.sets(st.integers(0, 1), min_size=1)):
            terms[part][base + 6 * m] = draw(coeff)
    if draw(st.booleans()):
        part = terms[draw(st.integers(0, 1))]
        i = draw(st.integers(0, 11))
        part[i] = part.get(i, 0) + draw(coeff)
    num, den = ([part.get(i, 0) for i in range(12)] for part in terms)
    assume(any(den))
    return RatFunc(Poly(num), Poly(den))


@st.composite
def residue_points(draw):
    """A point whose coordinates follow the residue pattern of one tag."""
    field = draw(st.sampled_from([Fraction, QuadExt]))
    tag = draw(st.integers(1, 4))
    return CurvePoint(draw(residue_ratfuncs(field, 4 * tag)),
                      draw(residue_ratfuncs(field, 3 * tag)))


def test_eigenspace_residue_rule_matches_substitution():
    outcomes = set()

    @given(residue_points())
    @settings(max_examples=150, deadline=None)
    def agree(P):
        for k in (1, 2, 3, 4):
            expected = eigenspace_by_substitution(k, P)
            assert eigenspace_check(k, P) == expected, (k, P)
            outcomes.add(expected)

    agree()
    assert outcomes == {True, False}


def test_eigenspace_check_lifts_and_substitutes_nothing(monkeypatch):
    # every witness of (1, 16) is direct, so its verification has no
    # reason to leave Q(t)
    data = full_certificate(1, 16).data
    depth, inner_calls, checks = [0], [], []
    original_check = generators.eigenspace_check

    def counted_check(*args):
        checks.append(args)
        depth[0] += 1
        try:
            return original_check(*args)
        finally:
            depth[0] -= 1

    def count_inside(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if depth[0]:
                inner_calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(generators, "eigenspace_check", counted_check)
    count_inside(RatFunc, "substitute")
    assert verify_certificate_json(data).ok
    assert len(checks) == 3
    assert inner_calls == []


def test_multiples_nonzero():
    w = subfamily_generator(rank_breakdown(1, 16), 2)
    E = FunctionFieldCurve.sextic(1, 16)
    W = base_change_embed(w.point, 2)
    assert multiples_nonzero(E, W, 6)
    # a genuine 3-torsion point is rejected through the symbolic fallback
    T = FunctionFieldCurve(RatFunc(Poly([0, 0, 1])))
    P = CurvePoint(RatFunc.constant(0), RatFunc(Poly([0, 1])))
    assert not multiples_nonzero(T, P, 6)
    assert not multiples_nonzero(E, O, 6)


def test_multiples_nonzero_takes_one_running_sum(monkeypatch):
    # P, 2P, ..., 6P on the first smooth fibre: five additions, no doublings
    w = subfamily_generator(rank_breakdown(1, 16), 2)
    W = base_change_embed(w.point, 2)
    calls = []
    add = FunctionFieldCurve.add

    def counted(self, P, Q):
        calls.append((P, Q))
        return add(self, P, Q)

    monkeypatch.setattr(FunctionFieldCurve, "add", counted)
    assert multiples_nonzero(FunctionFieldCurve.sextic(1, 16), W, 6)
    assert len(calls) <= 5


#: the heights of each pair's witnesses, in k order; the Gram matrices
#: the group law gives are diagonal with these entries
WITNESS_HEIGHTS = {
    (8, 9): [2],
    (1, 16): [4, 2, 4],
    (4, 4): [4, 4],
    (-27, -432): [12, 6, 12],
    (1, -432): [4, 6, 12],
    (-27, 16): [12, 2, 4],
}


@pytest.mark.parametrize("A,B", list(WITNESS_HEIGHTS))
def test_heights_match_the_group_law(A, B):
    cert = full_certificate(A, B)
    names = [c.name for c in cert.report.checks]
    printed = [int(name.rsplit(" ", 1)[1]) for name in names
               if "Shioda height" in name]
    heights = WITNESS_HEIGHTS[(A, B)]
    assert printed == heights
    assert ("witness eigenspace indices pairwise distinct, so the "
            f"witnesses' regulator is {math.prod(heights)}") in names
    E = FunctionFieldCurve.sextic(A, B)
    pts = [base_change_embed(w.point, w.k) for w in cert.witnesses]
    # <P, Q> = (h(P + Q) - h(P) - h(Q)) / 2, the sum through the group law;
    # on the diagonal that is (h(2P) - 2 h(P)) / 2
    gram = [[Fraction(shioda_height(E.add(P, Q)) - shioda_height(P)
                      - shioda_height(Q), 2) for Q in pts] for P in pts]
    assert gram == [[h if i == j else 0 for j in range(len(pts))]
                    for i, h in enumerate(heights)]
    assert all(multiples_nonzero(E, P, 6) for P in pts)


@pytest.mark.parametrize("A,B,half,regulator", [
    (4, 4, ("2*t", "2*t^3 + 2"), 16),
    (1, 16, ("2*t", "t^3 + 4"), 32),
])
def test_witnesses_can_span_a_subgroup_of_index_2(A, B, half, regulator):
    # 2P = -(W1 + W4): the witnesses have index >= 2 in E(Q(t)), so R is
    # their regulator, and E(Q(t))'s is at most R/4
    cert = full_certificate(A, B)
    E = FunctionFieldCurve.sextic(A, B)
    P = CurvePoint(parse_ratfunc(half[0], "t"), parse_ratfunc(half[1], "t"))
    assert E.contains(P)
    W = {w.k: base_change_embed(w.point, w.k) for w in cert.witnesses}
    assert E.add(P, P) == E.negate(E.add(W[1], W[4]))
    assert ("witness eigenspace indices pairwise distinct, so the "
            f"witnesses' regulator is {regulator}") in [
                c.name for c in cert.report.checks]


def test_certificates_never_use_the_group_law(monkeypatch):
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(FunctionFieldCurve, "add")
    counted(generators, "galois_descent_combine")
    counted(generators, "multiples_nonzero")
    for pair in [(8, 9), (-3, 1), (4, 4), (1, 16), (-27, -432), (1, -27)]:
        cert = full_certificate(*pair)
        assert cert.report.ok
        assert verify_certificate_json(cert.data).ok
    assert calls == []


# -- certificates ------------------------------------------------------------------

CERT_CASES = [
    # (A, B, rank, witness ks, descent ks)
    (1, 16, 3, [1, 2, 4], []),
    (-27, 16, 3, [1, 2, 4], [1]),
    (-27, -432, 3, [1, 2, 4], [1, 2, 4]),
    (1, 1, 2, [2, 3], []),
    (16, 8, 2, [1, 3], []),
    (4, 1, 1, [3], []),
    (-3, 1, 1, [3], [3]),
    (2, 3, 0, [], []),
]


@pytest.mark.parametrize("A,B,rank,ks,descents", CERT_CASES)
def test_full_certificate(A, B, rank, ks, descents):
    cert = full_certificate(A, B)
    assert cert.data["rank"] == rank
    assert [w.k for w in cert.witnesses] == ks
    assert [w.k for w in cert.witnesses if w.used_descent] == descents
    assert cert.report.ok, cert.report.failures


@pytest.mark.parametrize("A,B,rank,ks,descents", CERT_CASES)
def test_certificate_json_round_trip(A, B, rank, ks, descents):
    blob = json.dumps(full_certificate(A, B).data)
    report = verify_certificate_json(json.loads(blob))
    assert report.ok, report.failures


def test_verify_rejects_tampered_point():
    data = full_certificate(1, 16).data
    data["witnesses"][0]["subfamily_point"] = "(5, s + 8)"
    report = verify_certificate_json(data)
    assert not report.ok
    assert any("subfamily curve" in f for f in report.failures)


def test_verify_rejects_tampered_rank():
    data = full_certificate(4, 1).data
    data["rank"] = 2
    report = verify_certificate_json(data)
    assert not report.ok
    assert any("rank" in f for f in report.failures)


def test_verify_rejects_swapped_embedding():
    data = full_certificate(1, 1).data
    w2, w3 = data["witnesses"]
    w2["embedded_point"], w3["embedded_point"] = (
        w3["embedded_point"], w2["embedded_point"])
    report = verify_certificate_json(data)
    assert not report.ok


def test_verify_rejects_unparseable():
    data = full_certificate(4, 1).data
    data["witnesses"][0]["embedded_point"] = "(what, ever)"
    report = verify_certificate_json(data)
    assert not report.ok


# -- mutated certificates ------------------------------------------------------

FUZZ_CERTIFICATES = {}


def fuzz_certificate(pair):
    """A fresh copy of the certificate JSON of pair, built once."""
    if pair not in FUZZ_CERTIFICATES:
        FUZZ_CERTIFICATES[pair] = json.dumps(full_certificate(*pair).data)
    return json.loads(FUZZ_CERTIFICATES[pair])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)

POINT_FIELDS = ("subfamily_point", "embedded_point")
#: the characters of the point grammar for the subfamily variable
GRAMMAR_TEXT = st.text(alphabet="s0123456789+-*/^(), ", max_size=24)


@settings(max_examples=50, deadline=5000)
@given(data=st.data())
def test_verify_mutated_certificate_returns_a_report(data):
    cert = fuzz_certificate(data.draw(st.sampled_from([(8, 9), (-3, 1)])))
    (witness,) = cert["witnesses"]
    holder = data.draw(st.sampled_from([cert, witness]))
    key = data.draw(st.sampled_from(sorted(holder)))
    kind = data.draw(st.sampled_from(["drop", "retype", "k", "point"]))
    if kind == "drop":
        del holder[key]
    elif kind == "retype":
        old = type(holder[key])
        holder[key] = data.draw(json_values.filter(lambda v: type(v) is not old))
    elif kind == "k":
        witness["k"] = data.draw(st.integers(-2, 8) | json_values)
    else:
        witness[data.draw(st.sampled_from(POINT_FIELDS))] = data.draw(GRAMMAR_TEXT)
    report = verify_certificate_json(cert)
    assert isinstance(report, VerificationReport)
    assert all(isinstance(c.passed, bool) for c in report.checks)


# -- generators exist exactly when the criteria hold -----------------------------

small_pairs = st.tuples(
    st.integers(min_value=-25, max_value=25).filter(bool),
    st.integers(min_value=-25, max_value=25).filter(bool),
)


@given(small_pairs)
@settings(max_examples=30, deadline=None)
def test_generator_iff_criterion(pair):
    A, B = pair
    bd = rank_breakdown(A, B)
    E = FunctionFieldCurve.sextic(A, B)
    for comp in bd.reasons:
        w = subfamily_generator(bd, comp.k)
        if not comp.satisfied:
            assert w is None
            continue
        assert w is not None
        assert w.curve.contains(w.point) and not w.point.is_infinity
        W = base_change_embed(w.point, comp.k)
        assert E.contains(W)
        assert eigenspace_check(comp.k, W)


@pytest.mark.parametrize("A,B,rank,ks,descents", CERT_CASES)
def test_verify_check_names_equal_stored_names(A, B, rank, ks, descents):
    data = full_certificate(A, B).data
    report = verify_certificate_json(json.loads(json.dumps(data)))
    assert [c.name for c in report.checks] == [c["name"] for c in data["checks"]]
