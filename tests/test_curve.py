from fractions import Fraction
from itertools import accumulate, product

import pytest

from sexticrank.curve import (
    LEGAL_KM,
    CurvePoint,
    FunctionFieldCurve,
    O,
    _poly_identity,
)
from sexticrank.exactnum import OMEGA, QuadExt
from sexticrank.funcfield import (
    Poly,
    RatFunc,
    cubic_holds_over_q,
    lift_to_ext,
    parse_point,
)
from sexticrank.generators import base_change_embed, full_certificate


def const_point(x, y):
    return CurvePoint(RatFunc.constant(x), RatFunc.constant(y))


def multiples(E, P, n):
    """[P, 2P, ..., nP] by repeated addition."""
    return list(accumulate([P] * n, E.add))


#: primitive sixth root of unity; t -> ZETA6*t fixes A*t^6 + B
ZETA6 = -OMEGA


def tau_power(j, P):
    """tau^j(P) for the order-6 automorphism tau(x, y) = (omega*x, -y)."""
    for _ in range(j % 6):
        P = CurvePoint(OMEGA * P.x, -P.y)
    return P


def test_constructors():
    E = FunctionFieldCurve.sextic(1, 16)
    assert str(E) == "y^2 = x^3 + t^6 + 16"
    F = FunctionFieldCurve.subfamily(Fraction(3, 2), -5, 2, 1)
    assert str(F) == "y^2 = x^3 + (3/2)*s^3 - 5*s^2"
    with pytest.raises(ValueError):
        FunctionFieldCurve.subfamily(1, 1, 1, 2)
    with pytest.raises(ValueError):
        FunctionFieldCurve.subfamily(1, 1, 0, 4)
    with pytest.raises(ValueError):
        FunctionFieldCurve.subfamily(0, 1, 1, 1)
    assert (0, 6) in LEGAL_KM and len(LEGAL_KM) == 12


def test_membership():
    E = FunctionFieldCurve(RatFunc(Poly([0, 0, 1])))  # y^2 = x^3 + t^2
    P = CurvePoint(RatFunc.constant(0), RatFunc(Poly([0, 1])))
    assert E.contains(P)
    assert E.contains(O)
    Q = CurvePoint(RatFunc.constant(1), RatFunc(Poly([0, 1])))
    assert not E.contains(Q)
    with pytest.raises(ValueError):
        E.require_on_curve(Q)


def test_membership_with_general_denominators():
    # C chosen so that (1/(t + 1), t/(t - 1)) lies on y^2 = x^3 + C; every
    # denominator is coprime to t, so no monomial shortcut applies
    t = RatFunc.variable()
    x, y = 1 / (t + 1), t / (t - 1)
    E = FunctionFieldCurve(y * y - x * x * x)
    assert E.contains(CurvePoint(x, y))
    assert E.contains(CurvePoint(x, -y))
    assert not E.contains(CurvePoint(x + 1, y))
    assert not E.contains(CurvePoint(x, y / (t + 2)))
    assert not FunctionFieldCurve(y * y - x * x * x + 2).contains(
        CurvePoint(x, y))


# -- membership over Q against the Poly identity ------------------------------

#: the pairs whose certificates tests/test_cli.py pins
#: (PINNED_CERTIFICATE_SHA256)
PINNED_PAIRS = [(8, 9), (-3, 1), (4, 4), (1, 16), (-27, -432), (1, -27)]

#: a 2,000-digit denominator, prime to the witnesses' denominators 4 and 8
BIG_DENOMINATOR = 10 ** 1999 + 1


def pinned_witnesses():
    """(curve, point) for every subfamily and embedded witness of the
    pinned pairs."""
    out = []
    for A, B in PINNED_PAIRS:
        sextic = FunctionFieldCurve.sextic(A, B)
        for w in full_certificate(A, B).witnesses:
            out.append((w.curve, w.point))
            out.append((sextic, base_change_embed(w.point, w.k)))
    return out


def perturbed(P):
    """Copies of P off its curve: a coefficient of x plus 1/3, y + 1, x's
    denominator exponent moved by one, and a coefficient of x plus
    1/BIG_DENOMINATOR."""
    (e, _), *_ = P.x.num.items()

    def x_plus(c):
        return CurvePoint(RatFunc(P.x.num + Poly.monomial(c, e), P.x.den), P.y)

    return [x_plus(Fraction(1, 3)),
            CurvePoint(P.x, P.y + 1),
            CurvePoint(RatFunc(P.x.num, P.x.den.shift(1)), P.y),
            x_plus(Fraction(1, BIG_DENOMINATOR))]


def test_integer_membership_is_the_poly_identity():
    # over Q, contains decides y^2 = x^3 + C on integer terms; the Poly
    # identity, which serves the Q(sqrt(-3)) references, is its reference
    cases = pinned_witnesses()
    assert len(cases) == 24
    # and a point with coefficients of distinct denominators in each of
    # the six polynomials, so each is cleared by a different integer
    t = RatFunc.variable()
    x = (t / 2 + Fraction(1, 3)) / (t * t + Fraction(2, 5))
    y = (t * t * t / 7 + Fraction(1, 4)) / (t + Fraction(3, 11))
    cases.append((FunctionFieldCurve(y * y - x * x * x), CurvePoint(x, y)))
    for E, P in cases:
        for Q, on in [(P, True)] + [(Q, False) for Q in perturbed(P)]:
            held = cubic_holds_over_q(Q.x, Q.y, E.C)
            assert held is _poly_identity(Q.x, Q.y, E.C) is on, (E, Q)
            assert E.contains(Q) is on


def test_membership_outside_q_takes_the_poly_identity():
    E, P = pinned_witnesses()[0]
    lifted = CurvePoint(lift_to_ext(P.x), lift_to_ext(P.y))
    assert cubic_holds_over_q(lifted.x, lifted.y, E.C) is None
    assert E.contains(lifted)
    assert not E.contains(CurvePoint(lifted.x, lifted.y + OMEGA))


# -- group law on a curve with known arithmetic -------------------------------

def test_group_law_frozen_values():
    # constant sections of y^2 = x^3 + 1: (2, 3) generates a cyclic group
    # of order 6 through (0, 1), (-1, 0), (0, -1), (2, -3)
    E = FunctionFieldCurve(RatFunc(Poly([1])))
    P = const_point(2, 3)
    assert E.contains(P)
    P2 = E.add(P, P)
    assert P2 == const_point(0, 1)
    P3 = E.add(P2, P)
    assert P3 == const_point(-1, 0)
    nP = multiples(E, P, 6)
    assert nP[3] == const_point(0, -1)
    assert nP[4] == const_point(2, -3)
    assert nP[5] == O
    assert O not in nP[:5]
    assert E.add(P, E.negate(P)) == O
    assert E.add(P, O) == P


def test_three_torsion_at_x_zero():
    # points with x = 0 are inflection points, hence 3-torsion
    E = FunctionFieldCurve(RatFunc(Poly([0, 0, 1])))
    P = CurvePoint(RatFunc.constant(0), RatFunc(Poly([0, 1])))
    assert E.add(P, P) == E.negate(P)
    assert multiples(E, P, 3)[2] == O


def test_group_law_associativity_on_torsion():
    E = FunctionFieldCurve(RatFunc(Poly([1])))
    P = const_point(QuadExt(2), QuadExt(3))
    pts = [O] + multiples(E, P, 5)
    pts += [CurvePoint(OMEGA * Q.x, -Q.y) for Q in pts if not Q.is_infinity]
    for a, b, c in product(pts[:7], repeat=3):
        assert E.add(E.add(a, b), c) == E.add(a, E.add(b, c))
    for a, b in product(pts, repeat=2):
        assert E.add(a, b) == E.add(b, a)


# -- CM automorphism and Galois action ----------------------------------------

def test_tau_structure():
    E = FunctionFieldCurve.sextic(1, 1)
    # (-1, t^3) lies on y^2 = x^3 + t^6 + 1
    P = CurvePoint(RatFunc.constant(QuadExt(-1)),
                   RatFunc(Poly([0, 0, 0, QuadExt(1)])))
    assert E.contains(P)
    assert E.contains(CurvePoint(OMEGA * P.x, -P.y))
    assert tau_power(3, P) == E.negate(P)
    assert tau_power(6, P) == P
    # omega acts as an endomorphism killed by x^2 + x + 1
    W = E.omega_point(P)
    W2 = E.omega_point(W)
    assert E.add(E.add(P, W), W2) == O


def test_galois_conjugation():
    E = FunctionFieldCurve(RatFunc(Poly([1])))
    P = const_point(QuadExt(2), QuadExt(3))
    assert E.galois_conj_point(P) == P  # rational points are fixed
    Q = CurvePoint(OMEGA * P.x, -P.y)
    assert E.galois_conj_point(Q) == tau_power(5, E.galois_conj_point(P))


def test_zeta6_substitution_fixes_sextic():
    E = FunctionFieldCurve.sextic(2, 3)
    zt = RatFunc(Poly([0, ZETA6]))
    assert E.C.substitute(zt) == E.C
    assert ZETA6 ** 6 == 1 and ZETA6 ** 2 == OMEGA ** 2 and ZETA6 ** 3 == -1


def test_point_substitute():
    E = FunctionFieldCurve(RatFunc(Poly([0, 0, 1])))  # y^2 = x^3 + t^2
    P = CurvePoint(RatFunc.constant(0), RatFunc(Poly([0, 1])))
    inv = RatFunc(Poly([1]), Poly([0, 1]))
    Q = E.point_substitute(P, inv)
    assert Q == CurvePoint(RatFunc.constant(0), inv)


# -- fiber analysis -------------------------------------------------------------

GENERIC_FIBERS = {
    # (k, m): (geometric rank, sorted Kodaira types with multiplicity)
    (0, 1): (0, ["II", "II*"]),
    (1, 1): (2, ["II", "II", "IV*"]),
    (2, 1): (2, ["I0*", "II", "IV"]),
    (3, 1): (2, ["I0*", "II", "IV"]),
    (4, 1): (2, ["II", "II", "IV*"]),
    (5, 1): (0, ["II", "II*"]),
    (0, 2): (2, ["II", "II", "IV*"]),
    (2, 2): (4, ["II", "II", "IV", "IV"]),
    (4, 2): (2, ["II", "II", "IV*"]),
    (0, 3): (4, ["I0*", "II", "II", "II"]),
    (3, 3): (4, ["I0*", "II", "II", "II"]),
    (0, 6): (8, ["II", "II", "II", "II", "II", "II"]),
}


@pytest.mark.parametrize("km", sorted(GENERIC_FIBERS))
def test_fiber_report_generic(km):
    k, m = km
    E = FunctionFieldCurve.subfamily(5, 7, k, m)
    rep = E.fiber_report()
    assert rep.total_v_delta == 12
    types = sorted(
        kod for f in rep.fibers for kod in [f.kodaira] * f.count)
    rank, expected_types = GENERIC_FIBERS[km]
    assert types == expected_types
    assert rep.geometric_rank == rank
    assert rep.has_type_II


def test_fiber_report_repeated_roots():
    # C = t^2 (t - 1): places of multiplicity 2, 1, and a pole order 3 at infinity
    E = FunctionFieldCurve(RatFunc(Poly([0, 0, -1, 1])))
    rep = E.fiber_report()
    assert rep.total_v_delta == 12
    assert sorted(f.kodaira for f in rep.fibers) == ["I0*", "II", "IV"]
    assert rep.geometric_rank == 2


def test_fiber_report_rejects_bad_input():
    with pytest.raises(ValueError):
        FunctionFieldCurve(RatFunc(Poly([1]))).fiber_report()  # constant
    with pytest.raises(ValueError):
        FunctionFieldCurve(RatFunc(Poly([0] * 7 + [1]))).fiber_report()  # degree 7
    with pytest.raises(ValueError):
        FunctionFieldCurve(RatFunc(Poly([0, 0, 0, 0, 0, 0, 1]))).fiber_report()  # t^6: order 6 zero
    with pytest.raises(ValueError):
        FunctionFieldCurve(RatFunc(Poly([1]), Poly([0, 1]))).fiber_report()


# -- formatting -----------------------------------------------------------------

def test_point_formatting_round_trip():
    P = CurvePoint(RatFunc(Poly([0, -3])), RatFunc(Poly([0, Fraction(1, 2), 1])))
    s = P.to_str("s")
    assert s == "(-3*s, s^2 + (1/2)*s)"
    x, y = parse_point(s, "s")
    assert CurvePoint(x, y) == P
    assert O.to_str("s") == "O"
    assert parse_point("O", "s") is None
