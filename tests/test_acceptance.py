"""End-to-end acceptance checks, one test per criterion.

Each criterion's test prints a single summary line; the pytest -v
report gives the per-criterion pass/fail verdict.  Criterion 8 pushes
points along the base-change arrows with this module's own ``push``, and
one more test ties ``base_change_embed``, the map certificates use, to
that push.  These are deliberately heavyweight:
the exhaustive sweeps are the point, not a smoke test.
"""

import collections
import contextlib
import random
from fractions import Fraction

from sexticrank.cli import main
from sexticrank.curve import CurvePoint, FunctionFieldCurve
from sexticrank.funcfield import Poly, RatFunc
from sexticrank.generators import (
    base_change_embed,
    full_certificate,
    subfamily_generator,
)
from sexticrank.oracle import DIRECT_SHAPES, search_points
from sexticrank.rankalg import (
    classify,
    rank_breakdown,
    sixth_power_free_values,
)


def test_criterion_1_two_route_consistency_to_500(tmp_path):
    # the census on two worker processes, streamed to a file: exit 0 means
    # the class route's case agrees with the root route's rank on every row
    out = tmp_path / "census.tsv"
    with open(out, "w") as fh, contextlib.redirect_stdout(fh):
        assert main(["census", "--bound", "500", "--jobs", "2"]) == 0
    rank3 = set()
    with open(out) as fh:
        for line in fh:
            fields = line.split("\t")
            if len(fields) == 10 and fields[8] == "3":
                rank3.add((int(fields[0]), int(fields[1])))
        fh.seek(0)
        footer = [line.rstrip("\n") for line in collections.deque(fh, 3)]
    assert footer == [
        "# pairs 972196",
        "# rank histogram 0:971180 1:948 2:60 3:8",
        "# classify agreements 972196/972196",
    ]
    expected_rank3 = {
        (1, 16), (16, 1), (1, -432), (-432, 1),
        (-27, 16), (16, -27), (-27, -432), (-432, -27),
    }
    assert rank3 == expected_rank3
    histogram = footer[1].removeprefix("# rank histogram ")
    print(f"CRITERION 1 PASS: 972196 pairs, histogram {histogram}, "
          "0 disagreements, max rank 3")


def test_criterion_2_known_instances():
    assert rank_breakdown(1, 16).rank == 3
    assert rank_breakdown(-27, 16).rank == 3
    for pair in [(1, 1), (1, -27)]:
        bd = rank_breakdown(*pair)
        cls = classify(*pair)
        assert bd.rank == 2 and cls.rank == 2 and cls.case == "2c"
    print("CRITERION 2 PASS: (1,16), (-27,16) rank 3; "
          "(1,1), (1,-27) rank 2 via case 2c")


def test_criterion_3_certificates_to_100():
    vals = sixth_power_free_values(100)
    checked = 0
    for A in vals:
        for B in vals:
            bd = rank_breakdown(A, B)
            if bd.rank == 0:
                continue
            cert = full_certificate(A, B)
            assert len(cert.witnesses) == bd.rank
            assert cert.report.ok, (A, B, cert.report.failures)
            ks = [w.k for w in cert.witnesses]
            assert len(set(ks)) == len(ks)
            checked += 1
    assert checked >= 200
    print(f"CRITERION 3 PASS: {checked} certificates at bound 100, "
          "every check green")


def test_criterion_4_symmetry_and_sixth_power_invariance():
    rng = random.Random(414243)
    trials = 0
    while trials < 1000:
        A = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        B = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if A == 0 or B == 0:
            continue
        u = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        v = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        r = rank_breakdown(A, B).rank
        assert rank_breakdown(B, A).rank == r
        assert rank_breakdown(u**6 * A, v**6 * B).rank == r
        trials += 1
    print("CRITERION 4 PASS: 1000 randomized symmetry and u^6/v^6 "
          "invariance checks")


def test_criterion_5_fiber_arithmetic():
    rng = random.Random(515253)
    done = 0
    while done < 100:
        A = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        B = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if A == 0 or B == 0:
            continue
        E = FunctionFieldCurve.sextic(A, B)
        summary = E.fiber_report()
        assert summary.total_v_delta == 12
        assert summary.has_type_II
        assert [(f.count, f.v_delta, f.kodaira) for f in summary.fibers] \
            == [(6, 2, "II")]
        assert summary.geometric_rank == 8
        for k in (1, 2, 3, 4):
            sub = FunctionFieldCurve.subfamily(A, B, k, 1)
            sub_summary = sub.fiber_report()
            assert sub_summary.geometric_rank == 2
            assert sub_summary.total_v_delta == 12
        done += 1
    print("CRITERION 5 PASS: 100 random pairs, v(Delta) sums to 12 with "
          "six type II fibers, geometric ranks 8 and 2")


#: criterion 6's pairs (-3a^2, b^3): criterion 3 holds through -3 only
DESCENT_PAIRS = [(-3 * a * a, b * b * b)
                 for a in range(1, 6)
                 for b in [n for n in range(-5, 6) if n]]


def test_criterion_6_descent_construction_50_pairs():
    assert len(DESCENT_PAIRS) == 50
    for A, B in DESCENT_PAIRS:
        w = subfamily_generator(rank_breakdown(A, B), 3)
        assert w is not None and w.used_descent
        P = w.point
        assert not P.is_infinity
        assert all(type(c) is Fraction
                   for f in (P.x, P.y) for _, c in f.num.terms + f.den.terms)
        w.curve.require_on_curve(P)
        embedded = base_change_embed(P, 3)
        assert FunctionFieldCurve.sextic(A, B).contains(embedded)
    print("CRITERION 6 PASS: 50 twisted-square pairs descend to rational "
          "nonzero points, verified exactly")


def test_criterion_7_oracle_sweep_bound_20():
    vals = sixth_power_free_values(20)
    searches = 0
    hits = 0
    for A in vals:
        for B in vals:
            bd = rank_breakdown(A, B)
            for reason in bd.reasons:
                found = search_points(A, B, reason.k,
                                      DIRECT_SHAPES[reason.k], 12)
                searches += 1
                direct = reason.satisfied and reason.square_kind == "square"
                assert bool(found) == direct, (A, B, reason.k)
                if direct:
                    hits += 1
                    w = subfamily_generator(bd, reason.k)
                    target = {w.point, w.curve.negate(w.point)}
                    assert any(P in target for P in found), (A, B, reason.k)
    assert searches == len(vals) ** 2 * 4
    print(f"CRITERION 7 PASS: {searches} bounded searches, {hits} direct "
          "witnesses found, zero contradictions")


#: arrows (k, 1) -> (K, M) from a subfamily to a curve
#: y^2 = x^3 + u^K (A u^M + B) of the base-change lattice
INCLUSION_ARROWS = (
    ((3, 1), (0, 2)),
    ((1, 1), (2, 2)),
    ((4, 1), (2, 2)),
    ((2, 1), (4, 2)),
    ((2, 1), (0, 3)),
    ((4, 1), (0, 3)),
    ((1, 1), (3, 3)),
    ((3, 1), (3, 3)),
)


def push(P, source, target):
    """P along s -> u^d, d = M/m, then (x, y) -> (x/u^2e, y/u^3e) with
    e = (d k - K)/6, by evaluation and division in Q(u), so that it
    shares no step with ``base_change_embed``."""
    (k, m), (K, M) = source, target
    d, rest = divmod(M, m)
    e, twist_rest = divmod(d * k - K, 6)
    assert not rest and not twist_rest, (source, target)
    s = RatFunc(Poly.monomial(1, d))

    def pull(f, w):
        twist = RatFunc(Poly.monomial(1, w * e))
        return f.num.evaluate(s) / (f.den.evaluate(s) * twist)

    return CurvePoint(pull(P.x, 2), pull(P.y, 3))


def test_criterion_8_inclusion_chain_nonvacuous():
    covered = set()
    for A, B in [(1, 16), (16, 1)]:
        bd = rank_breakdown(A, B)
        for source, target in INCLUSION_ARROWS:
            w = subfamily_generator(bd, source[0])
            if w is None:
                continue
            mapped = push(w.point, source, target)
            assert not mapped.is_infinity
            assert FunctionFieldCurve.subfamily(A, B, *target).contains(mapped)
            covered.add((source, target))
    assert covered == set(INCLUSION_ARROWS)
    print(f"CRITERION 8 PASS: all {len(INCLUSION_ARROWS)} inclusion arrows "
          "verified on nonvacuous generators")


def test_embedding_is_the_push_to_the_sextic():
    # the six pairs whose certificates tests/test_cli.py pins, and
    # criterion 6's descent pairs
    pairs = [(8, 9), (-3, 1), (4, 4), (1, 16), (-27, -432), (1, -27)]
    witnesses = 0
    for A, B in pairs + DESCENT_PAIRS:
        for w in full_certificate(A, B).witnesses:
            assert push(w.point, (w.k, 1), (0, 6)) == base_change_embed(
                w.point, w.k), (A, B, w.k)
            witnesses += 1
    assert witnesses >= 60
