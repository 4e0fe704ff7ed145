import json
import multiprocessing.pool
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sexticrank import exactnum, rankalg
from sexticrank.cli import main
from sexticrank.curve import FunctionFieldCurve
from sexticrank.exactnum import SixthPowerClass
from sexticrank.generators import full_certificate, verify_inclusion_chain
from sexticrank.oracle import DIRECT_SHAPES, cross_validate
from sexticrank.rankalg import (
    CENSUS_TSV_HEADER,
    MAX_CENSUS_BOUND,
    breakdown_to_json,
    census_blocks,
    census_rows,
    class_facts,
    classify,
    normalize_pair,
    rank_breakdown,
    sixth_power_free_values,
)

nonzero_rationals = st.fractions(
    min_value=-10**4, max_value=10**4, max_denominator=500
).filter(lambda x: x != 0)

small_nonzero = st.fractions(
    min_value=-60, max_value=60, max_denominator=20
).filter(lambda x: x != 0)


# -- frozen instances --------------------------------------------------------

def _records(A, B):
    bd, cls = rank_breakdown(A, B), classify(A, B)
    return {"k": bd.reasons[0], "A": bd, "first": cls.normalized,
            "rank": cls}


def test_records_refuse_assignment_and_are_hashable():
    for field, record in _records(1, 16).items():
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        hash(record)


def test_records_of_one_pair_are_equal_and_of_two_pairs_not():
    # (64, 16) is (1, 16) with A times 2^6: the same rank, case and
    # canonical pair, other values
    same, other = _records(1, 16), _records(64, 16)
    for field, record in _records(Fraction(1), 16).items():
        assert record == same[field] and hash(record) == hash(same[field])
        assert record != other[field]
    assert rank_breakdown(1, 16) != rank_breakdown(16, 1)
    assert classify(1, 16) != classify(16, 1)


def _engine_records():
    """The certificate of (-27, -432), then one record of each other kind
    that certify and oracle build."""
    cert = full_certificate(-27, -432)
    fibers = FunctionFieldCurve.sextic(-27, -432).fiber_report()
    return [cert, cert.witnesses[0], cert.report, cert.report.checks[0],
            verify_inclusion_chain(-27, -432)[0], fibers, fibers.fibers[0],
            DIRECT_SHAPES[1],
            cross_validate(rank_breakdown(-27, -432), 1, height=4)]


def test_engine_records_refuse_assignment():
    for record in _engine_records():
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_engine_records_hash_unless_they_hold_a_dict():
    cert, *records = _engine_records()
    for record in records:
        hash(record)
    with pytest.raises(TypeError):  # its data is the certificate's dict
        hash(cert)


def test_certificate_stores_its_checks_in_their_record_form():
    cert = full_certificate(-27, -432)
    assert cert.data["checks"] == [c._asdict() for c in cert.report.checks]
    assert repr(cert.report.checks[0]) == (
        "CertificateCheck(name='k=1: point on subfamily curve', passed=True)")


# -- known pairs ---------------------------------------------------------------

KNOWN = [
    # (A, B, component tuple, rank, classify case)
    (1, 16, (1, 1, 0, 1), 3, "3"),
    (-27, 16, (1, 1, 0, 1), 3, "3"),
    (16, 1, (1, 0, 1, 1), 3, "3"),
    (1, -432, (1, 1, 0, 1), 3, "3"),
    (-27, -432, (1, 1, 0, 1), 3, "3"),
    (4, 4, (1, 0, 0, 1), 2, "2a"),
    (16, 27, (1, 0, 1, 0), 2, "2b"),
    (1, 1, (0, 1, 1, 0), 2, "2c"),
    (16, 8, (1, 0, 1, 0), 2, "2d"),
    (4, 1, (0, 0, 1, 0), 1, "1"),
    (2, 1, (0, 0, 0, 1), 1, "1"),
    (-3, 1, (0, 0, 1, 0), 1, "1"),
    (2, 3, (0, 0, 0, 0), 0, "0"),
    (-1, -1, (0, 0, 0, 0), 0, "0"),
    (Fraction(1, 64), Fraction(16, 729), (1, 1, 0, 1), 3, "3"),
]


@pytest.mark.parametrize("A,B,r,rank,case", KNOWN)
def test_known_pairs(A, B, r, rank, case):
    bd = rank_breakdown(A, B)
    assert bd.r == r
    assert bd.rank == rank
    cl = classify(A, B)
    assert cl.rank == rank
    assert cl.case == case


def test_reasons_carry_witnesses():
    bd = rank_breakdown(1, 16)
    c1 = bd.reasons[0]
    assert c1.k == 1 and c1.satisfied
    assert c1.cube_value == 64 and c1.cube_root == 4
    assert c1.square_value == 1 and c1.square_kind == "square" and c1.square_root == 1
    c3 = bd.reasons[2]
    assert not c3.satisfied and c3.cube_value == 16 and c3.cube_root is None


def test_descent_flavor_square_kind():
    # -3A a square but A not: the criterion holds through the twisted field
    bd = rank_breakdown(-3, 1)
    assert bd.r == (0, 0, 1, 0)
    assert bd.reasons[2].square_kind == "neg3_square"
    assert bd.reasons[2].square_root == 3


def test_rejects_zero():
    with pytest.raises(ValueError):
        rank_breakdown(0, 1)
    with pytest.raises(ValueError):
        classify(1, 0)


# -- normalization ------------------------------------------------------------

def test_normalize_pair_example():
    n = normalize_pair(16, 1)
    assert (n.first, n.second) == (1, 16)
    assert n.swapped
    assert n.A_bar == 16 and n.B_bar == 1


def test_normalize_pair_witnesses():
    n = normalize_pair(64, 11664)  # 11664 = 16 * 3^6
    assert n.A_bar == 1 and n.u == 2
    assert n.B_bar == 16 and n.v == 3
    assert 64 == n.A_bar * n.u ** 6
    assert 11664 == n.B_bar * n.v ** 6
    assert (n.first, n.second) == (1, 16) and not n.swapped


def test_normalize_pair_lex_tiebreak():
    assert (normalize_pair(7, 5).first, normalize_pair(7, 5).second) == (5, 7)
    assert not normalize_pair(5, 7).swapped
    n = normalize_pair(1, -27)  # both canonical classes are cube-and-squarish
    assert (n.first, n.second) == (-27, 1)


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=40)
def test_normalize_pair_identities(A, B):
    n = normalize_pair(A, B)
    assert A == n.A_bar * n.u ** 6
    assert B == n.B_bar * n.v ** 6
    expected = (n.B_bar, n.A_bar) if n.swapped else (n.A_bar, n.B_bar)
    assert (n.first, n.second) == expected
    again = normalize_pair(n.first, n.second)
    assert (again.first, again.second) == (n.first, n.second)


# -- the two routes agree ------------------------------------------------------

@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=150)
def test_routes_agree_on_random_pairs(A, B):
    bd = rank_breakdown(A, B)
    cl = classify(A, B)
    assert bd.rank == cl.rank
    assert bd.rank <= 3
    assert sum(cl.components) == cl.rank


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=100)
def test_swap_symmetry(A, B):
    fwd = rank_breakdown(A, B)
    rev = rank_breakdown(B, A)
    assert rev.r == fwd.r[::-1]
    assert rev.rank == fwd.rank


@given(small_nonzero, small_nonzero, small_nonzero, small_nonzero)
@settings(max_examples=60)
def test_sixth_power_invariance(A, B, u, v):
    base = rank_breakdown(A, B)
    scaled = rank_breakdown(A * u ** 6, B * v ** 6)
    assert scaled.r == base.r
    assert classify(A * u ** 6, B * v ** 6).rank == base.rank


# -- census ---------------------------------------------------------------------

def test_sixth_power_free_values():
    assert sixth_power_free_values(5) == [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
    vals = sixth_power_free_values(100)
    assert 64 not in vals and -64 not in vals and 65 in vals
    assert len(vals) == 2 * (100 - 1)  # only 64 is excluded up to 100
    assert len(sixth_power_free_values(500)) == 986


def test_census_bound_30(capsys):
    assert main(["census", "--bound", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "# pairs 3600",
        "# rank histogram 0:3481 1:102 2:13 3:4",
        "# classify agreements 3600/3600",
    ]
    rank3 = [tuple(map(int, row.split("\t")[:2])) for row in lines[1:-3]
             if row.split("\t")[8] == "3"]
    assert rank3 == [(-27, 16), (1, 16), (16, -27), (16, 1)]


def test_census_rows_match_direct_calls():
    rows = list(census_rows(6))
    assert rows[0] == CENSUS_TSV_HEADER
    values = sixth_power_free_values(6)
    assert len(rows) == 1 + len(values) ** 2
    for line in rows[1:20]:
        cols = line.split("\t")
        A, B = int(cols[0]), int(cols[1])
        bd = rank_breakdown(A, B)
        cl = classify(A, B)
        assert cols[2] == str(A) and cols[3] == str(B)
        assert tuple(int(c) for c in cols[4:8]) == bd.r
        assert int(cols[8]) == bd.rank == cl.rank
        assert cols[9] == cl.case


def joined(blocks):
    """A census's text and the sum of its blocks' ending counts."""
    texts, counts = zip(*blocks)
    return "".join(texts), sum(counts, Counter())


def test_census_rows_deterministic_across_jobs():
    serial = joined(census_blocks(8, jobs=1))
    assert serial[0] == "\n".join(census_rows(8)) + "\n"
    assert joined(census_blocks(8, jobs=3)) == serial


def test_census_workers_capped_at_cpu_count(monkeypatch):
    sizes, tasks = [], []

    class RecordingPool:
        """Runs the tasks in this process and records the pool size and
        each imap call's function and the inputs it draws."""

        def __init__(self, processes, initializer=None, initargs=()):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            drawn = []
            tasks.append((fn, drawn))
            for A in items:
                drawn.append(A)
                yield fn(A)

    monkeypatch.setattr(rankalg, "multiprocessing",
                        SimpleNamespace(Pool=RecordingPool))
    # bound 8 fits in one window; bound 300 has 592 values, so windows of
    # 16 values at 2 workers and 24 at 3
    for bound in (8, 300):
        serial = joined(census_blocks(bound, jobs=1))
        assert serial[0] == "\n".join(census_rows(bound)) + "\n"
        values = sixth_power_free_values(bound)
        chunk = max(1, rankalg.PAIRS_PER_MESSAGE // len(values))
        for cpus, jobs, workers in ((3, 10 ** 6, 3), (3, 2, 2),
                                    (None, 10 ** 6, 1)):
            monkeypatch.setattr(rankalg.os, "cpu_count", lambda: cpus)
            del sizes[:], tasks[:]
            assert joined(census_blocks(bound, jobs=jobs)) == serial
            assert sizes == ([workers] if workers > 1 else [])
            if workers == 1:
                continue
            # one task per value A, whose result is the block of A's rows
            # against every value and the count of their endings; each
            # imap call draws at most one window, in order
            assert all(len(items) <= workers * chunk for _, items in tasks)
            assert list(chain.from_iterable(i for _, i in tasks)) == values
            for fn, items in tasks:
                for A in items:
                    text, counts = fn(A)
                    assert text.endswith("\n")
                    rows = text.splitlines()
                    assert len(rows) == len(values)
                    assert all(row.startswith(f"{A}\t") for row in rows)
                    assert counts == Counter(row[-4:] for row in rows)


def test_census_rows_full_route_equivalence():
    # every row of a census, not just a prefix, against rank_breakdown and
    # classify; the census reads per-value tests taken once per process
    for line in list(census_rows(30))[1:]:
        cols = line.split("\t")
        A, B = int(cols[0]), int(cols[1])
        assert tuple(int(c) for c in cols[4:8]) == rank_breakdown(A, B).r
        assert cols[9] == classify(A, B).case


PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)
signs = st.sampled_from((1, -1))
exponents = st.lists(st.integers(0, 5), min_size=len(PRIMES_TO_13),
                     max_size=len(PRIMES_TO_13))


@given(signs, exponents, signs, exponents, st.booleans())
@settings(max_examples=300)
def test_class_facts_are_exact(sA, eA, sB, eB, make_4ab_a_cube):
    cA = SixthPowerClass(sA, dict(zip(PRIMES_TO_13, eA)))
    if make_4ab_a_cube:
        # keep B's cube part and take the residues that 4A asks for, so
        # that both answers of the cube test are drawn
        four_a = dict((rankalg._CLASS_FOUR * cA).powers)
        eB = [e - e % 3 + -four_a.get(p, 0) % 3
              for p, e in zip(PRIMES_TO_13, eB)]
    cB = SixthPowerClass(sB, dict(zip(PRIMES_TO_13, eB)))
    fA, fB = class_facts(cA), class_facts(cB)
    cube4ab = (rankalg._CLASS_FOUR * cA * cB).is_cube()
    assert cube4ab or not make_4ab_a_cube
    assert (fA.partner4 == fB.mod3) == cube4ab
    for c, f in ((cA, fA), (cB, fB)):
        assert f.cls == c
        assert f.squarish == (c.is_square() or c.neg3_times_is_square())
        assert f.cube == c.is_cube()


def test_census_pairs_take_no_class_products(monkeypatch):
    rankalg._value_tables(30)
    products = []
    mul = SixthPowerClass.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(SixthPowerClass, "__mul__", counting)
    rows = [line.split("\t") for line in list(census_rows(30))[1:]]
    # only case 2a takes a product, once 4AB is a cube and one side is
    # squarish, which is r1 or r4
    assert len(products) <= sum(1 for cols in rows if "1" in (cols[4], cols[7]))


@pytest.mark.parametrize("bound", [1, 2, 30])
def test_census_cube_table_is_the_cube_test_of_4ab(bound):
    tables = rankalg._value_tables(bound)
    values, cubes_4ab = tables.values, tables.cubes_4ab
    assert cubes_4ab == sorted(cubes_4ab)
    for A in values:
        for B in values:
            assert ((4 * A * B in cubes_4ab)
                    == (exactnum.is_kth_power(4 * A * B, 3) is not None))
    # every integer 4AB can be, up to the edges +-4 bound^2
    edge = 4 * bound * bound
    assert set(cubes_4ab) == {n for n in range(-edge, edge + 1)
                              if exactnum.is_kth_power(n, 3) is not None}


def test_census_pairs_take_no_root_extraction(monkeypatch):
    rankalg._value_tables(30)
    calls = []
    root = rankalg.is_kth_power

    def counting(x, k):
        calls.append(x)
        return root(x, k)

    monkeypatch.setattr(rankalg, "is_kth_power", counting)
    assert len(list(census_rows(30))) == 1 + 60 * 60
    assert calls == []


def test_census_calls_case_per_key_not_per_pair(monkeypatch):
    values, facts, *_ = rankalg._value_tables(30)
    calls = {"_case": 0, "_prefer_swap": 0}
    for name in calls:
        original = getattr(rankalg, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(rankalg, name, counting)
    assert len(list(census_rows(30))) == 1 + 60 * 60
    # each A reads its table under at most 32 keys (B's four class bits
    # and B < A), and goes to _case directly where its class facts make
    # 4AB a cube
    direct = sum(1 for A in values for B in values
                 if facts[A].partner4 == facts[B].mod3)
    assert direct < 3600 // 4
    for name, count in calls.items():
        assert count <= 32 * len(values) + direct, name


def test_census_templates_keep_the_routes_independent(monkeypatch, capsys):
    # a class route that answers rank 0 everywhere leaves the root route's
    # fields as rank_breakdown has them, and the fold names exactly the
    # pairs of positive rank
    monkeypatch.setattr(rankalg, "_case",
                        lambda a, b, fA, fB: (0, "0", (0, 0, 0, 0)))
    positive = []
    for line in list(census_rows(30))[1:]:
        cols = line.split("\t")
        bd = rank_breakdown(int(cols[0]), int(cols[1]))
        assert tuple(int(c) for c in cols[4:9]) == bd.r + (bd.rank,)
        assert cols[9] == "0"
        if bd.rank:
            positive.append(cols[:2])
    assert main(["census", "--bound", "30"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"disagreement at A = {a}, B = {b}" for a, b in positive]
    monkeypatch.undo()
    # a root route that finds no 4AB a cube leaves every case as classify
    # has it, while its own fields change: rank-3 pairs lose r1 and r4
    tables = rankalg._value_tables(30)
    monkeypatch.setattr(rankalg, "_value_tables",
                        lambda bound: tables._replace(cubes_4ab=[]))
    ranks = {}
    for line in list(census_rows(30))[1:]:
        cols = line.split("\t")
        A, B = int(cols[0]), int(cols[1])
        assert cols[9] == classify(A, B).case
        ranks[A, B] = int(cols[8])
    assert ranks[1, 16] == 1 and ranks[-27, 16] == 1


def test_census_case_table_equals_the_direct_path():
    # _case stays the one definition of the class route; every row's
    # case is _case on the _prefer_swap-ordered pair
    values = sixth_power_free_values(100)
    facts = {v: class_facts(exactnum.sixth_power_class(v)) for v in values}
    rows = list(census_rows(100))[1:]
    assert len(rows) == len(values) ** 2
    for line, (A, B) in zip(rows, product(values, values)):
        cols = line.split("\t")
        assert (int(cols[0]), int(cols[1])) == (A, B)
        a, b = (B, A) if rankalg._prefer_swap(A, B) else (A, B)
        assert cols[9] == rankalg._case(a, b, facts[a], facts[b])[1]


def test_pooled_census_draws_values_as_its_rows_are_read(monkeypatch):
    drawn = []

    class CountingPool(multiprocessing.pool.Pool):
        """A real pool that records each value imap draws."""

        def imap(self, fn, items, chunksize=1):
            def counted():
                for A in items:
                    drawn.append(A)
                    yield A
            return super().imap(fn, counted(), chunksize)

    monkeypatch.setattr(rankalg, "multiprocessing",
                        SimpleNamespace(Pool=CountingPool))
    monkeypatch.setattr(rankalg.os, "cpu_count", lambda: 2)
    values = sixth_power_free_values(300)
    chunk = max(1, rankalg.PAIRS_PER_MESSAGE // len(values))
    blocks = census_blocks(300, jobs=2)
    assert next(blocks) == (CENSUS_TSV_HEADER + "\n", Counter())
    assert next(blocks)[0].startswith("-300\t-300\t")
    time.sleep(1)
    # the reader holds one A: two windows of 2 x chunk values are in
    # flight, and nothing more is drawn until the reader goes on
    assert len(drawn) == 2 * 2 * chunk < len(values)
    closer = threading.Thread(target=blocks.close, daemon=True)
    closer.start()
    closer.join(timeout=30)
    assert not closer.is_alive()


def test_census_builds_its_value_tables_once():
    rankalg._value_tables.cache_clear()
    rows = list(census_rows(20))
    assert len(rows) == 1 + len(sixth_power_free_values(20)) ** 2
    assert rankalg._value_tables.cache_info().misses == 1
    assert list(census_rows(20)) == rows
    assert rankalg._value_tables.cache_info().misses == 1


def test_census_streams_its_rows():
    # bound 2000 has 15.5 million pairs; the first rows must not wait for them
    start = time.perf_counter()
    rows = census_rows(2000)
    assert next(rows) == CENSUS_TSV_HEADER
    assert next(rows).startswith("-2000\t-2000\t")
    rows.close()
    assert time.perf_counter() - start < 10


def test_census_bound_cap():
    # bound 500 (acceptance criterion 1) and the streaming bound stay inside
    assert 2000 <= MAX_CENSUS_BOUND
    with pytest.raises(ValueError, match="between 1 and"):
        next(census_rows(MAX_CENSUS_BOUND + 1))


# -- JSON -------------------------------------------------------------------------

def test_breakdown_json_shape():
    d = breakdown_to_json(rank_breakdown(Fraction(1, 64), 16))
    assert json.dumps(d)  # serializable
    assert d["A"] == "1/64" and d["B"] == "16"
    assert d["A_class"] == 1 and d["B_class"] == 16
    assert d["r"] == [1, 1, 0, 1] and d["rank"] == 3
    assert len(d["reasons"]) == 4
    first = d["reasons"][0]
    assert first["k"] == 1 and first["satisfied"] is True
    assert first["cube"] == {"value": "1", "root": "1"}
    assert first["square"] == {"value": "1/64", "kind": "square", "root": "1/8"}


def test_classify_computes_each_class_once(monkeypatch):
    classes, factorings = [], []

    def counting(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rankalg, "sixth_power_class",
                        counting(classes, rankalg.sixth_power_class))
    monkeypatch.setattr(exactnum, "factorint",
                        counting(factorings, exactnum.factorint))
    c = classify(2**7 * 3**8 * 5, 7**9 * 11)
    assert (c.normalized.first, c.normalized.second) == (2 * 9 * 5, 7**3 * 11)
    assert len(classes) == 2
    assert len(factorings) == 4


def test_classify_big_prime_in_a_denominator():
    # the representative holds 1000003^5, past what factorint can certify,
    # so classify must take the class from A itself
    A, B = Fraction(16, 1_000_003), 1
    c = classify(A, B)
    assert c.normalized.A_bar == 16 * 1_000_003 ** 5
    assert c.rank == rank_breakdown(A, B).rank
