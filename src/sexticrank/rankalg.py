"""Rank of y^2 = x^3 + A t^6 + B over Q(t), two independent ways.

``rank_breakdown`` evaluates the four generator criteria directly on
the inputs with exact root extraction, one indicator per subfamily
exponent k = 1..4:

    k=1:  4AB a cube   and  A or -3A a square
    k=2:  A a cube     and  B or -3B a square
    k=3:  B a cube     and  A or -3A a square
    k=4:  4AB a cube   and  B or -3B a square

The rank is the number of satisfied criteria and never reaches 4 (A, B
and 4AB cannot all be cubes, since 4 is not one).

``classify`` answers the same question by a different route: it
reduces (A, B) to canonical sixth-power-free integers via
factorization and reads the rank off a finite list of residue-class
cases (``_case``).  ``census_rows`` runs both routes on every canonical
pair up to a bound, one TSV row per pair; ``sexticrank census`` folds
its ``census_blocks`` into a rank histogram and counts where they agree.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, islice
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .exactnum import (
    FactorBudgetExceeded,
    SixthPowerClass,
    _iroot,
    is_kth_power,
    is_square_or_neg3_square,
    sixth_power_class,
)

__all__ = [
    "CRITERIA",
    "CASE_RANK",
    "ComponentReason",
    "RankBreakdown",
    "rank_breakdown",
    "NormalizedPair",
    "normalize_pair",
    "Classification",
    "ClassFacts",
    "class_facts",
    "classify",
    "census_rows",
    "census_blocks",
    "MAX_CENSUS_BOUND",
    "sixth_power_free_values",
    "breakdown_to_json",
]

#: canonical classes of A for which A is a cube and A or -3A is a square
CUBE_AND_SQUARISH = (1, -27)
#: canonical classes c with 4c a cube that arise as A*B for rank-2/3 pairs
QUADRUPLE_CUBE_SQUARISH = (16, -432)
#: the root route's criteria: r_k = 1 when the first value named is a cube
#: and the second, or -3 times it, a square.  The witness construction
#: (``generators.subfamily_generator``) takes its roots from the reasons
#: that ``rank_breakdown`` stores, not from the criteria.  The class route
#: (``_case``) keeps its own list, so that the census compares independent
#: routes.
CRITERIA = {1: ("4AB", "A"), 2: ("A", "B"), 3: ("B", "A"), 4: ("4AB", "B")}


class ComponentReason(NamedTuple):
    """Why one subfamily criterion holds or fails."""

    k: int
    satisfied: bool
    cube_value: Fraction
    cube_root: Optional[Fraction]
    square_value: Fraction
    square_kind: str  # "square" | "neg3_square" | "neither"
    square_root: Optional[Fraction]


class RankBreakdown(NamedTuple):
    A: Fraction
    B: Fraction
    r: tuple
    rank: int
    reasons: tuple


def rank_breakdown(A, B) -> RankBreakdown:
    """Evaluate the four rank criteria for nonzero rational A, B.

    Pure root extraction, no factorization, so it works unchanged for
    inputs with huge prime factors.
    """
    A, B = Fraction(A), Fraction(B)
    if A == 0 or B == 0:
        raise ValueError("A and B must be nonzero")
    values = {"4AB": 4 * A * B, "A": A, "B": B}
    roots = {name: is_kth_power(v, 3) for name, v in values.items()}
    squares = {name: is_square_or_neg3_square(values[name]) for name in "AB"}
    reasons = tuple(ComponentReason(
        k=k, satisfied=roots[x] is not None and squares[y].kind != "neither",
        cube_value=values[x], cube_root=roots[x], square_value=values[y],
        square_kind=squares[y].kind, square_root=squares[y].root)
        for k, (x, y) in CRITERIA.items())
    r = tuple(int(c.satisfied) for c in reasons)
    return RankBreakdown(A=A, B=B, r=r, rank=sum(r), reasons=reasons)


def breakdown_to_json(bd: RankBreakdown) -> dict:
    """JSON form of a breakdown, including the canonical classes; a class
    whose factorisation runs out of budget is null, with a reason."""

    def frac(x):
        return None if x is None else str(x)

    data = {
        "A": str(bd.A),
        "B": str(bd.B),
        "A_class": None,
        "B_class": None,
        "r": list(bd.r),
        "rank": bd.rank,
        "reasons": [
            {
                "k": c.k,
                "satisfied": c.satisfied,
                "cube": {"value": frac(c.cube_value), "root": frac(c.cube_root)},
                "square": {
                    "value": frac(c.square_value),
                    "kind": c.square_kind,
                    "root": frac(c.square_root),
                },
            }
            for c in bd.reasons
        ],
    }
    for name, value in (("A", bd.A), ("B", bd.B)):
        try:
            data[f"{name}_class"] = int(sixth_power_class(value).rep)
        except FactorBudgetExceeded as exc:
            data[f"{name}_class_reason"] = str(exc)
    return data


# ---------------------------------------------------------------------------
# canonical form and case classification
# ---------------------------------------------------------------------------

class NormalizedPair(NamedTuple):
    """Canonical form of (A, B) under sixth powers and the swap symmetry.

    A = u^6 * (A_bar), B = v^6 * (B_bar); (first, second) is (A_bar,
    B_bar) or the swap of it, preferring a first component whose class
    lies in CUBE_AND_SQUARISH, then lexicographic order.  The classes of
    first and second ride along, so that classify factors nothing twice;
    being functions of first and second, they change nothing in equality
    and hashing.
    """

    first: Fraction
    second: Fraction
    A_bar: Fraction
    B_bar: Fraction
    u: Fraction
    v: Fraction
    swapped: bool
    first_class: SixthPowerClass
    second_class: SixthPowerClass


def normalize_pair(A, B) -> NormalizedPair:
    A, B = Fraction(A), Fraction(B)
    if A == 0 or B == 0:
        raise ValueError("A and B must be nonzero")
    cA, cB = sixth_power_class(A), sixth_power_class(B)
    A_bar, B_bar = cA.rep, cB.rep
    u = is_kth_power(A / A_bar, 6)
    v = is_kth_power(B / B_bar, 6)
    assert u is not None and v is not None
    swapped = _prefer_swap(A_bar, B_bar)
    first, second = (B_bar, A_bar) if swapped else (A_bar, B_bar)
    c_first, c_second = (cB, cA) if swapped else (cA, cB)
    return NormalizedPair(first=first, second=second, A_bar=A_bar, B_bar=B_bar,
                          u=u, v=v, swapped=swapped,
                          first_class=c_first, second_class=c_second)


def _prefer_swap(A_bar: Fraction, B_bar: Fraction) -> bool:
    a_good = A_bar in CUBE_AND_SQUARISH
    b_good = B_bar in CUBE_AND_SQUARISH
    if a_good != b_good:
        return b_good
    return (B_bar, A_bar) < (A_bar, B_bar)


class Classification(NamedTuple):
    rank: int
    case: str
    normalized: NormalizedPair
    components: tuple  # the four class-level criteria, in the normalized orientation


_CLASS_FOUR = SixthPowerClass(1, {2: 2})
#: the rank that each case label of ``_case`` stands for
CASE_RANK = {"0": 0, "1": 1, "2a": 2, "2b": 2, "2c": 2, "2d": 2, "3": 3}


class ClassFacts(NamedTuple):
    """What ``_case`` reads of one class, stated once per class."""

    cls: SixthPowerClass
    squarish: bool  # the class, or -3 times it, is a square
    cube: bool
    mod3: tuple  # the (p, e % 3) with e % 3 != 0, by p
    partner4: tuple  # the mod3 a class needs for 4 * cls * it to be a cube


def class_facts(c: SixthPowerClass) -> ClassFacts:
    """The facts of c; 4AB is a cube exactly when the partner4 of A's
    facts is the mod3 of B's (signs do not matter: -1 is a cube)."""
    mod3 = tuple([(p, e % 3) for p, e in c.powers if e % 3])
    partner4 = tuple([(p, -e % 3) for p, e in (_CLASS_FOUR * c).powers
                      if e % 3])
    # a class is a cube when no exponent is left mod 3
    return ClassFacts(c, c.is_square() or c.neg3_times_is_square(),
                      not mod3, mod3, partner4)


def _case(a, b, fA: ClassFacts, fB: ClassFacts) -> tuple:
    """(rank, case, components) of the canonical pair (a, b) whose
    classes have the facts fA and fB: the finite case list, on exponent
    arithmetic alone."""
    a_sqish, b_sqish = fA.squarish, fB.squarish
    cube4ab = fA.partner4 == fB.mod3
    components = (
        int(cube4ab and a_sqish),
        int(fA.cube and b_sqish),
        int(fB.cube and a_sqish),
        int(cube4ab and b_sqish),
    )
    a_cs, b_cs = a in CUBE_AND_SQUARISH, b in CUBE_AND_SQUARISH
    a_qc, b_qc = a in QUADRUPLE_CUBE_SQUARISH, b in QUADRUPLE_CUBE_SQUARISH
    if (a_cs and b_qc) or (a_qc and b_cs):
        return 3, "3", components
    # 4c is a cube for every c in QUADRUPLE_CUBE_SQUARISH, so cube4ab
    # only skips products that cannot match
    if (b_sqish and cube4ab
            and (fA.cls * fB.cls).rep in QUADRUPLE_CUBE_SQUARISH):
        return 2, "2a", components
    if a_qc and fB.cube:
        return 2, "2b", components
    if a_cs and b_cs:
        return 2, "2c", components
    if b_qc and fA.cube:
        return 2, "2d", components
    rank = sum(components)
    return rank, str(rank), components


def classify(A, B) -> Classification:
    """Rank via the finite case list on canonical classes.

    Shares no arithmetic with rank_breakdown: every test here is
    exponent arithmetic on factored canonical representatives.
    """
    norm = normalize_pair(A, B)
    rank, case, components = _case(norm.first, norm.second,
                                   class_facts(norm.first_class),
                                   class_facts(norm.second_class))
    return Classification(rank=rank, case=case, normalized=norm,
                          components=components)


# ---------------------------------------------------------------------------
# census: both routes on every canonical pair
# ---------------------------------------------------------------------------

#: largest census bound: 3.9e8 pairs, about 2-3 min on one process at the
#: 2.3-3.4 million pairs/s measured over the first 2 million rows of bound
#: 10^4 (`census` into a pipe, 2-core machine, CPython 3.11), and 19 MB of
#: per-value tables per process; bound 10^5 would take about 4 hours and
#: 190 MB.
MAX_CENSUS_BOUND = 10_000

#: pairs per pooled-census message, so about 130 kB of block text: 25 blocks
#: at bound 100 build in 3 ms and pickle and unpickle in 0.14 ms (2 cores);
#: from bound 1,280 on (2,518 values) a message holds one A: memory is flat.
PAIRS_PER_MESSAGE = 5_000

#: rows per block on one process; larger blocks gain nothing measurable and
#: raise the peak memory (8,192 rows: +2 MB)
CENSUS_BATCH = 1024


def sixth_power_free_values(bound: int) -> list:
    """All sixth-power-free integers v with 1 <= |v| <= bound, ascending."""
    if not 1 <= bound <= MAX_CENSUS_BOUND:
        raise ValueError(f"bound must be between 1 and {MAX_CENSUS_BOUND}")
    blocked = set()
    p = 2
    while p ** 6 <= bound:
        blocked.update(range(p ** 6, bound + 1, p ** 6))
        p += 1
    out = []
    for v in range(-bound, bound + 1):
        if v != 0 and abs(v) not in blocked:
            out.append(v)
    return out


CENSUS_TSV_HEADER = "A\tB\tA_class\tB_class\tr1\tr2\tr3\tr4\trank\tclassify_case"


class _ValueTables(NamedTuple):
    """What the census states once per bound and process.  A value's
    group is its root bits (cube, squarish) and its four class bits (in
    CUBE_AND_SQUARISH, in QUADRUPLE_CUBE_SQUARISH, cube, squarish)."""

    facts: dict  # value -> ClassFacts
    position: dict  # value -> its index among the values, ascending
    texts: list  # f"{value}\t", by position
    groups: list  # group id, by position
    root_bits: list  # by group id: (cube, squarish)
    members: list  # by group id: its values, ascending
    by_mod3: dict  # ClassFacts.mod3 -> the values with it, ascending
    cubes_4ab: list  # the cubes that 4AB can be, ascending


@lru_cache(maxsize=1)
def _value_tables(bound: int) -> _ValueTables:
    """The census's per-value tables; kept for the last bound, so a
    process builds them once per census."""
    values = sixth_power_free_values(bound)
    facts = {v: class_facts(sixth_power_class(v)) for v in values}
    ids, groups, members, by_mod3 = {}, [], [], {}
    for v in values:
        f = facts[v]
        kind = (is_kth_power(v, 3) is not None,
                is_square_or_neg3_square(v).kind != "neither",
                v in CUBE_AND_SQUARISH, v in QUADRUPLE_CUBE_SQUARISH,
                f.cube, f.squarish)
        if kind not in ids:
            ids[kind] = len(ids)
            members.append([])
        groups.append(ids[kind])
        members[ids[kind]].append(v)
        by_mod3.setdefault(f.mod3, []).append(v)
    # |4AB| <= 4 bound^2: a list of cubes, no factoring
    top = _iroot(4 * bound * bound, 3)
    return _ValueTables(
        facts=facts,
        position={v: i for i, v in enumerate(values)},
        texts=[f"{v}\t" for v in values], groups=groups,
        root_bits=[kind[:2] for kind in ids], members=members,
        by_mod3=by_mod3,
        cubes_4ab=[c ** 3 for c in range(-top, top + 1)])


@lru_cache(maxsize=4)
def _root_fields(cube_a: bool, squarish_a: bool) -> tuple:
    """The root route's fields r1..r4 and rank of a pair whose A has
    these tests, indexed by the bits (4AB a cube, B a cube, B squarish)
    as an int, read off ``CRITERIA``."""
    texts = []
    for key in range(8):
        cube = {"4AB": key & 4, "A": cube_a, "B": key & 2}
        square = {"A": squarish_a, "B": key & 1}
        r = [int(bool(cube[x] and square[y])) for x, y in CRITERIA.values()]
        texts.append("\t".join(map(str, r + [sum(r)])))
    return tuple(texts)


def _census_rows_of(bound: int, A: int) -> list:
    """TSV rows of the pairs (A, B), B any value up to bound, built from
    templates that each route fills once per A.

    The root route's fields r1..r4 and rank depend only on A's tests and
    on three bits of the pair (``_root_fields``).  The class route's
    case, when its own test of 4AB fails, depends only on B's four class
    bits and, through ``_prefer_swap``, on B < A.  So a pair whose 4AB is
    not a cube reads its fields off a tail per group of B and half
    (B < A, B >= A), the case being ``_case``'s answer for the first
    member of that half whose class facts do not make 4AB a cube.  Then
    each pair that either route's own 4AB test finds is written again in
    full: the root route finds its pairs by value arithmetic (the cubes
    that 4A divides with a value as quotient), the class route through
    class facts (the values whose mod3 is A's partner4), so neither
    reads the other's answer."""
    t = _value_tables(bound)
    facts, texts, groups, root_bits = t.facts, t.texts, t.groups, t.root_bits
    split = t.position[A]
    root_fields = _root_fields(*root_bits[groups[split]])

    def class_case(B):
        a, b = (B, A) if _prefer_swap(A, B) else (A, B)
        return _case(a, b, facts[a], facts[b])[1]

    partner4 = facts[A].partner4
    # a group with no such member in a half keeps None there: each of
    # its pairs is on the class route's list below
    below, above = [None] * len(root_bits), [None] * len(root_bits)
    for g, (cube, squarish) in enumerate(root_bits):
        members = t.members[g]
        cut = bisect_left(members, A)
        for tails, half in ((below, members[:cut]), (above, members[cut:])):
            B = next((B for B in half if facts[B].mod3 != partner4), None)
            if B is not None:
                tails[g] = (f"{root_fields[cube * 2 + squarish]}"
                            f"\t{class_case(B)}")
    p = f"{A}\t"
    rows = [f"{p}{b}{p}{b}{below[g]}"
            for b, g in zip(texts[:split], groups[:split])]
    rows += [f"{p}{b}{p}{b}{above[g]}"
             for b, g in zip(texts[split:], groups[split:])]

    four_a, reach = 4 * A, 4 * abs(A) * bound
    cubes = t.cubes_4ab
    root_hits = {c // four_a for c in cubes[bisect_left(cubes, -reach):
                                            bisect_right(cubes, reach)]
                 if c % four_a == 0 and c // four_a in t.position}
    for B in root_hits.union(t.by_mod3.get(partner4, ())):
        i = t.position[B]
        cube, squarish = root_bits[groups[i]]
        fields = root_fields[(B in root_hits) * 4 + cube * 2 + squarish]
        rows[i] = f"{p}{texts[i]}{p}{texts[i]}{fields}\t{class_case(B)}"
    return rows


def census_rows(bound: int) -> Iterator[str]:
    """TSV rows of the census, header first, built in this process.

    Canonical pairs are pairs of sixth-power-free integers; every
    E_{A,B} is isomorphic over Q(t) to one with such coefficients.  Each
    row carries the root route's criteria and rank and the class route's
    case.  Above MAX_CENSUS_BOUND it raises ValueError before any row.
    """
    values = sixth_power_free_values(bound)
    yield CENSUS_TSV_HEADER
    yield from chain.from_iterable(map(partial(_census_rows_of, bound),
                                       values))


def _block(rows: list) -> tuple:
    """The rows' TSV text and a Counter of their last four characters."""
    return ("\n".join(rows) + "\n",
            Counter(map(itemgetter(slice(-4, None)), rows)))


def _census_block_of(bound: int, A: int) -> tuple:
    return _block(_census_rows_of(bound, A))


def census_blocks(bound: int, jobs: int = 1) -> Iterator[tuple]:
    """The census as (text, endings) blocks, the header's first with no
    endings; the text is the same for any jobs.  One process cuts
    ``census_rows`` every CENSUS_BATCH rows; a pool of min(jobs, CPU
    count) makes one block per A, through windows of workers x chunk
    values, at most two in flight.  Above MAX_CENSUS_BOUND: ValueError."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1:
        rows = census_rows(bound)
        yield next(rows) + "\n", Counter()
        while batch := list(islice(rows, CENSUS_BATCH)):
            yield _block(batch)
        return
    values = sixth_power_free_values(bound)
    yield CENSUS_TSV_HEADER + "\n", Counter()
    import signal

    task = partial(_census_block_of, bound)
    chunk = max(1, PAIRS_PER_MESSAGE // len(values))
    window = workers * chunk
    # one window at work and the next queued: a reader that stalls
    # stalls the workers once both are done
    windows = []
    # read off the module, so that __getattr__ imports it on first use
    # and a stand-in set on the module is the one used.  The workers
    # ignore SIGINT: a Ctrl-C reaches the whole process group, and the
    # parent alone ends the census, collecting what the workers hold
    with sys.modules[__name__].multiprocessing.Pool(
            workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
        try:
            for start in range(0, len(values), window):
                windows.append(pool.imap(task, values[start:start + window],
                                         chunk))
                if len(windows) == 2:
                    yield from windows[0]
                    windows.pop(0)
            for results in windows:
                yield from results
        finally:
            # the reader may have gone: collect what the workers hold, so
            # that terminate kills none holding the result queue's lock
            for results in windows:
                for _ in results:
                    pass


def __getattr__(name):
    """Import ``multiprocessing`` when first asked for: only a pooled
    census uses it, and importing it costs every command ~15 ms."""
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global multiprocessing
    import multiprocessing
    return multiprocessing
