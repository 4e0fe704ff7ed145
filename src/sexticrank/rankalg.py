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
cases.  ``classification_consistency`` exhaustively compares the two
routes over a census of canonical pairs.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .exactnum import (
    FactorBudgetExceeded,
    SixthPowerClass,
    is_kth_power,
    is_square_or_neg3_square,
    sixth_power_class,
)

__all__ = [
    "ComponentReason",
    "RankBreakdown",
    "rank_breakdown",
    "NormalizedPair",
    "normalize_pair",
    "Classification",
    "classify",
    "CensusResult",
    "classification_consistency",
    "census_rows",
    "sixth_power_free_values",
    "breakdown_to_json",
]

#: canonical classes of A for which A is a cube and A or -3A is a square
CUBE_AND_SQUARISH = (1, -27)
#: canonical classes c with 4c a cube that arise as A*B for rank-2/3 pairs
QUADRUPLE_CUBE_SQUARISH = (16, -432)


@dataclass(frozen=True)
class ComponentReason:
    """Why one subfamily criterion holds or fails."""

    k: int
    satisfied: bool
    cube_value: Fraction
    cube_root: Optional[Fraction]
    square_value: Fraction
    square_kind: str  # "square" | "neg3_square" | "neither"
    square_root: Optional[Fraction]


@dataclass(frozen=True)
class RankBreakdown:
    A: Fraction
    B: Fraction
    r: tuple
    rank: int
    reasons: tuple


def _component(k: int, cube_value: Fraction, square_value: Fraction) -> ComponentReason:
    root = is_kth_power(cube_value, 3)
    sq = is_square_or_neg3_square(square_value)
    return ComponentReason(
        k=k,
        satisfied=root is not None and sq.kind != "neither",
        cube_value=cube_value,
        cube_root=root,
        square_value=square_value,
        square_kind=sq.kind,
        square_root=sq.root,
    )


def rank_breakdown(A, B) -> RankBreakdown:
    """Evaluate the four rank criteria for nonzero rational A, B.

    Pure root extraction, no factorization, so it works unchanged for
    inputs with huge prime factors.
    """
    A, B = Fraction(A), Fraction(B)
    if A == 0 or B == 0:
        raise ValueError("A and B must be nonzero")
    reasons = (
        _component(1, 4 * A * B, A),
        _component(2, A, B),
        _component(3, B, A),
        _component(4, 4 * A * B, B),
    )
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

@dataclass(frozen=True)
class NormalizedPair:
    """Canonical form of (A, B) under sixth powers and the swap symmetry.

    A = u^6 * (A_bar), B = v^6 * (B_bar); (first, second) is (A_bar,
    B_bar) or the swap of it, preferring a first component whose class
    lies in CUBE_AND_SQUARISH, then lexicographic order.
    """

    first: Fraction
    second: Fraction
    A_bar: Fraction
    B_bar: Fraction
    u: Fraction
    v: Fraction
    swapped: bool


def normalize_pair(A, B) -> NormalizedPair:
    A, B = Fraction(A), Fraction(B)
    if A == 0 or B == 0:
        raise ValueError("A and B must be nonzero")
    A_bar = sixth_power_class(A).rep
    B_bar = sixth_power_class(B).rep
    u = is_kth_power(A / A_bar, 6)
    v = is_kth_power(B / B_bar, 6)
    assert u is not None and v is not None
    swapped = _prefer_swap(A_bar, B_bar)
    first, second = (B_bar, A_bar) if swapped else (A_bar, B_bar)
    return NormalizedPair(first=first, second=second, A_bar=A_bar, B_bar=B_bar,
                          u=u, v=v, swapped=swapped)


def _prefer_swap(A_bar: Fraction, B_bar: Fraction) -> bool:
    a_good = A_bar in CUBE_AND_SQUARISH
    b_good = B_bar in CUBE_AND_SQUARISH
    if a_good != b_good:
        return b_good
    return (B_bar, A_bar) < (A_bar, B_bar)


@dataclass(frozen=True)
class Classification:
    rank: int
    case: str
    normalized: NormalizedPair
    components: tuple  # the four class-level criteria, in the normalized orientation


def _class_components(cA: SixthPowerClass, cB: SixthPowerClass) -> tuple:
    cAB4 = _CLASS_FOUR * cA * cB
    a_sqish = cA.is_square() or cA.neg3_times_is_square()
    b_sqish = cB.is_square() or cB.neg3_times_is_square()
    return (
        int(cAB4.is_cube() and a_sqish),
        int(cA.is_cube() and b_sqish),
        int(cB.is_cube() and a_sqish),
        int(cAB4.is_cube() and b_sqish),
    )


_CLASS_FOUR = SixthPowerClass(1, {2: 2})


def classify(A, B) -> Classification:
    """Rank via the finite case list on canonical classes.

    Shares no arithmetic with rank_breakdown: every test here is
    exponent arithmetic on factored canonical representatives.
    """
    norm = normalize_pair(A, B)
    a, b = norm.first, norm.second
    cA = sixth_power_class(a)
    cB = sixth_power_class(b)
    prod_rep = (cA * cB).rep
    b_sqish = cB.is_square() or cB.neg3_times_is_square()
    components = _class_components(cA, cB)

    in_cs = lambda x: x in CUBE_AND_SQUARISH
    in_qc = lambda x: x in QUADRUPLE_CUBE_SQUARISH

    if (in_cs(a) and in_qc(b)) or (in_qc(a) and in_cs(b)):
        rank, case = 3, "3"
    elif b_sqish and in_qc(prod_rep):
        rank, case = 2, "2a"
    elif in_qc(a) and cB.is_cube():
        rank, case = 2, "2b"
    elif in_cs(a) and in_cs(b):
        rank, case = 2, "2c"
    elif in_qc(b) and cA.is_cube():
        rank, case = 2, "2d"
    else:
        rank = sum(components)
        case = str(rank)
    return Classification(rank=rank, case=case, normalized=norm,
                          components=components)


# ---------------------------------------------------------------------------
# census: exhaustive comparison of the two routes
# ---------------------------------------------------------------------------

def sixth_power_free_values(bound: int) -> list:
    """All sixth-power-free integers v with 1 <= |v| <= bound, ascending."""
    if bound < 1:
        raise ValueError("bound must be positive")
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


@dataclass(frozen=True)
class CensusResult:
    bound: int
    n_values: int
    n_pairs: int
    rank_histogram: dict
    disagreements: tuple
    rank3_pairs: tuple
    max_rank: int


class _ValueCache:
    """Per-value data shared across a census, one factorization each."""

    def __init__(self, values):
        self.cls = {}
        self.sqish = {}
        self.cube = {}
        self.in_cs = {}
        self.in_qc = {}
        for v in values:
            c = sixth_power_class(v)
            self.cls[v] = c
            self.sqish[v] = c.is_square() or c.neg3_times_is_square()
            self.cube[v] = c.is_cube()
            self.in_cs[v] = v in CUBE_AND_SQUARISH
            self.in_qc[v] = v in QUADRUPLE_CUBE_SQUARISH


def _root_route(A: int, B: int) -> tuple:
    """The rank_breakdown criteria, evaluated by plain root extraction."""
    cube4ab = is_kth_power(4 * A * B, 3) is not None
    cA = is_kth_power(A, 3) is not None
    cB = is_kth_power(B, 3) is not None
    sA = is_square_or_neg3_square(A).kind != "neither"
    sB = is_square_or_neg3_square(B).kind != "neither"
    return (int(cube4ab and sA), int(cA and sB), int(cB and sA),
            int(cube4ab and sB))


def _class_route(A: int, B: int, cache: _ValueCache) -> tuple:
    """Rank and case from the classification, on cached class data."""
    swapped = _prefer_swap(A, B)
    a, b = (B, A) if swapped else (A, B)
    if (cache.in_cs[a] and cache.in_qc[b]) or (cache.in_qc[a] and cache.in_cs[b]):
        return 3, "3"
    if cache.sqish[b]:
        prod_rep = (cache.cls[a] * cache.cls[b]).rep
        if prod_rep in QUADRUPLE_CUBE_SQUARISH:
            return 2, "2a"
    if cache.in_qc[a] and cache.cube[b]:
        return 2, "2b"
    if cache.in_cs[a] and cache.in_cs[b]:
        return 2, "2c"
    if cache.in_qc[b] and cache.cube[a]:
        return 2, "2d"
    components = _class_components(cache.cls[a], cache.cls[b])
    rank = sum(components)
    return rank, str(rank)


def _census_chunk(args):
    bound, a_values, emit = args
    values = sixth_power_free_values(bound)
    cache = _ValueCache(values)
    hist = {}
    disagreements = []
    rank3 = []
    rows = [] if emit else None
    n = 0
    for A in a_values:
        for B in values:
            n += 1
            r = _root_route(A, B)
            rank = sum(r)
            crank, case = _class_route(A, B, cache)
            if crank != rank or rank > 3:
                disagreements.append((A, B, r, rank, crank, case))
            hist[rank] = hist.get(rank, 0) + 1
            if rank == 3:
                rank3.append((A, B))
            if emit:
                rows.append(
                    f"{A}\t{B}\t{A}\t{B}\t{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}\t{rank}\t{case}")
    return hist, disagreements, rank3, n, rows


def _chunked(seq, n_chunks):
    size = max(1, (len(seq) + n_chunks - 1) // n_chunks)
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def classification_consistency(bound: int, jobs: int = 1) -> CensusResult:
    """Compare both rank routes on every canonical pair up to |bound|.

    Canonical pairs are pairs of sixth-power-free integers; every
    E_{A,B} is isomorphic over Q(t) to one with such coefficients.
    Deterministic for any job count.
    """
    values = sixth_power_free_values(bound)
    chunks = _chunked(values, max(1, jobs) * 4) if jobs > 1 else [values]
    args = [(bound, chunk, False) for chunk in chunks]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_census_chunk, args)
    else:
        parts = [_census_chunk(a) for a in args]
    hist = {}
    disagreements = []
    rank3 = []
    n = 0
    for h, d, r3, cnt, _ in parts:
        for k, v in h.items():
            hist[k] = hist.get(k, 0) + v
        disagreements.extend(d)
        rank3.extend(r3)
        n += cnt
    return CensusResult(
        bound=bound,
        n_values=len(values),
        n_pairs=n,
        rank_histogram=dict(sorted(hist.items())),
        disagreements=tuple(disagreements),
        rank3_pairs=tuple(rank3),
        max_rank=max(hist) if hist else 0,
    )


CENSUS_TSV_HEADER = "A\tB\tA_class\tB_class\tr1\tr2\tr3\tr4\trank\tclassify_case"


def census_rows(bound: int, jobs: int = 1) -> Iterable[str]:
    """TSV rows of the census, header first; byte-identical for any jobs."""
    values = sixth_power_free_values(bound)
    yield CENSUS_TSV_HEADER
    chunks = _chunked(values, max(1, jobs) * 4) if jobs > 1 else [values]
    args = [(bound, chunk, True) for chunk in chunks]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            for _, _, _, _, rows in pool.imap(_census_chunk, args):
                yield from rows
    else:
        for a in args:
            yield from _census_chunk(a)[4]
