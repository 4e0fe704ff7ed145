"""Independent low-height point search on the subfamily curves.

The closed-form generators in :mod:`sexticrank.generators` are one
route to points on y^2 = x^3 + s^k (A s + B).  This module is the
other: put undetermined coefficients on x(s) and y(s) over a fixed
monomial support, expand y^2 - x^3 - C coefficient by coefficient into
polynomial equations, and exhaust all solutions whose enumerated
coefficients have height at most a bound.  The search knows nothing
about cube or square criteria; agreement with the constructed
generators is therefore a real cross-check, exercised per pair by
``cross_validate``.

The solver enumerates coefficients in a greedy order but first
propagates: an equation with a single unknown of degree <= 2 (or a
pure cube) is solved exactly instead of enumerated.  Over the direct
shapes that leaves almost nothing to enumerate (8 of the 1,600
searches of ``oracle A B`` for |A|, |B| <= 10 enumerate at all); over
``FULL_SHAPE`` three or four of the seven coefficients are enumerated,
and the open equations are bound to the values fixed so far once per
enumeration level.  An equation a root was solved from is not checked
again below it, since linear, square-discriminant and pure-cube roots
are exact.  Soundness does not rest on the plan: every emitted point
passes a final on-curve verification, so the plan only affects
completeness.

Each enumeration level walks only the values that can extend.  Before
it walks the values of its variable v, ``_screen`` builds one nonzero
integer polynomial R(v) from the level's bound open equations: while
none is in v alone, an equation c*u + rest, with u another unknown, c
a nonzero integer and rest free of u, eliminates u = -rest/c from the
others.  Every solution satisfies every equation, and a constant pivot
has no special values of v, so R vanishes at every value of v that
leads to a point; the level walks the values of height <= the bound
with R(v) = 0, or all of them when the elimination reaches no R.  The
roots of R are not solved for, since the height bound on v would then
be lost.  On the six descent pairs of the oracle benchmark at k = 1, R
is a cubic at every a1 level, so each walks at most 3 of the 87 values
of height <= 8 instead of all of them.

The search walks each pair {P, -P} once.  y enters the equations only
through y^2, so every monomial has degree 0 or 2 in the b's, and
negating all of them changes no equation's value and none of the
unknown sets, ``_solve_single``'s degrees and None cases, or the terms
``bind`` drops.  The plan is therefore the same on a subtree and on its
mirror image, with the roots in a b negated and those in an a
unchanged.  So while every b assigned on a path is 0, a b variable
takes only its values and roots >= 0: the first nonzero b of a path is
positive.  The rule is exact, not a heuristic, and as the points are
taken up to the sign of y, the found set is the same as with both signs
walked.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import NamedTuple, Optional

from .curve import CurvePoint, FunctionFieldCurve
from .exactnum import is_kth_power
from .funcfield import Poly, RatFunc
from .generators import subfamily_generator

__all__ = [
    "SearchShape",
    "DIRECT_SHAPES",
    "DESCENT_SHAPES",
    "FULL_SHAPE",
    "MAX_HEIGHT",
    "Equation",
    "sigma_equations",
    "heights_ordered",
    "search_points",
    "CrossValidation",
    "cross_validate",
    "point_height",
]


class SearchShape(NamedTuple):
    """Which powers of s may appear in x and in y."""

    x_support: tuple
    y_support: tuple

    def variables(self) -> tuple:
        return tuple(f"a{i}" for i in self.x_support) + tuple(
            f"b{j}" for j in self.y_support)


#: supports of the closed-form points when the square root is rational
DIRECT_SHAPES = {
    1: SearchShape((0,), (0, 1)),
    2: SearchShape((1,), (1,)),
    3: SearchShape((1,), (2,)),
    4: SearchShape((2,), (2, 3)),
}

#: everything of degree (2, 3), the widest shape searched
FULL_SHAPE = SearchShape((0, 1, 2), (0, 1, 2, 3))

#: supports of the points produced by Galois descent
DESCENT_SHAPES = {
    1: FULL_SHAPE,
    2: SearchShape((0, 1), (0, 1)),
    3: SearchShape((1, 2), (2, 3)),
    4: FULL_SHAPE,
}

#: largest coefficient height searched: heights_ordered(H) has about
#: 1.2 H^2 values, and the descent-shape search `oracle -12 36 --k 1
#: --height H` takes about 0.13 s at H = 12, 0.2 s at 16 and 0.25-0.4 s
#: at 20 in a fresh process (CPython 3.11, 2-core x86-64 machine)
MAX_HEIGHT = 20


class Equation:
    """One coefficient of y^2 - x^3 - C as a sum of monomials.

    Monomials are (rational coefficient, sorted tuple of variable
    names), each tuple once; the empty tuple is the constant term.

    The search evaluates an integer form of them, built once.  It takes
    each value as a reduced pair (p, q), q > 0, standing for p/q.  A
    term is an integer coefficient, the monomial's times the lcm D of
    the equation's denominators, with (v, e, deg_v - e) for every
    variable v of the equation: e is the monomial's exponent of v and
    deg_v the degree of the equation in v.  So ``evaluate`` returns the
    equation's value times the positive factor D * prod q_v^deg_v, and
    is zero exactly where the value is, with the same sign.  An
    equation made by ``bind`` has only the integer form: its
    ``monomials`` is None.
    """

    __slots__ = ("degree", "monomials", "vars", "degrees", "terms")

    def __init__(self, degree: int, monomials):
        self.degree = degree
        self.monomials = tuple(monomials)
        self.degrees = {}
        for _, ws in self.monomials:
            for v in ws:
                self.degrees[v] = max(self.degrees.get(v, 0), ws.count(v))
        self.vars = frozenset(self.degrees)
        D = lcm(*(c.denominator for c, _ in self.monomials))
        order = sorted(self.degrees.items())
        self.terms = tuple(
            (c.numerator * (D // c.denominator),
             tuple((v, ws.count(v), deg - ws.count(v)) for v, deg in order))
            for c, ws in self.monomials)

    def bind(self, assign) -> "Equation":
        """The equation with the variables of assign folded into its
        integer coefficients: each term's coefficient times p^e q^f for
        every bound (v, e, f), terms with the same remaining factors
        merged and zero terms dropped.  ``evaluate`` and ``coeffs_in``
        of the result return exactly the integers this one does at any
        assignment that extends assign.  ``degree`` and ``degrees`` are
        kept, and ``vars`` loses only the bound names: a variable whose
        terms cancel stays an unknown."""
        bound = self.vars.intersection(assign)
        if not bound:
            return self
        merged = {}
        for c, factors in self.terms:
            rest = []
            for v, e, f in factors:
                if v in bound:
                    p, q = assign[v]
                    c *= p ** e * q ** f
                else:
                    rest.append((v, e, f))
            rest = tuple(rest)
            merged[rest] = merged.get(rest, 0) + c
        eq = Equation.__new__(Equation)
        eq.degree, eq.monomials, eq.degrees = self.degree, None, self.degrees
        eq.vars = self.vars - bound
        eq.terms = tuple((c, rest) for rest, c in merged.items() if c)
        return eq

    def evaluate(self, assign) -> int:
        """The value at assign, of pairs for every variable, times
        D * prod q_v^deg_v."""
        total = 0
        for c, factors in self.terms:
            for v, e, f in factors:
                p, q = assign[v]
                c *= p ** e * q ** f
            total += c
        return total

    def coeffs_in(self, var: str, assign) -> list:
        """Coefficients [c0, c1, ...] of the equation as a polynomial in
        var, all other variables taken from assign, each times the one
        positive factor D * prod q_w^deg_w over the other variables."""
        out = [0] * 4
        for c, factors in self.terms:
            d = 0
            for v, e, f in factors:
                if v == var:
                    d = e
                else:
                    p, q = assign[v]
                    c *= p ** e * q ** f
            out[d] += c
        while len(out) > 1 and not out[-1]:
            out.pop()
        return out

    def degree_of(self, var: str) -> int:
        return self.degrees.get(var, 0)

    def __repr__(self):
        return f"Equation(s^{self.degree}, {len(self.terms)} terms)"


@lru_cache(maxsize=64)
def _square_minus_cube(shape: SearchShape) -> tuple:
    """Per degree, the equation of y(s)^2 - x(s)^3 over the shape, with
    monomials (coefficient, sorted variable tuple), each tuple once:
    b0*b1 and b1*b0 make one monomial 2*b0*b1.  Built once per shape,
    since all but two of a search's equations are these."""
    xs, ys = shape.x_support, shape.y_support
    monos = [Counter() for _ in range(max(2 * max(ys), 3 * max(xs)) + 1)]
    for js in product(ys, repeat=2):
        monos[sum(js)][tuple(sorted(f"b{j}" for j in js))] += 1
    for js in product(xs, repeat=3):
        monos[sum(js)][tuple(sorted(f"a{j}" for j in js))] -= 1
    return tuple(Equation(n, ((Fraction(c), ws) for ws, c in terms.items()))
                 for n, terms in enumerate(monos))


def sigma_equations(A, B, k: int, shape: SearchShape) -> list:
    """The coefficient equations of y(s)^2 - x(s)^3 - s^k (A s + B)."""
    A, B = Fraction(A), Fraction(B)
    shape_eqs = _square_minus_cube(shape)
    constant = {k: -B, k + 1: -A}
    eqs = []
    for n in range(max(len(shape_eqs), k + 2)):
        eq = shape_eqs[n] if n < len(shape_eqs) else Equation(n, ())
        if n in constant:
            eq = Equation(n, eq.monomials + ((constant[n], ()),))
        eqs.append(eq)
    return eqs


@lru_cache(maxsize=4)
def heights_ordered(height: int) -> tuple:
    """Reduced rationals of height max(|p|, q) <= height.

    Ordered by height, then denominator, then numerator: a canonical,
    deterministic enumeration.  Cached per height, since every search
    at one height enumerates the same values.
    """
    return tuple(sorted(
        (Fraction(p, q) for q in range(1, height + 1)
         for p in range(-height, height + 1) if gcd(p, q) == 1),
        key=lambda v: (max(abs(v.numerator), v.denominator), v.denominator,
                       v.numerator)))


@lru_cache(maxsize=4)
def _height_pairs(height: int) -> tuple:
    """heights_ordered(height) as reduced pairs (p, q), q > 0, the form
    the search assigns, built once per height."""
    return tuple((v.numerator, v.denominator) for v in heights_ordered(height))


def _solve_single(eq: Equation, var: str, assign):
    """Solve eq = 0 for its one unassigned variable.

    Returns every rational root as a reduced pair (p, q), or None when
    the equation is identically satisfied or its degree is beyond exact
    solving here.  The coefficients carry one positive factor, which
    changes neither the roots nor the sign of the discriminant.
    """
    cs = eq.coeffs_in(var, assign)
    deg = len(cs) - 1
    if deg == 0:
        return [] if cs[0] else None
    if deg == 1:
        g = gcd(cs[0], cs[1]) if cs[1] > 0 else -gcd(cs[0], cs[1])
        return [(-cs[0] // g, cs[1] // g)]
    if deg == 2:
        root = is_kth_power(cs[1] * cs[1] - 4 * cs[0] * cs[2], 2)
        if root is None:
            return []
        roots = sorted({Fraction(-cs[1] + root, 2 * cs[2]),
                        Fraction(-cs[1] - root, 2 * cs[2])})
    elif deg == 3 and not cs[1] and not cs[2]:
        r = is_kth_power(Fraction(-cs[0], cs[3]), 3)
        roots = [] if r is None else [r]
    else:
        return None
    return [(r.numerator, r.denominator) for r in roots]


def _pick_variable(unsettled, variables, assign):
    """Choose the unassigned variable most likely to prune, given each
    open equation with its unknowns in unsettled.

    Best is one that turns some equation into a single unknown solved
    by a root extraction (most candidate values then die instantly),
    next one that forces a linear solve (kills a whole enumeration
    level), then raw equation membership.  Ties break by name.
    """
    def key(v):
        kind = member = 0
        for eq, unknown in unsettled:
            if v in unknown:
                member += 1
                if len(unknown) == 2:
                    other, = unknown - {v}
                    kind = max(kind, 2 if eq.degree_of(other) >= 2 else 1)
        return -kind, -member, v

    return min((v for v in variables if v not in assign), key=key,
               default=None)


def _times(P: dict, Q: dict) -> dict:
    """The product of two integer polynomials, each a dict from sorted
    ((variable, exponent > 0), ...) tuples to coefficients."""
    out = {}
    for m1, c1 in P.items():
        for m2, c2 in Q.items():
            m = dict(m1)
            for w, e in m2:
                m[w] = m.get(w, 0) + e
            m = tuple(sorted(m.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _eliminate(P: dict, u: str, c: int, minus_rest: dict) -> dict:
    """c^deg_u(P) times P at u = minus_rest / c, by Horner's rule."""
    parts = {}
    for m, d in P.items():
        e = next((x for w, x in m if w == u), 0)
        parts.setdefault(e, {})[tuple(n for n in m if n[0] != u)] = d
    top = max(parts, default=0)
    if not top:
        return P
    acc = parts[top]
    for e in range(top - 1, -1, -1):
        acc = _times(acc, minus_rest)
        for m, d in parts.get(e, {}).items():
            acc[m] = acc.get(m, 0) + d * c ** (top - e)
    return {m: d for m, d in acc.items() if d}


def _pivot(P: dict, var: str):
    """(u, c) when P is c*u + rest with u != var, c a nonzero integer
    and rest free of u, else None."""
    for m, c in P.items():
        if len(m) == 1 and m[0][1] == 1 and m[0][0] != var:
            u = m[0][0]
            if sum(w == u for n in P for w, _ in n) == 1:
                return u, c
    return None


def _screen(var: str, eqs) -> Optional[list]:
    """Integer coefficients [r0, r1, ...] of a nonzero R(var) that is 0
    at every value of var which some solution of the equations takes,
    or None when the elimination below reaches no such polynomial.

    Each equation is read with every q of its ``terms`` set to 1, a
    positive multiple of it.  While none is in var alone and some is
    c*u + rest (``_pivot``), that one is dropped and u = -rest/c is put
    into the others, each scaled by c^deg_u to stay integral.  A
    constant pivot has no special values, so every solution satisfies
    what is left, and R is the first of it in var alone."""
    polys = [{tuple((w, e) for w, e, _ in f if e): c for c, f in eq.terms}
             for eq in eqs]
    while True:
        for P in polys:
            if P and all(w == var for m in P for w, _ in m):
                R = {m[0][1] if m else 0: d for m, d in P.items()}
                return [R.get(i, 0) for i in range(max(R) + 1)]
        for i, P in enumerate(polys):
            pivot = _pivot(P, var)
            if pivot:
                break
        else:
            return None
        u, c = pivot
        minus_rest = {m: -d for m, d in polys.pop(i).items() if m != ((u, 1),)}
        polys = [_eliminate(P, u, c, minus_rest) for P in polys]


def _is_root(R: list, p: int, q: int) -> bool:
    """Whether R(p/q) = 0, for p/q in lowest terms: q divides the
    leading coefficient of R at every such root, and q^deg(R) R(p/q)
    is taken by Horner's rule."""
    if R[-1] % q:
        return False
    acc, qq = 0, 1
    for r in reversed(R):
        acc = acc * p + r * qq
        qq *= q
    return not acc


def search_points(A, B, k: int, shape: SearchShape, height: int) -> tuple:
    """All curve points over the shape with enumerated coefficients of
    height at most height, deduplicated up to sign of y and sorted.

    Solved (non-enumerated) coefficients may exceed the height bound;
    every returned point is verified on the curve exactly.
    """
    A, B = Fraction(A), Fraction(B)
    if A == 0 or B == 0:
        raise ValueError("A and B must be nonzero")
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be 1, 2, 3 or 4")
    if height < 1:
        raise ValueError(f"height {height} is below 1: nothing to search")
    if height > MAX_HEIGHT:
        raise ValueError(f"height {height} is above the limit of {MAX_HEIGHT}")
    eqs = sigma_equations(A, B, k, shape)
    variables = shape.variables()
    values = _height_pairs(height)
    solutions = []
    assign = {}

    def dfs(checks, unsettled, y_free):
        # verify the equations this level completed; unsettled holds the
        # others with their unknowns; y_free: every b assigned is 0
        for eq in checks:
            if eq.evaluate(assign):
                return
        # branch on the roots of the first solvable single-unknown
        # equation; they are exact, so the children do not check it again
        for eq, unknown in unsettled:
            if len(unknown) == 1:
                var, = unknown
                roots = _solve_single(eq, var, assign)
                if roots is not None:
                    if roots:
                        branch(var, roots, [pair for pair in unsettled
                                            if pair[0] is not eq], y_free)
                    return
        var = _pick_variable(unsettled, variables, assign)
        if var is None:
            solutions.append({v: Fraction(*pq) for v, pq in assign.items()})
        else:
            # the values assigned so far stay fixed below this level, and
            # a value that no solution takes is not walked
            bound = [(eq.bind(assign), unknown) for eq, unknown in unsettled]
            R = _screen(var, [eq for eq, _ in bound])
            branch(var, values if R is None else
                   [pq for pq in values if _is_root(R, *pq)], bound, y_free)

    def branch(var, pairs, unsettled, y_free):
        # every child assigns var and nothing else, so the children share
        # one split: the equations var completes, and the rest
        checks, rest = [], []
        for pair in unsettled:
            eq, unknown = pair
            if var not in unknown:
                rest.append(pair)
            elif len(unknown) == 1:
                checks.append(eq)
            else:
                rest.append((eq, unknown - {var}))
        # while every b is 0, var = -v roots the mirror image (all b's
        # negated) of the subtree of v: keep only the first nonzero b > 0
        mirror = y_free and var[0] == "b"
        for pair in pairs:
            if mirror and pair[0] < 0:
                continue
            assign[var] = pair
            dfs(checks, rest, y_free and not (mirror and pair[0]))
        assign.pop(var, None)

    dfs([eq for eq in eqs if not eq.vars],
        [(eq, eq.vars) for eq in eqs if eq.vars], True)
    return _collect(solutions, shape, A, B, k) if solutions else ()


def _collect(solutions, shape: SearchShape, A, B, k: int) -> tuple:
    """The distinct points on the subfamily curve among the solutions, y
    up to sign, sorted by their coefficient vectors over the shape."""
    curve = FunctionFieldCurve.subfamily(A, B, k, 1)
    nx, ny = max(shape.x_support) + 1, max(shape.y_support) + 1
    found = set()
    for assign in solutions:
        x = Poly([assign.get(f"a{i}", 0) for i in range(nx)])
        y = Poly([assign.get(f"b{j}", 0) for j in range(ny)])
        P = _canonical_sign(CurvePoint(RatFunc(x), RatFunc(y)))
        if curve.contains(P):  # solver bug guard; never trust the plan
            found.add(P)
    return tuple(sorted(found, key=lambda P: (
        [P.x.num[i] for i in range(nx)], [P.y.num[j] for j in range(ny)])))


def _canonical_sign(P: CurvePoint) -> CurvePoint:
    """P or -P, whichever has y with a positive leading coefficient."""
    if not P.is_infinity and P.y and P.y.num.leading() < 0:
        return CurvePoint(P.x, -P.y)
    return P


class CrossValidation(NamedTuple):
    k: int
    satisfied: bool
    used_descent: bool
    constructed: Optional[CurvePoint]
    found: tuple
    agrees: bool
    conclusive: bool


def point_height(P: CurvePoint) -> int:
    """Largest height among the polynomial coefficients of a point."""
    worst = 0
    for coord in (P.x, P.y):
        if not coord.is_polynomial():
            raise ValueError("expected polynomial coordinates")
        for _, c in coord.num.items():
            worst = max(worst, abs(c.numerator), c.denominator)
    return worst


def cross_validate(bd, k: int, height: int = 12) -> CrossValidation:
    """Search the appropriate shape for the pair of the breakdown bd and
    compare with the construction from bd; the search reads only A, B.

    Agreement means the bounded search never contradicts the rank
    criterion: a point is found exactly when the criterion holds and
    the constructed generator (up to sign) is among the finds.  When
    the generator's coefficients exceed the search height the search
    cannot be expected to see it; a miss then keeps ``agrees`` true
    but is flagged ``conclusive=False``.
    """
    w = subfamily_generator(bd, k)
    descent = w is not None and w.used_descent
    shape = (DESCENT_SHAPES if descent else DIRECT_SHAPES)[k]
    found = search_points(bd.A, bd.B, k, shape, height)
    if w is None:
        agrees, conclusive = not found, True
    elif _canonical_sign(w.point) in found:
        agrees = conclusive = True
    else:
        conclusive = point_height(w.point) <= height
        agrees = not conclusive
    return CrossValidation(k, w is not None, descent,
                           None if w is None else w.point, found,
                           agrees=agrees, conclusive=conclusive)
