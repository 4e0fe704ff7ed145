"""Sparse ``Poly`` and ``RatFunc`` against a dense reference.

``Dense`` is the arithmetic that ``Poly`` used while it stored every
coefficient, t^i at index i, zeros included.  Each operation of the
sparse type is compared with it over ``Fraction`` and over Q(sqrt(-3))
coefficients, and every result is checked to keep the sparse form:
exponents strictly ascending and no zero coefficient.
"""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from sexticrank.exactnum import QuadExt
from sexticrank.funcfield import Poly, RatFunc, _coeff_term, parse_ratfunc, poly_gcd


class Dense:
    """Dense reference polynomial; ``coeffs[i]`` is the t^i coefficient."""

    def __init__(self, coeffs):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1]

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def monomial_degree(self):
        if not self.coeffs or any(self.coeffs[:-1]):
            return None
        return self.degree

    def root_multiplicity_at_zero(self):
        k = 0
        while not self.coeffs[k]:
            k += 1
        return k

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Dense([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return Dense([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return Dense([c * s for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Dense([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Dense(out)

    def __divmod__(self, other):
        q, r = Dense([]), self
        inv_lead = Fraction(1) / other.leading()
        while r.coeffs and r.degree >= other.degree:
            term = Dense([0] * (r.degree - other.degree) + [r.leading() * inv_lead])
            q, r = q + term, r - term * other
        return q, r

    def evaluate(self, v):
        if not self.coeffs:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def derivative(self):
        return Dense([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        return self.scale(Fraction(1) / self.leading()) if self.coeffs else self

    def map_coeffs(self, fn):
        return Dense([fn(c) for c in self.coeffs])

    def to_str(self, var="t"):
        parts = []
        for k in range(self.degree, -1, -1):
            if self.coeffs[k]:
                sign, body = _coeff_term(self.coeffs[k], k, var)
                parts.append(("" if sign > 0 else "-") + body if not parts
                             else ("+ " if sign > 0 else "- ") + body)
        return " ".join(parts) or "0"


def dense_gcd(a, b):
    while b.coeffs:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def dense_normal(num, den):
    """(num, den) in lowest terms with monic den, as RatFunc keeps them."""
    if den.monomial_degree() is not None:
        m = den.degree
        if num.coeffs:
            m = min(m, num.root_multiplicity_at_zero())
        num, den = Dense(num.coeffs[m:]), Dense(den.coeffs[m:])
    else:
        g = dense_gcd(num, den)
        if g.degree > 0:
            num, den = divmod(num, g)[0], divmod(den, g)[0]
    inv = Fraction(1) / den.leading()
    return num.scale(inv), den.scale(inv)


def dense_substitute(num, den, c, d):
    """num/den at c*t^d, normalised."""
    def spread(p):
        k = min(0, d * p.degree)
        out = [Fraction(0)] * (abs(d) * p.degree + 1)
        for i, coeff in enumerate(p.coeffs):
            out[d * i - k] = coeff * c ** i
        return Dense(out), k

    (n, kn), (m, km) = spread(num), spread(den)
    shift = Dense([0] * abs(kn - km) + [1])
    return dense_normal(n * shift, m) if kn > km else dense_normal(n, m * shift)


def same(p: Poly, ref: Dense):
    """p is ref, in sparse form, with the same coefficient types."""
    exps = [e for e, _ in p.terms]
    assert exps == sorted(set(exps)) and min(exps, default=0) >= 0
    assert all(c for _, c in p.terms)
    assert p == Poly(ref.coeffs)
    assert [type(c) for _, c in p.terms] == [type(c) for c in ref.coeffs if c]


frac = st.fractions(min_value=-20, max_value=20, max_denominator=12)
quad = st.builds(QuadExt, frac, frac)


@st.composite
def cases(draw, size=9):
    """Coefficient lists, mostly zeros as in embedded points, of one kind."""
    kind = draw(st.sampled_from([frac, quad]))
    coeffs = st.lists(st.one_of(st.just(0), st.just(0), kind), max_size=size)
    return kind, draw(coeffs), draw(coeffs), draw(kind)


@given(cases())
def test_poly_operations_match_the_dense_reference(case):
    kind, a, b, v = case
    pa, pb, da, db = Poly(a), Poly(b), Dense(a), Dense(b)
    same(pa, da)
    for p, d in ((pa + pb, da + db), (pa - pb, da - db), (-pa, -da),
                 (pa * pb, da * db), (pa * v, da.scale(v)),
                 (pa.derivative(), da.derivative()), (pa.monic(), da.monic()),
                 (pa.map_coeffs(lambda c: 2 * c), da.map_coeffs(lambda c: 2 * c))):
        same(p, d)
    if db.coeffs:
        # a and a*b + a over b: the second cancels to an exact quotient
        for p, d in ((pa, da), (pa * pb + pa, da * db + da)):
            (q, r), (dq, dr) = divmod(p, pb), divmod(d, db)
            same(q, dq)
            same(r, dr)
        same(poly_gcd(pa, pb), dense_gcd(da, db))
    assert pa.evaluate(v) == da.evaluate(v)
    assert (pa.degree, pa.monomial_degree()) == (da.degree, da.monomial_degree())
    assert [pa[i] for i in range(-1, len(a) + 1)] == [da[i] for i in range(-1, len(a) + 1)]
    if da.coeffs:
        assert pa.leading() == da.leading()
        assert pa.root_multiplicity_at_zero() == da.root_multiplicity_at_zero()
    assert pa.to_str("s") == da.to_str("s")
    if kind is frac:
        assert repr(pa) == f"Poly({list(da.coeffs)!r})"


@given(cases(), st.integers(0, 7))
def test_normalisation_matches_the_dense_reference(case, k):
    _, a, b, v = case
    assume(any(b) and v)
    for den in (b, [0] * k + [v]):  # a general and a monomial denominator
        f, (num, dd) = RatFunc(Poly(a), Poly(den)), dense_normal(Dense(a), Dense(den))
        same(f.num, num)
        same(f.den, dd)


@given(cases(), st.integers(-6, 6).filter(bool), st.integers(0, 4))
def test_substitute_matches_the_dense_reference(case, d, k):
    _, a, b, c = case
    assume(c)
    inner = RatFunc(Poly.monomial(c, max(d, 0)), Poly.monomial(1, max(-d, 0)))
    for den in (b, [0] * k + [1]) if any(b) else ([0] * k + [1],):
        g = RatFunc(Poly(a), Poly(den)).substitute(inner)
        num, dd = dense_substitute(*dense_normal(Dense(a), Dense(den)), c, d)
        same(g.num, num)
        same(g.den, dd)


@given(st.lists(st.one_of(st.just(0), st.just(0), frac), max_size=40),
       st.integers(0, 24), st.sampled_from("st"))
def test_to_str_parses_back_to_the_same_terms(a, k, var):
    assume(sum(1 for c in a if c) <= 4)
    f = RatFunc(Poly(a), Poly.monomial(1, k))
    g = parse_ratfunc(f.to_str(var), var)
    assert g == f and g.to_str(var) == f.to_str(var)
    num, den = dense_normal(Dense(a), Dense([0] * k + [1]))
    same(g.num, num)
    same(g.den, den)
