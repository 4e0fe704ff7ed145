"""exactnum's roots and factorisation against sympy on large inputs.

sympy is a test-only oracle here; the package never imports it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sexticrank.exactnum import (
    _MR_CERTAIN_BOUND,
    _iroot,
    factorint,
    is_kth_power,
)

sympy = pytest.importorskip("sympy")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bits=st.integers(64, 4096), k=st.integers(2, 7))
def test_roots_match_sympy(data, bits, k):
    n = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    root, exact = sympy.integer_nthroot(n, k)
    assert _iroot(n, k) == root
    assert is_kth_power(n, k) == (root if exact else None)
    power = int(root) ** k
    assert is_kth_power(power, k) == root
    assert is_kth_power(power - 1, k) is None
    assert is_kth_power(-power, k) == (-root if k % 2 else None)


def primes_between(lo, hi):
    return st.integers(lo, hi).map(sympy.prevprime)


#: a prime product whose cofactor after trial division (primes below
#: 10^6) stays below _MR_CERTAIN_BOUND and has a factor rho finds fast
@st.composite
def factorable(draw):
    small = draw(st.lists(primes_between(3, 10**6), max_size=4))
    middle = draw(primes_between(10**6 + 100, 1 << 32))
    large = draw(primes_between(10**6 + 100, _MR_CERTAIN_BOUND // middle))
    large_parts = draw(st.sampled_from([[large], [middle, large], []]))
    n = 1
    for p in small + large_parts:
        n *= p
    return n


@settings(max_examples=40, deadline=None)
@given(factorable())
def test_factorint_matches_sympy(n):
    assert factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}
