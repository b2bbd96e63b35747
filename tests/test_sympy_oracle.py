"""Differential tests of the root kernel against sympy.

Every function is called twice on the same object, so the second call reads
the square-free part and Sturm chain memoized by the first.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from uclogic.polynomials import Polynomial  # noqa: E402
from uclogic.roots import Interval, count_roots  # noqa: E402

NU = sympy.Symbol("nu")

int_polys = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=2, max_size=8
).map(Polynomial).filter(lambda p: p.degree >= 1)
# products of small factors, so repeated and rational roots are common
factored = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=3),
    min_size=1, max_size=4,
).map(lambda fs: [Polynomial(f) for f in fs]).filter(
    lambda fs: all(f.degree >= 1 for f in fs)
)
ends = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _product(factors):
    out = Polynomial([1])
    for f in factors:
        out = out * f
    return out


def _sympy(p: Polynomial):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], NU, domain="QQ")


def _check(p, a, b):
    lo, hi = min(a, b), max(a, b)
    expected = _sympy(p).count_roots(
        sympy.Rational(lo.numerator, lo.denominator),
        sympy.Rational(hi.numerator, hi.denominator),
    )
    iv = Interval(lo, hi)
    assert count_roots(p, iv) == expected
    assert count_roots(p, iv) == expected
    sqf = _sympy(p).sqf_part().monic()
    assert _sympy(p.square_free()).monic() == sqf
    assert _sympy(p.square_free()).monic() == sqf


@given(int_polys, ends, ends)
@settings(max_examples=150, deadline=None)
def test_count_roots_and_square_free_match_sympy(p, a, b):
    _check(p, a, b)


@given(factored, ends, ends)
@settings(max_examples=150, deadline=None)
def test_repeated_roots_match_sympy(factors, a, b):
    _check(_product(factors), a, b)
