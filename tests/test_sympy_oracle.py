"""Differential tests of the root kernel against sympy.

Every root-counting function is called twice on the same object, so the
second call reads the square-free part and Sturm chain memoized by the
first.  Resultants are checked against the determinant of sympy's Sylvester
matrix (not `sympy.resultant`, whose sign convention differs).
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

from uclogic.algebraic import (  # noqa: E402
    scalar_resultant,
    value_defining_polynomial,
)
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


# --- resultants against the Sylvester determinant --------------------------

X, Y = sympy.symbols("x y")
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# lists of 0 to 6 coefficients: the zero polynomial and constants included
rat_polys = st.lists(rationals, max_size=6).map(Polynomial)


def _expr(p: Polynomial, var):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * var**k
                       for k, c in enumerate(p.coeffs)])


def _fraction(r) -> F:
    r = sympy.Rational(r)
    return F(int(r.p), int(r.q))


def _sylvester_det(f: Polynomial, g: Polynomial) -> F:
    return _fraction(sylvester(_expr(f, X), _expr(g, X), X, 1).det())


def _check_resultant(f: Polynomial, g: Polynomial) -> None:
    got = scalar_resultant(f, g)
    if (f.is_zero and g.degree < 1) or (g.is_zero and f.degree < 1):
        # sympy's matrix is then 0 x 0, with determinant 1; a zero
        # argument has resultant 0 here
        assert got == 0
    else:
        assert got == _sylvester_det(f, g), (f, g)


@given(rat_polys, rat_polys, rat_polys)
@settings(max_examples=150, deadline=None)
def test_scalar_resultant_matches_sylvester(f, g, common):
    _check_resultant(f, g)
    _check_resultant(g, f)
    _check_resultant(f * common, g * common)  # a common factor: 0 if any


def test_scalar_resultant_known_values():
    f = Polynomial([-7, 7])  # 7x - 7
    g = Polynomial([-4, -8, 7, -3, -3, 5])
    # lc(f)^deg(g) * g(1) = 7^5 * (-6); sympy.resultant gives +100842
    assert scalar_resultant(f, g) == -100842 == _sylvester_det(f, g)
    for f, g in [(Polynomial([3]), Polynomial([1, 0, 1])),
                 (Polynomial([3]), Polynomial([5])),
                 (Polynomial([F(1, 3), 2]), Polynomial([-1, 0, 0, 1])),
                 (Polynomial([-2, 1, 1]), Polynomial([-3, 3, -1, 1])),
                 (Polynomial(), Polynomial([1, 1]))]:
        _check_resultant(f, g)
        _check_resultant(g, f)


nonconstant = rat_polys.filter(lambda p: p.degree >= 1)


@given(nonconstant.filter(lambda p: p.degree <= 4),
       nonconstant.filter(lambda p: p.degree <= 3))
@settings(max_examples=40, deadline=None)
def test_value_defining_polynomial_matches_sylvester(f, p):
    expected = sylvester(_expr(f, X), Y - _expr(p, X), X, 1).det()
    coeffs = sympy.Poly(sympy.expand(expected), Y).all_coeffs()[::-1]
    assert value_defining_polynomial(f, p) == Polynomial(
        [_fraction(c) for c in coeffs])
