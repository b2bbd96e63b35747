"""Differential tests of the root kernel against sympy.

Every root-counting function is called twice on the same object, so the
second call reads the square-free part memoized by the first.  Isolators
are checked against sympy's `real_roots`.  Resultants are checked against the determinant of sympy's Sylvester
matrix (not `sympy.resultant`, whose sign convention differs).
"""

import random
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
from uclogic.formulas import parse_cformula  # noqa: E402
from uclogic.polynomials import Polynomial  # noqa: E402
from uclogic.roots import Interval, count_roots, isolate_roots  # noqa: E402
from uclogic.semantics import success_table  # noqa: E402

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


# --- isolation against sympy's real roots -----------------------------------


def _rational(x: F):
    return sympy.Rational(x.numerator, x.denominator)


def _check_isolation(p: Polynomial, iv: Interval) -> None:
    """isolate_roots and count_roots against the distinct real roots of p in
    iv by sympy: one isolator per root, in order, a point exactly at a
    rational root and an open interval strictly around an irrational one,
    with no root of p at its ends."""
    roots = [r for r in dict.fromkeys(sympy.real_roots(_sympy(p)))
             if (r > _rational(iv.lo) if iv.lo_open else r >= _rational(iv.lo))
             and (r < _rational(iv.hi) if iv.hi_open else r <= _rational(iv.hi))]
    isolators = isolate_roots(p, iv)
    assert len(isolators) == len(roots) == count_roots(p, iv), (p, iv)
    for r, box in zip(sorted(roots), isolators):
        if box.is_point:
            assert r == _rational(box.lo), (p, iv, box)
        else:
            assert _rational(box.lo) < r < _rational(box.hi), (p, iv, box)
            assert p.sign_at(box.lo) != 0 and p.sign_at(box.hi) != 0
    assert all(a.hi <= b.lo for a, b in zip(isolators, isolators[1:]))


def _linear(root: F) -> Polynomial:
    return Polynomial([-root, 1])


def test_isolation_matches_sympy_real_roots():
    rng = random.Random(41)
    # roots on the ends of (1/2, 1], on its dyadic midpoints and elsewhere
    special = [F(1, 2), F(1), F(3, 4), F(5, 8), F(7, 8), F(11, 16), F(2, 3), F(0)]
    for i in range(120):
        p = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [1])
        for _ in range(rng.randint(1, 3)):
            p = p * _linear(rng.choice(special)) ** rng.randint(1, 3)
        for _ in range(rng.randint(0, 2)):  # repeated irreducible factors
            p = p * Polynomial([-rng.randint(1, 5), 0, 1]) ** rng.randint(1, 2)
        lo = F(rng.randint(-4, 2), rng.choice((1, 2, 4)))
        iv = (Interval(F(1, 2), F(1), lo_open=True) if i % 2 else
              Interval(lo, lo + F(rng.randint(1, 6), rng.choice((1, 2))),
                       lo_open=rng.random() < 0.5, hi_open=rng.random() < 0.5))
        _check_isolation(p, iv)


def test_success_table_crossings_match_sympy_real_roots():
    half_open = Interval(F(1, 2), F(1), lo_open=True)
    for text in [
        "(not? (nor? (and? x3 x3) (maj5? x3 x2 (nimp? x4 x1) x3 (nmaj3? x2 x5 x1))))",
        "(iff (or? x1 (and? x2 x3)) (or x1 (and x2 x3)))",
        "(maj3? (xor? x y) (and? x z) (or? y z))",
    ]:
        polys = list(dict.fromkeys(p for _, p in success_table(parse_cformula(text))))
        crossings = [p - q for i, p in enumerate(polys) for q in polys[i + 1:]]
        levels = [p - Polynomial([mu]) for p in polys
                  for mu in (F(1, 2), F(3, 4), F(7, 10), F(1))]
        for p in crossings + levels:
            if p.degree >= 1:
                _check_isolation(p, half_open)


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
