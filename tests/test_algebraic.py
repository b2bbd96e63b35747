from fractions import Fraction as F

import pytest

from uclogic.algebraic import AlgebraicNumber, evaluate_poly_at, value_defining_polynomial
from uclogic.polynomials import Polynomial
from uclogic.roots import Interval


def poly(*coeffs):
    return Polynomial([F(c) for c in coeffs])


SQRT2 = AlgebraicNumber.from_root(poly(-2, 0, 1), Interval(F(1), F(2)))
SQRT3 = AlgebraicNumber.from_root(poly(-3, 0, 1), Interval(F(1), F(2)))


def test_from_rational():
    a = AlgebraicNumber.from_rational(F(3, 4))
    assert a.is_rational and a.rational_value == F(3, 4)
    assert a.approximate(F(1, 1000)) == F(3, 4)


def test_from_root_requires_unique_root():
    with pytest.raises(ValueError):
        AlgebraicNumber.from_root(poly(-2, 0, 1), Interval(F(-2), F(2)))


def test_from_root_refuses_a_root_on_an_excluded_end():
    # (nu - 1)(nu - 3): the closure of (1, 2) holds the root 1, iv none
    with pytest.raises(ValueError):
        AlgebraicNumber.from_root(poly(3, -4, 1), Interval(F(1), F(2), True, True))
    with pytest.raises(ValueError):
        AlgebraicNumber.from_root(poly(-1, 1), Interval(F(1), F(2), True, True))
    # a root on a closed end is refused too: bisection would chase it
    with pytest.raises(ValueError):
        AlgebraicNumber.from_root(poly(3, -4, 1), Interval(F(1), F(2)))
    with pytest.raises(ValueError):
        AlgebraicNumber.from_root(poly(-2, 0, 1), Interval.point(F(1)))
    assert AlgebraicNumber.from_root(poly(3, -4, 1), Interval.point(F(3))).rational_value == 3


def test_approximate_converges():
    eps = F(1, 10**12)
    mid = SQRT2.approximate(eps)
    assert abs(mid * mid - 2) < 3 * eps  # |x^2-2| = |x-r||x+r| <= eps * ~2.9


def test_sign_of_poly_at():
    assert SQRT2.sign_of_poly_at(poly(-2, 0, 1)) == 0
    assert SQRT2.sign_of_poly_at(poly(-1, 1)) == 1  # sqrt2 - 1 > 0
    assert SQRT2.sign_of_poly_at(poly(-3, 2)) == -1  # 2*sqrt2 - 3 < 0
    assert SQRT2.sign_of_poly_at(poly(0)) == 0


def test_equals_and_compare():
    other_sqrt2 = AlgebraicNumber.from_root(
        poly(-4, 0, 0, 0, 1).square_free(), Interval(F(1), F(3, 2))
    )
    assert SQRT2.equals(other_sqrt2)
    assert not SQRT2.equals(SQRT3)
    # isolators that only touch, with a common factor: the shared end is no root
    sqrt3 = AlgebraicNumber.from_root(poly(-2, 0, 1) * poly(-3, 0, 1), Interval(F(3, 2), F(2)))
    low_sqrt2 = AlgebraicNumber.from_root(poly(-2, 0, 1), Interval(F(1), F(3, 2)))
    assert not low_sqrt2.equals(sqrt3) and not sqrt3.equals(low_sqrt2)
    assert sqrt3.equals(SQRT3)
    assert SQRT2.compare(SQRT3) == -1
    assert SQRT3.compare(SQRT2) == 1
    assert SQRT2.compare(AlgebraicNumber.from_rational(F(3, 2))) == -1
    assert SQRT2.compare(AlgebraicNumber.from_rational(F(7, 5))) == 1


def test_compare_of_apart_isolators_takes_no_gcd(monkeypatch):
    low = AlgebraicNumber(poly(-2, 0, 1), Interval(F(1), F(3, 2), True, True))
    high = AlgebraicNumber(poly(-3, 0, 1), Interval(F(3, 2), F(2), True, True))

    def refuse(*args):
        raise AssertionError("gcd called")

    monkeypatch.setattr(Polynomial, "gcd", refuse)
    assert low.compare(high) == -1 and high.compare(low) == 1


def test_compare_of_equal_irrationals_takes_one_gcd(monkeypatch):
    # sqrt 2 as a root of nu^2 - 2 and of (nu^2 - 2)(nu - 3), overlapping
    a = AlgebraicNumber(poly(-2, 0, 1), Interval(F(5, 4), F(2), True, True))
    b = AlgebraicNumber(poly(-2, 0, 1) * poly(-3, 1), Interval(F(1), F(3, 2), True, True))
    calls = []
    gcd = Polynomial.gcd
    monkeypatch.setattr(Polynomial, "gcd", lambda p, q: calls.append(1) or gcd(p, q))
    assert a.compare(b) == 0 and b.compare(a) == 0
    assert len(calls) == 2


def test_equals_rational():
    rat = AlgebraicNumber.from_rational
    # (3 nu - 2)(nu + 1): the rational root 2/3 held in an open isolator
    two_thirds = AlgebraicNumber(poly(-2, 1, 3), Interval(F(1, 2), F(1), True, True))
    assert not two_thirds.is_rational
    assert two_thirds.equals(rat(F(2, 3))) and rat(F(2, 3)).equals(two_thirds)
    assert two_thirds.compare(rat(F(2, 3))) == 0
    assert not two_thirds.equals(rat(F(3, 4)))  # inside, not a root
    assert not two_thirds.equals(rat(-1))  # a root outside the isolator
    assert two_thirds.compare(rat(-1)) == 1
    # isolator endpoints: not roots, and a closed end that is the root
    assert not SQRT2.equals(rat(1)) and not rat(2).equals(SQRT2)
    closed = AlgebraicNumber(poly(-2, 1, 3), Interval(F(1, 2), F(2, 3), True, False))
    assert closed.equals(rat(F(2, 3))) and not closed.equals(rat(F(1, 2)))
    # rational against rational
    assert rat(F(3, 4)).equals(rat(F(6, 8)))
    assert not rat(F(3, 4)).equals(rat(F(2, 3)))


def test_value_defining_polynomial_annihilates():
    p = poly(1, 1)  # 1 + nu  ->  value 1 + sqrt2, minimal poly y^2 - 2y - 1
    d = value_defining_polynomial(SQRT2.defining, p)
    assert d(F(1) + F(141421356, 100000000)) < F(1, 10**6)
    assert poly(-1, -2, 1).gcd(d).degree >= 1


def test_evaluate_poly_at_rational_result():
    a = evaluate_poly_at(poly(-2, 0, 0, 1), SQRT2)  # sqrt2^3 - 2 = 2*sqrt2 - 2
    b = evaluate_poly_at(poly(-2, 2), SQRT2)
    assert a.equals(b)
    sq = evaluate_poly_at(poly(0, 0, 1), SQRT2)  # squares back to 2
    assert sq.is_rational and sq.rational_value == 2


def test_evaluate_then_compare_mixed():
    # sqrt2 + sqrt2 vs 2*sqrt3 - 1: 2.828 vs 2.464
    twice = evaluate_poly_at(poly(0, 2), SQRT2)
    rhs = evaluate_poly_at(poly(-1, 2), SQRT3)
    assert twice.compare(rhs) == 1


def test_refinement_preserves_identity():
    a = SQRT2
    for _ in range(10):
        a = a.refined()
    assert a.equals(SQRT2)
    assert a.interval.width <= SQRT2.interval.width / 2**10 or a.is_rational
