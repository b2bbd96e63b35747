from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclogic.errors import ParseError
from uclogic.polynomials import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    ONE,
    ZERO,
    NU,
    Polynomial,
    format_polynomial,
    parse_polynomial,
    simplest_between,
)

small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
polys = st.lists(small_fracs, min_size=0, max_size=9).map(Polynomial)


def test_constructor_strips_trailing_zeros():
    p = Polynomial([F(1), F(2), F(0), F(0)])
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert Polynomial([F(0), F(0)]).is_zero


def test_arithmetic_basics():
    p = Polynomial([F(1), F(1)])  # 1 + nu
    q = Polynomial([F(-1), F(1)])  # -1 + nu
    assert p * q == Polynomial([F(-1), F(0), F(1)])
    assert p + q == Polynomial([F(0), F(2)])
    assert p - p == ZERO
    assert p**3 == Polynomial([F(1), F(3), F(3), F(1)])
    assert (p * q)(F(3)) == 8


def test_divmod_and_exact_div():
    p = Polynomial([F(-1), F(0), F(1)])
    q = Polynomial([F(-1), F(1)])
    quo, rem = divmod(p, q)
    assert rem.is_zero
    assert quo == Polynomial([F(1), F(1)])
    assert p.exact_div(q) == quo
    with pytest.raises(ValueError):
        Polynomial([F(1), F(1)]).exact_div(q)


def test_derivative_and_gcd():
    p = Polynomial([F(0), F(0), F(1)])  # nu^2
    assert p.derivative() == Polynomial([F(0), F(2)])
    # gcd of nu^2(nu-1) and nu(nu-1)^2 is nu(nu-1), returned monic
    a = Polynomial([F(0), F(0), F(-1), F(1)])
    b = Polynomial([F(0), F(1), F(-2), F(1)])
    assert a.gcd(b) == Polynomial([F(0), F(-1), F(1)])


def test_square_free_drops_multiplicity():
    q = Polynomial([F(-1), F(1)])  # nu - 1
    p = q * q * q * Polynomial([F(2), F(1)])
    sf = p.square_free()
    assert sf.gcd(sf.derivative()).degree == 0
    assert sf(F(1)) == 0 and sf(F(-2)) == 0


def test_square_free_is_memoized():
    p = Polynomial([F(1), F(-2), F(1)]) * Polynomial([F(-2), F(0), F(1)])
    sf = p.square_free()
    assert p.square_free() is sf
    assert sf.square_free() is sf
    c = Polynomial.constant(3)
    assert c.square_free() is c


def test_memo_does_not_change_equality():
    filled = Polynomial([F(1), F(-2), F(1)])
    filled.square_free()
    fresh = Polynomial([F(1), F(-2), F(1)])
    assert filled == fresh and hash(filled) == hash(fresh)
    assert len({filled, fresh}) == 1
    assert filled.square_free() == fresh.square_free()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_mul_evaluation_homomorphism(p, q):
    at = F(3, 7)
    assert (p * q)(at) == p(at) * q(at)
    assert (p + q)(at) == p(at) + q(at)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divmod_reconstructs(p, q):
    if q.is_zero:
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


def test_eval_interval_bounds_range():
    p = Polynomial([F(1), F(-3), F(2)])
    lo, hi = p.eval_interval(F(0), F(1))
    for k in range(11):
        v = p(F(k, 10))
        assert lo <= v <= hi


def test_format_parse_round_trip():
    p = Polynomial([F(1), F(-2), F(2)])
    assert format_polynomial(p) == "2*nu^2 - 2*nu + 1"
    assert parse_polynomial(format_polynomial(p)) == p
    assert parse_polynomial("(nu - 1)^2 / 4") == Polynomial([F(1, 4), F(-1, 2), F(1, 4)])
    assert format_polynomial(ZERO) == "0"
    assert parse_polynomial("0") == ZERO
    assert parse_polynomial("nu") == NU


@given(polys)
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip_random(p):
    assert parse_polynomial(format_polynomial(p)) == p


def test_degree_limit():
    assert parse_polynomial(f"nu^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_polynomial(f"nu^{MAX_DEGREE // 2} * nu^{MAX_DEGREE // 2}") == (
        NU ** MAX_DEGREE
    )
    for text in (
        f"nu^{MAX_DEGREE + 1}",  # exponent
        "2^99999999999",  # exponent of a constant
        f"(nu^2)^{MAX_DEGREE // 2 + 1}",  # degree of a power
        f"nu^{MAX_DEGREE} * nu",  # degree of a product
        f"(1 + nu^{MAX_DEGREE}) * (nu - 1)",
    ):
        with pytest.raises(ParseError, match="limit"):
            parse_polynomial(text)


def test_coefficient_limit():
    assert parse_polynomial("(nu + 1)^256") == (NU + ONE) ** 256
    assert parse_polynomial("(2^200)^20") == Polynomial.constant(2**4000)
    assert parse_polynomial("3" * (MAX_COEFF_BITS // 4)).coeffs[0] > 0
    for text in (
        "(2^256)^256",  # a power, refused before it is computed
        "(((2^256)^256)^256)^256",
        "(2^200)^20 * (2^200)^20",  # a product
        "nu / ((2^200)^20 + 1) / ((2^200)^20 + 1)",  # a quotient
        "1/((2^200)^20 + 1) + 1/((2^200)^20 + 3)",  # a sum
        "9" * 1300,  # a literal
        "9" * 5000,  # a literal beyond Python's int-from-string limit
    ):
        with pytest.raises(ParseError, match="limit"):
            parse_polynomial(text)


def test_simplest_between():
    assert simplest_between(F(1, 3), F(1, 2)) == F(2, 5)
    assert simplest_between(F(0), F(1)) == F(1, 2)
    assert simplest_between(F(5, 8), F(7, 8)) == F(2, 3)
    got = simplest_between(F(355, 1130), F(355, 1120))
    assert F(355, 1130) < got < F(355, 1120)


@given(small_fracs, small_fracs)
@settings(max_examples=80, deadline=None)
def test_simplest_between_is_minimal_denominator(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    got = simplest_between(lo, hi)
    assert lo < got < hi
    for den in range(1, got.denominator):
        lo_num = lo.numerator * den // lo.denominator
        for num in range(lo_num, lo_num + 3):
            assert not (lo < F(num, den) < hi)


def test_constants():
    assert ONE == Polynomial([F(1)])
    assert NU(F(5, 7)) == F(5, 7)
