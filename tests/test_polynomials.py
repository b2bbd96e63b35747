import gc
import json
import math
import random
import re
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclogic.errors import ParseError
from uclogic.roots import sturm_sequence
from uclogic.polynomials import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    ONE,
    SQUARE_FREE_PRIME,
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
    # the hash is kept after the first call and equals that of an equal
    # polynomial built another way
    other = Polynomial([F(2), F(-4), F(2)]).scale(F(1, 2))
    assert hash(filled) == hash(other) == hash(fresh) and filled == other
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
    for text, message in {
        # exponent
        f"nu^{MAX_DEGREE + 1}":
            "exponent 257 exceeds the degree limit of 256 (at position 3)",
        # exponent of a constant
        "2^99999999999":
            "exponent 99999999999 exceeds the degree limit of 256 (at position 2)",
        # degree of a power
        f"(nu^2)^{MAX_DEGREE // 2 + 1}":
            "polynomial degree 258 exceeds the limit of 256 (at position 7)",
        # degree of a product
        f"nu^{MAX_DEGREE} * nu":
            "polynomial degree 257 exceeds the limit of 256 (at position 7)",
        f"(1 + nu^{MAX_DEGREE}) * (nu - 1)":
            "polynomial degree 257 exceeds the limit of 256 (at position 13)",
    }.items():
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == message, text


def _sum_over(denominators):
    return "(" + " + ".join(
        f"nu^{k}/{d}" for k, d in enumerate(denominators)) + ")"


def test_coefficient_limit():
    assert parse_polynomial("(nu + 1)^256") == (NU + ONE) ** 256
    assert parse_polynomial("(2^200)^20") == Polynomial.constant(2**4000)
    assert parse_polynomial("3" * (MAX_COEFF_BITS // 4)).coeffs[0] > 0
    assert parse_polynomial("(1/2 + nu/2)^256") == (
        Polynomial([F(1, 2), F(1, 2)]) ** 256)
    assert parse_polynomial("(1/6 + nu/10 + nu^2/15)^128") == (
        Polynomial([F(1, 6), F(1, 10), F(1, 15)]) ** 128)
    for text, position in {
        "(2^256)^256": 8,  # a power, refused before it is computed
        "(((2^256)^256)^256)^256": 10,
        # powers of sums with distinct denominators, whose own denominator
        # is a power of their lcm; computed, the first two take from tens of
        # seconds to minutes
        _sum_over(2**109 + 2 * k + 1 for k in range(9)) + "^32": 369,
        _sum_over(2**499 + 2 * k + 1 for k in range(33)) + "^8": 5270,
        _sum_over(2**59 + 2 * k + 1 for k in range(4)) + "^60": 104,
        "(1/1073741789 + nu/1073741783 + nu^2/1073741827)^120": 49,
        "(2^200)^20 * (2^200)^20": 11,  # a product
        "nu / ((2^200)^20 + 1) / ((2^200)^20 + 1)": 22,  # a quotient
        "1/((2^200)^20 + 1) + 1/((2^200)^20 + 3)": 19,  # a sum
        "9" * 1300: 0,  # a literal
        "9" * 5000: 0,  # a literal beyond Python's int-from-string limit
    }.items():
        started = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == (
            f"coefficients over the limit of 4096 bits (at position {position})"
        ), text
        assert time.perf_counter() - started < 1.0, text


def test_refused_syntax_keeps_its_messages():
    for text, message in {
        "nu / nu": "division only by a nonzero constant (at position 3)",
        "nu / (nu - nu)": "division only by a nonzero constant (at position 3)",
        "nu ^ x": "exponent must be a natural number (at position 5)",
        "nu^-1": "exponent must be a natural number (at position 3)",
        "nu)": "unexpected token ')' (at position 2)",
        "x": "unexpected token 'x' (at position 0)",
        "2 $ 3": "unexpected character '$' (at position 1)",
        "(nu": "unexpected end of polynomial expression",
        "": "unexpected end of polynomial expression",
        "-" * 102 + "nu": "expression nested deeper than 100 levels (at position 101)",
    }.items():
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == message, text
    assert parse_polynomial("-" * 101 + "nu") == -NU


def _random_bound(rng):
    """A bound in the canonical dialect, `c*nu^k + ...` with integer or
    p/q coefficients, sometimes with a product or power of monomials."""
    text = ""
    for _ in range(rng.randint(1, 14)):
        k = rng.randint(0, 24)
        c = rng.choice([str(rng.randint(1, 10 ** rng.randint(1, 40))),
                        f"{rng.randint(1, 999)}/{rng.randint(1, 999)}", "1"])
        mono = {0: "", 1: "nu"}.get(k, f"nu^{k}")
        term = "*".join(x for x in (c, mono) if x and (x != "1" or not mono))
        if rng.random() < 0.2:
            term = f"{term} * (3*nu^{rng.randint(0, 4)})^{rng.randint(0, 5)}"
        sign = rng.choice(["+", "-"])
        text = (f"{text} {sign} {term}" if text
                else ("-" if sign == "-" else "") + term)
    return text


def test_bound_parsing_matches_sympy():
    """Every bound of the kernel benchmark and seeded random bounds parse to
    the coefficients of sympy's own arithmetic on the same text."""
    sympy = pytest.importorskip("sympy")
    ring, nu = sympy.ring("nu", sympy.QQ)
    refs = Path(__file__).resolve().parent.parent / "bench" / "refs" / "kernel.json"
    bounds = [b for item in json.loads(refs.read_text())["items"]
              for b in item["gammas"].values()]
    assert len(bounds) == 576
    rng = random.Random(11)
    bounds += [_random_bound(rng) for _ in range(300)]
    bounds += ["(nu - 1/3)^7 * nu^2 / 7 - (2*nu)^3", "1 - (1 - nu)^16", "nu - nu"]
    for text in bounds:
        # each integer literal, but no exponent, becomes an element of the ring
        code = re.sub(r"(?<![*\d])\d+", r"C(\g<0>)", text.replace("^", "**"))
        want = eval(code, {"__builtins__": {}, "C": ring, "nu": nu})
        got = {(k,): c for k, c in enumerate(parse_polynomial(text).coeffs) if c}
        assert got == {
            m: F(int(c.numerator), int(c.denominator)) for m, c in want.terms()
        }, text


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


def _fraction_horner(p, x):
    """Reference value of p at x: Horner over Fraction."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _fraction_interval_horner(p, lo, hi):
    """Reference enclosure: interval Horner over Fraction."""
    alo = ahi = F(0)
    for c in reversed(p.coeffs):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def test_integer_evaluation_matches_fraction_horner():
    rng = random.Random(23)
    big = 2**300 + 1  # a 301-bit denominator
    huge = 2**1000 - 3  # x with a 1,000-bit denominator
    points = [0, 3, -2, F(0), F(1), F(-7), F(1, 2), F(-5, 3), F(huge - 1, huge),
              F(-(2**999 + 5), huge), F(3, 2**1000)]
    polys = [Polynomial(), Polynomial([0]), Polynomial([5]), Polynomial([F(-1, big)]),
             Polynomial([F(2**300 + 7, big), F(-3, big), F(1, 3)])]
    for _ in range(40):
        deg = rng.randint(0, 10)
        polys.append(Polynomial([F(rng.randint(-99, 99), rng.choice((1, 2, 7, big)))
                                 for _ in range(deg + 1)]))
    # x at a root of each of these
    polys += [Polynomial([-x, 1]) * polys[-1] for x in points]
    for p in polys:
        for x in points:
            ref = _fraction_horner(p, x)
            got = p(x)
            assert type(got) is F
            assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)
            assert p.sign_at(x) == (ref > 0) - (ref < 0)
        for lo, hi in ((F(0), F(1)), (F(-5, 3), F(1, 2)), (F(1, huge), F(huge - 1, huge))):
            assert p.eval_interval(lo, hi) == _fraction_interval_horner(p, lo, hi)
    for x in points:
        assert Polynomial([-x, 1]).sign_at(x) == 0


def _with_repeated_factors(rng):
    p = Polynomial([rng.randint(1, 9)])
    for _ in range(rng.randint(1, 4)):
        factor = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(rng.randint(1, 3))] + [1])
        p = p * factor ** rng.randint(1, 3)
    return p


def test_square_free_is_the_gcd_quotient_without_gcd(monkeypatch):
    rng = random.Random(29)
    cases = [_with_repeated_factors(rng) for _ in range(40)]
    # times the prime of the modular test, which sends them to the fallback
    cases += [p.scale(SQUARE_FREE_PRIME) for p in cases[:20]]
    expected = [p.exact_div(p.gcd(p.derivative())) for p in cases]

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(Polynomial, "gcd", refuse)
    for p, want in zip(cases, expected):
        assert p.square_free().coeffs == want.coeffs
    # a square-free p is its own part, and the modular test finds it with
    # no division over Q
    monkeypatch.setattr(Polynomial, "divmod", refuse)
    p = Polynomial([-2, 0, 1])
    assert p.square_free() is p


def _distinct_factors(rng):
    """A product of distinct linear and irreducible quadratic factors: a
    square-free polynomial."""
    roots = rng.sample([F(n, d) for n in range(-6, 7) for d in (1, 2, 3, 5)], rng.randint(0, 4))
    p = Polynomial([F(rng.randint(1, 9), rng.randint(1, 4))])
    for r in dict.fromkeys(roots):
        p = p * Polynomial([-r, 1])
    for c in rng.sample(range(1, 8), rng.randint(0, 2)):
        p = p * Polynomial([c, 0, 1])  # nu^2 + c
    return p


def test_square_free_input_makes_no_division(monkeypatch):
    rng = random.Random(31)
    cases = [_distinct_factors(rng) for _ in range(60)]

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(Polynomial, "divmod", refuse)
    monkeypatch.setattr("uclogic.roots.sturm_sequence", refuse)
    for p in cases:
        assert p.square_free() is p


def test_square_free_falls_back_when_the_prime_divides_the_lead(monkeypatch):
    from uclogic import roots

    calls = []

    def counted(p):
        calls.append(p)
        return sturm_sequence(p)

    monkeypatch.setattr(roots, "sturm_sequence", counted)
    square_free = Polynomial([-2, 0, SQUARE_FREE_PRIME])
    assert square_free.square_free() is square_free
    assert calls == [square_free]
    repeated = Polynomial([-1, 1]) ** 2 * Polynomial([2, SQUARE_FREE_PRIME])
    part = repeated.square_free()
    assert len(calls) == 2
    assert part.coeffs == repeated.exact_div(repeated.gcd(repeated.derivative())).coeffs
    # the leading numerator counts, over the least common denominator
    scaled = Polynomial([F(1, 3), 0, F(SQUARE_FREE_PRIME, 3)])
    assert scaled.square_free() is scaled and len(calls) == 3
    assert Polynomial([-2, 0, 1]).square_free() and len(calls) == 3


def test_filled_memos_leave_no_cycle():
    gc.collect()
    gc.disable()
    try:
        for coeffs in ([-2, 0, 1], [1, -2, 1], [F(1, 3), -1, 0, 2]):
            p = Polynomial(coeffs) * Polynomial([-1, 1])
            part = p.square_free()
            hash(p), hash(part), p.nums, part.nums
            assert part.square_free() is part
            del p, part
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the one stored form, against a reference on tuples of Fractions -------

rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
)
coefficient_lists = st.lists(rationals, max_size=7)


def _trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim(sum(c[i] for c in (a, b) if i < len(c)) for i in range(n))


def _ref_mul(a, b):
    out = [F(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_value(a, x):
    return sum(c * x**i for i, c in enumerate(a))


def _ref_format(a):
    terms = []
    for k in range(len(a) - 1, -1, -1):
        if a[k]:
            mono = {0: "", 1: "nu"}.get(k, f"nu^{k}")
            mag = str(abs(a[k]))
            body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            terms.append(("-" if a[k] < 0 else "+", body))
    if not terms:
        return "0"
    (sign, body), *rest = terms
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def _canonical(p):
    """The coefficients of p, after checking that p is in the one stored
    form: integer numerators with no trailing zero over a positive
    denominator, all of them with no common factor."""
    assert type(p.den) is int and p.den > 0
    assert type(p.nums) is tuple and all(type(n) is int for n in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    return p.coeffs


@given(coefficient_lists, coefficient_lists, rationals, rationals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_form_matches_the_fraction_reference(a, b, k, x):
    p, q = Polynomial(a), Polynomial(b)
    ra, rb = _trim(a), _trim(b)
    assert _canonical(p) == ra and _canonical(q) == rb
    assert _canonical(p + q) == _ref_add(ra, rb)
    assert _canonical(p - q) == _ref_add(ra, [-c for c in rb])
    assert _canonical(-p) == _trim(-c for c in ra)
    assert _canonical(p * q) == _ref_mul(ra, rb)
    assert _canonical(p.scale(k)) == _trim(c * k for c in ra)
    assert _canonical(p.derivative()) == _trim([i * c for i, c in enumerate(ra)][1:])
    value = _ref_value(ra, F(x))
    assert p(x) == value and p.sign_at(x) == (value > 0) - (value < 0)
    assert format_polynomial(p) == _ref_format(ra)
    assert _canonical(parse_polynomial(format_polynomial(p))) == ra
    if ra:
        assert _canonical(p.monic()) == _trim(c / ra[-1] for c in ra)
    if rb:
        quo, rem = divmod(p, q)
        assert _ref_add(_ref_mul(_canonical(quo), rb), _canonical(rem)) == ra
        assert len(rem.coeffs) < len(rb)


@given(coefficient_lists, coefficient_lists)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_equal_polynomials_built_apart_are_one(a, b):
    p, q = Polynomial(a), Polynomial(b)
    product = f"({format_polynomial(p)}) * ({format_polynomial(q)})"
    for x, y in [
        (p * q, q * p),
        ((p + q) - q, p),
        (p.scale(F(2, 3)).scale(F(3, 2)), p),
        (parse_polynomial(product), p * q),
        (Polynomial([F(c) for c in a] + [0, F(0)]), p),
    ]:
        _canonical(x)
        assert x == y and hash(x) == hash(y) and (x.nums, x.den) == (y.nums, y.den)
