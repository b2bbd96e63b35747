"""Exact real-root counting and isolation by Descartes' rule of signs.

The roots of a polynomial in an open interval (a, b) are bounded by the
sign variations V of its Bernstein coefficients there (`bernstein`), all
in integers: V is at least the number of roots counted with multiplicity,
so V = 0 proves there is none and V = 1 that there is exactly one, a
simple one.  Isolation bisects at dyadic midpoints until every piece has
V = 0 or V = 1 (Collins & Akritas, SYMSAC 1976; Eigenwillig, Sharma & Yap,
ISSAC 2006), which ends for a square-free polynomial.  Roots on the ends
of an interval are divided out first, in integers, and the square-free
part is taken only once V leaves a root inside possible.

`_isolate_open` establishes the isolator invariant of `algebraic` itself:
a piece with V = 1 (counted once, when the piece is made) is an isolator
only when neither end is a root, and is split again otherwise.

`sturm_sequence`, the Euclidean remainder sequence over Q, serves only as
the fallback of `Polynomial.square_free`: its last member is gcd(p, p') up
to a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Polynomial, horner


@dataclass(frozen=True)
class Interval:
    """Rational-endpoint interval with per-end openness."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("a point interval must be closed at both ends")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def closure(self) -> "Interval":
        if not (self.lo_open or self.hi_open):
            return self
        return Interval(self.lo, self.hi)

    @classmethod
    def point(cls, x: Fraction) -> "Interval":
        return cls(x, x)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


def sturm_sequence(p: Polynomial) -> tuple[Polynomial, ...]:
    """Sturm chain of p: p, p' and the negated remainders of Euclid's
    algorithm.  Its last member is gcd(p, p') up to a constant."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return tuple(seq)


def taylor_shift(a: list[int], h: int = 1) -> list[int]:
    """Coefficients of a(x + h), from those of a(x), constant term first."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += h * a[j + 1]
    return a


def _unit_form(nums, iv: Interval, degree: int) -> list[int]:
    """Integer coefficients, constant term first, of f(t) = D^d n(x) at
    x = lo + (hi - lo) t, for n(x) = sum_i nums[i] x^i taken at degree
    d >= its own, [lo, hi] the closure of iv and D the least common
    denominator of lo and hi: n on [lo, hi] mapped onto [0, 1], times a
    positive constant."""
    lo, hi = iv.lo, iv.hi
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    f = [n * den ** (degree - i) for i, n in enumerate(nums)]
    f += [0] * (degree + 1 - len(f))
    if a:
        f = taylor_shift(f, a)
    if w != 1:
        f = [c * w**k for k, c in enumerate(f)]
    return f


def _unit_bernstein(f: list[int]) -> list[int]:
    # with t = 1/(1 + s), (1 + s)^d f(t) = sum_i C(d, i) b_i s^(d-i)
    return taylor_shift(f[::-1])[::-1]


def bernstein(nums, iv: Interval, degree: int) -> list[int]:
    """The integers D^d C(d, i) b_i, i = 0..d, for b_i the Bernstein
    coefficients at degree d of sum_i nums[i] x^i on the closure [lo, hi]
    of iv (D as in `_unit_form`).  The b_i enclose its values on [lo, hi]
    (Lane & Riesenfeld, BIT 1981), and their sign variations are
    Descartes' bound on its roots in (lo, hi)."""
    return _unit_bernstein(_unit_form(nums, iv, degree))


def _variations(f: list[int]) -> int:
    """Descartes' bound on the roots in (0, 1) of the unit form f: the
    sign variations of its Bernstein coefficients, zeros skipped."""
    signs = [c > 0 for c in _unit_bernstein(f) if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate(nums: list[int], x: Fraction) -> list[int]:
    """The quotient of sum_i nums[i] t^i by (b t - a) at a root x = a/b,
    integral by Gauss's lemma, by synthetic division from the top."""
    a, b = x.numerator, x.denominator
    out = [0] * (len(nums) - 1)
    q = 0
    for k in range(len(nums) - 1, 0, -1):
        q = (nums[k] + a * q) // b
        out[k - 1] = q
    return out


def _deflate_ends(nums, iv: Interval) -> tuple[list[int], list[Fraction]]:
    """The integer polynomial nums less each of its roots on the ends of iv,
    multiplicity and all, and these roots, whether iv includes them or not."""
    nums = list(nums)
    ends = []
    for x in (iv.lo, iv.hi):
        if len(nums) > 1 and horner(nums, x)[0] == 0:
            ends.append(x)
            while len(nums) > 1 and horner(nums, x)[0] == 0:
                nums = _deflate(nums, x)
    return nums, ends


def root_bound(p: Polynomial, iv: Interval) -> int:
    """An upper bound on the number of distinct roots of p in iv: its roots
    on the ends that iv includes plus Descartes' bound inside.  It is 0 only
    if p has no root in iv, and 1 only if p has exactly one."""
    if p.is_zero:
        raise ValueError("root_bound of the zero polynomial")
    nums, ends = _deflate_ends(p.nums, iv)
    bound = sum(1 for x in ends if iv.contains(x))
    if len(nums) < 2 or iv.is_point:
        return bound
    return bound + _variations(_unit_form(nums, iv, len(nums) - 1))


def count_roots(p: Polynomial, iv: Interval) -> int:
    """Exact number of distinct real roots of p in iv: its isolators."""
    if p.is_zero:
        raise ValueError("count_roots of the zero polynomial")
    return len(isolate_roots(p, iv))


def isolate_roots(p: Polynomial, iv: Interval) -> list[Interval]:
    """Disjoint rational-endpoint intervals, one distinct root of p each.

    Open intervals carry non-root endpoints; exact rational roots come back
    as point intervals.  p's square-free part is taken only when Descartes'
    bound for p less its end roots leaves a root inside iv possible.
    """
    if p.is_zero:
        raise ValueError("isolate_roots of the zero polynomial")
    nums, ends = _deflate_ends(p.nums, iv)
    out = [Interval.point(x) for x in ends if iv.contains(x)]
    if len(nums) > 1 and not iv.is_point:
        f = _unit_form(nums, iv, len(nums) - 1)
        n = _variations(f)
        if n:
            sq = p.square_free()
            if sq is not p:
                nums, _ = _deflate_ends(sq.nums, iv)
                f = _unit_form(nums, iv, len(nums) - 1)
                n = _variations(f)
            out += _isolate_open(f, n, iv.lo, iv.hi, set(ends))
    out.sort(key=lambda r: r.lo)
    return out


def _isolate_open(
    f: list[int], n: int, a: Fraction, b: Fraction, roots: set[Fraction]
) -> list[Interval]:
    """Isolators of the roots in (a, b) of a square-free polynomial with
    unit form f on [a, b], f(0) != 0 != f(1), and Descartes' bound n there:
    open intervals with dyadic ends, neither of them a root, and the point
    of each root met on a midpoint.  roots holds the roots on a and b, and
    gains each root met on a midpoint."""
    out: list[Interval] = []
    todo = [(f, n, a, b)] if n else []  # depth first, left half first
    while todo:
        f, n, a, b = todo.pop()
        if n == 1 and a not in roots and b not in roots:
            out.append(Interval(a, b, lo_open=True, hi_open=True))
            continue
        # the halves' unit forms: 2^d f(t/2) and 2^d f((1 + t)/2)
        m = (a + b) / 2
        d = len(f) - 1
        left = [c << (d - k) for k, c in enumerate(f)]
        right = taylor_shift(left)
        if right[0] == 0:  # a root on the midpoint: divide it out of both
            out.append(Interval.point(m))
            roots.add(m)
            if d == 1:
                continue
            left, right = _deflate(left, Fraction(1)), right[1:]
        for g, lo, hi in ((right, m, b), (left, a, m)):
            v = _variations(g)
            if v:
                todo.append((g, v, lo, hi))
    return out


def refine_isolating(p: Polynomial, iv: Interval) -> Interval:
    """One bisection step on an isolating interval of square-free p.

    Requires the interval to bracket exactly one simple root with non-root
    endpoints, as produced by isolate_roots.
    """
    if iv.is_point:
        return iv
    m = iv.midpoint
    sign = p.sign_at(m)
    if sign == 0:
        return Interval.point(m)
    if p.sign_at(iv.lo) != sign:
        return Interval(iv.lo, m, lo_open=True, hi_open=True)
    return Interval(m, iv.hi, lo_open=True, hi_open=True)
