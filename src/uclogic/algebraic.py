"""Real algebraic numbers: square-free defining polynomial + isolating interval.

Rationals embed as point intervals.  Every query (sign of a polynomial at the
number, comparison, approximation) is decided exactly; interval refinement is
only ever a search accelerator, never the verdict.

Isolator invariant: an irrational number's closed isolator holds exactly one
root of its defining polynomial, a simple one, and neither end is a root.  So
a divisor of the defining polynomial has a root there iff it changes sign
between the ends, which is how `equals` and `sign_of_poly_at` decide it.
`compare` decides apart isolators first, by their ends alone; only when
they overlap does it call `equals` (and so a gcd), once, then refine.

Root counts come from `roots`, by Descartes' rule of signs in integers:
`sign_of_poly_at` refines until Descartes' bound shows that the polynomial
has no root in the closed isolator (`root_bound`), and `from_root` and
`evaluate_poly_at` count roots exactly from their isolators (`count_roots`).
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Polynomial, format_polynomial
from .roots import Interval, count_roots, refine_isolating, root_bound


class AlgebraicNumber:
    __slots__ = ("defining", "interval")

    def __init__(self, defining: Polynomial, interval: Interval):
        # a linear defining polynomial pins the value down exactly
        if defining.degree == 1 and not interval.is_point:
            root = Fraction(-defining.nums[0], defining.nums[1])
            interval = Interval.point(root)
        self.defining = defining
        self.interval = interval

    @classmethod
    def from_rational(cls, value) -> "AlgebraicNumber":
        value = Fraction(value)
        return cls(Polynomial([-value, 1]), Interval.point(value))

    @classmethod
    def from_root(cls, p: Polynomial, iv: Interval) -> "AlgebraicNumber":
        """The unique root of p inside iv (as produced by isolate_roots); the
        ends of a non-point iv must not be roots (the isolator invariant)."""
        q = p.square_free()
        root_end = not iv.is_point and 0 in (q.sign_at(iv.lo), q.sign_at(iv.hi))
        if root_end or count_roots(q, iv) != 1:
            raise ValueError("interval does not isolate exactly one root")
        return cls.from_rational(iv.lo) if iv.is_point else cls(q, iv)

    @property
    def is_rational(self) -> bool:
        return self.interval.is_point

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational point")
        return self.interval.lo

    def refined(self) -> "AlgebraicNumber":
        if self.is_rational:
            return self
        iv = refine_isolating(self.defining, self.interval)
        if iv.is_point:
            return AlgebraicNumber.from_rational(iv.lo)
        return AlgebraicNumber(self.defining, iv)

    def refined_below(self, width: Fraction) -> "AlgebraicNumber":
        a = self
        while not a.is_rational and a.interval.width > width:
            a = a.refined()
        return a

    def approximate(self, eps) -> Fraction:
        """A rational within eps of the represented real."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self.is_rational:
            return self.rational_value
        return self.refined_below(eps).interval.midpoint

    def __float__(self) -> float:
        return float(self.approximate(Fraction(1, 10**17)))

    def sign_of_poly_at(self, q: Polynomial) -> int:
        """Exact sign of q evaluated at this number."""
        if q.is_zero:
            return 0
        if self.is_rational:
            return q.sign_at(self.rational_value)
        g = self.defining.gcd(q)
        if g.degree >= 1 and g.sign_at(self.interval.lo) != g.sign_at(self.interval.hi):
            return 0
        # q has no root here: refine until Descartes' bound proves that q
        # has none in the closed isolator, which it does once the isolator
        # is small enough
        a = self
        while root_bound(q, a.interval.closure()) > 0:
            a = a.refined()
            if a.is_rational:
                return q.sign_at(a.rational_value)
        return q.sign_at(a.interval.midpoint)

    def equals(self, other: "AlgebraicNumber") -> bool:
        if self.is_rational and other.is_rational:
            return self.rational_value == other.rational_value
        if self.is_rational:
            return other.equals(self)
        if other.is_rational:
            # the defining polynomial is square-free with exactly one root
            # in the closed isolator, so a root r inside it is this number
            r = other.rational_value
            return self.defining.sign_at(r) == 0 and self.interval.contains(r)
        g = self.defining.gcd(other.defining)
        # A root of g inside both isolating intervals is simultaneously the
        # unique root of each defining polynomial there, hence both numbers.
        # The ends of their overlap are isolator ends, not roots of g.
        lo = max(self.interval.lo, other.interval.lo)
        hi = min(self.interval.hi, other.interval.hi)
        return g.degree >= 1 and lo < hi and g.sign_at(lo) != g.sign_at(hi)

    def compare(self, other: "AlgebraicNumber") -> int:
        if self.is_rational and other.is_rational:
            x, y = self.rational_value, other.rational_value
            return (x > y) - (x < y)
        a, b = self, other
        if not _apart(a, b):
            if a.equals(b):
                return 0
            while not _apart(a, b):
                a, b = a.refined(), b.refined()
        return -1 if a.interval.hi <= b.interval.lo else 1

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.rational_value)
        return (
            f"root of {format_polynomial(self.defining)} in {self.interval}"
        )

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self})"


def _apart(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Do the isolators of a and b, not both rational, meet at most in an
    end?  Then a != b, since an irrational number is no end of its isolator."""
    return a.interval.hi <= b.interval.lo or b.interval.hi <= a.interval.lo


def scalar_resultant(f: Polynomial, g: Polynomial) -> Fraction:
    """Resultant of two univariate polynomials, by Euclidean remainders.

    Res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f - deg r) * Res(g, r)
    with r = f mod g, down to Res(f, c) = c^(deg f) for a constant c; it is
    0 when either is zero or the remainder vanishes before a constant.
    """
    if f.is_zero or g.is_zero:
        return Fraction(0)
    res = Fraction(1)
    while g.degree > 0:
        r = f % g
        if r.is_zero:
            return Fraction(0)
        if f.degree * g.degree % 2:
            res = -res
        res *= Fraction(g.nums[-1], g.den) ** (f.degree - r.degree)
        f, g = g, r
    return res * Fraction(g.nums[0], g.den) ** f.degree


def _lagrange(points: list[tuple[Fraction, Fraction]]) -> Polynomial:
    acc = Polynomial()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = basis * Polynomial([-xj, 1]).scale(Fraction(1, 1) / (xi - xj))
        acc = acc + basis
    return acc


def value_defining_polynomial(defining: Polynomial, p: Polynomial) -> Polynomial:
    """Nonzero polynomial vanishing at p(alpha) for every root alpha of defining.

    Computed as Res_x(defining(x), y - p(x)) by evaluation/interpolation in y.
    """
    n = defining.degree
    points: list[tuple[Fraction, Fraction]] = []
    for k in range(n + 1):
        y = Fraction(k)
        points.append((y, scalar_resultant(defining, Polynomial.constant(y) - p)))
    return _lagrange(points)


def evaluate_poly_at(p: Polynomial, a: AlgebraicNumber) -> AlgebraicNumber:
    """The value p(a) as an exact algebraic number."""
    if a.is_rational:
        return AlgebraicNumber.from_rational(p(a.rational_value))
    if p.degree <= 0:
        return AlgebraicNumber.from_rational(p(Fraction(0)))
    d = value_defining_polynomial(a.defining, p).square_free()
    while True:
        lo, hi = p.eval_interval(a.interval.lo, a.interval.hi)
        if lo == hi:
            return AlgebraicNumber.from_rational(lo)
        if count_roots(d, Interval(lo, hi)) == 1:
            if d.sign_at(lo) == 0:
                return AlgebraicNumber.from_rational(lo)
            if d.sign_at(hi) == 0:
                return AlgebraicNumber.from_rational(hi)
            return AlgebraicNumber(d, Interval(lo, hi, lo_open=True, hi_open=True))
        a = a.refined()
        if a.is_rational:
            return AlgebraicNumber.from_rational(p(a.rational_value))
