"""Exact real-root counting and isolation via Sturm sequences.

The Sturm chain of p also gives its square-free part: its last member is
gcd(p, p') up to a constant (`Polynomial.square_free`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Polynomial


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
    """Sturm chain of p, built once and kept on p.  Its last member is
    gcd(p, p') up to a constant."""
    if p._sturm is None:
        seq = [p, p.derivative()]
        while not seq[-1].is_zero:
            seq.append(-(seq[-2] % seq[-1]))
        seq.pop()
        p._sturm = tuple(seq)
    return p._sturm


def _variations(seq: tuple[Polynomial, ...], x: Fraction) -> int:
    signs = [s for s in (q.sign_at(x) for q in seq) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _linear(root: Fraction) -> Polynomial:
    return Polynomial([-root, 1])


def _deflate_ends(q: Polynomial, iv: Interval) -> tuple[Polynomial, list[Fraction]]:
    """q less its roots at the ends of iv, so that no Sturm evaluation lands
    on a root, and those of them that iv includes."""
    ends = []
    for x, is_open in ((iv.lo, iv.lo_open), (iv.hi, iv.hi_open)):
        if q.sign_at(x) == 0:
            if not is_open:
                ends.append(x)
            q = q.exact_div(_linear(x))
    return q, ends


def count_roots(p: Polynomial, iv: Interval) -> int:
    """Exact number of distinct real roots of p in iv."""
    if p.is_zero:
        raise ValueError("count_roots of the zero polynomial")
    q = p.square_free()
    if q.degree < 1:
        return 0
    q, ends = _deflate_ends(q, iv)
    if q.degree < 1:
        return len(ends)
    seq = sturm_sequence(q)
    return len(ends) + _variations(seq, iv.lo) - _variations(seq, iv.hi)


def isolate_roots(p: Polynomial, iv: Interval) -> list[Interval]:
    """Disjoint rational-endpoint intervals, one distinct root of p each.

    Open intervals carry non-root endpoints; exact rational roots come back
    as point intervals.
    """
    if p.is_zero:
        raise ValueError("isolate_roots of the zero polynomial")
    sq = p.square_free()
    if sq.degree < 1:
        return []
    q, ends = _deflate_ends(sq, iv)
    out = [Interval.point(x) for x in ends]
    if q.degree >= 1:
        inner: list[Interval] = []
        _isolate_open(q, sturm_sequence(q), iv.lo, iv.hi, inner)
        out.extend(_shrink_off_root_endpoints(sq, r) for r in inner)
    out.sort(key=lambda r: r.lo)
    return out


def _shrink_off_root_endpoints(q: Polynomial, iv: Interval) -> Interval:
    """Shrink an open isolator until neither endpoint is a root of q.

    Deflation of rational roots during isolation can leave such a root
    sitting exactly on the boundary of a neighbouring isolator, which would
    break the bisection refinement of that interval later on.
    """
    while not iv.is_point and (q.sign_at(iv.lo) == 0 or q.sign_at(iv.hi) == 0):
        m = iv.midpoint
        sign = q.sign_at(m)
        if sign == 0:
            # the only root of q strictly inside iv is the isolated one
            return Interval.point(m)
        # the root is in (lo, m) iff q's sign at m differs from that just
        # right of lo: q's at lo, or its derivative's at a (simple) root lo
        if (q.sign_at(iv.lo) or q.derivative().sign_at(iv.lo)) != sign:
            iv = Interval(iv.lo, m, lo_open=True, hi_open=True)
        else:
            iv = Interval(m, iv.hi, lo_open=True, hi_open=True)
    return iv


def _isolate_open(
    q: Polynomial,
    seq: tuple[Polynomial, ...],
    a: Fraction,
    b: Fraction,
    out: list[Interval],
) -> None:
    # Invariant: q(a) != 0 != q(b), q square-free.
    n = _variations(seq, a) - _variations(seq, b)
    if n == 0:
        return
    if n == 1:
        out.append(Interval(a, b, lo_open=True, hi_open=True))
        return
    m = (a + b) / 2
    if q.sign_at(m) == 0:
        out.append(Interval.point(m))
        q = q.exact_div(_linear(m))
        if q.degree < 1:
            return
        seq = sturm_sequence(q)
    _isolate_open(q, seq, a, m, out)
    _isolate_open(q, seq, m, b, out)


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
