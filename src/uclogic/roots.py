"""Exact real-root counting and isolation via Sturm sequences."""

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

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, lo_open = max(
            (self.lo, self.lo_open), (other.lo, other.lo_open)
        )
        hi, hi_open = min(
            (self.hi, not self.hi_open), (other.hi, not other.hi_open)
        )
        hi_open = not hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    @classmethod
    def point(cls, x: Fraction) -> "Interval":
        return cls(x, x)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


def sturm_sequence(p: Polynomial) -> tuple[Polynomial, ...]:
    """Sturm chain of p, built once and kept on p."""
    if p._sturm is None:
        seq = [p, p.derivative()]
        while not seq[-1].is_zero:
            seq.append(-(seq[-2] % seq[-1]))
        seq.pop()
        p._sturm = tuple(seq)
    return p._sturm


def _variations(seq: tuple[Polynomial, ...], x: Fraction) -> int:
    signs = []
    for q in seq:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _linear(root: Fraction) -> Polynomial:
    return Polynomial([-root, 1])


def count_roots(p: Polynomial, iv: Interval) -> int:
    """Exact number of distinct real roots of p in iv."""
    if p.is_zero:
        raise ValueError("count_roots of the zero polynomial")
    q = p.square_free()
    if q.degree < 1:
        return 0
    if iv.is_point:
        return 1 if q(iv.lo) == 0 else 0
    total = 0
    # Deflate endpoint roots so Sturm evaluation never lands on a root.
    if q(iv.lo) == 0:
        if not iv.lo_open:
            total += 1
        q = q.exact_div(_linear(iv.lo))
    if q(iv.hi) == 0:
        if not iv.hi_open:
            total += 1
        q = q.exact_div(_linear(iv.hi))
    if q.degree >= 1:
        seq = sturm_sequence(q)
        total += _variations(seq, iv.lo) - _variations(seq, iv.hi)
    return total


def isolate_roots(p: Polynomial, iv: Interval) -> list[Interval]:
    """Disjoint rational-endpoint intervals, one distinct root of p each.

    Open intervals carry non-root endpoints; exact rational roots come back
    as point intervals.
    """
    if p.is_zero:
        raise ValueError("isolate_roots of the zero polynomial")
    q = p.square_free()
    if q.degree < 1:
        return []
    out: list[Interval] = []
    if iv.is_point:
        return [iv] if q(iv.lo) == 0 else []
    lo, hi = iv.lo, iv.hi
    if q(lo) == 0:
        if not iv.lo_open:
            out.append(Interval.point(lo))
        q = q.exact_div(_linear(lo))
    if q(hi) == 0:
        if not iv.hi_open:
            out.append(Interval.point(hi))
        q = q.exact_div(_linear(hi))
    if q.degree >= 1:
        inner: list[Interval] = []
        _isolate_open(q, sturm_sequence(q), lo, hi, inner)
        full = p.square_free()
        out.extend(_shrink_off_root_endpoints(full, r) for r in inner)
    out.sort(key=lambda r: r.lo)
    return out


def _shrink_off_root_endpoints(q: Polynomial, iv: Interval) -> Interval:
    """Shrink an open isolator until neither endpoint is a root of q.

    Deflation of rational roots during isolation can leave such a root
    sitting exactly on the boundary of a neighbouring isolator, which would
    break the bisection refinement of that interval later on.
    """
    while not iv.is_point and (q(iv.lo) == 0 or q(iv.hi) == 0):
        m = iv.midpoint
        if q(m) == 0:
            # the only root of q strictly inside iv is the isolated one
            return Interval.point(m)
        if count_roots(q, Interval(iv.lo, m, lo_open=True, hi_open=True)):
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
    if q(m) == 0:
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
    vm = p(m)
    if vm == 0:
        return Interval.point(m)
    if (p(iv.lo) > 0) != (vm > 0):
        return Interval(iv.lo, m, lo_open=True, hi_open=True)
    return Interval(m, iv.hi, lo_open=True, hi_open=True)
