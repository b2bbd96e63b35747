"""Existential decision and envelope optimization over one real variable.

This is the engine behind every real-arithmetic query the procedures emit:
a conjunction of polynomial sign conditions on an interval, the cells of a
grid where a polynomial is positive, and the maximum of a pointwise minimum
of polynomials.  All three take one route to their roots: the breakpoints
of their polynomials on the interval (`_breakpoints`), and one rational
sample per cell between two consecutive breakpoints (`_sample`), on which
every polynomial keeps one sign.  `exists_sat` first tries a few fixed
rationals (`_SAMPLES`) and isolates roots only when none of them fits,
that is, to prove a query empty or to find a point they all miss.
Verdicts are exact rational and algebraic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import floor
from typing import Iterable, Optional, Sequence

from .algebraic import AlgebraicNumber, evaluate_poly_at
from .polynomials import Polynomial, simplest_between
from .roots import Interval, isolate_roots

_RELATIONS = {
    "<": (-1,),
    "<=": (-1, 0),
    "==": (0,),
    "!=": (-1, 1),
    ">": (1,),
    ">=": (0, 1),
}


@dataclass(frozen=True)
class SignCondition:
    """A polynomial compared against zero."""

    poly: Polynomial
    relation: str

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def admits_sign(self, sign: int) -> bool:
        return sign in _RELATIONS[self.relation]

    def holds_at(self, x: Fraction) -> bool:
        return self.admits_sign(self.poly.sign_at(x))

    def holds_at_algebraic(self, a: AlgebraicNumber) -> bool:
        return self.admits_sign(a.sign_of_poly_at(self.poly))

    def __str__(self) -> str:
        from .polynomials import format_polynomial

        return f"{format_polynomial(self.poly)} {self.relation} 0"


def _sorted_unique(nums: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    """nums sorted, each value once: the first of equal numbers is kept.
    The sort records its verdict on each pair it compares, so dropping an
    equal neighbour compares only a pair the sort never compared."""
    verdicts: dict[frozenset[int], int] = {}  # by the ids of the pair

    def compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
        verdicts[frozenset((id(a), id(b)))] = c = a.compare(b)
        return c

    ordered = sorted(nums, key=cmp_to_key(compare))
    out = ordered[:1]
    # a equals the last number kept iff it equals its neighbour in ordered
    for prev, a in zip(ordered, ordered[1:]):
        c = verdicts.get(frozenset((id(prev), id(a))))
        if (a.compare(prev) if c is None else c) != 0:
            out.append(a)
    return out


def _roots_in(poly: Polynomial, iv: Interval) -> list[AlgebraicNumber]:
    """The roots of poly in iv, built from isolate_roots' isolators as they
    are; only an irrational one needs poly's square-free part (which
    isolate_roots has then computed)."""
    return [
        AlgebraicNumber.from_rational(r.lo) if r.is_point
        else AlgebraicNumber(poly.square_free(), r)
        for r in isolate_roots(poly, iv)
    ]


def _breakpoints(
    polys: Iterable[Polynomial], iv: Interval
) -> list[AlgebraicNumber]:
    """The ends of iv and every root in its closure of each nonzero
    polynomial, sorted and distinct.  No polynomial changes sign inside a
    cell, the open interval between two consecutive breakpoints."""
    closure = iv.closure()
    points = [
        AlgebraicNumber.from_rational(iv.lo),
        AlgebraicNumber.from_rational(iv.hi),
    ]
    for p in polys:
        if not p.is_zero:
            points.extend(_roots_in(p, closure))
    return _sorted_unique(points)


def _sample(a: AlgebraicNumber, b: AlgebraicNumber) -> Fraction:
    """The simplest rational between the isolators of a < b, refined until
    they separate; it lies inside the cell (a, b)."""
    while True:
        la = a.rational_value if a.is_rational else a.interval.hi
        ub = b.rational_value if b.is_rational else b.interval.lo
        if la < ub:
            return simplest_between(la, ub)
        a, b = a.refined(), b.refined()


# The first ten rationals of the faithful witness search in (1/2, 1): by
# growing denominator, then growing numerator.
_SAMPLES = tuple(Fraction(a, b) for a, b in (
    (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (4, 7), (5, 7), (6, 7), (5, 8),
    (7, 8)))


def exists_sat(
    conds: Iterable[SignCondition], iv: Interval
) -> tuple[bool, Optional[Fraction]]:
    """Does some real in iv satisfy every condition?

    Tries the fixed samples in iv first and answers with the first that
    satisfies every condition.  Otherwise it isolates roots and walks the
    cells between the breakpoints of the condition polynomials left to
    right, one rational sample each, and answers with the first sample
    that satisfies every condition.  Only when no cell does are the
    breakpoints in iv tested; the witness is then the first rational one
    that satisfies them all, or None when only irrational ones do.
    """
    work: list[SignCondition] = []
    for c in conds:
        if c.poly.degree < 1:  # a constant holds everywhere or nowhere
            if not c.holds_at(iv.lo):
                return False, None
        else:
            work.append(c)
    if not work and not iv.is_point:  # the one cell is all of iv
        return True, simplest_between(iv.lo, iv.hi)
    for x in _SAMPLES:
        if iv.contains(x) and all(c.holds_at(x) for c in work):
            return True, x
    points = _breakpoints((c.poly for c in work), iv)
    for a, b in zip(points, points[1:]):
        x = _sample(a, b)
        if all(c.holds_at(x) for c in work):
            return True, x

    satisfiable = False
    last = len(points) - 1
    for i, b in enumerate(points):
        if i == 0 and iv.lo_open or i == last and iv.hi_open:
            continue
        if all(c.holds_at_algebraic(b) for c in work):
            if b.is_rational:
                return True, b.rational_value
            satisfiable = True
    return satisfiable, None


def _grid_position(
    x: AlgebraicNumber, origin: Fraction, step: Fraction
) -> tuple[int, bool]:
    """(n, on): x = origin + n*step if on, else x lies strictly between the
    grid points origin + n*step and origin + (n+1)*step."""
    while not x.is_rational:
        t_lo = (x.interval.lo - origin) / step
        n = floor(t_lo)
        if (x.interval.hi - origin) / step <= n + 1:
            return n, False
        # a grid point strictly inside the isolator: x is it iff it is a root
        if x.defining.sign_at(origin + (n + 1) * step) == 0:
            return n + 1, True
        x = x.refined()
    t = (x.rational_value - origin) / step
    return floor(t), t.denominator == 1


def positive_cells(
    q: Polynomial, lo: Fraction, hi: Fraction, k: int
) -> set[int]:
    """Indices j of the k equal cells [lo + j*w, lo + (j+1)*w] of [lo, hi]
    whose interior meets {x : q(x) > 0}.

    The roots of q are isolated once.  q has one sign on each open segment
    between consecutive breakpoints, read off one rational sample; a
    positive segment is open, so it meets a cell iff it meets the cell's
    interior, whichever ends the cell includes.
    """
    step = (hi - lo) / k
    points = _breakpoints([q], Interval(lo, hi))
    out: set[int] = set()
    for a, b in zip(points, points[1:]):
        if q.sign_at(_sample(a, b)) > 0:
            first, _ = _grid_position(a, lo, step)
            last, on = _grid_position(b, lo, step)
            out.update(range(first, last if on else last + 1))
    return out


def lower_envelope_max(
    polys: Sequence[Polynomial], iv: Interval
) -> tuple[AlgebraicNumber, AlgebraicNumber, bool]:
    """Maximum over the closure of iv of min(P(x) for P in polys).

    Returns (sup, argmax, attained).  attained is True iff some maximizer
    lies in iv itself, openness included.  The candidates are the interval
    ends, the roots of every derivative and the crossings of every two
    members.  Inside an open cell between consecutive candidates no member
    crosses another or turns, so one member is minimal on the whole cell and
    monotone there; one rational sample names it and its slope.  The
    envelope is continuous, so it peaks only at a candidate where it rises
    (or is flat) on the left and falls (or is flat) on the right.
    """
    polys = list(dict.fromkeys(polys))
    if not polys:
        raise ValueError("empty polynomial set")
    slopes = {p: p.derivative() for p in polys}
    crossings = [p - q for i, p in enumerate(polys) for q in polys[i + 1:]]
    candidates = _breakpoints(list(slopes.values()) + crossings, iv)

    # (active member, sign of its slope) per open cell; a point interval has
    # no cell, and its one candidate takes the member least there.
    cells: list[tuple[Polynomial, int]] = []
    for a, b in zip(candidates, candidates[1:]):
        x = _sample(a, b)
        p = min(polys, key=lambda q: q(x))
        cells.append((p, slopes[p].sign_at(x)))
    if not cells:
        cells.append((min(polys, key=lambda q: q(iv.lo)), 0))

    # At a peak the envelope equals the member of the cell on its left, or
    # on its right when there is none.
    peaks: list[tuple[int, AlgebraicNumber, AlgebraicNumber]] = []
    for i, a in enumerate(candidates):
        left = cells[i - 1] if i > 0 else None
        right = cells[i] if i < len(cells) else None
        if (left is None or left[1] >= 0) and (right is None or right[1] <= 0):
            member = (left or right)[0]
            peaks.append((i, a, evaluate_poly_at(member, a)))
    sup = peaks[0][2]
    for _, _, v in peaks[1:]:
        if v.compare(sup) > 0:
            sup = v
    winners = [(i, a) for i, a, v in peaks if v.compare(sup) == 0]
    last = len(candidates) - 1
    inside = [
        a for i, a in winners
        if not (i == 0 and iv.lo_open or i == last and iv.hi_open)
    ]
    return sup, (inside or [winners[0][1]])[0], bool(inside)
