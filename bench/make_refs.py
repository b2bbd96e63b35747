"""Write the committed reference pools `refs/circuits.json` and
`refs/kernel.json`.

    python3 bench/make_refs.py [circuits] [kernel]

Each pool item is a circuit with its success polynomials (as misfire counts,
from the outcome enumeration in `oracle.py`) and the expected answer of every
query the workload sends.  Root questions are settled exactly with sympy:
polynomials are factored over Q, irrational roots are isolated per
irreducible factor, and the sign of a polynomial R at a root of an
irreducible F is 0 exactly when F divides R.  Nothing here imports uclogic.
The output only depends on the pool definitions in `workloads.py`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import sympy
from sympy import QQ, Poly

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

NU = sympy.Symbol("nu")
HALF = Fraction(1, 2)
ONE = Fraction(1)


def to_poly(coeffs: list[Fraction]) -> Poly:
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return Poly(cs or [0], NU, domain=QQ)


def frac(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def ev(p: Poly, x: Fraction) -> Fraction:
    return frac(p.eval(sympy.Rational(x.numerator, x.denominator)))


class Point:
    """An exact real: a rational (a == b), or the only root of the
    irreducible polynomial F (degree >= 2, so no rational roots) in (a, b)."""

    def __init__(self, a: Fraction, b: Fraction, F: Poly | None = None):
        self.a, self.b, self.F = a, b, F

    @classmethod
    def rational(cls, r: Fraction) -> "Point":
        return cls(r, r)

    @property
    def is_rational(self) -> bool:
        return self.F is None

    def refine(self) -> None:
        if self.is_rational:
            return
        m = (self.a + self.b) / 2
        if sign(ev(self.F, m)) == sign(ev(self.F, self.a)):
            self.a = m
        else:
            self.b = m

    def sign_of(self, R: Poly) -> int:
        if R.is_zero:
            return 0
        if self.is_rational:
            return sign(ev(R, self.a))
        if R.rem(self.F).is_zero:
            return 0
        while R.count_roots(self.a, self.b) > 0:
            self.refine()
        return sign(ev(R, (self.a + self.b) / 2))

    def approx(self, R: Poly, bits: int = 200) -> tuple[Fraction, Fraction]:
        """R at this point, and a bound on the error of that value."""
        if self.is_rational:
            return ev(R, self.a), Fraction(0)
        while self.b - self.a > Fraction(1, 2 ** bits):
            self.refine()
        lipschitz = sum(abs(frac(c)) * i for i, c in
                        enumerate(reversed(R.all_coeffs())))
        return ev(R, (self.a + self.b) / 2), lipschitz * (self.b - self.a)


def compare(p: Point, q: Point) -> int:
    """Order of two distinct points (callers never hold one root twice).
    Irrational roots lie strictly inside their intervals, so touching
    intervals already order the points unless both are rational."""
    both_rational = p.is_rational and q.is_rational
    while True:
        if p.b < q.a or (p.b == q.a and not both_rational):
            return -1
        if q.b < p.a or (q.b == p.a and not both_rational):
            return 1
        p.refine()
        q.refine()


def breakpoints(polys: list[Poly], lo: Fraction, hi: Fraction) -> list[Point]:
    """The distinct real roots of the polynomials strictly inside (lo, hi),
    sorted."""
    factors: dict[tuple, Poly] = {}
    for p in polys:
        if p.is_zero or p.degree() < 1:
            continue
        for f, _ in p.factor_list()[1]:
            f = f.monic()
            factors[tuple(f.all_coeffs())] = f
    points = []
    for f in factors.values():
        if f.degree() == 1:
            c1, c0 = (frac(c) for c in f.all_coeffs())
            r = -c0 / c1
            if lo < r < hi:
                points.append(Point.rational(r))
            continue
        for (a, b), _ in f.intervals(inf=sympy.Rational(lo.numerator, lo.denominator),
                                     sup=sympy.Rational(hi.numerator, hi.denominator)):
            a, b = frac(a), frac(b)
            if not (lo <= a < b <= hi):
                raise AssertionError(f"isolating interval ({a}, {b}) outside ({lo}, {hi})")
            points.append(Point(a, b, f))
    return sorted(points, key=functools.cmp_to_key(compare))


def between(p: Point, q: Point) -> Fraction:
    """A rational strictly between the points p < q."""
    while not p.b < q.a:
        p.refine()
        q.refine()
    return (p.b + q.a) / 2


def open_samples(polys: list[Poly], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """One rational in each open cell of (lo, hi) cut at the polys' roots."""
    pts = [Point.rational(lo)] + breakpoints(polys, lo, hi) + [Point.rational(hi)]
    return [between(p, q) for p, q in zip(pts, pts[1:])]


def exists_positive(conds: list[Poly], lo: Fraction, hi: Fraction,
                    closed_hi: bool) -> bool:
    """Some nu in (lo, hi) (or (lo, hi]) with every cond > 0.  The conditions
    are strict, so their solution set is open inside (lo, hi): it meets the
    open interval iff it holds at a sample of some open cell."""
    if any(c.is_zero for c in conds):
        return False
    if closed_hi and all(ev(c, hi) > 0 for c in conds):
        return True
    return any(all(ev(c, x) > 0 for c in conds)
               for x in open_samples(conds, lo, hi))


# --- the expected answers ----------------------------------------------------


def expect_entails(polys: list[Poly], gamma: Poly) -> bool:
    one, half = to_poly([ONE]), to_poly([HALF])
    return not any(
        exists_positive([one - p, gamma - p, gamma - half], HALF, ONE, True)
        for p in polys)


def expect_sat(polys: list[Poly]) -> bool:
    one, half = to_poly([ONE]), to_poly([HALF])
    return any(ev(p, ONE) > HALF
               or exists_positive([p - half, one - p], HALF, ONE, False)
               for p in polys)


def expect_abduce(polys: list[Poly], mu: Fraction, k: int) -> list[int]:
    target = to_poly([mu])
    kept = []
    for j in range(k):
        lo = HALF + Fraction(j, 2 * k)
        hi = HALF + Fraction(j + 1, 2 * k)
        if not any(exists_positive([target - p], lo, hi, True) for p in polys):
            kept.append(j)
    return kept


def expect_decide_rate(polys: list[Poly], mu: Fraction) -> bool:
    conds = [p - to_poly([mu]) for p in polys]
    if all(ev(c, ONE) >= 0 for c in conds):
        return True
    if any(all(ev(c, x) >= 0 for c in conds)
           for x in open_samples(conds, HALF, ONE)):
        return True
    return any(all(pt.sign_of(c) >= 0 for c in conds)
               for pt in breakpoints(conds, HALF, ONE))


def expect_optimize(polys: list[Poly]) -> dict:
    """Maximum of min(1, min_v P_v) over [1/2, 1]; attained when a maximiser
    lies in (1/2, 1]; feasible when attained and above 1/2."""
    polys = polys + [to_poly([ONE])]
    cands = [Point.rational(HALF), Point.rational(ONE)]
    cuts = [p.diff(NU) for p in polys]
    cuts += [p - q for i, p in enumerate(polys) for q in polys[i + 1:]]
    cands += breakpoints([c for c in cuts if not c.is_zero], HALF, ONE)
    values = []
    for pt in cands:
        best = polys[0]
        for p in polys[1:]:
            if pt.sign_of(p - best) < 0:
                best = p
        values.append((pt, best) + pt.approx(best))

    def above(i: int, r: Fraction) -> int:
        """Exact sign of (envelope at candidate i) - r."""
        pt, best, v, err = values[i]
        if abs(v - r) > err:
            return sign(v - r)
        return pt.sign_of(best - to_poly([r]))

    at_half = values[0][2]  # exact: 1/2 is rational
    attained = any(above(i, at_half) >= 0 for i in range(1, len(values)))
    above_half = any(above(i, HALF) > 0 for i in range(len(values)))
    v = max(w for _, _, w, _ in values)
    with localcontext() as ctx:
        ctx.prec = 40
        sup = str(Decimal(v.numerator) / Decimal(v.denominator))
    return {"feasible": above_half and attained, "attained": attained,
            "sup": sup}


# --- the pools ---------------------------------------------------------------


def make_item(workload: str, family: str, n: int, m: int, variant: int) -> dict:
    circuit, gammas = workloads.pool_circuit(workload, family, n, m, variant)
    names = sorted(gen.variables(circuit))
    if len(names) != n or gen.gate_count(circuit) != m:
        raise AssertionError("generator missed its variable or gate count")
    counts = {oracle.valuation_key(v): oracle.misfire_counts(circuit, m, v)
              for v in oracle.canonical_valuations(names)}
    distinct = {tuple(c) for c in counts.values()}
    polys = [to_poly(oracle.counts_to_coeffs(list(c))) for c in sorted(distinct)]
    mu, k = workloads.ABDUCE[workload]
    expected = {
        "entails": {str(d): expect_entails(polys, to_poly(g))
                    for d, g in gammas.items()},
        "sat": expect_sat(polys),
        "abduce": expect_abduce(polys, mu, k),
        "optimize": expect_optimize(polys),
    }
    if workload == "circuits":
        expected["decide_rate"] = expect_decide_rate(polys, workloads.RATE_MU)
    return {
        "id": f"{workload}/{family}/{n}/{m}/{variant}",
        "stratum": f"{family}/{n}/{m}",
        "family": family, "n": n, "m": m,
        "formula": gen.format_formula(circuit),
        "gammas": {str(d): gen.format_poly(g) for d, g in gammas.items()},
        "vars": names,
        "distinct_polynomials": len(distinct),
        "counts": counts,
        "expected": expected,
    }


def main(argv: list[str]) -> None:
    strata = {"circuits": workloads.CIRCUIT_STRATA,
              "kernel": workloads.KERNEL_STRATA}
    for workload in argv or list(strata):
        started = time.perf_counter()
        items = [make_item(workload, fam, n, m, v)
                 for fam, n, m in strata[workload]
                 for v in range(workloads.POOL_VARIANTS[workload])]
        out = workloads.REFS / f"{workload}.json"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"workload": workload, "sympy": sympy.__version__,
                       "items": items}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{out}: {len(items)} items in "
              f"{time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
