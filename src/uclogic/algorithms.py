"""The five reasoning procedures for circuits with unreliable gates.

Each procedure builds per-valuation success polynomials and dispatches
univariate sign queries to the exact kernel, once per distinct polynomial,
since many valuations share one.  The procedures monotone in the success
polynomial (enta, arr, rrd, osc) send only the least polynomials on
[1/2, 1] (see _least).  The required success rate mu never
reaches the kernel: it is bounded only from below by strict terms and from
above by non-strict terms, so it is eliminated symbolically (see enta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Mapping, Optional, Sequence

from .algebraic import AlgebraicNumber
from .decide import SignCondition, exists_sat, lower_envelope_max, positive_cells
from .formulas import CFormula, variables
from .polynomials import ONE, Polynomial, simplest_between
from .roots import Interval, bernstein
from .semantics import (
    DEFAULT_MAX_GATES,
    AmbitionFormula,
    check_valuation,
    success_table,
)

HALF = Fraction(1, 2)
_HALF_OPEN_UNIT = Interval(HALF, 1, lo_open=True, hi_open=False)
_OPEN_UNIT = Interval(HALF, 1, lo_open=True, hi_open=True)

# Smallest accepted optimum tolerance: eps's denominator may have at most
# this many bits, so eps > 2^-1024.  Certifying the pair refines the optimum
# to about eps, one bisection per bit.
MAX_EPS_BITS = 1024
# Finest accepted abduction grid: k cells of (1/2, 1], each listed.
MAX_GRID_CELLS = 4096


@dataclass(frozen=True)
class EntaQuery:
    psi: CFormula
    gamma: tuple[AmbitionFormula, ...] = ()


@dataclass(frozen=True)
class WitnessResult:
    found: bool
    valuation: Optional[Mapping[str, bool]] = None
    nu: Optional[Fraction] = None
    mu: Optional[Fraction] = None


@dataclass(frozen=True)
class AbductionResult:
    intervals: tuple[Interval, ...]


@dataclass(frozen=True)
class Optimum:
    feasible: bool
    mu_star: Optional[AlgebraicNumber] = None
    nu_star: Optional[AlgebraicNumber] = None
    attained: bool = False
    certified_pair: Optional[tuple[Fraction, Fraction]] = None
    diagnostic: str = ""


def _least(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The distinct polys in first-occurrence order, less every p that lies
    at or above another member q on [1/2, 1] by the Bernstein bound.

    A polynomial's Bernstein coefficients on an interval enclose its values
    there, so when those of p - q on [1/2, 1] are all >= 0, p >= q on the
    closed interval.  At the common degree d, with p = n(x) / L its
    (nums, den), `roots.bernstein` gives them as the integers
    c_i = 2^d * L * C(d, i) * b_i, and the test is
    c(p) * L(q) >= c(q) * L(p) elementwise.  A dominating q has
    a smaller sum c / L and dominance is transitive, so deciding candidates
    by ascending sum against the survivors so far drops exactly the
    dominated.
    """
    distinct = list(dict.fromkeys(polys))
    d = max([0] + [p.degree for p in distinct])
    bern = [(bernstein(p.nums, _HALF_OPEN_UNIT, d), p.den) for p in distinct]
    kept: list[int] = []
    for i in sorted(range(len(distinct)),
                    key=lambda i: Fraction(sum(bern[i][0]), bern[i][1])):
        ci, li = bern[i]
        if not any(all(x * lj >= y * li for x, y in zip(ci, cj))
                   for cj, lj in (bern[j] for j in kept)):
            kept.append(i)
    return [distinct[i] for i in sorted(kept)]


def enta(query: EntaQuery, max_gates: int = DEFAULT_MAX_GATES) -> bool:
    """Is psi entailed by the ambition formulas, over every interpretation?

    Per valuation v, a countermodel exists iff some nu in (1/2, 1] admits a
    mu with  max(1/2, P_v(nu)) < mu <= min(1, min_g G(nu)).  The lower bounds
    on mu are strict and the upper ones are not, so mu exists exactly when
    every upper bound strictly exceeds every lower bound; that is a single
    conjunction of sign conditions in nu alone.
    """
    bounds = [
        (g.bound, SignCondition(g.bound - Polynomial.constant(HALF), ">"))
        for g in query.gamma
    ]
    table = success_table(query.psi, max_gates=max_gates)
    # a member below p has a countermodel wherever p has one
    for p in _least(p for _, p in table):
        conds = [SignCondition(ONE - p, ">")]
        for b, above_half in bounds:
            conds += [SignCondition(b - p, ">"), above_half]
        found, _ = exists_sat(conds, _HALF_OPEN_UNIT)
        if found:
            return False
    return True


def _exceeds_half(p: Polynomial) -> tuple[bool, Optional[Fraction]]:
    """(found, nu): P(nu) > 1/2 at nu = 1, else 1/2 < P(nu) < 1 at some
    nu in (1/2, 1); nu = 1 in the first case."""
    if p(1) > HALF:
        return True, Fraction(1)
    return exists_sat(
        [SignCondition(p - Polynomial.constant(HALF), ">"),
         SignCondition(ONE - p, ">")],
        _OPEN_UNIT,
    )


def pmc(
    psi: CFormula,
    mode: str = "faithful",
    start_valuation: Optional[Mapping[str, bool]] = None,
    max_gates: int = DEFAULT_MAX_GATES,
) -> WitnessResult:
    """Construct a satisfying interpretation, or report that none exists.

    Faithful mode returns the witness produced by checking nu = 1 first and
    then enumerating fractions nu1/nu2 by growing denominator; fast mode
    returns the kernel's witness directly, which is the faithful one
    whenever that has denominator at most 8.  Valuations keep their order,
    since the witness depends on it; a polynomial that failed is not retried.
    """
    if mode not in ("faithful", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    table = success_table(psi, max_gates=max_gates)
    order: Sequence[int] = range(len(table))
    if start_valuation is not None:
        names = sorted(variables(psi))
        check_valuation(start_valuation, names, "start valuation")
        # rows come in canonical order: row i's valuation is i in binary
        first = sum(bool(start_valuation[n]) << (len(names) - 1 - j)
                    for j, n in enumerate(names))
        order = [first, *range(first), *range(first + 1, len(table))]
    failed: set[Polynomial] = set()
    for i in order:
        v, p = table[i]
        if p in failed:
            continue
        found, nu = _exceeds_half(p)
        if not found:
            failed.add(p)
            continue
        if mode == "fast" or nu == 1:
            assert nu is not None  # strict conditions: open satisfying set
            return WitnessResult(True, v, nu, p(nu))
        den = 3
        while True:
            for num in range(ceil((den + 1) / 2), den):
                nu = Fraction(num, den)
                if p(nu) > HALF:
                    return WitnessResult(True, v, nu, p(nu))
            den += 1
    return WitnessResult(False)


def sat(psi: CFormula, max_gates: int = DEFAULT_MAX_GATES) -> bool:
    """Satisfiability: some valuation passes the nu = 1 test or the interior
    query 1/2 < P_v(nu) < 1 for some nu in (1/2, 1)."""
    table = success_table(psi, max_gates=max_gates)
    return any(_exceeds_half(p)[0] for p in dict.fromkeys(p for _, p in table))


def _check_mu(mu_bar: Fraction) -> Fraction:
    mu_bar = Fraction(mu_bar)
    if not HALF < mu_bar <= 1:
        raise ValueError(f"target success rate must lie in (1/2, 1], got {mu_bar}")
    return mu_bar


def arr(
    psi: CFormula,
    mu_bar: Fraction,
    k: int,
    max_gates: int = DEFAULT_MAX_GATES,
) -> AbductionResult:
    """Grid intervals of reliability rates that guarantee success rate mu_bar.

    The grid cell (1/2 + j/2k, 1/2 + (j+1)/2k] is kept iff for every
    valuation the counterexample query exists nu in the cell with
    mu_bar > P_v(nu) is unsatisfiable.  The roots of mu_bar - P are isolated
    once per distinct P, and all k cells are classified from them.
    """
    mu_bar = _check_mu(mu_bar)
    if k < 1:
        raise ValueError("k must be a positive natural number")
    if k > MAX_GRID_CELLS:
        raise ValueError(
            f"k = {k} exceeds the limit of {MAX_GRID_CELLS} grid cells"
        )
    table = success_table(psi, max_gates=max_gates)
    target = Polynomial.constant(mu_bar)
    excluded: set[int] = set()
    # a member below p excludes every cell that p excludes
    for p in _least(p for _, p in table):
        excluded |= positive_cells(target - p, HALF, Fraction(1), k)
    return AbductionResult(tuple(
        Interval(HALF + Fraction(j, 2 * k), HALF + Fraction(j + 1, 2 * k),
                 lo_open=True, hi_open=False)
        for j in range(k) if j not in excluded
    ))


def rrd(
    psi: CFormula, mu_bar: Fraction, max_gates: int = DEFAULT_MAX_GATES
) -> bool:
    """Is there one reliability rate giving success rate mu_bar under every
    valuation?"""
    mu_bar = _check_mu(mu_bar)
    table = success_table(psi, max_gates=max_gates)
    # p >= mu_bar wherever a member below p is
    conds = [
        SignCondition(p - Polynomial.constant(mu_bar), ">=")
        for p in _least(p for _, p in table)
    ]
    found, _ = exists_sat(conds, _HALF_OPEN_UNIT)
    return found


def osc(
    psi: CFormula,
    eps: Fraction = Fraction(1, 10**6),
    max_gates: int = DEFAULT_MAX_GATES,
) -> Optimum:
    """Maximize the circuit success rate over reliability rates in (1/2, 1].

    The best achievable rate at nu is g(nu) = min over valuations of
    P_v(nu), capped at 1; the optimum is the maximum of this lower envelope.
    Feasible means the maximum exceeds 1/2 and is attained inside the
    half-open interval; a supremum only approached at the excluded boundary
    admits no witnessing interpretation.  The envelope is taken over the
    least members only, which leaves its values on [1/2, 1] unchanged.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps.denominator.bit_length() > MAX_EPS_BITS:
        raise ValueError(
            f"eps has a {eps.denominator.bit_length()}-bit denominator, over "
            f"the limit of {MAX_EPS_BITS} bits"
        )
    table = success_table(psi, max_gates=max_gates)
    polys = _least([p for _, p in table] + [ONE])
    sup, argmax, attained = lower_envelope_max(polys, _HALF_OPEN_UNIT)
    half_alg = AlgebraicNumber.from_rational(HALF)
    above_half = sup.compare(half_alg) > 0
    if not above_half:
        return Optimum(
            False,
            mu_star=sup,
            nu_star=argmax,
            attained=attained,
            diagnostic=(
                f"infeasible: supremum {_render(sup, eps)} of the success rate "
                "is <= 1/2, below every admissible ambition"
            ),
        )
    if not attained:
        return Optimum(
            False,
            mu_star=sup,
            nu_star=argmax,
            attained=False,
            diagnostic=(
                f"infeasible: supremum {_render(sup, eps)} is not attained "
                f"(open boundary at nu = {_render(argmax, eps)})"
            ),
        )
    pair = _certified_pair(polys, argmax, sup, eps, _HALF_OPEN_UNIT)
    return Optimum(True, mu_star=sup, nu_star=argmax, attained=True,
                   certified_pair=pair)


def _render(a: AlgebraicNumber, eps: Fraction) -> str:
    if a.is_rational:
        return str(a.rational_value)
    return f"~{float(a.approximate(eps)):.10g}"


def _envelope_value(polys: Sequence[Polynomial], x: Fraction) -> Fraction:
    return min(p(x) for p in polys)


def _certified_pair(
    polys: Sequence[Polynomial],
    argmax: AlgebraicNumber,
    sup: AlgebraicNumber,
    eps: Fraction,
    iv: Interval,
) -> tuple[Fraction, Fraction]:
    """Rational (nu, mu) with mu <= g(nu) exactly and sup - mu <= eps."""
    if argmax.is_rational:
        nu_hat = argmax.rational_value
        return nu_hat, _envelope_value(polys, nu_hat)
    # refined once here, so no comparison below starts from the coarse
    # isolator again
    sup = sup.refined_below(eps / 4)
    a = argmax
    while True:
        a = a.refined()
        lo, hi = a.interval.lo, a.interval.hi
        for nu_hat in (simplest_between(lo, hi), lo, hi):
            if not iv.contains(nu_hat):
                continue
            mu_hat = _envelope_value(polys, nu_hat)
            if mu_hat <= HALF:
                continue
            # sup - mu_hat <= eps, decided exactly
            if sup.compare(AlgebraicNumber.from_rational(mu_hat + eps)) <= 0:
                return nu_hat, mu_hat
