"""Outcome enumeration, probability polynomials, and satisfaction.

The reliability rate of a single gate is the polynomial variable ``nu``; a
misfire pattern of width m with l correct gates has probability
nu^l (1-nu)^(m-l), stored in expanded dense form.

Success polynomials are computed bottom-up without listing outcomes: gates
misfire independently and a formula is a tree, so sibling subformulas share
no gate and their misfire-pattern counts combine by convolution.  Outcomes
are enumerated (2^m of them) only where they are the output: `outcomes` and
o-formulas.  An `Outcome` carries its misfire `pattern`, its printed `text`
(one fill of the formula's `outcome_template`) and its `probability`; its
`formula` tree is parsed from the text only when asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import GateLimitError, ParseError
from .formulas import (
    CONNECTIVES, App, CFormula, eval_pl, fau, format_cformula,
    outcome_template, parse_cformula, variables,
)
from .polynomials import Polynomial, parse_polynomial

DEFAULT_MAX_GATES = 24


class Outcome(NamedTuple):
    pattern: tuple[bool, ...]
    text: str
    probability: Polynomial

    @property
    def formula(self) -> CFormula:
        """Parsed from `text`, so nesting deeper than MAX_DEPTH is refused."""
        return parse_cformula(self.text)


def _expand(counts: Sequence[int]) -> Polynomial:
    """Expanded sum of counts[l] * nu^l (1-nu)^(m-l), m = len(counts) - 1."""
    m = len(counts) - 1
    coeffs = [0] * (m + 1)
    for l, c in enumerate(counts):
        if c:
            for j in range(m - l + 1):
                coeffs[l + j] += c * comb(m - l, j) * (-1) ** j
    return Polynomial(coeffs)


def pattern_probability(pattern: Sequence[bool]) -> Polynomial:
    """Expanded nu^l (1-nu)^(m-l) where l = number of False (correct) bits."""
    counts = [0] * (len(pattern) + 1)
    counts[sum(1 for b in pattern if not b)] = 1
    return _expand(counts)


def outcome_probability(psi: CFormula, pattern: Sequence[bool]) -> Polynomial:
    if len(pattern) != len(fau(psi)):
        raise ValueError("pattern length does not match the unreliable gate count")
    return pattern_probability(pattern)


def _gate_count(psi: CFormula, max_gates: int) -> int:
    """Number of unreliable gates of psi, refused when above max_gates."""
    m = len(fau(psi))
    if m > max_gates:
        raise GateLimitError(m, max_gates)
    return m


def outcomes(
    psi: CFormula, max_gates: int = DEFAULT_MAX_GATES
) -> Iterator[Outcome]:
    """All 2^m outcomes in pattern-lexicographic order (False < True)."""
    m = _gate_count(psi, max_gates)
    # a pattern's probability depends only on its count l of correct gates
    by_correct = [pattern_probability((False,) * l + (True,) * (m - l))
                  for l in range(m + 1)]
    template, slots = outcome_template(psi)
    for bits, names in zip(itertools.product((False, True), repeat=m),
                           itertools.product(*slots)):
        yield Outcome(bits, template % names, by_correct[bits.count(False)])


def _convolve_into(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y


def _pattern_counts(
    node: CFormula, valuation: Mapping[str, bool]
) -> tuple[list[int], list[int]]:
    """(t, f): over the misfire patterns of the k unreliable gates inside
    node, t[l] (f[l]) counts those with exactly l correct gates under which
    node is True (False), so t[l] + f[l] = C(k, l)."""
    if not isinstance(node, App):
        return ([1], [0]) if eval_pl(node, valuation) else ([0], [1])
    conn = node.conn
    spec = CONNECTIVES[conn.kind]
    # by_count[c][l]: patterns of the arguments so far with c of them True
    by_count = [[1]]
    for i, arg in enumerate(node.args):
        t, f = _pattern_counts(arg, valuation)
        if i == 0 and spec.negate_first:
            t, f = f, t
        if len(t) == 1:  # no gate inside: the argument only shifts the count
            zero = [0] * len(by_count[0])
            by_count = [zero] + by_count if t[0] else by_count + [zero]
            continue
        width = len(by_count[0]) + len(t) - 1
        nxt = [[0] * width for _ in range(len(by_count) + 1)]
        for c, d in enumerate(by_count):
            _convolve_into(nxt[c], d, f)
            _convolve_into(nxt[c + 1], d, t)
        by_count = nxt
    t = [0] * len(by_count[0])
    f = [0] * len(by_count[0])
    for c, d in enumerate(by_count):
        acc = t if spec.true_when(c, conn.arity) else f
        for l, x in enumerate(d):
            acc[l] += x
    if conn.unreliable:
        # a correct gate adds one to l and keeps the value; a misfire flips it
        t, f = (
            [a + b for a, b in zip([0] + t, f + [0])],
            [a + b for a, b in zip([0] + f, t + [0])],
        )
    return t, f


def _success_counts(
    psi: CFormula, valuation: Mapping[str, bool], gates: int
) -> tuple[int, ...]:
    """Counts of the satisfied misfire patterns, by number of correct gates."""
    if not gates:  # a PL formula: the indicator of its truth value
        return (int(eval_pl(psi, valuation)),)
    return tuple(_pattern_counts(psi, valuation)[0])


def success_polynomial(
    psi: CFormula,
    valuation: Mapping[str, bool],
    max_gates: int = DEFAULT_MAX_GATES,
) -> Polynomial:
    """Aggregated probability of the outcomes of psi satisfied by the valuation."""
    return _expand(_success_counts(psi, valuation, _gate_count(psi, max_gates)))


def canonical_valuations(names: Sequence[str]) -> Iterator[dict[str, bool]]:
    """Valuations over sorted names, lexicographic with False < True."""
    names = sorted(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def success_table(
    psi: CFormula, max_gates: int = DEFAULT_MAX_GATES
) -> list[tuple[dict[str, bool], Polynomial]]:
    """Success polynomial per valuation, canonical order.  Valuations with
    one count vector share one Polynomial object."""
    m = _gate_count(psi, max_gates)
    table = [(v, _success_counts(psi, v, m))
             for v in canonical_valuations(variables(psi))]
    polys = {c: _expand(c) for c in {c for _, c in table}}
    return [(v, polys[c]) for v, c in table]


@dataclass(frozen=True)
class AmbitionFormula:
    """mu <= P, with P a polynomial in nu only."""

    bound: Polynomial

    def __str__(self) -> str:
        from .polynomials import format_polynomial

        return f"mu <= {format_polynomial(self.bound)}"


def parse_ambition(text: str) -> AmbitionFormula:
    head, sep, rest = text.partition("<=")
    if not sep or head.strip() != "mu":
        raise ParseError("ambition formula must have the form 'mu <= P'")
    if "mu" in rest:
        raise ParseError("mu may not occur in the bound of an ambition formula")
    return AmbitionFormula(parse_polynomial(rest))


@dataclass(frozen=True)
class OutcomeFormula:
    """An o-formula: the outcomes in `members` of `target` carry probability
    at least `bound`."""

    members: tuple[CFormula, ...]
    bound: Polynomial
    target: CFormula


@dataclass(frozen=True)
class Interpretation:
    valuation: Mapping[str, bool]
    nu: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "nu", Fraction(self.nu))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if not Fraction(1, 2) < self.nu <= 1:
            raise ValueError(f"nu must lie in (1/2, 1], got {self.nu}")
        if not Fraction(1, 2) < self.mu <= 1:
            raise ValueError(f"mu must lie in (1/2, 1], got {self.mu}")


UCLFormula = Union[CFormula, OutcomeFormula, AmbitionFormula]


def satisfies(
    interp: Interpretation,
    formula: UCLFormula,
    max_gates: int = DEFAULT_MAX_GATES,
) -> bool:
    """Exact rational satisfaction check for c-, o-, and a-formulas."""
    if isinstance(formula, AmbitionFormula):
        return interp.mu <= formula.bound(interp.nu)
    if isinstance(formula, OutcomeFormula):
        by_text = {
            o.text: o.probability
            for o in outcomes(formula.target, max_gates=max_gates)
        }
        total = Polynomial()
        for member in formula.members:
            text = format_cformula(member)
            try:
                total = total + by_text[text]
            except KeyError:
                raise ValueError(f"{text} is not an outcome of the target") from None
        return formula.bound(interp.nu) <= total(interp.nu)
    p = success_polynomial(formula, interp.valuation, max_gates=max_gates)
    return interp.mu <= p(interp.nu)
