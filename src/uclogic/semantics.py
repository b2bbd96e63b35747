"""Outcome enumeration, probability polynomials, and satisfaction.

The reliability rate of a single gate is the polynomial variable ``nu``; a
misfire pattern of width m with l correct gates has probability
nu^l (1-nu)^(m-l), stored in expanded dense form.

Success polynomials are computed bottom-up without listing outcomes: gates
misfire independently and a formula is a tree, so sibling subformulas share
no gate and their misfire-pattern counts combine by convolution.  The table
over all valuations comes from one post-order pass over classes of
valuations (`_classes`): bit i of a mask stands for the i-th canonical
valuation, a gate-free subtree is one truth mask computed bit-parallel, and
a gate convolves each non-empty intersection of its arguments' classes
once, merging equal count vectors at its output.  `success_polynomial` is
the same pass over a universe of one valuation.  Outcomes
are enumerated (2^m of them) only where they are the output: `ucl outcomes`
and o-formulas.  Both start from `outcome_parts`: the formula's
`outcome_template` and the m+1 probabilities, one per count of correct
gates.  An `Outcome` carries its misfire `pattern`, its printed `text` (one
fill of the template) and its `probability`; its `formula` tree is parsed
from the text only when asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import GateLimitError, ParseError, VariableLimitError
from .formulas import (
    CONNECTIVES, App, CFormula, Const, Var, fau, format_cformula,
    outcome_template, parse_cformula, variables,
)
from .polynomials import Polynomial, parse_polynomial

DEFAULT_MAX_GATES = 24
# Most variables of a success table: it has 2^n rows, and each class of
# valuations carries a mask of 2^n bits.
MAX_VARIABLES = 16


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


def outcome_parts(
    psi: CFormula, max_gates: int = DEFAULT_MAX_GATES
) -> tuple[str, list[tuple[str, str]], list[Polynomial]]:
    """(template, slots, by_correct): the `outcome_template` of psi and, per
    count l of correct gates, the probability by_correct[l] shared by every
    pattern with l correct gates.  psi is refused above max_gates before any
    of them is made."""
    m = _gate_count(psi, max_gates)
    template, slots = outcome_template(psi)
    return template, slots, [_expand([0] * l + [1] + [0] * (m - l))
                             for l in range(m + 1)]


def outcomes(
    psi: CFormula, max_gates: int = DEFAULT_MAX_GATES
) -> Iterator[Outcome]:
    """All 2^m outcomes in pattern-lexicographic order (False < True)."""
    template, slots, by_correct = outcome_parts(psi, max_gates)
    for bits, names in zip(itertools.product((False, True), repeat=len(slots)),
                           itertools.product(*slots)):
        yield Outcome(bits, template % names, by_correct[bits.count(False)])


def _convolve_into(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y


def _classes(
    node: CFormula, masks: Mapping[str, int], full: int
) -> Union[int, list[tuple[list[int], list[int], int]]]:
    """A mask is a set of valuations, bit i for the i-th: `full` holds every
    valuation of the universe, and `masks` maps each variable to those that
    make it True.  A gate-free node gives its truth mask.  Otherwise it
    gives its classes [(t, f, mask)]: the masks partition full, and under
    each valuation of a mask, t[l] (f[l]) counts the misfire patterns of the
    k unreliable gates inside node with exactly l correct under which node
    is True (False), so t[l] + f[l] = C(k, l)."""
    if isinstance(node, Var):
        try:
            return masks[node.name]
        except KeyError:
            raise KeyError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Const):
        return full if node.value else 0
    conn = node.conn
    spec = CONNECTIVES[conn.kind]
    # by[c]: the valuations under which c of the gate-free arguments are True
    by = [full]
    gated = []
    for i, arg in enumerate(node.args):
        sub = _classes(arg, masks, full)
        negate = i == 0 and spec.negate_first
        if isinstance(sub, int):
            if negate:
                sub ^= full
            by = [a & ~sub | b & sub for a, b in zip(by + [0], [0] + by)]
        else:
            gated.append([(f, t, m) for t, f, m in sub] if negate else sub)
    truth = [spec.true_when(c, conn.arity) for c in range(conn.arity + 1)]
    if not gated and not conn.unreliable:
        out = 0
        for c, m in enumerate(by):
            if truth[c]:
                out |= m
        return out
    # states (by_count, mask): under the valuations of mask, by_count[c][l]
    # counts the patterns of the arguments so far with c of them True
    states = [([[0]] * c + [[1]], m) for c, m in enumerate(by) if m]
    for sub in gated:
        nxt_states = []
        for by_count, mask in states:
            for t, f, m in sub:
                m &= mask
                if not m:
                    continue
                width = len(by_count[0]) + len(t) - 1
                nxt = [[0] * width for _ in range(len(by_count) + 1)]
                for c, d in enumerate(by_count):
                    _convolve_into(nxt[c], d, f)
                    _convolve_into(nxt[c + 1], d, t)
                nxt_states.append((nxt, m))
        states = nxt_states
    # equal count vectors merge here, at the output, and nowhere before
    merged: dict[tuple[int, ...], list] = {}
    for by_count, mask in states:
        t = [0] * len(by_count[0])
        f = [0] * len(by_count[0])
        for c, d in enumerate(by_count):
            acc = t if truth[c] else f
            for l, x in enumerate(d):
                acc[l] += x
        key = tuple(t)  # t fixes f, as t[l] + f[l] = C(k, l)
        if key in merged:
            merged[key][2] |= mask
        else:
            merged[key] = [t, f, mask]
    if not conn.unreliable:
        return [(t, f, m) for t, f, m in merged.values()]
    # a correct gate adds one to l and keeps the value; a misfire flips it
    return [
        ([a + b for a, b in zip([0] + t, f + [0])],
         [a + b for a, b in zip([0] + f, t + [0])], m)
        for t, f, m in merged.values()
    ]


def _count_classes(
    psi: CFormula, masks: Mapping[str, int], full: int
) -> list[tuple[tuple[int, ...], int]]:
    """(counts, mask) per class of valuations: counts[l] is the number of
    satisfied misfire patterns with l correct gates under each valuation of
    the mask."""
    top = _classes(psi, masks, full)
    if isinstance(top, int):  # a PL formula: the indicator of its truth value
        return [(c, m) for c, m in (((0,), full ^ top), ((1,), top)) if m]
    return [(tuple(t), m) for t, _, m in top]


def success_polynomial(
    psi: CFormula,
    valuation: Mapping[str, bool],
    max_gates: int = DEFAULT_MAX_GATES,
) -> Polynomial:
    """Aggregated probability of the outcomes of psi satisfied by the valuation."""
    _gate_count(psi, max_gates)
    # a universe of the one valuation
    masks = {name: 1 if value else 0 for name, value in valuation.items()}
    ((counts, _),) = _count_classes(psi, masks, 1)
    return _expand(counts)


def canonical_valuations(names: Sequence[str]) -> Iterator[dict[str, bool]]:
    """Valuations over sorted names, lexicographic with False < True."""
    names = sorted(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def check_valuation(
    valuation: Mapping[str, bool], names: Iterable[str], what: str = "valuation"
) -> None:
    """Raise ValueError unless the valuation assigns exactly the names."""
    names = set(names)
    missing = sorted(names - valuation.keys())
    if missing:
        raise ValueError(f"{what} misses variables: {missing}")
    unknown = sorted(valuation.keys() - names)
    if unknown:
        raise ValueError(f"{what} names variables not in the formula: {unknown}")


def _variable_masks(names: Sequence[str]) -> dict[str, int]:
    """Per name of the sorted names, the mask of the canonical valuations
    that make it True: bit i stands for the i-th canonical valuation."""
    n = len(names)
    masks = {}
    for j, name in enumerate(names):
        run = 1 << (n - 1 - j)  # the name alternates False and True per run
        pattern, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            pattern |= pattern << width
            width *= 2
        masks[name] = pattern
    return masks


def success_table(
    psi: CFormula, max_gates: int = DEFAULT_MAX_GATES
) -> list[tuple[dict[str, bool], Polynomial]]:
    """Success polynomial per valuation, canonical order.  The valuations of
    one class share one Polynomial object."""
    names = sorted(variables(psi))
    if len(names) > MAX_VARIABLES:
        raise VariableLimitError(len(names), MAX_VARIABLES)
    _gate_count(psi, max_gates)
    size = 1 << len(names)
    rows: list = [None] * size
    masks = _variable_masks(names)
    for counts, mask in _count_classes(psi, masks, (1 << size) - 1):
        p = _expand(counts)
        bits = format(mask, "b")[::-1]  # bits[i] is bit i of the mask
        i = bits.find("1")
        while i >= 0:
            rows[i] = p
            i = bits.find("1", i + 1)
    return list(zip(canonical_valuations(names), rows))


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
