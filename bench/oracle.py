"""Benchmark-side reference evaluator, independent of `uclogic`.

Exact arithmetic over `Fraction` only.  A success polynomial is kept as its
misfire counts: c[k] is the number of misfire patterns with k misfired gates
under which the circuit is true at the valuation, so

    P_v(nu) = sum_k c[k] * nu^(m-k) * (1 - nu)^k.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb

_COUNTERPART = {
    "not": "id", "id": "not", "and": "nand", "nand": "and", "or": "nor",
    "nor": "or", "imp": "nimp", "nimp": "imp", "iff": "xor", "xor": "iff",
    "maj": "nmaj", "nmaj": "maj",
}


def _apply(kind: str, vals: list[bool]) -> bool:
    if kind == "not":
        return not vals[0]
    if kind == "id":
        return vals[0]
    a = vals[0]
    if kind in ("maj", "nmaj"):
        out = 2 * sum(vals) > len(vals)
        return out if kind == "maj" else not out
    b = vals[1]
    return {
        "and": a and b, "nand": not (a and b), "or": a or b,
        "nor": not (a or b), "imp": (not a) or b, "nimp": a and not b,
        "iff": a == b, "xor": a != b,
    }[kind]


def evaluate(f: tuple, valuation: dict[str, bool], misfires=()) -> bool:
    """Truth value of f with the unreliable gates, in depth-first pre-order,
    misfiring where `misfires` yields True.  With no pattern every gate is
    taken as reliable: the classical truth value."""
    bits = iter(misfires)

    def walk(node: tuple) -> bool:
        if node[0] == "var":
            return valuation[node[1]]
        if node[0] == "const":
            return node[1]
        _, kind, _, unreliable, children = node
        # pre-order: the gate's own bit comes before its children's bits
        if unreliable and next(bits, False):
            kind = _COUNTERPART[kind]
        return _apply(kind, [walk(c) for c in children])

    return walk(f)


def misfire_counts(f: tuple, m: int, valuation: dict[str, bool]) -> list[int]:
    """c[k] over all 2^m misfire patterns (the outcome enumeration)."""
    c = [0] * (m + 1)
    for bits in itertools.product((False, True), repeat=m):
        if evaluate(f, valuation, bits):
            c[sum(bits)] += 1
    return c


def counts_to_coeffs(c: list[int]) -> list[Fraction]:
    """Monomial coefficients, constant first, of sum_k c[k] nu^(m-k) (1-nu)^k."""
    m = len(c) - 1
    out = [Fraction(0)] * (m + 1)
    for k, ck in enumerate(c):
        if ck:
            for j in range(k + 1):
                out[m - k + j] += ck * comb(k, j) * (-1) ** j
    return trim(out)


def peval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def trim(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*?)?(nu(?:\^(\d+))?)?\Z")


def parse_poly(text: str) -> list[Fraction]:
    """Coefficients of text in the `ucl` canonical polynomial format
    (``2*nu^2 - 3/4*nu + 1``), constant first, trailing zeros trimmed."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for tok in text.replace(" - ", " + -").split(" + "):
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        else:
            sign = 1
        m = _TERM.match(tok)
        if m is None or not tok:
            raise ValueError(f"unreadable polynomial term {tok!r} in {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        power = 0 if not m.group(2) else int(m.group(3) or 1)
        terms.append((power, sign * coeff))
    out = [Fraction(0)] * (max(p for p, _ in terms) + 1)
    for p, c in terms:
        out[p] += c
    return trim(out)


def truth_table(f: tuple, names: list[str]) -> tuple[bool, bool]:
    """(valid, satisfiable) of a reliable formula over `names`."""
    vals = [
        evaluate(f, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    ]
    return all(vals), any(vals)


def valuation_key(valuation: dict[str, bool]) -> str:
    """Bits of the valuation over its sorted names, e.g. '0110'."""
    return "".join("1" if valuation[k] else "0" for k in sorted(valuation))


def canonical_valuations(names: list[str]):
    names = sorted(names)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))
