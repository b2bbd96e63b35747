"""Seeded input generators for the benchmark.

Formulas are plain tuples so that nothing here depends on `uclogic`:

    ("var", name) | ("const", bool) | ("gate", kind, arity, unreliable, children)

`kind` is a base connective (`not`, `and`, ..., `maj`, `nmaj`); a majority
gate of arity 5 prints as `maj5`.  Every generator takes a `random.Random`
so that one seed fixes the whole input set.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

UNARY = ("not", "id")
BINARY = ("and", "nand", "or", "nor", "imp", "nimp", "iff", "xor")
MAJORITY = (("maj", 3), ("maj", 5), ("nmaj", 3))


def var_names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def random_circuit(
    rng: random.Random,
    n_vars: int,
    n_unreliable: int,
    maj_share: float,
    n_reliable: int,
) -> tuple:
    """A circuit over exactly `n_vars` variables with exactly `n_unreliable`
    unreliable gates among `n_unreliable + n_reliable` gates, of which
    `round(maj_share * total)` are majority gates.

    Gates are merged bottom-up from a shuffled pool of leaves, so the tree
    shape is random; binary gates are added if the leaves would not cover
    every variable.
    """
    total = n_unreliable + n_reliable
    n_maj = round(maj_share * total)
    gates = [rng.choice(MAJORITY) for _ in range(n_maj)]
    for _ in range(total - n_maj):
        if rng.random() < 0.2:
            gates.append((rng.choice(UNARY), 1))
        else:
            gates.append((rng.choice(BINARY), 2))
    # a tree whose gates have arities a_i has 1 + sum(a_i - 1) leaves
    while 1 + sum(a - 1 for _, a in gates) < n_vars:
        gates.append((rng.choice(BINARY), 2))
    rng.shuffle(gates)
    unreliable = set(rng.sample(range(len(gates)), n_unreliable))
    names = var_names(n_vars)
    n_leaves = 1 + sum(a - 1 for _, a in gates)
    leaves = names + [rng.choice(names) for _ in range(n_leaves - n_vars)]
    pool = [("var", x) for x in leaves]
    rng.shuffle(pool)
    for i, (kind, arity) in enumerate(gates):
        children = tuple(pool.pop(rng.randrange(len(pool))) for _ in range(arity))
        pool.append(("gate", kind, arity, i in unreliable, children))
    assert len(pool) == 1
    return pool[0]


def ambition_bound(rng: random.Random, degree: int) -> list[Fraction]:
    """Monomial coefficients (constant first) of a degree-`degree` ambition
    bound G = 1/2 + 1/2 * sum_i w_i B_{i,d}(2 nu - 1), a Bernstein form on
    nu in [1/2, 1] with weights in [0, 1]; only the top four weights are
    nonzero, so G stays near 1/2 for small nu and rises steeply to
    G(1) = 1/2 + w_d / 2.  Success rates of redundant circuits cross it
    inside (1/2, 1) or stay above it, so entailment verdicts are mixed.
    """
    w = [Fraction(0)] * (degree + 1)
    w[degree] = Fraction(rng.randint(4, 8), 8)
    for i in range(degree - 3, degree):
        w[i] = Fraction(rng.randint(0, 8), 8)
    t = [Fraction(-1), Fraction(2)]  # 2 nu - 1
    one_minus_t = [Fraction(2), Fraction(-2)]  # 1 - t = 2 - 2 nu
    coeffs = [Fraction(0)] * (degree + 1)
    for i, wi in enumerate(w):
        if wi:
            term = [wi * comb(degree, i) / 2]
            for factor in [t] * i + [one_minus_t] * (degree - i):
                term = _mul(term, factor)
            coeffs = [a + b for a, b in zip(coeffs, term)]
    coeffs[0] += Fraction(1, 2)
    return coeffs


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --- printing ---------------------------------------------------------------


def gate_name(kind: str, arity: int, unreliable: bool) -> str:
    base = f"{kind}{arity}" if kind in ("maj", "nmaj") else kind
    return base + ("?" if unreliable else "")


def format_formula(f: tuple) -> str:
    if f[0] == "var":
        return f[1]
    if f[0] == "const":
        return "T" if f[1] else "F"
    _, kind, arity, unreliable, children = f
    inner = " ".join([gate_name(kind, arity, unreliable)]
                     + [format_formula(c) for c in children])
    return f"({inner})"


def format_poly(coeffs: list[Fraction]) -> str:
    """Descending-power text in the `ucl` polynomial dialect."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = "nu" if k == 1 else f"nu^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(parts) or "0"


def gate_count(f: tuple) -> int:
    if f[0] != "gate":
        return 0
    return int(f[3]) + sum(gate_count(c) for c in f[4])


def variables(f: tuple) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    if f[0] == "const":
        return set()
    return set().union(*(variables(c) for c in f[4]))


# --- the reliable corpus of acceptance criterion 5 ------------------------
#
# Every op assignment of every tree shape below: 4,570 reliable formulas
# over at most three variables, up to depth 4.

_SHAPES = [
    "x1",
    "T",
    ("u", "x1"),
    ("b", "x1", "x2"),
    ("b", "x1", "T"),
    ("b", "F", "x2"),
    ("b", "x1", "x1"),
    ("u", ("u", "x1")),
    ("b", ("u", "x1"), "x1"),
    ("u", ("b", "x1", "x2")),
    ("b", ("b", "x1", "x2"), "x3"),
    ("b", "x1", ("u", "x2")),
    ("m", "x1", "x2", "x3"),
    ("b", ("b", "x1", "x2"), ("b", "x3", "x1")),
    ("u", ("b", ("b", "x1", "x2"), "x3")),
    ("b", ("b", ("b", "x1", "x2"), "x3"), "x1"),
    ("b", ("m", "x1", "x2", "x3"), ("u", "x1")),
    ("u", ("u", ("b", "x1", ("u", "x3")))),
    ("b", ("b", ("b", "x1", "x2"), ("b", "x3", "x1")), ("u", "x2")),
    ("b", ("b", ("b", ("b", "x1", "x2"), "x3"), "x1"), "x2"),
]
_OPS = {"u": ("not", "id"), "b": ("and", "or", "imp", "iff", "xor", "nor"),
        "m": ("maj", "nmaj")}
_ARITY = {"u": 1, "b": 2, "m": 3}


def _slots(shape) -> list[str]:
    if isinstance(shape, str):
        return []
    return [shape[0]] + [s for c in shape[1:] for s in _slots(c)]


def _instantiate(shape, ops) -> tuple:
    if isinstance(shape, str):
        if shape in ("T", "F"):
            return ("const", shape == "T")
        return ("var", shape)
    kind = next(ops)
    children = tuple(_instantiate(c, ops) for c in shape[1:])
    return ("gate", kind, _ARITY[shape[0]], False, children)


def pl_corpus() -> list[tuple]:
    out = []
    for shape in _SHAPES:
        for combo in itertools.product(*(_OPS[s] for s in _slots(shape))):
            out.append(_instantiate(shape, iter(combo)))
    return out
