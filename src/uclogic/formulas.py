"""Circuit-formula ASTs: connectives, parsing, printing, classical evaluation.

Grammar (prefix, whitespace-separated)::

    formula := var | "T" | "F" | "(" op formula* ")"
    op      := base | base "?"        -- "?" marks an unreliable gate
    base    := not | id | and | nand | or | nor | imp | nimp | iff | xor
             | majN | nmajN           -- N odd, >= 3

Every gate has a negated-output counterpart (not/id, and/nand, or/nor,
imp/nimp, iff/xor, maj/nmaj); a misfiring unreliable gate behaves as the
counterpart of its base connective.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .errors import ParseError

class ConnectiveSpec(NamedTuple):
    arity: int | None  # None: any odd arity >= 3
    counterpart: str
    negate_first: bool  # count the first argument negated: imp(a, b) = or(not a, b)
    true_when: Callable[[int, int], bool]  # (count of true arguments, arity)


# The one connective table: parsing, validation, counterparts, eval_pl and
# semantics._classes read it.  Each kind has its own truth function,
# so that a counterpart negates its mate as a checked fact, not by definition.
CONNECTIVES = {
    "not": ConnectiveSpec(1, "id", False, lambda c, n: c == 0),
    "id": ConnectiveSpec(1, "not", False, lambda c, n: c == 1),
    "and": ConnectiveSpec(2, "nand", False, lambda c, n: c == n),
    "nand": ConnectiveSpec(2, "and", False, lambda c, n: c < n),
    "or": ConnectiveSpec(2, "nor", False, lambda c, n: c > 0),
    "nor": ConnectiveSpec(2, "or", False, lambda c, n: c == 0),
    "imp": ConnectiveSpec(2, "nimp", True, lambda c, n: c > 0),
    "nimp": ConnectiveSpec(2, "imp", True, lambda c, n: c == 0),
    "iff": ConnectiveSpec(2, "xor", False, lambda c, n: c != 1),
    "xor": ConnectiveSpec(2, "iff", False, lambda c, n: c == 1),
    "maj": ConnectiveSpec(None, "nmaj", False, lambda c, n: 2 * c > n),
    "nmaj": ConnectiveSpec(None, "maj", False, lambda c, n: 2 * c <= n),
}


@dataclass(frozen=True)
class Connective:
    kind: str
    arity: int
    unreliable: bool = False

    def __post_init__(self):
        spec = CONNECTIVES.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown connective kind {self.kind!r}")
        if spec.arity is None:
            if self.arity < 3 or self.arity % 2 == 0:
                raise ValueError("majority arity must be odd and at least 3")
        elif self.arity != spec.arity:
            raise ValueError(f"{self.kind} has arity {spec.arity}")

    @property
    def name(self) -> str:
        fixed = CONNECTIVES[self.kind].arity is not None
        base = self.kind if fixed else f"{self.kind}{self.arity}"
        return base + ("?" if self.unreliable else "")

    def counterpart(self) -> "Connective":
        mate = CONNECTIVES[self.kind].counterpart
        return Connective(mate, self.arity, self.unreliable)

    def as_reliable(self) -> "Connective":
        return Connective(self.kind, self.arity) if self.unreliable else self


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class App:
    conn: Connective
    args: tuple["CFormula", ...]

    def __post_init__(self):
        if len(self.args) != self.conn.arity:
            raise ValueError(
                f"{self.conn.name} expects {self.conn.arity} arguments, "
                f"got {len(self.args)}"
            )


CFormula = Union[Var, Const, App]


def variables(f: CFormula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Const):
        return set()
    out: set[str] = set()
    for a in f.args:
        out |= variables(a)
    return out


def fau(f: CFormula) -> list[tuple[int, ...]]:
    """Positions of unreliable occurrences, depth-first pre-order."""
    out: list[tuple[int, ...]] = []
    _gate_paths(f, (), out)
    return out


def _gate_paths(node: CFormula, path: tuple[int, ...], out: list) -> None:
    if isinstance(node, App):
        if node.conn.unreliable:
            out.append(path)
        for i, a in enumerate(node.args):
            _gate_paths(a, path + (i,), out)


def apply_pattern(f: CFormula, pattern: Sequence[bool]) -> CFormula:
    """Resolve each unreliable gate: bit False = correct, True = misfire."""
    bits = iter(pattern)
    try:
        out = _resolve(f, bits)
    except StopIteration:
        out = None
    if out is None or next(bits, None) is not None:
        raise ValueError(f"pattern length {len(pattern)} != gate count {len(fau(f))}")
    return out


def _resolve(node: CFormula, bits) -> CFormula:
    if not isinstance(node, App):
        return node
    conn = node.conn
    if conn.unreliable:  # next raises StopIteration when the bits run out
        conn = (conn.counterpart() if next(bits) else conn).as_reliable()
    return App(conn, tuple([_resolve(a, bits) for a in node.args]))


def outcome_template(f: CFormula) -> tuple[str, list[tuple[str, str]]]:
    """(template, slots): the printed f with a "%s" slot for each unreliable
    gate's name, and per slot, in fau order, the reliable names of the gate
    and of its counterpart.  With names[i] = slots[i][pattern[i]],
    `template % names` prints apply_pattern(f, pattern), so the fillings
    from itertools.product(*slots) come in pattern order."""
    slots: list[tuple[str, str]] = []
    return _template(f, slots), slots


def _template(node: CFormula, slots: list) -> str:
    if not isinstance(node, App):
        return format_cformula(node).replace("%", "%%")
    conn = node.conn
    name = conn.name
    if conn.unreliable:
        slots.append((conn.as_reliable().name,
                      conn.counterpart().as_reliable().name))
        name = "%s"
    return f"({' '.join([name] + [_template(a, slots) for a in node.args])})"


def eval_pl(f: CFormula, valuation: Mapping[str, bool]) -> bool:
    """Classical truth value; majority is strict (odd arity, no ties)."""
    if isinstance(f, Var):
        try:
            return bool(valuation[f.name])
        except KeyError:
            raise KeyError(f"unbound variable {f.name!r}") from None
    if isinstance(f, Const):
        return f.value
    vals = [eval_pl(a, valuation) for a in f.args]
    spec = CONNECTIVES[f.conn.kind]
    if spec.negate_first:
        vals[0] = not vals[0]
    return spec.true_when(sum(vals), len(vals))


def format_cformula(f: CFormula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return "T" if f.value else "F"
    inner = " ".join([f.conn.name] + [format_cformula(a) for a in f.args])
    return f"({inner})"


# Deepest accepted nesting of gates.  Parsing and every traversal recurse
# once or twice per level, and this keeps them inside Python's default
# recursion limit of 1000.
MAX_DEPTH = 256

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_MAJ_RE = re.compile(r"(n?maj)([0-9]+)\Z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def _parse_op(tok: str, pos: int) -> Connective:
    unreliable = tok.endswith("?")
    base = tok[:-1] if unreliable else tok
    m = _MAJ_RE.match(base)
    if m:
        arity = int(m.group(2))
        if arity < 3 or arity % 2 == 0:
            raise ParseError(f"majority arity must be odd and >= 3, got {arity}", pos)
        return Connective(m.group(1), arity, unreliable)
    spec = CONNECTIVES.get(base)
    if spec is not None and spec.arity is not None:
        return Connective(base, spec.arity, unreliable)
    raise ParseError(f"unknown connective {tok!r}", pos)


def parse_cformula(text: str) -> CFormula:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty formula")
    node, idx = _parse_node(tokens, 0, 0, len(text))
    if idx < len(tokens):
        tok, pos = tokens[idx]
        raise ParseError(f"trailing input {tok!r}", pos)
    return node


def _parse_node(
    tokens: list[tuple[str, int]], idx: int, depth: int, end: int
) -> tuple[CFormula, int]:
    """The formula at tokens[idx], nested depth gates deep, and the index
    after it; end is the length of the text, where input runs out."""
    if idx >= len(tokens):
        raise ParseError("unexpected end of formula", end)
    tok, pos = tokens[idx]
    idx += 1
    if tok == "(":
        if depth == MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        if idx >= len(tokens):
            raise ParseError("expected connective after '('", pos)
        op_tok, op_pos = tokens[idx]
        idx += 1
        conn = _parse_op(op_tok, op_pos)
        args = []
        while idx < len(tokens) and tokens[idx][0] != ")":
            arg, idx = _parse_node(tokens, idx, depth + 1, end)
            args.append(arg)
        if idx >= len(tokens):
            raise ParseError("missing ')'", end)
        if len(args) != conn.arity:
            raise ParseError(
                f"{conn.name} expects {conn.arity} arguments, got {len(args)}",
                op_pos,
            )
        return App(conn, tuple(args)), idx + 1  # past ')'
    if tok == ")":
        raise ParseError("unexpected ')'", pos)
    if tok == "T":
        return Const(True), idx
    if tok == "F":
        return Const(False), idx
    if _VAR_RE.match(tok):
        return Var(tok), idx
    raise ParseError(f"invalid token {tok!r}", pos)
