import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_gen import random_cformula
from uclogic.errors import ParseError
from uclogic.formulas import (
    App,
    Connective,
    Const,
    Var,
    apply_pattern,
    eval_pl,
    fau,
    format_cformula,
    parse_cformula,
    variables,
)
from uclogic.polynomials import NU, ONE
from uclogic.semantics import success_polynomial


def test_connective_validation():
    assert Connective("and", 2).name == "and"
    assert Connective("maj", 5, unreliable=True).name == "maj5?"
    with pytest.raises(ValueError):
        Connective("and", 3)
    with pytest.raises(ValueError):
        Connective("maj", 4)
    with pytest.raises(ValueError):
        Connective("foo", 2)
    with pytest.raises(ValueError):
        App(Connective("or", 2), (Var("x"),))


def test_counterpart_pairs():
    pairs = {
        "not": "id", "id": "not",
        "and": "nand", "nand": "and",
        "or": "nor", "nor": "or",
        "imp": "nimp", "nimp": "imp",
        "iff": "xor", "xor": "iff",
        "maj": "nmaj", "nmaj": "maj",
    }
    for kind, mate in pairs.items():
        arity = {"not": 1, "id": 1, "maj": 3, "nmaj": 3}.get(kind, 2)
        c = Connective(kind, arity, unreliable=True)
        assert c.counterpart().kind == mate
        assert c.counterpart().counterpart() == c
        assert not c.as_reliable().unreliable


def test_complement_law_exhaustive():
    """A counterpart connective computes the negation of its mate, checked
    on all boolean inputs up to arity 5."""
    table = [("not", 1), ("and", 2), ("or", 2), ("imp", 2), ("iff", 2),
             ("maj", 3), ("maj", 5)]
    for kind, arity in table:
        conn = Connective(kind, arity)
        mate = conn.counterpart()
        names = [f"x{i}" for i in range(arity)]
        args = tuple(Var(n) for n in names)
        for bits in itertools.product((False, True), repeat=arity):
            v = dict(zip(names, bits))
            assert eval_pl(App(mate, args), v) == (not eval_pl(App(conn, args), v))


# Output bits over all inputs in itertools.product order (False < True,
# first argument most significant), written out rather than computed.
LITERAL_TRUTH_TABLES = {
    ("not", 1): "10",
    ("id", 1): "01",
    ("and", 2): "0001",
    ("nand", 2): "1110",
    ("or", 2): "0111",
    ("nor", 2): "1000",
    ("imp", 2): "1101",
    ("nimp", 2): "0010",
    ("iff", 2): "1001",
    ("xor", 2): "0110",
    ("maj", 3): "00010111",
    ("nmaj", 3): "11101000",
    ("maj", 5): "00000001000101110001011101111111",
}


def test_connectives_match_literal_truth_tables():
    """eval_pl and the success-polynomial recursion read one connective
    table; both are checked against truth tables written out by hand."""
    for (kind, arity), table in LITERAL_TRUTH_TABLES.items():
        names = [f"x{i}" for i in range(arity)]
        args = tuple(Var(n) for n in names)
        inputs = list(itertools.product((False, True), repeat=arity))
        assert len(table) == len(inputs)
        for bits, out in zip(inputs, table):
            v = dict(zip(names, bits))
            expected = out == "1"
            assert eval_pl(App(Connective(kind, arity), args), v) == expected
            # a single unreliable gate succeeds with probability nu exactly
            # when its reliable connective is true
            gate = App(Connective(kind, arity, unreliable=True), args)
            assert success_polynomial(gate, v) == (NU if expected else ONE - NU)
            # the same connective below a gate goes through the count recursion
            wrapped = App(Connective("id", 1, unreliable=True),
                          (App(Connective(kind, arity), args),))
            assert success_polynomial(wrapped, v) == (NU if expected else ONE - NU)


def test_eval_pl_majority_is_strict():
    names = ["a", "b", "c", "d", "e"]
    f = App(Connective("maj", 5), tuple(Var(n) for n in names))
    for bits in itertools.product((False, True), repeat=5):
        v = dict(zip(names, bits))
        assert eval_pl(f, v) == (sum(bits) >= 3)


def test_variables_and_is_pl():
    f = parse_cformula("(and? (or x (not y)) T)")
    assert variables(f) == {"x", "y"}


def test_fau_preorder():
    f = parse_cformula("(and? (or? x (not? y)) (id? z))")
    paths = fau(f)
    assert paths == [(), (0,), (0, 1), (1,)]
    assert fau(parse_cformula("(and x y)")) == []


def test_apply_pattern():
    f = parse_cformula("(or? x (not? y))")
    assert format_cformula(apply_pattern(f, (False, False))) == "(or x (not y))"
    assert format_cformula(apply_pattern(f, (True, False))) == "(nor x (not y))"
    assert format_cformula(apply_pattern(f, (False, True))) == "(or x (id y))"
    with pytest.raises(ValueError, match="pattern length 1 != gate count 2"):
        apply_pattern(f, (False,))
    with pytest.raises(ValueError, match="pattern length 3 != gate count 2"):
        apply_pattern(f, (False, True, False))
    with pytest.raises(ValueError, match="pattern length 1 != gate count 0"):
        apply_pattern(parse_cformula("(or x y)"), (True,))
    assert apply_pattern(parse_cformula("(or x y)"), ()) == parse_cformula("(or x y)")


def test_parse_format_round_trip_corpus():
    texts = [
        "x",
        "T",
        "F",
        "(not x)",
        "(and? x y)",
        "(maj3 a b c)",
        "(nmaj5? a b c d e)",
        "(imp (xor? p q) (nand p (nor? q T)))",
    ]
    for t in texts:
        f = parse_cformula(t)
        assert format_cformula(f) == t
        assert parse_cformula(format_cformula(f)) == f


def test_parse_errors_carry_positions():
    for text in ["(and x)", "(foo x y)", "(and x y", "x y", ")", "(maj4 a b c d)"]:
        with pytest.raises(ParseError):
            parse_cformula(text)
    try:
        parse_cformula("(and x")
    except ParseError as exc:
        assert exc.position is not None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_round_trip_random(seed):
    f = random_cformula(random.Random(seed), max_depth=5)
    assert parse_cformula(format_cformula(f)) == f
