import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from formula_gen import random_cformula
from uclogic.errors import GateLimitError, VariableLimitError
from uclogic.formulas import (
    CONNECTIVES,
    App,
    CFormula,
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
from uclogic.polynomials import ONE, Polynomial, parse_polynomial
from uclogic.roots import Interval, bernstein
from uclogic.semantics import (
    MAX_VARIABLES,
    _expand,
    AmbitionFormula,
    Interpretation,
    OutcomeFormula,
    canonical_valuations,
    outcome_probability,
    outcomes,
    parse_ambition,
    pattern_probability,
    satisfies,
    success_polynomial,
    success_table,
)


def test_pattern_probability_small_cases():
    assert pattern_probability(()) == ONE
    assert pattern_probability((False,)) == parse_polynomial("nu")
    assert pattern_probability((True,)) == parse_polynomial("1 - nu")
    assert pattern_probability((False, True)) == parse_polynomial("nu - nu^2")
    assert pattern_probability((False, False, False)) == parse_polynomial("nu^3")


def test_outcome_probability_checks_length():
    psi = parse_cformula("(or? x (not? x))")
    assert outcome_probability(psi, (False, True)) == parse_polynomial("nu - nu^2")
    with pytest.raises(ValueError):
        outcome_probability(psi, (False,))


def test_outcomes_enumeration():
    psi = parse_cformula("(or? x (not? x))")
    outs = list(outcomes(psi))
    assert [o.pattern for o in outs] == [
        (False, False), (False, True), (True, False), (True, True)
    ]
    assert [format_cformula(o.formula) for o in outs] == [
        "(or x (not x))", "(or x (id x))", "(nor x (not x))", "(nor x (id x))"
    ]
    # a reliable formula has exactly one outcome: itself, with probability 1
    (only,) = outcomes(parse_cformula("(and x y)"))
    assert only.pattern == () and only.probability == ONE


def test_outcome_probabilities_normalize():
    rng = random.Random(123)
    for _ in range(50):
        psi = random_cformula(rng, max_gates=8)
        total = Polynomial()
        for o in outcomes(psi):
            total = total + o.probability
        assert total == ONE


def test_gate_limit_guard():
    psi = parse_cformula("(and? (and? x y) (and? x y))")
    with pytest.raises(GateLimitError):
        list(outcomes(psi, max_gates=2))
    assert len(list(outcomes(psi, max_gates=3))) == 8


def test_success_polynomial_paper_circuit():
    psi = parse_cformula("(or? x (not? x))")
    assert success_polynomial(psi, {"x": True}) == parse_polynomial("nu")
    assert success_polynomial(psi, {"x": False}) == parse_polynomial(
        "2*nu^2 - 2*nu + 1"
    )


def test_success_polynomial_of_reliable_formula_is_indicator():
    psi = parse_cformula("(imp x y)")
    assert success_polynomial(psi, {"x": True, "y": False}) == Polynomial()
    assert success_polynomial(psi, {"x": False, "y": False}) == ONE


def test_success_polynomial_range():
    rng = random.Random(7)
    samples = [F(k, 16) for k in range(17)]
    for _ in range(25):
        psi = random_cformula(rng, max_gates=6)
        for v, p in success_table(psi):
            for s in samples:
                assert 0 <= p(s) <= 1


def test_canonical_valuations_order():
    vals = list(canonical_valuations(["b", "a"]))
    assert vals[0] == {"a": False, "b": False}
    assert vals[-1] == {"a": True, "b": True}
    assert len(vals) == 4


def test_interpretation_validation():
    Interpretation({}, F(3, 4), F(2, 3))
    for nu, mu in [(F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (F(5, 4), F(3, 4))]:
        with pytest.raises(ValueError):
            Interpretation({}, nu, mu)


def test_parse_ambition():
    g = parse_ambition("mu <= 2*nu^2 - 2*nu + 1")
    assert g.bound == parse_polynomial("2*nu^2 - 2*nu + 1")
    from uclogic.errors import ParseError

    with pytest.raises(ParseError):
        parse_ambition("nu <= 1")
    with pytest.raises(ParseError):
        parse_ambition("mu <= mu")


def test_satisfies_cformula():
    psi = parse_cformula("(or? x (not? x))")
    # P(nu) = nu at x=T: satisfied iff mu <= nu
    assert satisfies(Interpretation({"x": True}, F(3, 4), F(3, 4)), psi)
    assert not satisfies(Interpretation({"x": True}, F(3, 4), F(4, 5)), psi)


def test_satisfies_ambition():
    g = AmbitionFormula(parse_polynomial("nu"))
    assert satisfies(Interpretation({}, F(3, 4), F(2, 3)), g)
    assert not satisfies(Interpretation({}, F(2, 3), F(3, 4)), g)


def test_satisfies_outcome_formula():
    target = parse_cformula("(and? (or? x1 (not? x2)) x3)")
    members = (
        parse_cformula("(and (or x1 (not x2)) x3)"),
        parse_cformula("(and (nor x1 (not x2)) x3)"),
    )
    phi = OutcomeFormula(members, parse_polynomial("nu^2"), target)
    # member probabilities are nu^3 and nu^2(1-nu); their sum nu^2 meets the
    # bound with equality at every interpretation
    for nu in (F(2, 3), F(3, 4), F(1)):
        assert satisfies(Interpretation({}, nu, F(3, 4)), phi)
    tight = OutcomeFormula(members, parse_polynomial("nu^2 + 1/100"), target)
    assert not satisfies(Interpretation({}, F(3, 4), F(3, 4)), tight)


def test_satisfies_outcome_formula_rejects_non_outcomes():
    target = parse_cformula("(or? x (not? x))")
    # the second member still holds an unreliable gate
    for text in ("(and x x)", "(or? x (not x))"):
        phi = OutcomeFormula(
            (parse_cformula(text),), parse_polynomial("nu"), target
        )
        with pytest.raises(ValueError) as exc:
            satisfies(Interpretation({"x": True}, F(3, 4), F(3, 4)), phi)
        assert str(exc.value) == f"{text} is not an outcome of the target"


def test_satisfies_outcome_formula_builds_no_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("formula tree built")

    monkeypatch.setattr("uclogic.formulas.apply_pattern", refuse)
    monkeypatch.setattr("uclogic.semantics.apply_pattern", refuse, raising=False)
    monkeypatch.setattr("uclogic.semantics.parse_cformula", refuse)
    target = parse_cformula("(and? (or? x1 (not? x2)) x3)")
    members = (parse_cformula("(and (nor x1 (not x2)) x3)"),)
    phi = OutcomeFormula(members, parse_polynomial("nu^2 - nu^3"), target)
    assert satisfies(Interpretation({}, F(3, 4), F(3, 4)), phi)


def test_satisfies_outcome_formula_counts_a_duplicate_member_twice():
    target = parse_cformula("(and? (or? x1 (not? x2)) x3)")
    member = parse_cformula("(and (or x1 (not x2)) x3)")  # probability nu^3
    interp = Interpretation({}, F(3, 4), F(3, 4))
    twice = parse_polynomial("2*nu^3")
    assert satisfies(interp, OutcomeFormula((member, member), twice, target))
    assert not satisfies(interp, OutcomeFormula((member,), twice, target))


# every connective, with the wider majorities
_KINDS = [
    ("not", 1), ("id", 1), ("and", 2), ("nand", 2), ("or", 2), ("nor", 2),
    ("imp", 2), ("nimp", 2), ("iff", 2), ("xor", 2), ("maj", 3), ("nmaj", 3),
    ("maj", 5), ("nmaj", 5), ("maj", 7),
]
_NAMES = ("x1", "x2", "x3")


def _formula_with_gates(rng: random.Random, m: int) -> CFormula:
    """Random formula with exactly m unreliable among m..m+4 gates."""
    total = m + rng.randint(0, 4)
    flags = [True] * m + [False] * (total - m)
    rng.shuffle(flags)

    def build(budget: int) -> CFormula:
        if budget == 0:
            if rng.random() < 0.2:
                return Const(rng.random() < 0.5)
            return Var(rng.choice(_NAMES))
        kind, arity = rng.choice(_KINDS)
        conn = Connective(kind, arity, flags.pop())
        cuts = sorted(rng.randint(0, budget - 1) for _ in range(arity - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget - 1])]
        return App(conn, tuple(build(k) for k in sizes))

    return build(total)


def _enumerated_success(psi: CFormula) -> list[tuple[dict, Polynomial]]:
    """Per valuation, the summed probability of the outcomes it satisfies."""
    outs = [(o.formula, o.probability) for o in outcomes(psi)]
    table = []
    for v in canonical_valuations(variables(psi)):
        acc = Polynomial()
        for formula, probability in outs:
            if eval_pl(formula, v):
                acc = acc + probability
        table.append((v, acc))
    return table


def _assert_matches_enumeration(psi: CFormula) -> None:
    expected = _enumerated_success(psi)
    assert success_table(psi) == expected
    for v, p in expected:
        assert success_polynomial(psi, v) == p


def test_success_table_shares_one_polynomial_per_count_vector():
    rng = random.Random(23)
    for _ in range(30):
        psi = random_cformula(rng, max_gates=4)
        table = success_table(psi)
        # distinct count vectors give distinct polynomials
        assert len({id(p) for _, p in table}) == len({p for _, p in table})
        for v, p in table:
            assert success_polynomial(psi, v) == p


def _connectives(f: CFormula) -> set[tuple[str, int]]:
    if not isinstance(f, App):
        return set()
    out = {(f.conn.kind, f.conn.arity)}
    for a in f.args:
        out |= _connectives(a)
    return out


def test_success_table_matches_pointwise_definition():
    rng = random.Random(31)
    seen: set[tuple[str, int]] = set()
    has_const = False
    for m in range(11):
        for _ in range(2):
            psi = _formula_with_gates(rng, m)
            assert len(fau(psi)) == m
            seen |= _connectives(psi)
            has_const |= "T" in format_cformula(psi) or "F" in format_cformula(psi)
            _assert_matches_enumeration(psi)
    assert seen == set(_KINDS) and has_const


def test_outcome_rows_match_apply_pattern():
    rng = random.Random(47)
    seen: set[tuple[str, int]] = set()
    has_const = False
    for m in range(11):
        for _ in range(2):
            psi = _formula_with_gates(rng, m)
            seen |= _connectives(psi)
            has_const |= "T" in format_cformula(psi) or "F" in format_cformula(psi)
            outs = list(outcomes(psi))
            assert len(outs) == 2 ** m
            for o in outs:
                resolved = apply_pattern(psi, o.pattern)
                assert o.text == format_cformula(resolved)
                assert o.formula == resolved
    assert seen == set(_KINDS) and has_const
    # a "%" in a variable name is text, not a slot
    psi = App(Connective("not", 1, True), (Var("x%s"),))
    assert [o.text for o in outcomes(psi)] == ["(not x%s)", "(id x%s)"]


def _apps(children):
    conns = st.sampled_from(
        [Connective(k, a, u) for k, a in _KINDS for u in (False, True)]
    )
    return conns.flatmap(
        lambda conn: st.tuples(*[children] * conn.arity).map(
            lambda args: App(conn, args)
        )
    )


_FORMULAS = st.recursive(
    st.one_of(st.sampled_from([Var(n) for n in _NAMES]), st.builds(Const, st.booleans())),
    _apps,
    max_leaves=14,
)


@given(_FORMULAS)
@settings(max_examples=80, deadline=None)
def test_success_table_matches_enumeration_hypothesis(psi):
    assume(len(fau(psi)) <= 8)
    _assert_matches_enumeration(psi)


def test_success_table_of_long_gate_chain_matches_closed_form():
    psi = parse_cformula("(not? " * 40 + "x" + ")" * 40)
    with pytest.raises(GateLimitError):
        success_table(psi)
    # the output is right iff an even number of the 40 gates misfire
    even = (ONE - parse_polynomial("2*nu")) ** 40
    assert success_table(psi, max_gates=64) == [
        ({"x": False}, (ONE - even).scale(F(1, 2))),
        ({"x": True}, (ONE + even).scale(F(1, 2))),
    ]


# --- the per-valuation walk, kept as the reference for the class route -----


def _reference_counts(node: CFormula, valuation) -> tuple[list[int], list[int]]:
    """(t, f) of node under one valuation, by walking the whole formula: over
    the misfire patterns of the k unreliable gates inside node, t[l] (f[l])
    counts those with exactly l correct gates under which node is True
    (False)."""
    if not isinstance(node, App):
        return ([1], [0]) if eval_pl(node, valuation) else ([0], [1])
    conn = node.conn
    spec = CONNECTIVES[conn.kind]
    by_count = [[1]]  # by_count[c][l]: the arguments so far, c of them True
    for i, arg in enumerate(node.args):
        t, f = _reference_counts(arg, valuation)
        if i == 0 and spec.negate_first:
            t, f = f, t
        width = len(by_count[0]) + len(t) - 1
        nxt = [[0] * width for _ in range(len(by_count) + 1)]
        for c, d in enumerate(by_count):
            for a, x in enumerate(d):
                for b in range(len(t)):
                    nxt[c][a + b] += x * f[b]
                    nxt[c + 1][a + b] += x * t[b]
        by_count = nxt
    t = [0] * len(by_count[0])
    f = [0] * len(by_count[0])
    for c, d in enumerate(by_count):
        acc = t if spec.true_when(c, conn.arity) else f
        for l, x in enumerate(d):
            acc[l] += x
    if conn.unreliable:
        t, f = (
            [a + b for a, b in zip([0] + t, f + [0])],
            [a + b for a, b in zip([0] + f, t + [0])],
        )
    return t, f


def _from_counts(counts: list[int]) -> Polynomial:
    nu = parse_polynomial("nu")
    m = len(counts) - 1
    total = Polynomial()
    for l, c in enumerate(counts):
        total = total + (nu ** l * (ONE - nu) ** (m - l)).scale(c)
    return total


@given(st.lists(st.integers(0, 2**70), min_size=1, max_size=14),
       st.integers(0, 3))
@example([0], 0)
@example([7], 0)
@example([0, 0, 0], 2)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_expand_inverts_the_bernstein_map(counts, zeros):
    # trailing zeros keep m and lower the degree of the polynomial
    t = counts + [0] * zeros
    p = _expand(t)
    assert bernstein(p.nums, Interval(0, 1), len(t) - 1) == t
    assert p == _from_counts(t)


@pytest.mark.parametrize("m", [24, 64])
def test_packed_slots_hold_the_largest_counts(m):
    # every misfire pattern satisfies (or T G), so for the m unreliable
    # gates of G its count vector is t[l] = C(m, l): the middle slot holds
    # the largest count any formula of m gates reaches, and a slot too
    # narrow for it carries into the next one
    psi = parse_cformula("(or T " + "(not? " * m + "x" + ")" * m + ")")
    table = success_table(psi, max_gates=m)
    assert table == [({"x": False}, ONE), ({"x": True}, ONE)]
    assert table[0][1] is table[1][1]  # one class
    assert success_polynomial(psi, {"x": True}, max_gates=m) == ONE


def _mixed_formula(rng: random.Random, names: tuple[str, ...]) -> CFormula:
    """Random formula whose subtrees are often gate-free, over the names."""

    def build(depth: int, gated: bool) -> CFormula:
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.15:
                return Const(rng.random() < 0.5)
            return Var(rng.choice(names))
        kind, arity = rng.choice(_KINDS)
        # below a gated node, a third of the subtrees have no gate at all
        gated_child = gated and rng.random() < 0.67
        conn = Connective(kind, arity, gated and rng.random() < 0.5)
        return App(conn, tuple(build(depth - 1, gated_child)
                               for _ in range(arity)))

    return build(4, True)


def _subtrees(f: CFormula):
    yield f
    if isinstance(f, App):
        for a in f.args:
            yield from _subtrees(a)


def test_success_table_matches_per_valuation_walk():
    rng = random.Random(61)
    seen: set[tuple[str, int]] = set()
    has_const = has_gate_free_app = False
    checked = 0
    while checked < 40:
        names = tuple(f"x{i}" for i in range(1, rng.randint(5, 7) + 1))
        psi = _mixed_formula(rng, names)
        m = len(fau(psi))
        if not 5 <= len(variables(psi)) <= 7 or m > 10:
            continue
        checked += 1
        seen |= _connectives(psi)
        has_const |= "T" in format_cformula(psi) or "F" in format_cformula(psi)
        has_gate_free_app |= any(
            isinstance(a, App) and not fau(a)
            for node in _subtrees(psi) if fau(node) for a in node.args)
        table = success_table(psi)
        assert [v for v, _ in table] == list(canonical_valuations(variables(psi)))
        by_counts: dict[tuple[int, ...], Polynomial] = {}
        for v, p in table:
            counts = tuple(_reference_counts(psi, v)[0])
            # one Polynomial object per class, and one class per count vector
            if counts not in by_counts:
                assert p == _from_counts(list(counts))
                assert success_polynomial(psi, v) == p
            assert by_counts.setdefault(counts, p) is p
        assert len({id(p) for _, p in table}) == len(by_counts)
    assert {("imp", 2), ("nimp", 2), ("maj", 5)} <= seen
    assert has_const and has_gate_free_app


def test_success_polynomial_looks_the_valuation_up_at_the_leaves():
    psi = parse_cformula("(and? x (or y z))")
    with pytest.raises(KeyError, match="unbound variable 'y'"):
        success_polynomial(psi, {"x": True, "z": False})
    # a variable the formula does not read is never looked up
    assert success_polynomial(psi, {"x": False, "y": True, "z": True, "w": True}) \
        == parse_polynomial("1 - nu")


def _and_chain(n: int) -> CFormula:
    psi: CFormula = Var("x1")
    for i in range(2, n + 1):
        psi = App(Connective("and", 2), (psi, Var(f"x{i}")))
    return psi


def test_variable_limit(monkeypatch):
    table = success_table(_and_chain(MAX_VARIABLES))
    assert len(table) == 2 ** MAX_VARIABLES
    assert [p for _, p in table].count(ONE) == 1 and table[-1][1] == ONE

    def refuse(*args, **kwargs):
        raise AssertionError("table work above the variable limit")

    monkeypatch.setattr("uclogic.semantics._classes", refuse)
    monkeypatch.setattr("uclogic.semantics._variable_masks", refuse)
    with pytest.raises(VariableLimitError) as exc:
        success_table(_and_chain(MAX_VARIABLES + 1))
    assert (exc.value.count, exc.value.limit) == (MAX_VARIABLES + 1, MAX_VARIABLES)
