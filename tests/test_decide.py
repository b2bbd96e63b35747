import inspect
import itertools
import random
from fractions import Fraction as F
from functools import cmp_to_key

import numpy as np
import pytest

import uclogic.decide
from uclogic.algebraic import AlgebraicNumber, evaluate_poly_at
from uclogic.decide import (
    _RELATIONS,
    SignCondition,
    _breakpoints,
    _roots_in,
    _sorted_unique,
    exists_sat,
    lower_envelope_max,
)
from uclogic.polynomials import ONE, Polynomial
from uclogic.roots import Interval, count_roots
from uclogic.semantics import success_table

from formula_gen import random_cformula


def poly(*coeffs):
    return Polynomial([F(c) for c in coeffs])


HALF_OPEN = Interval(F(1, 2), F(1), lo_open=True)
OPEN = Interval(F(1, 2), F(1), lo_open=True, hi_open=True)


def test_sign_condition_relations():
    c = SignCondition(poly(-1, 2), ">")  # 2nu - 1 > 0
    assert c.holds_at(F(3, 4)) and not c.holds_at(F(1, 2))
    assert SignCondition(poly(0), "==").holds_at(F(7))
    with pytest.raises(ValueError):
        SignCondition(poly(1), "~")


def test_exists_sat_known_instances():
    # 2nu^2 - 2nu + 1 < 7/10 somewhere in (1/2, 1): yes (min is 1/2 at 3/4)
    found, w = exists_sat([SignCondition(poly(F(3, 10), -2, 2), "<")], HALF_OPEN)
    assert found and F(1, 2) < w <= 1
    assert 2 * w * w - 2 * w + 1 < F(7, 10)
    # nu > 1 on (1/2, 1]: no
    found, w = exists_sat([SignCondition(poly(-1, 1), ">")], HALF_OPEN)
    assert not found and w is None
    # nu >= 1 on (1/2, 1]: only the closed right endpoint
    found, w = exists_sat([SignCondition(poly(-1, 1), ">=")], HALF_OPEN)
    assert found and w == 1
    # ... but not on the open interval
    found, _ = exists_sat([SignCondition(poly(-1, 1), ">=")], OPEN)
    assert not found


def test_exists_sat_zero_poly_shortcut():
    found, w = exists_sat([SignCondition(Polynomial(), ">")], HALF_OPEN)
    assert not found
    found, w = exists_sat([SignCondition(Polynomial(), "==")], HALF_OPEN)
    assert found and F(1, 2) < w <= 1


POINT = Interval(F(3, 4), F(3, 4))
AT_ONE = Interval(F(1), F(1))
CONSTANTS = (F(0), F(3, 2), F(-2))
# (condition, {interval: (found, witness)}) for non-constant conditions
VARYING = [
    (SignCondition(poly(F(-3, 4), 1), ">="), {  # nu >= 3/4: the sample 3/4
        OPEN: (True, F(3, 4)), HALF_OPEN: (True, F(3, 4)),
        POINT: (True, F(3, 4)), AT_ONE: (True, F(1))}),
    (SignCondition(poly(F(-1, 2), 0, 1), "=="), {  # nu = 1/sqrt(2)
        OPEN: (True, None), HALF_OPEN: (True, None),
        POINT: (False, None), AT_ONE: (False, None)}),
    (SignCondition(poly(-1, 1), ">="), {  # nu >= 1
        OPEN: (False, None), HALF_OPEN: (True, F(1)),
        POINT: (False, None), AT_ONE: (True, F(1))}),
    (SignCondition(poly(F(3, 10), -2, 2), "<"), {  # 2nu^2 - 2nu + 1 < 7/10
        OPEN: (True, F(2, 3)), HALF_OPEN: (True, F(2, 3)),
        POINT: (True, F(3, 4)), AT_ONE: (False, None)}),
]
NO_CONDITION = {OPEN: (True, F(2, 3)), HALF_OPEN: (True, F(2, 3)),
                POINT: (True, F(3, 4)), AT_ONE: (True, F(1))}


def _holds(value, relation):
    return {"<": value < 0, "<=": value <= 0, "==": value == 0,
            "!=": value != 0, ">": value > 0, ">=": value >= 0}[relation]


def test_exists_sat_constant_conditions():
    """A constant condition holds everywhere or nowhere: alone, it gives
    the answer of no condition or (False, None); beside other conditions,
    their answer or (False, None), wherever it stands in the list."""
    for c, relation, iv in itertools.product(CONSTANTS, _RELATIONS, NO_CONDITION):
        const = SignCondition(Polynomial.constant(c), relation)
        holds = _holds(c, relation)
        assert exists_sat([const], iv) == (
            NO_CONDITION[iv] if holds else (False, None)), (c, relation, iv)
        for cond, answers in VARYING:
            want = answers[iv] if holds else (False, None)
            assert exists_sat([const, cond], iv) == want, (c, relation, iv, cond)
            assert exists_sat([cond, const], iv) == want, (c, relation, iv, cond)


def test_exists_sat_isolates_no_root_of_a_constant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("roots isolated")

    monkeypatch.setattr("uclogic.decide.isolate_roots", refuse)
    for c, relation in itertools.product(CONSTANTS, _RELATIONS):
        const = SignCondition(Polynomial.constant(c), relation)
        for iv in (OPEN, HALF_OPEN):
            assert exists_sat([const, const], iv)[0] == _holds(c, relation)


def test_exists_sat_equality_at_irrational():
    # nu^2 = 1/2 holds only at 1/sqrt(2), an interior point of (1/2, 1)
    found, _ = exists_sat([SignCondition(poly(F(-1, 2), 0, 1), "==")], OPEN)
    assert found


def test_exists_sat_witness_is_simple():
    found, w = exists_sat([SignCondition(poly(-1, 2), ">")], HALF_OPEN)
    assert found
    assert w.denominator <= 4  # the first cell is all of (1/2, 1)


def _three_roots():
    # (nu - 11/20)(nu - 3/5)(nu - 7/10): positive on (11/20, 3/5) and (7/10, 1]
    return poly(F(-11, 20), 1) * poly(F(-3, 5), 1) * poly(F(-7, 10), 1)


def _past_the_samples():
    # (nu - 11/20)(nu - 14/25)(nu - 9/10): positive on (11/20, 14/25) and
    # (9/10, 1], where no fixed sample lies
    return poly(F(-11, 20), 1) * poly(F(-14, 25), 1) * poly(F(-9, 10), 1)


def test_exists_sat_witness_is_the_first_satisfying_cell():
    # a fixed sample that fits is the witness: 2/3 lies in (3/5, 7/10),
    # where the product is negative, and 3/4 is the next sample
    assert exists_sat([SignCondition(_three_roots(), ">")], HALF_OPEN) == (
        True, F(3, 4))
    # no sample fits: the simplest rational of the leftmost satisfying cell,
    # not of the cell (9/10, 1), whose simplest rational is 10/11
    for iv in (OPEN, HALF_OPEN, Interval(F(0), F(1))):
        assert exists_sat([SignCondition(_past_the_samples(), ">")], iv) == (
            True, F(5, 9))


def test_exists_sat_skips_breakpoints_when_a_cell_satisfies(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("breakpoint tested")

    monkeypatch.setattr(SignCondition, "holds_at_algebraic", refuse)
    monkeypatch.setattr(AlgebraicNumber, "approximate", refuse)
    irrational = poly(F(-1, 2), 0, 1)  # a root at 1/sqrt(2)
    for conds in (
        [SignCondition(_three_roots(), ">")],
        [SignCondition(_past_the_samples(), ">")],
        [SignCondition(irrational, ">"), SignCondition(_three_roots(), ">")],
        [SignCondition(irrational, "!="), SignCondition(poly(-1, 1), "<")],
    ):
        for iv in (OPEN, HALF_OPEN, Interval(F(0), F(1))):
            found, w = exists_sat(conds, iv)
            assert found and all(c.holds_at(w) for c in conds)


def test_exists_sat_isolates_no_root_when_a_sample_fits(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("roots isolated")

    monkeypatch.setattr("uclogic.decide.isolate_roots", refuse)
    for conds in (
        [SignCondition(_three_roots(), ">")],
        [SignCondition(poly(F(-3, 4), 1), ">="),
         SignCondition(poly(F(-1, 2), 0, 1), ">")],
        [SignCondition(poly(F(-7, 8), 1), "==")],  # nu = 7/8, the last sample
    ):
        for iv in (OPEN, HALF_OPEN, Interval(F(0), F(1))):
            found, w = exists_sat(conds, iv)
            assert found and w in uclogic.decide._SAMPLES
    with pytest.raises(AssertionError, match="roots isolated"):
        exists_sat([SignCondition(_past_the_samples(), ">")], HALF_OPEN)


def _fraction_holds(cond, x):
    v = sum(c * x**i for i, c in enumerate(cond.poly.coeffs))  # not the integer Horner
    return cond.admits_sign((v > 0) - (v < 0))


def test_holds_at_agrees_with_fraction_evaluation():
    rng = random.Random(15)
    big = 2**200 + 1
    dens = (1, 2, 3, 7, 10**9 + 7, big)
    points = [F(0), F(1), F(-1), F(1, 2), F(7, 8), F(-5, 3), F(big - 2, big),
              F(3, big), F(-(big + 4), big), F(2**300 + 1, 2**301)]
    points += [F(rng.randint(-20, 20), rng.choice(dens)) for _ in range(20)]
    polys = [Polynomial(), poly(0), poly(5), poly(F(-1, big))]
    for _ in range(60):
        deg = rng.randint(0, 12)
        polys.append(Polynomial([
            F(rng.randint(-50, 50), rng.choice(dens)) for _ in range(deg + 1)]))
    # roots at some of the points, so that every sign occurs
    polys += [poly(-x, 1) * poly(F(1, 3), -2, 1) for x in points[:8]]
    for p, relation, x in itertools.product(polys, _RELATIONS, points):
        cond = SignCondition(p, relation)
        assert cond.holds_at(x) == _fraction_holds(cond, x), (p, relation, x)
    assert SignCondition(Polynomial(), "==").holds_at(F(3, big))
    assert not SignCondition(Polynomial(), "!=").holds_at(F(3, big))


def _random_condition(rng):
    deg = rng.randint(1, 5)
    if rng.random() < 0.3:  # a root at a sample or near one
        root = rng.choice(uclogic.decide._SAMPLES) + F(rng.choice((0, 0, 1, -1)), 97)
        p = poly(-root, 1) * Polynomial(
            [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])
    else:
        p = Polynomial(
            [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)])
    return SignCondition(p, rng.choice(list(_RELATIONS)))


@pytest.mark.parametrize("iv", [
    HALF_OPEN, OPEN, Interval(F(0), F(1)),
    # intervals that hold no sample
    Interval(F(7, 8), F(1), lo_open=True), Interval(F(0), F(1, 2)),
    Interval(F(9, 10), F(19, 20), hi_open=True), Interval.point(F(13, 16)),
], ids=str)
def test_exists_sat_verdicts_match_the_cell_walk(monkeypatch, iv):
    """Samples first and the cell walk alone give the same verdict, and
    every witness of either satisfies every condition in iv."""
    rng = random.Random(f"samples/{iv}")
    cases = [[_random_condition(rng) for _ in range(rng.randint(1, 3))]
             for _ in range(60)]
    samples = uclogic.decide._SAMPLES
    with_samples = [exists_sat(conds, iv) for conds in cases]
    monkeypatch.setattr(uclogic.decide, "_SAMPLES", ())
    walked = [exists_sat(conds, iv) for conds in cases]
    fits = 0
    for conds, (found, w), (walk_found, walk_w) in zip(cases, with_samples, walked):
        assert found == walk_found, conds
        for witness in (w, walk_w):
            if witness is not None:
                assert iv.contains(witness)
                assert all(_fraction_holds(c, witness) for c in conds), conds
        fits += w in samples
    if any(iv.contains(x) for x in samples):
        assert fits > 0


def test_decide_uses_no_floating_point():
    assert "float" not in inspect.getsource(uclogic.decide)


def test_exists_sat_grid_completeness():
    """If a dense float grid finds a clearly satisfying point, the exact
    procedure must agree; and every claimed witness must verify exactly."""
    rng = random.Random(99)
    grid = np.linspace(0.0, 1.0, 100_001)
    for _ in range(12):
        conds = []
        for _k in range(rng.randint(1, 3)):
            deg = rng.randint(1, 6)
            coeffs = [F(rng.randint(-8, 8)) for _ in range(deg + 1)]
            rel = rng.choice([">", "<", ">=", "<="])
            conds.append(SignCondition(Polynomial(coeffs), rel))
        found, w = exists_sat(conds, Interval(F(0), F(1)))
        if found:
            assert w is not None and all(c.holds_at(w) for c in conds)
        vals = np.ones_like(grid, dtype=bool)
        for c in conds:
            arr = np.polyval([float(x) for x in reversed(c.poly.coeffs)], grid)
            if c.relation in (">", ">="):
                vals &= arr > 1e-6
            elif c.relation in ("<", "<="):
                vals &= arr < -1e-6
            else:
                vals &= np.abs(arr) < 1e-12
        if vals.any():
            assert found, f"grid found a point but exists_sat said no: {conds}"


def test_envelope_single_poly():
    # max of nu(1-nu) on [0, 1] is 1/4 at 1/2
    sup, argmax, attained = lower_envelope_max([poly(0, 1, -1)], Interval(F(0), F(1)))
    assert sup.is_rational and sup.rational_value == F(1, 4)
    assert argmax.is_rational and argmax.rational_value == F(1, 2)
    assert attained


def test_envelope_crossing_pair():
    # min(nu, 1 - nu) peaks where they cross, at 1/2
    sup, argmax, attained = lower_envelope_max(
        [poly(0, 1), poly(1, -1)], Interval(F(0), F(1))
    )
    assert sup.rational_value == F(1, 2) and argmax.rational_value == F(1, 2)
    assert attained


def test_envelope_open_boundary_not_attained():
    # min(1 - nu^3, 1 - (1-nu)^3) has its sup 7/8 at the excluded left end
    polys = [poly(1, 0, 0, -1), poly(0, 3, -3, 1)]
    sup, argmax, attained = lower_envelope_max(polys, OPEN)
    assert sup.is_rational and sup.rational_value == F(7, 8)
    assert argmax.is_rational and argmax.rational_value == F(1, 2)
    assert not attained


def test_envelope_point_interval():
    sup, argmax, attained = lower_envelope_max(
        [poly(0, 1), poly(2, -1)], Interval.point(F(1, 3))
    )
    assert sup.rational_value == F(1, 3) and attained


def test_envelope_against_grid():
    rng = random.Random(4242)
    grid = np.linspace(0.0, 1.0, 100_001)
    for _ in range(15):
        polys = []
        for _k in range(rng.randint(1, 5)):
            deg = rng.randint(0, 8)
            polys.append(Polynomial([F(rng.randint(-10, 10)) for _ in range(deg + 1)]))
        sup, argmax, _ = lower_envelope_max(polys, Interval(F(0), F(1)))
        envelope = np.min(
            [np.polyval([float(x) for x in reversed(p.coeffs)], grid) for p in polys],
            axis=0,
        )
        grid_max = float(envelope.max())
        sup_f = float(sup.approximate(F(1, 10**12)))
        # sup dominates every sample; and the envelope value at the argmax
        # approximation reproduces sup to high accuracy
        assert sup_f >= grid_max - 1e-9
        x_hat = argmax.approximate(F(1, 10**10))
        x_hat = min(max(x_hat, F(0)), F(1))
        g_at = min(p(x_hat) for p in polys)
        assert abs(float(g_at) - sup_f) <= 1e-6


def test_envelope_sup_is_algebraic_when_needed():
    # min(nu^2, 1 - nu) peaks where nu^2 = 1 - nu, at the golden-ratio conjugate
    sup, argmax, attained = lower_envelope_max(
        [poly(0, 0, 1), poly(1, -1)], Interval(F(0), F(1))
    )
    assert attained and not sup.is_rational
    # argmax satisfies nu^2 + nu - 1 = 0; sup equals the shared value there
    assert argmax.sign_of_poly_at(poly(-1, 1, 1)) == 0
    assert sup.equals(evaluate_poly_at(poly(1, -1), argmax))


# --- the all-pairs envelope with exact sign tests, kept as the oracle -----


def _alg_in_interval(a: AlgebraicNumber, iv: Interval) -> bool:
    c_lo = a.compare(AlgebraicNumber.from_rational(iv.lo))
    if c_lo < 0 or (c_lo == 0 and iv.lo_open):
        return False
    c_hi = a.compare(AlgebraicNumber.from_rational(iv.hi))
    if c_hi > 0 or (c_hi == 0 and iv.hi_open):
        return False
    return True


def _envelope_by_sign_tests(polys, iv):
    """Active member at every candidate by sign_of_poly_at(p - best), then
    an enclosure prefilter and exact values of the survivors."""
    polys = list(dict.fromkeys(polys))
    if not polys:
        raise ValueError("empty polynomial set")
    closure = iv.closure()
    candidates: list[AlgebraicNumber] = [AlgebraicNumber.from_rational(iv.lo)]
    if not iv.is_point:
        candidates.append(AlgebraicNumber.from_rational(iv.hi))
        for p in polys:
            dp = p.derivative()
            if not dp.is_zero:
                candidates.extend(_roots_in(dp, closure))
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                diff = polys[i] - polys[j]
                if not diff.is_zero:
                    candidates.extend(_roots_in(diff, closure))
    candidates = _sorted_unique(candidates)

    # Active member of the envelope at each candidate, by exact sign tests.
    active: list[tuple[AlgebraicNumber, Polynomial]] = []
    for a in candidates:
        best = polys[0]
        for p in polys[1:]:
            if a.sign_of_poly_at(p - best) < 0:
                best = p
        active.append((a, best))

    # Exact-bound prefilter: discard candidates whose value enclosure lies
    # strictly below some other candidate's lower bound.
    enclosures: list[tuple[F, F]] = []
    for a, p in active:
        aa = a.refined_below(F(1, 2**48))
        if aa.is_rational:
            v = p(aa.rational_value)
            enclosures.append((v, v))
        else:
            enclosures.append(p.eval_interval(aa.interval.lo, aa.interval.hi))
    floor = max(lo for lo, _ in enclosures)
    survivors = [
        (a, p) for (a, p), (_, hi) in zip(active, enclosures) if hi >= floor
    ]

    values = [evaluate_poly_at(p, a) for a, p in survivors]
    best_idx = 0
    for k in range(1, len(values)):
        if values[k].compare(values[best_idx]) > 0:
            best_idx = k
    sup = values[best_idx]
    winners = [
        survivors[k][0]
        for k in range(len(values))
        if values[k].compare(sup) == 0
    ]
    argmax = winners[0]
    attained = False
    for w in winners:
        if _alg_in_interval(w, iv):
            argmax = w
            attained = True
            break
    return sup, argmax, attained


ENDS = [
    Interval(F(1, 2), F(1), lo_open=lo_open, hi_open=hi_open)
    for lo_open in (False, True)
    for hi_open in (False, True)
]


def assert_matches_oracle(polys, iv):
    sup, argmax, attained = lower_envelope_max(polys, iv)
    o_sup, o_argmax, o_attained = _envelope_by_sign_tests(polys, iv)
    assert sup.compare(o_sup) == 0, (polys, iv, sup, o_sup)
    assert argmax.compare(o_argmax) == 0, (polys, iv, argmax, o_argmax)
    assert attained == o_attained, (polys, iv)


def test_breakpoints_recount_no_root(monkeypatch):
    """Each number comes from its certified isolator as it is: no root
    count, and the isolator invariant holds for every breakpoint."""
    rng = random.Random(7171)
    cases = []
    while len(cases) < 25:
        psi = random_cformula(rng, max_depth=4, max_gates=6)
        polys = list(dict.fromkeys(p for _, p in success_table(psi)))
        # the kind lower_envelope_max and exists_sat hand over: crossings
        # with a constant bound and with each other
        cases.append(polys + [p - poly(F(3, 4)) for p in polys]
                     + [p - q for i, p in enumerate(polys) for q in polys[i + 1:]])

    def refuse(*args):
        raise AssertionError("count_roots called")

    monkeypatch.setattr("uclogic.roots.count_roots", refuse)
    monkeypatch.setattr("uclogic.algebraic.count_roots", refuse)
    found = [_breakpoints(polys, HALF_OPEN) for polys in cases]
    monkeypatch.undo()
    for polys, points in zip(cases, found):
        assert all(a.compare(b) < 0 for a, b in zip(points, points[1:]))
        for p in polys:
            if p:
                on = sum(a.sign_of_poly_at(p) == 0 for a in points)
                assert on == count_roots(p, Interval(F(1, 2), F(1)))
        for a in points:
            if not a.is_rational:
                iv, q = a.interval, a.defining
                assert q.sign_at(iv.lo) != 0 and q.sign_at(iv.hi) != 0
                assert count_roots(q, iv.closure()) == 1


def test_envelope_matches_oracle_on_success_polynomials():
    rng = random.Random(7070)
    seen = 0
    while seen < 25:
        psi = random_cformula(rng, max_depth=4, max_gates=6)
        polys = list(dict.fromkeys(p for _, p in success_table(psi)))
        if len(polys) < 2:
            continue
        seen += 1
        assert_matches_oracle(polys + [ONE], HALF_OPEN)


def _random_poly(rng, max_degree=6):
    deg = rng.randint(0, max_degree)
    return Polynomial([F(rng.randint(-12, 12), rng.randint(1, 4))
                       for _ in range(deg + 1)])


@pytest.mark.parametrize(
    "seed, iv",
    enumerate(ENDS + [Interval(F(0), F(1)), Interval.point(F(3, 4))]),
)
def test_envelope_matches_oracle_on_random_sets(seed, iv):
    rng = random.Random(500 + seed)
    for _ in range(20):
        polys = [_random_poly(rng) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            polys.append(ONE)
        if rng.random() < 0.4:
            # a member tangent to another at a rational point inside
            r = F(rng.randint(1, 9), 10) * (iv.hi - iv.lo) + iv.lo
            c = F(rng.choice([-3, -1, 1, 2]))
            polys.append(polys[0] + poly(r * r, -2 * r, 1).scale(c))
        assert_matches_oracle(polys, iv)


def test_envelope_matches_oracle_where_every_member_is_active():
    # Tangent lines of a concave curve, plus one shared cubic: each member is
    # the minimum near its own point of tangency, so every member matters.
    rng = random.Random(3131)
    for _ in range(10):
        points = sorted({F(rng.randint(51, 99), 100) for _ in range(rng.randint(2, 6))})
        curve = poly(0, 3, -2) + poly(0, 0, 0, rng.randint(-1, 0))
        slope = curve.derivative()
        lines = [poly(curve(t) - slope(t) * t, slope(t)) for t in points]
        wobble = poly(0, 0, 0, F(rng.randint(-2, 2), 100))
        lines = [q + wobble for q in lines]
        for iv in ENDS:
            assert_matches_oracle(lines, iv)


@pytest.mark.parametrize("polys", [
    # ties at nu = 1: several members reach their common maximum there
    [poly(0, 1), poly(0, 0, 1), ONE],
    [poly(0, 2, -1), poly(1), poly(F(1, 2), F(1, 2))],
    # a tangency at an interior maximum
    [poly(F(-1, 2), 3, -2), poly(F(-1, 2), 3, -2) + poly(F(9, 16), F(-3, 2), 1)],
    # two members meeting at their common peak from both sides
    [poly(-1, 4, -2), poly(F(-3, 4), 3, -F(3, 2))],
    # constant members: flat cells, and a flat stretch of maxima
    [poly(F(3, 4)), poly(0, 1) + poly(F(1, 4)), ONE],
    [poly(F(3, 4)), poly(F(5, 4), -1), poly(F(-1, 4), 1) + poly(F(1, 2))],
    [poly(F(3, 5)), poly(F(3, 5))],
    # the supremum only at the open left end
    [poly(1, 0, 0, -1), poly(0, 3, -3, 1)],
    # an irrational crossing
    [poly(0, 0, 1), poly(1, -1)],
])
def test_envelope_matches_oracle_on_ties_and_flat_cells(polys):
    for iv in ENDS + [Interval(F(0), F(1)), Interval.point(F(1)),
                      Interval.point(F(1, 2))]:
        assert_matches_oracle(polys, iv)


def test_envelope_makes_no_sign_test(monkeypatch):
    calls = []
    for name in ("sign_of_poly_at", "refined_below"):
        original = getattr(AlgebraicNumber, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(AlgebraicNumber, name, counted)
    rng = random.Random(11)
    for _ in range(5):
        polys = [_random_poly(rng) for _ in range(4)] + [ONE]
        lower_envelope_max(polys, HALF_OPEN)
    lower_envelope_max([poly(0, 0, 1), poly(1, -1)], Interval(F(0), F(1)))
    assert calls == []


def test_breakpoints_keep_the_first_of_equal_roots():
    """Equal roots of two polynomials are one breakpoint: the first
    polynomial's, with its defining polynomial."""
    first = poly(-2, 0, 1) * poly(-3, 1)
    points = _breakpoints([first, poly(-2, 0, 1)], Interval(F(1), F(2)))
    assert [str(a) for a in points] == [
        "1", "root of nu^3 - 3*nu^2 - 2*nu + 6 in (1, 2)", "2"]
    assert points[1].defining == first
    points = _breakpoints([poly(-2, 0, 1), first], Interval(F(1), F(2)))
    assert str(points[1]) == "root of nu^2 - 2 in (1, 2)"


def test_sorted_unique_compares_no_pair_twice(monkeypatch):
    """Dropping an equal neighbour reuses the sort's verdict: no compare call
    beyond the sort's own, and the first of equal numbers is kept."""
    iv = Interval(F(0), F(3))
    roots = [a for p in (poly(-2, 0, 1) * poly(-3, 1), poly(-2, 0, 1),
                         poly(-3, 0, 1), poly(3, -4, 1), poly(-1, 1))
             for a in _roots_in(p, iv)]
    calls = []
    original = AlgebraicNumber.compare

    def counted(self, other):
        calls.append(None)
        return original(self, other)

    rng = random.Random(5)
    for _ in range(20):
        nums = roots + [AlgebraicNumber.from_rational(F(rng.randint(0, 6), 2))
                        for _ in range(4)]
        rng.shuffle(nums)
        first = []
        for a in nums:
            if not any(original(a, b) == 0 for b in first):
                first.append(a)
        monkeypatch.setattr(AlgebraicNumber, "compare", counted)
        calls.clear()
        sorted(nums, key=cmp_to_key(AlgebraicNumber.compare))
        by_sort = len(calls)
        calls.clear()
        out = _sorted_unique(nums)
        monkeypatch.undo()
        assert len(calls) == by_sort
        assert len(out) == len(first) < len(nums)
        assert all(original(a, b) < 0 for a, b in zip(out, out[1:]))
        assert {id(a) for a in out} == {id(a) for a in first}
