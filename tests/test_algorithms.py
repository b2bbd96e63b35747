import itertools
import json
import random
from fractions import Fraction as F
from math import ceil
from pathlib import Path

import pytest

from formula_gen import pl_corpus, random_cformula, truth_table_sat, truth_table_valid
from uclogic.algebraic import AlgebraicNumber
from uclogic.algorithms import (
    MAX_EPS_BITS,
    MAX_GRID_CELLS,
    EntaQuery,
    WitnessResult,
    _exceeds_half,
    _least,
    arr,
    enta,
    osc,
    pmc,
    rrd,
    sat,
)
from uclogic.decide import SignCondition, exists_sat, positive_cells
from uclogic.formulas import parse_cformula, variables
from uclogic.polynomials import ONE, ZERO, Polynomial, simplest_between
from uclogic.roots import Interval
from uclogic.semantics import (
    Interpretation,
    canonical_valuations,
    parse_ambition,
    satisfies,
    success_polynomial,
    success_table,
)

HALF = F(1, 2)


def test_enta_on_reliable_formulas_matches_truth_tables():
    samples = [
        ("(or x (not x))", True),
        ("(and x (not x))", False),
        ("(imp (and x y) x)", True),
        ("(iff x y)", False),
        ("T", True),
        ("F", False),
    ]
    for text, valid in samples:
        assert enta(EntaQuery(parse_cformula(text))) == valid


def test_enta_with_matching_ambition():
    # success rate is nu under every valuation, so mu <= nu entails the circuit
    psi = parse_cformula("(iff (or? x1 x2) (or x1 x2))")
    gamma = (parse_ambition("mu <= nu"),)
    assert enta(EntaQuery(psi, gamma))
    assert not enta(EntaQuery(psi))


def test_enta_unreliable_tautology_is_not_valid():
    # even a tautology fails unconstrained entailment once its gates can
    # misfire: some interpretation drops the success rate below mu
    assert not enta(EntaQuery(parse_cformula("(or? x (not? x))")))


def test_enta_more_ambitions_never_hurt():
    rng = random.Random(11)
    g = parse_ambition("mu <= nu")
    for _ in range(25):
        psi = random_cformula(rng, max_gates=4)
        base = enta(EntaQuery(psi))
        with_g = enta(EntaQuery(psi, (g,)))
        if base:
            assert with_g


def test_pmc_witness_satisfies_formula():
    rng = random.Random(5)
    for _ in range(40):
        psi = random_cformula(rng, max_gates=6)
        res = pmc(psi)
        assert res.found == sat(psi)
        if res.found:
            interp = Interpretation(res.valuation, res.nu, res.mu)
            assert satisfies(interp, psi)
            assert res.mu > F(1, 2)


def test_pmc_modes_agree_on_found():
    rng = random.Random(6)
    for _ in range(25):
        psi = random_cformula(rng, max_gates=5)
        a = pmc(psi, mode="faithful")
        b = pmc(psi, mode="fast")
        assert a.found == b.found
        if a.found:
            assert a.valuation == b.valuation
            assert satisfies(Interpretation(b.valuation, b.nu, b.mu), psi)


def test_a_fitting_sample_isolates_no_root(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("roots isolated")

    monkeypatch.setattr("uclogic.decide.isolate_roots", refuse)
    # x = y = F gives P = 1 - nu, below nu at the sample 2/3
    assert not enta(EntaQuery(parse_cformula("(or? x y)"),
                              (parse_ambition("mu <= nu"),)))
    # P(1) = 0, and P(2/3) = 136/243 > 1/2
    assert sat(parse_cformula("(or? (id? F) (or? (id? F) (id? F)))"))
    # P = nu under both valuations: nu >= 7/10 at the sample 3/4
    assert rrd(parse_cformula("(or? x (not? x))"), F(7, 10))


def test_pmc_fast_is_faithful_when_its_nu_is_simple():
    """The fast witness is the first fixed sample that fits, and those
    samples are the faithful search's first ten rationals, so the two modes
    return the same interpretation whenever the faithful nu has a
    denominator of at most 8."""
    refs = Path(__file__).resolve().parent.parent / "bench" / "refs" / "circuits.json"
    interior = 0
    for item in json.loads(refs.read_text())["items"]:
        psi = parse_cformula(item["formula"])
        faithful = pmc(psi, mode="faithful")
        fast = pmc(psi, mode="fast")
        assert fast.found == faithful.found
        if faithful.found and faithful.nu.denominator <= 8:
            assert fast == faithful, item["id"]
            interior += faithful.nu < 1
    assert interior >= 12


def test_pmc_start_valuation_both_branches():
    # triple inverter checked against a tautology: P is 1-(1-nu)^3 at x=F
    # (instant hit at nu=1) and 1-nu^3 at x=T (fraction enumeration)
    psi = parse_cformula(
        "(iff (or (or (not? x) (not? x)) (not? x)) (or x (not x)))"
    )
    hit = pmc(psi, start_valuation={"x": False})
    assert (hit.found, hit.valuation, hit.nu, hit.mu) == (
        True, {"x": False}, F(1), F(1)
    )
    slow = pmc(psi, start_valuation={"x": True})
    assert (slow.found, slow.valuation, slow.nu, slow.mu) == (
        True, {"x": True}, F(2, 3), F(19, 27)
    )
    with pytest.raises(ValueError):
        pmc(psi, start_valuation={"y": True})
    with pytest.raises(ValueError):
        pmc(psi, mode="quick")


def _reference_pmc(psi, mode, start):
    """pmc by its definition, over an order of valuation dicts built here:
    canonical order with the start valuation moved first; the first
    valuation whose polynomial exceeds 1/2 somewhere in (1/2, 1] wins."""
    order = list(canonical_valuations(sorted(variables(psi))))
    if start is not None:
        order.remove(start)
        order.insert(0, start)
    for v in order:
        p = success_polynomial(psi, v)
        found, nu = _exceeds_half(p)
        if not found:
            continue
        if mode == "faithful" and nu != 1:
            nu = next(F(num, den) for den in itertools.count(3)
                      for num in range(ceil((den + 1) / 2), den)
                      if p(F(num, den)) > HALF)
        return WitnessResult(True, v, nu, p(nu))
    return WitnessResult(False)


def test_pmc_matches_the_order_by_valuation_dicts():
    rng = random.Random(41)
    for _ in range(15):
        psi = random_cformula(rng, max_gates=5)
        names = sorted(variables(psi))
        starts = [None] + [{n: rng.random() < 0.5 for n in names} for _ in range(2)]
        for mode, start in itertools.product(("faithful", "fast"), starts):
            got = pmc(psi, mode=mode, start_valuation=start)
            assert got == _reference_pmc(psi, mode, start), (psi, mode, start)


def test_sat_on_reliable_formulas_matches_truth_tables():
    for text, expected in [
        ("(and x (not x))", False),
        ("(or x y)", True),
        ("(iff (xor x y) (iff x y))", False),
    ]:
        assert sat(parse_cformula(text)) == expected


def test_arr_published_example():
    psi = parse_cformula("(or? x (not? x))")
    r3 = arr(psi, F(7, 10), 3)
    assert [str(iv) for iv in r3.intervals] == ["(5/6, 1]"]
    r4 = arr(psi, F(7, 10), 4)
    assert [str(iv) for iv in r4.intervals] == ["(7/8, 1]"]


def test_arr_validates_inputs():
    psi = parse_cformula("x")
    with pytest.raises(ValueError):
        arr(psi, F(1, 2), 3)
    with pytest.raises(ValueError):
        arr(psi, F(3, 4), 0)


def test_arr_monotone_in_target_rate():
    rng = random.Random(17)
    for _ in range(10):
        psi = random_cformula(rng, max_gates=4)
        strict = {iv for iv in arr(psi, F(4, 5), 4).intervals}
        loose = {iv for iv in arr(psi, F(3, 5), 4).intervals}
        assert strict <= loose


def test_arr_intervals_are_sound():
    rng = random.Random(18)
    mu_bar = F(7, 10)
    for _ in range(15):
        psi = random_cformula(rng, max_gates=4)
        for iv in arr(psi, mu_bar, 3).intervals:
            nu = simplest_between(iv.lo, iv.hi)
            for v in canonical_valuations(sorted(variables(psi))):
                assert satisfies(Interpretation(v, nu, mu_bar), psi)


def _arr_per_cell(psi, mu_bar, k):
    """Reference: cell j is excluded iff mu_bar - P_v > 0 somewhere in it,
    one kernel query per cell and valuation."""
    kept = []
    for j in range(k):
        cell = Interval(HALF + F(j, 2 * k), HALF + F(j + 1, 2 * k),
                        lo_open=True, hi_open=False)
        if not any(
            exists_sat([SignCondition(Polynomial.constant(mu_bar) - p, ">")], cell)[0]
            for _, p in success_table(psi)
        ):
            kept.append(cell)
    return tuple(kept)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 32])
def test_arr_matches_per_cell_definition(k):
    rng = random.Random(300 + k)
    for _ in range(8):
        psi = random_cformula(rng, max_gates=5)
        for mu_bar in (F(11, 20), F(5, 8), F(7, 10), F(9, 10), F(1)):
            assert arr(psi, mu_bar, k).intervals == _arr_per_cell(psi, mu_bar, k)


@pytest.mark.parametrize("text, mu_bar, k", [
    ("(or x (not x))", F(1), 4),        # P = 1 = mu_bar: q is the zero polynomial
    ("(id? T)", F(3, 4), 2),             # P = nu: rational root on a grid point
    ("(id? T)", F(1), 3),                # root at nu = 1
    ("(or? x (not? x))", F(1), 6),       # roots at nu = 1 under both valuations
    ("(and? (id? T) T)", F(5, 9), 3),    # root 2/3 (a grid point) inside an
    ("(and? (id? T) T)", F(5, 9), 6),    # open isolator of a quadratic
])
def test_arr_edge_cases_match_per_cell_definition(text, mu_bar, k):
    psi = parse_cformula(text)
    assert arr(psi, mu_bar, k).intervals == _arr_per_cell(psi, mu_bar, k)


def test_positive_cells_by_hand():
    assert positive_cells(ZERO, HALF, F(1), 4) == set()
    assert positive_cells(ONE, HALF, F(1), 4) == {0, 1, 2, 3}
    assert positive_cells(-ONE, HALF, F(1), 4) == set()
    # 3/4 - nu: positive exactly below the grid point 3/4
    assert positive_cells(Polynomial([F(3, 4), -1]), HALF, F(1), 2) == {0}
    # (nu - 3/4)^2 is positive everywhere except at a grid point
    sq = Polynomial([F(-3, 4), 1]) ** 2
    assert positive_cells(sq, HALF, F(1), 2) == {0, 1}
    assert positive_cells(-sq, HALF, F(1), 2) == set()
    # nu^2 - 2/3 changes sign at sqrt(2/3) ~ 0.8165, inside the cell (3/4, 7/8]
    assert positive_cells(Polynomial([F(-2, 3), 0, 1]), HALF, F(1), 4) == {2, 3}


def _enta_per_valuation(query):
    for _, p in success_table(query.psi):
        conds = [SignCondition(ONE - p, ">")]
        for g in query.gamma:
            conds.append(SignCondition(g.bound - p, ">"))
            conds.append(SignCondition(g.bound - Polynomial.constant(HALF), ">"))
        if exists_sat(conds, Interval(HALF, 1, lo_open=True))[0]:
            return False
    return True


def _interior(p):
    conds = [SignCondition(p - Polynomial.constant(HALF), ">"),
             SignCondition(ONE - p, ">")]
    return exists_sat(conds, Interval(HALF, 1, lo_open=True, hi_open=True))


def _pmc_per_valuation(psi, mode):
    table = success_table(psi)
    for v, p in table:
        if p(1) > HALF:
            return WitnessResult(True, v, F(1), p(1))
        found, witness = _interior(p)
        if not found:
            continue
        if mode == "fast":
            return WitnessResult(True, v, witness, p(witness))
        den = 3
        while True:
            for num in range(ceil((den + 1) / 2), den):
                if p(F(num, den)) > HALF:
                    return WitnessResult(True, v, F(num, den), p(F(num, den)))
            den += 1
    return WitnessResult(False)


def test_procedures_unchanged_on_heavily_duplicated_tables():
    # six variables, at most two gates: many valuations share a polynomial
    rng = random.Random(41)
    names = tuple(f"x{i}" for i in range(1, 7))
    gamma = (parse_ambition("mu <= nu"), parse_ambition("mu <= 2*nu - nu^2"))
    duplicated = 0
    for _ in range(25):
        psi = random_cformula(rng, max_depth=5, names=names, max_gates=2)
        table = success_table(psi)
        duplicated += len({p for _, p in table}) < len(table)
        for g in ((), gamma[:1], gamma):
            q = EntaQuery(psi, g)
            assert enta(q) == _enta_per_valuation(q)
        assert sat(psi) == any(p(1) > HALF or _interior(p)[0] for _, p in table)
        for mu_bar in (F(3, 5), F(9, 10), F(1)):
            conds = [SignCondition(p - Polynomial.constant(mu_bar), ">=")
                     for _, p in table]
            expected = exists_sat(conds, Interval(HALF, 1, lo_open=True))[0]
            assert rrd(psi, mu_bar) == expected
        for mode in ("faithful", "fast"):
            assert pmc(psi, mode=mode) == _pmc_per_valuation(psi, mode)
    assert duplicated >= 10


def test_each_distinct_polynomial_reaches_the_kernel_once(monkeypatch):
    calls = []

    def counting(conds, iv):
        calls.append(conds)
        return exists_sat(conds, iv)

    monkeypatch.setattr("uclogic.algorithms.exists_sat", counting)
    # 16 valuations, success polynomial 0 or 1 - nu: no valuation succeeds
    unsat = parse_cformula("(and (and x1 (not? x1)) (or x2 (or x3 x4)))")
    assert len({p for _, p in success_table(unsat)}) == 2
    for decide in (sat, pmc, lambda psi: pmc(psi, mode="fast")):
        calls.clear()
        assert decide(unsat) in (False, WitnessResult(False))
        assert len(calls) == 2
    calls.clear()
    assert enta(EntaQuery(parse_cformula("(or (or x1 (not x1)) (and? x2 x3))")))
    assert len(calls) == 1


def test_rrd_published_example():
    psi = parse_cformula("(or? x (not? x))")
    assert rrd(psi, F(7, 10))
    assert rrd(psi, F(1))  # nu = 1 is admissible and achieves rate 1
    # a contingency never reaches any admissible rate under v(x) = F
    assert not rrd(parse_cformula("x"), F(7, 10))
    # the triple inverter peaks strictly below 7/8 on admissible rates
    psi3 = parse_cformula(
        "(iff (or (or (not? x) (not? x)) (not? x)) (or x (not x)))"
    )
    assert not rrd(psi3, F(7, 8))
    assert rrd(psi3, F(3, 5))


def test_rrd_and_enta_separate():
    # one rate (e.g. nu = 1) achieves mu = 7/10 under every valuation, yet
    # the constant ambition does not entail the formula: at v(x) = T the
    # success rate is nu, which can fall below 7/10
    psi = parse_cformula("(or? x (not? x))")
    assert rrd(psi, F(7, 10))
    assert not enta(EntaQuery(psi, (parse_ambition("mu <= 7/10"),)))


def test_osc_feasible_example():
    opt = osc(parse_cformula("(or? x (not? x))"))
    assert opt.feasible and opt.attained
    assert opt.mu_star.rational_value == 1
    assert opt.nu_star.rational_value == 1
    nu_hat, mu_hat = opt.certified_pair
    assert (nu_hat, mu_hat) == (F(1), F(1))


def test_osc_open_boundary_infeasible():
    # envelope of 1 - nu^3 and 1 - (1-nu)^3 peaks at the excluded rate 1/2
    psi = parse_cformula(
        "(iff (or (or (not? x) (not? x)) (not? x)) (or x (not x)))"
    )
    opt = osc(psi)
    assert not opt.feasible
    assert opt.mu_star.rational_value == F(7, 8)
    assert opt.nu_star.rational_value == F(1, 2)
    assert not opt.attained
    assert "not attained" in opt.diagnostic and "1/2" in opt.diagnostic


def test_osc_never_above_half_infeasible():
    opt = osc(parse_cformula("(and x (not x))"))
    assert not opt.feasible
    assert opt.mu_star.rational_value == 0
    assert "below every admissible ambition" in opt.diagnostic


def test_osc_certified_pair_is_sound():
    rng = random.Random(29)
    eps = F(1, 10**6)
    for _ in range(20):
        psi = random_cformula(rng, max_gates=4)
        opt = osc(psi, eps=eps)
        if not opt.feasible:
            continue
        nu_hat, mu_hat = opt.certified_pair
        assert F(1, 2) < nu_hat <= 1 and mu_hat > F(1, 2)
        for v in canonical_valuations(sorted(variables(psi))):
            assert satisfies(Interpretation(v, nu_hat, mu_hat), psi)
        gap = opt.mu_star.approximate(F(1, 10**12)) - mu_hat
        assert gap <= eps + F(2, 10**12)


def test_osc_rejects_bad_eps():
    with pytest.raises(ValueError):
        osc(parse_cformula("x"), eps=F(0))


def test_pl_corpus_sample_equivalence():
    """Spot-check of the exhaustive corpus (the full sweep runs in the
    acceptance suite)."""
    rng = random.Random(3)
    corpus = pl_corpus()
    for f in rng.sample(corpus, 150):
        assert enta(EntaQuery(f)) == truth_table_valid(f)
        assert sat(f) == truth_table_sat(f)


# --- the least success polynomials (_least) --------------------------------


def _p(*coeffs):
    return Polynomial([F(c) for c in coeffs])


NU = _p(0, 1)
# hand-made sets: ties, members touching another at one point, ZERO, single
# members, rational coefficients.  A flat stretch of maxima above 0 (only in
# the last set) starts at a crossing of two survivors, so nu_star keeps it.
HAND_MADE = [
    [NU, _p(0, 0, 1), ONE],                               # tie at nu = 1
    [NU, NU, _p(0, 2, -1), NU],                           # duplicates
    [_p(0, 2, -1), _p(0, 2, -1) + _p(1, -2, 1)],          # touch at nu = 1
    [_p(-1, 4, -2), _p(-1, 4, -2) + _p(F(1, 4), -1, 1)],  # touch at nu = 1/2
    [_p(F(-1, 2), 3, -2), _p(F(-1, 2), 3, -2) + _p(F(9, 16), F(-3, 2), 1)],
    [_p(0, 0, 1), _p(1, -1), ONE],                        # irrational peak
    [ZERO, NU, ONE],
    [NU, ZERO, _p(0, 0, 1)],
    [_p(0, 0, 1)],
    [ONE],
    [ZERO],
    [_p(F(1, 3), F(1, 2)), _p(F(2, 7), F(5, 9)), _p(F(-1, 5), F(6, 5), F(1, 10))],
    [ZERO, _p(0, 0, 1), _p(1, -1)],     # ZERO with an interior crossing
    [_p(F(1, 2), 1), _p(0, 0, 2)],      # members above 1, capped by ONE
]


def _seeded_tables(count=30, seed=2024):
    rng = random.Random(seed)
    for _ in range(count):
        psi = random_cformula(rng, max_depth=4, max_gates=5)
        yield psi, [p for _, p in success_table(psi)]


def _sympy_at_least(sympy, p, q):
    """p >= q on [1/2, 1] by sympy: p - q has no root of odd multiplicity
    inside, and is >= 0 at 17 samples and > 0 at one of them."""
    nu = sympy.Symbol("nu")
    half = sympy.Rational(1, 2)
    diff = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator)
         for c in reversed((p - q).coeffs)], nu)
    for f, mult in diff.sqf_list()[1]:
        if mult % 2:
            ends = (f.eval(half) == 0) + (f.eval(1) == 0)
            if f.count_roots(half, 1) - ends:
                return False
    samples = [diff.eval(sympy.Rational(k, 32)) for k in range(16, 33)]
    return min(samples) >= 0 and max(samples) > 0


def test_least_drops_only_dominated_members():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    sets = [polys + [ONE] for _, polys in _seeded_tables()] + HAND_MADE
    for _ in range(30):
        sets.append([Polynomial([F(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(rng.randint(1, 6))])
                     for _ in range(rng.randint(1, 6))])
    dropped = 0
    for polys in sets:
        survivors = _least(polys)
        assert survivors and set(survivors) <= set(polys)
        for p in set(polys) - set(survivors):
            dropped += 1
            assert any(_sympy_at_least(sympy, p, q) for q in survivors), p
    assert dropped >= 50


def test_least_on_hand_made_sets():
    expected = {
        0: [_p(0, 0, 1)],         # nu - nu^2 touches 0 at nu = 1
        1: [NU],                  # 2*nu - nu^2 >= nu
        2: HAND_MADE[2][:1],      # (1 - nu)^2: Bernstein 1/4, 0, 0
        3: HAND_MADE[3][:1],      # (nu - 1/2)^2: Bernstein 0, 0, 1/4
        4: HAND_MADE[4],          # a touch inside is never dropped
        5: HAND_MADE[5][:2],
        6: [ZERO],
        7: [ZERO],
    }
    for i, survivors in expected.items():
        assert _least(HAND_MADE[i]) == survivors, i


def test_least_keeps_first_occurrence_order():
    # 3/4 and nu^2 cross inside (1/2, 1); nu^3 + 1 lies above both
    a, b, c = _p(F(3, 4)), _p(0, 0, 1), _p(1, 0, 0, 1)
    assert _least([a, c, b, a, b]) == [a, b]
    assert _least([c, b, a]) == [b, a]
    assert _least([b]) == [b]
    assert _least([NU, NU]) == [NU]
    # every success polynomial is >= 0 on [1/2, 1]
    assert _least([NU, ZERO, ONE, ZERO]) == [ZERO]
    for _, polys in _seeded_tables(count=10):
        survivors = _least(polys)
        first = list(dict.fromkeys(polys))
        assert survivors == [p for p in first if p in survivors]


def _unpruned(monkeypatch, procedure, *args):
    """The procedure with every distinct polynomial sent to the kernel."""
    with monkeypatch.context() as m:
        m.setattr("uclogic.algorithms._least",
                  lambda polys: list(dict.fromkeys(polys)))
        return procedure(*args)


def _assert_prunes_nothing_that_matters(monkeypatch, psi, polys):
    gammas = ((), (parse_ambition("mu <= nu"),),
              (parse_ambition("mu <= 2*nu - nu^2"), parse_ambition("mu <= 9/10")))
    for g in gammas:
        q = EntaQuery(psi, g)
        assert enta(q) == _unpruned(monkeypatch, enta, q)
    for mu_bar in (F(3, 5), F(9, 10), F(1)):
        assert rrd(psi, mu_bar) == _unpruned(monkeypatch, rrd, psi, mu_bar)
        assert arr(psi, mu_bar, 7) == _unpruned(monkeypatch, arr, psi, mu_bar, 7)
    opt, ref = osc(psi), _unpruned(monkeypatch, osc, psi)
    assert (opt.feasible, opt.attained, opt.certified_pair, opt.diagnostic) == (
        ref.feasible, ref.attained, ref.certified_pair, ref.diagnostic)
    assert opt.mu_star.compare(ref.mu_star) == 0
    assert opt.mu_star.compare(AlgebraicNumber.from_rational(1)) <= 0  # capped
    if ZERO in polys:
        # the envelope is 0 throughout: the least set is {ZERO}, whose only
        # candidates are the ends, and the closed end 1 is taken
        assert opt.nu_star.compare(AlgebraicNumber.from_rational(1)) == 0
    else:
        assert opt.nu_star.compare(ref.nu_star) == 0


def test_pruned_procedures_match_unpruned_on_seeded_formulas(monkeypatch):
    pruned = 0
    for psi, polys in _seeded_tables():
        pruned += len(_least(polys + [ONE])) < len(set(polys + [ONE]))
        _assert_prunes_nothing_that_matters(monkeypatch, psi, polys)
    assert pruned >= 20


@pytest.mark.parametrize("polys", HAND_MADE)
def test_pruned_procedures_match_unpruned_on_hand_made_sets(monkeypatch, polys):
    monkeypatch.setattr("uclogic.algorithms.success_table",
                        lambda psi, max_gates: [({}, p) for p in polys])
    _assert_prunes_nothing_that_matters(monkeypatch, parse_cformula("x"), polys)


def test_zero_envelope_takes_nu_star_one():
    # all candidates peak on a zero envelope; without pruning the first
    # interior one, a root of nu^2 + nu - 1, was taken
    psi = parse_cformula("(maj3 (nimp (and? x5 x4) x1) x3 (or? (or x2 x2) x1))")
    assert ZERO in {p for _, p in success_table(psi)}
    opt = osc(psi)
    assert not opt.feasible and opt.attained
    assert opt.mu_star.rational_value == 0
    assert opt.nu_star.rational_value == 1


def test_osc_refines_the_optimum_once(monkeypatch):
    # an irrational optimum certified at a small eps: the comparisons start
    # from sup refined below eps / 4, not from its coarse isolator
    psi = parse_cformula("(nand? (not (xor? y y)) (iff? (xor (not y) x) x))")
    eps = F(1, 10**40)
    calls = []
    original = AlgebraicNumber.refined

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(AlgebraicNumber, "refined", counting)
    opt = osc(psi, eps=eps)
    assert opt.feasible and not opt.mu_star.is_rational
    nu_hat, mu_hat = opt.certified_pair
    assert opt.mu_star.compare(AlgebraicNumber.from_rational(mu_hat + eps)) <= 0
    for v in canonical_valuations(sorted(variables(psi))):
        assert satisfies(Interpretation(v, nu_hat, mu_hat), psi)
    assert len(calls) < 1000


def test_limits_on_eps_and_k():
    psi = parse_cformula("(or? x (not? x))")
    with pytest.raises(ValueError, match="limit"):
        osc(psi, eps=F(1, 2**MAX_EPS_BITS))
    assert osc(psi, eps=F(1, 2**MAX_EPS_BITS - 1)).feasible
    valid = parse_cformula("(or x (not x))")
    with pytest.raises(ValueError, match="limit"):
        arr(valid, F(7, 10), MAX_GRID_CELLS + 1)
    assert len(arr(valid, F(7, 10), MAX_GRID_CELLS).intervals) == MAX_GRID_CELLS
