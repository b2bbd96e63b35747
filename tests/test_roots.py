import random
from fractions import Fraction as F

import numpy as np

from uclogic import roots
from uclogic.polynomials import Polynomial
from uclogic.roots import (
    Interval, count_roots, isolate_roots, refine_isolating, root_bound, sturm_sequence,
)


def poly(*coeffs):
    return Polynomial([F(c) for c in coeffs])


def test_interval_basics():
    iv = Interval(F(0), F(1), lo_open=True, hi_open=False)
    assert iv.contains(F(1)) and not iv.contains(F(0))
    assert iv.midpoint == F(1, 2)
    assert str(iv) == "(0, 1]"
    pt = Interval.point(F(2, 3))
    assert pt.is_point and pt.contains(F(2, 3))


def test_sturm_sequence_shape():
    p = poly(-2, 0, 1)  # nu^2 - 2
    seq = sturm_sequence(p)
    assert seq[0] == p and seq[1] == p.derivative()
    assert seq[-1].degree == 0


def test_root_counting_builds_no_sturm_chain(monkeypatch):
    p = poly(-2, 0, 1)
    seq = sturm_sequence(p)
    twin = poly(-2, 0, 1)  # nothing is kept on p: an equal chain, rebuilt
    assert sturm_sequence(twin) == seq and sturm_sequence(p) is not seq

    def refuse(*args):
        raise AssertionError("called")

    # a square-free input never reaches the remainder sequence over Q
    monkeypatch.setattr("uclogic.roots.sturm_sequence", refuse)
    monkeypatch.setattr(Polynomial, "divmod", refuse)
    assert count_roots(p, Interval(F(0), F(2))) == 1
    assert count_roots(p * poly(-1, 1), Interval(F(-2), F(2))) == 3
    assert len(isolate_roots(poly(-2, 0, 1), Interval(F(-2), F(2)))) == 2


def test_count_roots_known():
    # (nu - 1/4)(nu - 3/4): two roots in [0,1], one in [1/2,1]
    p = poly(F(3, 16), -1, 1)
    assert count_roots(p, Interval(F(0), F(1))) == 2
    assert count_roots(p, Interval(F(1, 2), F(1))) == 1
    assert count_roots(p, Interval(F(4, 5), F(1))) == 0


def test_count_roots_endpoint_openness():
    p = poly(-1, 1)  # root exactly at 1
    assert count_roots(p, Interval(F(0), F(1))) == 1
    assert count_roots(p, Interval(F(0), F(1), hi_open=True)) == 0
    assert count_roots(p, Interval(F(1), F(2), lo_open=True)) == 0


def test_isolate_roots_rational_roots():
    p = poly(0, -1, 0, 1) * poly(-2, 1)  # roots -1, 0, 1, 2
    ivs = isolate_roots(p, Interval(F(-3), F(3)))
    assert len(ivs) == 4
    sf = p.square_free()
    for iv, root in zip(ivs, [F(-1), F(0), F(1), F(2)]):
        assert iv.contains(root)
        if iv.is_point:
            assert iv.lo == root
        else:
            # open isolators never carry a root on the boundary
            assert sf(iv.lo) != 0 and sf(iv.hi) != 0
            assert count_roots(p, iv.closure()) == 1


def test_isolate_roots_irrational():
    p = poly(-2, 0, 1)  # +-sqrt(2)
    ivs = isolate_roots(p, Interval(F(0), F(2)))
    assert len(ivs) == 1
    iv = ivs[0]
    assert not iv.is_point
    assert iv.lo < F(141421, 100000) < iv.hi
    assert count_roots(p, iv.closure()) == 1


def test_refine_isolating_halves_width():
    p = poly(-2, 0, 1)
    (iv,) = isolate_roots(p, Interval(F(1), F(2)))
    for _ in range(20):
        nxt = refine_isolating(p, iv)
        assert nxt.width <= iv.width / 2 or nxt.is_point
        if nxt.is_point:
            break
        iv = nxt
    assert iv.width <= F(1, 2**19) or iv.is_point


def _numpy_root_count(coeffs, lo, hi):
    """Oracle: count real roots in [lo, hi] via companion-matrix eigenvalues."""
    arr = np.array([float(c) for c in reversed(coeffs)])
    arr = np.trim_zeros(arr, "f")
    if len(arr) <= 1:
        return 0
    roots = np.roots(arr)
    real = roots[np.abs(roots.imag) < 1e-7].real
    return int(np.sum((real >= lo - 1e-9) & (real <= hi + 1e-9)))


def test_count_roots_against_numpy_oracle():
    rng = random.Random(20260826)
    for _ in range(300):
        deg = rng.randint(1, 12)
        coeffs = [F(rng.randint(-50, 50)) for _ in range(deg)] + [F(rng.randint(1, 50))]
        p = Polynomial(coeffs).square_free()
        lo, hi = F(rng.randint(-4, 0)), F(rng.randint(1, 4))
        # keep the oracle honest: skip intervals with a root within float
        # noise of an endpoint, where the eigenvalue count is ambiguous
        if abs(p(lo)) < F(1, 10**6) * (1 + abs(p(lo))) and p(lo) != 0:
            continue
        if abs(p(hi)) < F(1, 10**6) * (1 + abs(p(hi))) and p(hi) != 0:
            continue
        exact = count_roots(p, Interval(lo, hi))
        approx = _numpy_root_count(p.coeffs, float(lo), float(hi))
        assert exact == approx, f"{p.coeffs} on [{lo},{hi}]: exact={exact} numpy={approx}"


def test_isolation_is_sound_and_complete():
    rng = random.Random(7)
    for _ in range(60):
        deg = rng.randint(1, 8)
        coeffs = [F(rng.randint(-9, 9)) for _ in range(deg)] + [F(rng.randint(1, 9))]
        p = Polynomial(coeffs).square_free()
        box = Interval(F(-5), F(5))
        ivs = isolate_roots(p, box)
        assert len(ivs) == count_roots(p, box)
        for iv in ivs:
            if iv.is_point:
                assert p(iv.lo) == 0
            else:
                assert count_roots(p, iv.closure()) == 1
        # pairwise disjoint
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo


def _with_rational_roots(rng):
    """Random factors times rational roots, some repeated and some on the
    ends of the box or on bisection midpoints, so that isolation deflates
    them and splits pieces off them."""
    p = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
                   + [1])
    for _ in range(rng.randint(1, 4)):
        root = F(rng.randint(-8, 8), rng.choice((1, 2, 4, 3)))
        p = p * poly(-root, 1) ** rng.randint(1, 2)
    return p


def test_isolate_roots_needs_no_gcd(monkeypatch):
    rng = random.Random(19)
    cases = [_with_rational_roots(rng) for _ in range(60)]
    cases += [poly(-2, 0, 1), poly(-2, 0, 1) ** 2 * poly(-1, 1)]

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(Polynomial, "gcd", refuse)
    box = Interval(F(-2), F(2))
    for p in cases:
        ivs = isolate_roots(p, box)
        sf = p.square_free()
        assert len(ivs) == count_roots(p, box)
        assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))
        for iv in ivs:
            if iv.is_point:
                assert sf.sign_at(iv.lo) == 0
            else:
                assert sf.sign_at(iv.lo) != 0 and sf.sign_at(iv.hi) != 0
                assert count_roots(sf, iv) == 1


# The earlier isolation, kept as an oracle: bisection that takes every piece
# with Descartes' bound 1 as an isolator, followed by a pass that shrinks an
# isolator until neither end is a root.
def _reference_isolate_open(f, a, b):
    out = []
    todo = [(f, a, b)]
    while todo:
        f, a, b = todo.pop()
        n = roots._variations(f)
        if n == 0:
            continue
        if n == 1:
            out.append(Interval(a, b, lo_open=True, hi_open=True))
            continue
        m = (a + b) / 2
        d = len(f) - 1
        left = [c << (d - k) for k, c in enumerate(f)]
        right = roots.taylor_shift(left)
        if right[0] == 0:
            out.append(Interval.point(m))
            if d == 1:
                continue
            left, right = roots._deflate(left, F(1)), right[1:]
        todo.append((right, m, b))
        todo.append((left, a, m))
    return out


def _reference_shrink_off_root_endpoints(q, iv):
    while not iv.is_point and (q.sign_at(iv.lo) == 0 or q.sign_at(iv.hi) == 0):
        m = iv.midpoint
        sign = q.sign_at(m)
        if sign == 0:
            return Interval.point(m)
        if (q.sign_at(iv.lo) or q.derivative().sign_at(iv.lo)) != sign:
            iv = Interval(iv.lo, m, lo_open=True, hi_open=True)
        else:
            iv = Interval(m, iv.hi, lo_open=True, hi_open=True)
    return iv


def _reference_isolate_roots(p, iv):
    nums, ends = roots._deflate_ends(p.nums, iv)
    out = [Interval.point(x) for x in ends if iv.contains(x)]
    if len(nums) > 1 and not iv.is_point:
        sq = p.square_free()
        nums, _ = roots._deflate_ends(sq.nums, iv)
        if len(nums) > 1:
            f = roots._unit_form(nums, iv, len(nums) - 1)
            out += [_reference_shrink_off_root_endpoints(sq, r)
                    for r in _reference_isolate_open(f, iv.lo, iv.hi)]
    return sorted(out, key=lambda r: r.lo)


def test_isolators_match_the_shrink_pass_reference():
    rng = random.Random(23)
    boxes = [
        Interval(F(1, 2), F(1), lo_open=True),
        Interval(F(-2), F(2)),
        Interval(F(0), F(2), lo_open=True, hi_open=True),
        Interval(F(-2), F(3, 2), hi_open=True),
    ]
    shrunk = 0
    for _ in range(150):
        p = _with_rational_roots(rng)
        for box in boxes:
            ivs = isolate_roots(p, box)
            assert ivs == _reference_isolate_roots(p, box), (p, box)
            assert count_roots(p, box) == len(ivs)
            bound = root_bound(p, box)
            assert bound >= len(ivs) and (bound > 1 or bound == len(ivs))
            sq = p.square_free()
            nums, _ = roots._deflate_ends(sq.nums, box)
            if len(nums) > 1:
                f = roots._unit_form(nums, box, len(nums) - 1)
                shrunk += sum(
                    r != _reference_shrink_off_root_endpoints(sq, r)
                    for r in _reference_isolate_open(f, box.lo, box.hi))
    assert shrunk > 0  # the cases reach isolators with a root on an end
