import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from coretorus.slopes import (Slope, SlopeTriple, at_least_golden_power,
                              elementary_move, fib, golden_power_cmp,
                              intersection, lucas, mediant,
                              min_pre_core_intersection, normalize_slope,
                              slope_seq)


def binet(i):
    """fib(i) by the rounded Binet form in floating point: an independent
    oracle, exact for i <= 70 (it first disagrees with fib at i = 71)."""
    sqrt5 = math.sqrt(5.0)
    phi, psi = (1.0 + sqrt5) / 2.0, (1.0 - sqrt5) / 2.0
    return round((phi ** i - psi ** i) / sqrt5)


def test_slope_normalization():
    assert normalize_slope(-1, 2) == Slope(1, -2)
    assert normalize_slope(0, -3) == Slope(0, 1)
    assert normalize_slope(4, 6) == Slope(2, 3)
    with pytest.raises(ValueError):
        normalize_slope(0, 0)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(-1, 0)


def test_intersection_examples():
    assert intersection(Slope(1, 0), Slope(0, 1)) == 1
    assert intersection(Slope(2, 1), Slope(0, 1)) == 2
    # |n x - y| form for pre-core slopes
    for n in range(-5, 6):
        s = normalize_slope(1, n)
        assert intersection(s, Slope(3, 2)) == abs(n * 3 - 2)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
def test_intersection_symmetric(ax, ay, bx, by):
    if (ax, ay) == (0, 0) or (bx, by) == (0, 0):
        return
    a, b = normalize_slope(ax, ay), normalize_slope(bx, by)
    assert intersection(a, b) == intersection(b, a)
    assert (intersection(a, b) == 0) == (a == b)


def test_slope_seq_values():
    assert slope_seq(0) == Slope(1, 0)
    assert slope_seq(1) == Slope(1, 1)
    assert slope_seq(2) == Slope(2, 1)
    assert slope_seq(3) == Slope(3, 2)
    assert slope_seq(4) == Slope(5, 3)
    with pytest.raises(ValueError, match="starts at index 0"):
        slope_seq(-1)


def test_slope_seq_recursion_exact():
    for i in range(41):
        a, b, c = slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)
        assert (c.x, c.y) == (a.x + b.x, a.y + b.y)
        assert c == mediant(a, b)


def test_slope_seq_growth_golden():
    # x_{i+2} is at least the (i+1)-st power of the golden ratio
    for i in range(41):
        assert at_least_golden_power(slope_seq(i + 2).x, i + 1)


def test_binet():
    assert fib(10) == 55
    assert all(fib(i) == binet(i) for i in range(41))


def test_fib_and_lucas_follow_their_recurrences():
    # the doubling formulas against the additive recurrences, past where
    # the float oracle is exact, and on negative indices
    f, l = [0, 1], [2, 1]
    for _ in range(1200):
        f.append(f[-1] + f[-2])
        l.append(l[-1] + l[-2])
    assert [fib(n) for n in range(1200)] == f[:1200]
    assert [lucas(n) for n in range(1200)] == l[:1200]
    assert [slope_seq(n) for n in range(300)] == [Slope(f[n + 1], f[n]) for n in range(300)]
    assert [fib(-n) for n in range(8)] == [0, 1, -1, 2, -3, 5, -8, 13]
    assert [lucas(-n) for n in range(6)] == [2, -1, 3, -4, 7, -11]


def test_lucas_and_golden_cmp():
    assert [lucas(i) for i in range(6)] == [2, 1, 3, 4, 7, 11]
    phi = (1 + math.sqrt(5)) / 2
    for k in range(-6, 15):
        for val in (Fraction(1, 3), 1, 2, 5, Fraction(13, 3), 89):
            expect = (float(val) > phi ** k) - (float(val) < phi ** k)
            got = golden_power_cmp(val, k)
            if abs(float(val) - phi ** k) > 1e-9:
                assert got == expect, (val, k)


def test_triple_validation():
    t = SlopeTriple({Slope(1, 0), Slope(1, 1), Slope(2, 1)})
    assert Slope(2, 1) in t
    with pytest.raises(ValueError):
        SlopeTriple({Slope(1, 0), Slope(1, 1), Slope(5, 3)})
    with pytest.raises(ValueError):
        SlopeTriple({Slope(1, 0), Slope(1, 1)})


def test_pairwise_once_triples_are_farey_triangles():
    # SlopeTriple checks only the pairwise intersections: every such triple
    # in a box has one slope the mediant of the other two
    box = sorted({normalize_slope(x, y) for x in range(10) for y in range(-9, 10)
                  if (x, y) != (0, 0)})
    triples = 0
    for a, b, c in combinations(box, 3):
        if intersection(a, b) == intersection(a, c) == intersection(b, c) == 1:
            triples += 1
            SlopeTriple({a, b, c})
            assert c == mediant(a, b) or b == mediant(a, c) or a == mediant(b, c)
    assert triples > 100


def test_elementary_move_family_step():
    t = SlopeTriple({Slope(1, 0), Slope(1, 1), Slope(2, 1)})
    t1 = elementary_move(t, Slope(1, 0))
    assert set(t1) == {Slope(1, 1), Slope(2, 1), Slope(3, 2)}
    t2 = elementary_move(t1, Slope(1, 1))
    assert set(t2) == {Slope(2, 1), Slope(3, 2), Slope(5, 3)}


def test_elementary_move_backtrack_inserts_other_diagonal():
    # removing the mediant of the other two walks back up the tree: the
    # inserted edge is the other diagonal, not the removed one again
    t = SlopeTriple({Slope(1, 0), Slope(1, 1), Slope(2, 1)})
    back = elementary_move(t, Slope(2, 1))
    assert set(back) == {Slope(1, 0), Slope(1, 1), Slope(0, 1)}
    assert mediant(Slope(1, 0), Slope(1, 1)) == Slope(2, 1)
    # flipping the inserted edge again returns to the start
    assert set(elementary_move(back, Slope(0, 1))) == set(t)


def test_random_farey_walks_preserve_invariants():
    rng = random.Random(20260808)
    t = SlopeTriple({slope_seq(0), slope_seq(1), slope_seq(2)})
    for _ in range(1000):
        removed = rng.choice(sorted(t))
        t = elementary_move(t, removed)
        slopes = sorted(t)
        for i in range(3):
            for j in range(i + 1, 3):
                assert intersection(slopes[i], slopes[j]) == 1


_slopes = st.tuples(st.integers(0, 12), st.integers(-12, 12)).filter(
    lambda p: math.gcd(*p) == 1).map(lambda p: normalize_slope(*p))


@given(st.lists(_slopes, min_size=1, max_size=4).filter(
    lambda ss: any(s.x for s in ss)))
def test_min_pre_core_intersection_matches_scan(slopes):
    # every corner y/x lies in [-12, 12], so the scan covers the minimum
    vals = [sum(intersection(Slope(1, n), s) for s in slopes) for n in range(-30, 31)]
    assert min_pre_core_intersection(slopes) == (min(vals), vals.index(min(vals)) - 30)


def test_min_pre_core_intersection_needs_a_corner():
    with pytest.raises(ValueError):
        min_pre_core_intersection([Slope(0, 1)])
