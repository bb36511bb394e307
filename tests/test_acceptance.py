"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance and time budget is pinned here; all comparisons are
exact integer or rational arithmetic.
"""
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from coretorus import (SearchBudget, Slope, at_least_golden_power,
                       check_claims, enumerate_admissible,
                       face_bound_check, fib, find_meridian_discs,
                       intersection, make_61_curve, min_curve_length,
                       normalize_slope, push_off, reconstruct, slope_seq,
                       tet_bound_check, verify_61_1, verify_61_2)
from coretorus.layered import label_chain_class
from coretorus.normal import boundary_curves_from_counts, count_euler, edge_weight
from conftest import side_sum_counts


@contextmanager
def criterion(number, description, time_budget):
    start = time.monotonic()
    failed = None
    try:
        yield
    except BaseException as e:
        failed = e
        raise
    finally:
        elapsed = time.monotonic() - start
        verdict = "PASS" if failed is None and elapsed < time_budget else "FAIL"
        print(f"criterion {number}: {verdict} ({elapsed:.2f}s / {time_budget}s) {description}")
        if failed is None:
            assert elapsed < time_budget, f"criterion {number} exceeded {time_budget}s"


def test_criterion_1_family_generation(fam):
    with criterion(1, "family slopes follow the recursion, i <= 12", 1.0):
        for i in range(13):
            lt = fam(i)
            assert lt.tri.tet_count == i + 1
            want = {slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)}
            assert set(lt.boundary_slopes.values()) == want


def test_criterion_2_meridian_detection(fam, homology_of):
    with criterion(2, "H1 = Z with kernel slope (0,1), i <= 12", 1.0):
        for i in range(13):
            h = homology_of(i)
            assert h.h1_rank == 1
            assert h.h1_torsion == ()
            assert h.boundary_map_kernel_slope == Slope(0, 1)


def test_criterion_3_exponential_discs(fam):
    with criterion(3, "every meridian disc of T_i has >= fib(i+3) pieces, i <= 3", 300.0):
        for i in range(4):
            lt = fam(i)
            budget = SearchBudget(max_piece_count=fib(i + 6) - 4)
            res = find_meridian_discs(lt.tri, budget)
            assert res.discs, f"no disc found for T_{i} within {budget.max_piece_count} pieces"
            x = fib(i + 3)
            newest = lt.class_with_label(slope_seq(i + 2))
            # the enumeration is the oracle for the one-edge certificate
            rep = verify_61_1(i)
            bound = rep.details["newest_edge_cut"]
            assert rep.status == "pass" and bound >= x
            for d in res.discs:
                assert d.piece_count >= x
                assert at_least_golden_power(d.piece_count, i + 1)
                assert edge_weight(lt.tri, d.vector, newest) >= x
                assert d.piece_count >= bound
                assert edge_weight(lt.tri, d.vector, newest) >= bound


def test_criterion_4_precore_lengths():
    with criterion(4, "min |n*x - y| >= x/3 and >= phi^(i-1), i <= 20, |n| <= 1000", 1.0):
        for i in range(21):
            x, y = fib(i + 3), fib(i + 2)
            best = min(abs(n * x - y) for n in range(-1000, 1001))
            assert 3 * best >= x
            assert at_least_golden_power(best, i - 1)
            rep = verify_61_2(i)
            assert rep.status == "pass"
            assert rep.details["min_intersection"] == best


def test_criterion_5_one_crossing_curve(fam, minimal_disc):
    with criterion(5, "6.1(3) curve: one crossing on the (1,0) edge; core for i >= 1", 30.0):
        lt0 = fam(0)
        cert0 = make_61_curve(lt0, witness_disc=minimal_disc(0))
        assert cert0.embedded
        assert cert0.one_skeleton_hits == 1
        assert lt0.boundary_slopes[cert0.hit_edge_class] == Slope(1, 0)
        assert abs(cert0.algebraic_pairing) == 1
        assert cert0.kind == "pre-core"
        for i in (1, 2, 3):
            cert = make_61_curve(fam(i), witness_disc=minimal_disc(i))
            assert cert.embedded and cert.one_skeleton_hits == 1
            assert abs(cert.algebraic_pairing) == 1
            assert cert.kind == "core"
            assert not cert.curve.touches_boundary()


def test_criterion_6_claims(fam, minimal_disc):
    with criterion(6, "Claims 1 and 2 for the minimal discs of T_0..T_2", 120.0):
        for i in range(3):
            rep = check_claims(fam(i).tri, minimal_disc(i), minimal_disc=minimal_disc(i))
            assert rep.input_is_minimal is True
            assert rep.claim1, (i, rep.details)
            assert rep.claim2, (i, rep.details)


def test_criterion_7_arc_bounds(fam, minimal_disc):
    with criterion(7, "<= 10 arcs per face; push-off <= 18 arcs per tet", 10.0):
        cert0 = make_61_curve(fam(0), witness_disc=minimal_disc(0))
        rep = face_bound_check(cert0.curve, bound=10)
        assert rep["ok"], rep
        for i in (1, 2, 3):
            cert = make_61_curve(fam(i))
            assert face_bound_check(cert.curve, bound=10)["ok"]
            tc = push_off(cert.curve)
            trep = tet_bound_check(tc, bound=18)
            assert trep["ok"], trep
            assert trep["endpoints_interior"]


def _primitive_slopes(bound):
    out = []
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or gcd(x, y) != 1:
                continue
            s = normalize_slope(x, y)
            if (s.x, s.y) == (x, y):
                out.append(s)
    return out


def test_criterion_8_curve_length_oracle(fam):
    """min_curve_length equals the brute-force minimum over reconstructed
    normal curves.

    Attainment: for each slope the curve with matching side sums is built and
    walked.  No-shorter: every connected normal curve is either a vertex-link
    circle or has coprime sum-property side sums (verified exhaustively at
    small scale below), and walking every such vector up to the largest
    length in play confirms each one's length equals the formula at its own
    slope.
    """
    with criterion(8, "normal curve length formula == brute force, |x|,|y| <= 8, T_0..T_3", 60.0):
        slopes = _primitive_slopes(8)
        for i in range(4):
            lt = fam(i)
            bc = lt.tri.boundary_complex
            bedges = [be.index for be in bc.bedges]
            labels = {be.index: lt.boundary_slopes[be.manifold_edge] for be in bc.bedges}
            # attainment at every slope
            l_max = 0
            for s in slopes:
                formula = min_curve_length(lt.triple, s)
                l_max = max(l_max, formula)
                sums = {j: intersection(s, labels[j]) for j in bedges}
                counts = side_sum_counts(bc, sums)
                assert counts is not None
                curves = boundary_curves_from_counts(bc, counts)
                assert len(curves) == 1, (i, s)
                assert curves[0]["length"] == formula
                mult, got = label_chain_class(lt, curves[0]["chain"])
                assert (mult, got) == (1, s), (i, s, mult, got)
            # no connected curve beats the formula at its own slope
            checked = 0
            for pos3 in range(3):
                for n1 in range(l_max):
                    for n2 in range(n1, l_max):
                        if 2 * (n1 + n2) > l_max or gcd(n1, n2) != 1:
                            continue
                        for swap in (False, True):
                            a, b = (n2, n1) if swap else (n1, n2)
                            sums = {}
                            others = [j for j in range(3) if j != pos3]
                            sums[bedges[pos3]] = a + b
                            sums[bedges[others[0]]] = a
                            sums[bedges[others[1]]] = b
                            counts = side_sum_counts(bc, sums)
                            if counts is None:
                                continue
                            curves = boundary_curves_from_counts(bc, counts)
                            if len(curves) != 1:
                                continue
                            mult, got = label_chain_class(lt, curves[0]["chain"])
                            assert mult == 1 and got is not None
                            assert curves[0]["length"] == min_curve_length(lt.triple, got)
                            checked += 1
                        if n1 == n2:
                            break
            assert checked > 0


def test_criterion_8a_connected_curve_classification(fam):
    # exhaustive small-scale support for the no-shorter argument: every
    # normal multicurve decomposes into parallel essential copies plus
    # vertex-link circles, with lengths and classes as predicted
    with criterion("8a", "multicurve decomposition law, exhaustive to length 24", 60.0):
        for i in (0, 1):
            lt = fam(i)
            bc = lt.tri.boundary_complex
            bedges = [be.index for be in bc.bedges]
            for s1 in range(13):
                for s2 in range(13):
                    for s3 in range(13):
                        total = s1 + s2 + s3
                        if total == 0 or total > 24 or total % 2:
                            continue
                        sums = dict(zip(bedges, (s1, s2, s3)))
                        counts = side_sum_counts(bc, sums)
                        if counts is None:
                            continue
                        curves = boundary_curves_from_counts(bc, counts)
                        srt = sorted((s1, s2, s3))
                        links = (srt[0] + srt[1] - srt[2]) // 2
                        reduced = [v - 2 * links for v in (s1, s2, s3)]
                        m = gcd(gcd(reduced[0], reduced[1]), reduced[2])
                        trivial = [c for c in curves if not c["chain"]]
                        essential = [c for c in curves if c["chain"]]
                        assert len(trivial) == links
                        assert len(essential) == m
                        if m:
                            per = [v // m for v in reduced]
                            for c in essential:
                                assert c["length"] == sum(per)
                                mult, got = label_chain_class(lt, c["chain"])
                                assert mult == 1
                                assert c["length"] == min_curve_length(lt.triple, got)


def test_criterion_9_euler_consistency(fam):
    with criterion(9, "chi via reconstruction == chi via counts, <= 8 pieces, T_0..T_2", 120.0):
        checked = 0
        for i in range(3):
            tri = fam(i).tri
            for v in enumerate_admissible(tri, SearchBudget(8)):
                s = reconstruct(tri, v)
                assert s.euler_total == count_euler(tri, v)
                assert sum(s.euler_by_component) == count_euler(tri, v)
                checked += 1
        assert checked >= 37      # the exhaustive count at this budget


def test_criterion_10_substitution_notice():
    with criterion(10, "Riemannian bounds and the fixed-point construction are "
                       "out of scope; criteria 3-7 stand in", 1.0):
        import coretorus
        assert not hasattr(coretorus, "riemannian_core_length")
        assert not hasattr(coretorus, "product_structure")
