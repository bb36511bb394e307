import gc
import hashlib
import time
import weakref
from dataclasses import replace
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from coretorus import first_homology, search
from coretorus.homology import loop_cuts
from coretorus.layered import LayeredTriangulation
from coretorus.normal import (NormalVector, check_admissible, check_matching,
                              count_euler, edge_weight, reconstruct)
from coretorus.search import (BudgetExhausted, DiscSearchResult, MeridianDisc, SearchBudget,
                              _enumerate_raw, enumerate_admissible,
                              find_meridian_discs, minimal_complexity_disc,
                              verify_61_1, verify_61_2)
from coretorus.slopes import fib, slope_seq
from coretorus.triangulation import Triangulation, TriangulationError, parse_tri, serialize_tri

from conftest import vertex_link
from surface_oracle import total_weight
from test_bundle import closed_form_disc
from test_homology import ANNULUS_FLOOR_TEXT, COVER_PASS_TEXT, TWO_VERTEX_TEXT
from test_triangulation import gluing_tables


def test_zero_budget_gives_zero_vector(fam):
    vecs = enumerate_admissible(fam(0).tri, SearchBudget(0))
    assert vecs == [NormalVector.zero(1)]


def test_enumeration_is_exhaustive_and_valid(fam):
    tri = fam(1).tri
    vecs = enumerate_admissible(tri, SearchBudget(8))
    assert len(vecs) == len(set(vecs))
    for v in vecs:
        assert check_admissible(v)
        assert check_matching(tri, v)[0]
        assert v.piece_count() <= 8
    assert vertex_link(tri) in vecs


def test_enumeration_prefix_monotone(fam):
    tri = fam(1).tri
    small = enumerate_admissible(tri, SearchBudget(5))
    big = enumerate_admissible(tri, SearchBudget(8))
    assert big[:len(small)] == small


def test_enumeration_matches_brute_force_on_one_tet(fam):
    # independent oracle: scan the whole coordinate grid of the single
    # tetrahedron and keep what is admissible and matching
    tri = fam(0).tri
    budget = 4
    brute = []
    for coords in product(range(budget + 1), repeat=7):
        if sum(coords) > budget:
            continue
        v = NormalVector([coords])
        if check_admissible(v) and check_matching(tri, v)[0]:
            brute.append(v)
    brute.sort(key=lambda v: (v.piece_count(), v.coords))
    assert enumerate_admissible(tri, SearchBudget(budget)) == brute


# every admissible row (at most one quad type) with at most 3 pieces
SMALL_ROWS = [r for r in product(range(4), repeat=7)
              if sum(r) <= 3 and sum(q > 0 for q in r[4:]) <= 1]


def _assert_matches_brute_force(tri):
    """The enumerator against every admissible vector of at most 3 pieces
    that matches, at piece budget 3 and with a weight budget of 2."""
    brute = [NormalVector(rows) for rows in product(SMALL_ROWS, repeat=tri.tet_count)
             if sum(map(sum, rows)) <= 3]
    brute = [v for v in brute if check_matching(tri, v)[0]]
    brute.sort(key=lambda v: (v.piece_count(), v.coords))
    assert enumerate_admissible(tri, SearchBudget(3)) == brute
    light = [v for v in brute if total_weight(tri, v) <= 2]
    assert enumerate_admissible(tri, SearchBudget(3, max_weight=2)) == light


# two tetrahedra whose plans check two targets against each other, pin the
# quad count, cap a quad scan by a target and leave free classes
CHECKED_TEXT = "tets 2\n0: 1:3201 1:2031 - 1:2031\n1: 0:1302 0:1302 - 0:2310\n"


def test_brute_force_reaches_every_kind_of_plan():
    assert len(SMALL_ROWS) == 98
    tri = parse_tri(CHECKED_TEXT)
    plans = [p for _, _, tplans in search._plans(tri) for p in tplans]
    assert any(p.checks for p in plans) and any(p.pins for p in plans)
    assert any(c < 0 for p in plans for _, c in p.terms)
    assert any(p.classes for p in plans)
    _assert_matches_brute_force(tri)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gluing_tables(max_tets=2))
def test_enumeration_matches_brute_force_on_random_tables(table):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    _assert_matches_brute_force(tri)


# sha256 of repr([v.coords for v in vectors]) for enumerate_admissible's
# output, recorded before the per-tetrahedron step was flattened: the order
# and the vectors must not change
ENUMERATION_DIGESTS = {
    ("T_0", 4, None): "15e1b17688c22e8488ce7cac566fb70d3d47f30599d64756ca86c9caf61b649c",
    ("T_1", 9, None): "216f8d9e3b76a0d4b08a37d083044ad3b8bd3be0ec4a9c0c8e53e166239d2fa7",
    ("T_2", 17, None): "ca39eddc5952bd64aa23fcc5019cf9b7104b12f913a01eff99e06a637a4c9e6e",
    ("T_3", 30, None): "3d80a39267d0c6533924f94f9f1da28789570214ed1c7ab86a91d3f129de6bc0",
    ("T_4", 51, None): "33380932cc81d37d14279c7d394efe488e0306315550de66cb1f61fb3fcbd86a",
    ("T_0", 12, 6): "cb07270e5ac3fd86c5ddce2fda4f9c46c5c5add30e0fe19a40983ce9464a380e",
    ("T_1", 22, 11): "6fdadcfb1b0ab4fedcf444ebaad9f28f4fe2ae752b5becf44a4107483b09969d",
    ("T_2", 38, 19): "970a4d2e26e73166da058088ff284d18cf89360a61b442ae58b9494fe0a5cfac",
    ("T_3", 64, 32): "578333eb3b71e7b612b68552faf12bd415724b2902f9881b89935a5d7c729c51",
    ("two-vertex", 13, None): "ee949bd6b12bd9a52dee2330a213d7a5d8086332cb25c1fb695c7afe0118249e",
    # recorded before the piece floor
    ("cover-pass", 11, None): "de4f33141811dec758c516ebad7fd77aa247c7e68caafe9a39f0db9f4b97df3c",
    ("two-vertex", 16, 8): "279bd57067102136ef4ce9628a28b567f9ccb5c54fe1f9acc4d96a59edffb5a7",
}
NAMED_TEXTS = {"two-vertex": TWO_VERTEX_TEXT, "cover-pass": COVER_PASS_TEXT}


def test_enumeration_output_is_unchanged(fam):
    # T_0..T_4 at fib(i+6) - 4, T_0..T_3 at the weight fib(i+6) - 2 of the
    # least disc (twice that in pieces), the two-vertex torus at 13 and at
    # 16 with weight 8, and the cover-pass torus at 11
    for (name, pieces, weight), want in ENUMERATION_DIGESTS.items():
        tri = parse_tri(NAMED_TEXTS[name]) if name in NAMED_TEXTS else fam(int(name[2:])).tri
        vectors = enumerate_admissible(tri, SearchBudget(pieces, max_weight=weight))
        got = hashlib.sha256(repr([v.coords for v in vectors]).encode()).hexdigest()
        assert got == want, (name, pieces, weight)


def _assert_piece_floor_is_sound(tri, budget):
    """Every vector enumerated with the piece floor switched off has, after
    each prefix of its rows, at least the pieces placed plus the floor, so
    pruning by the floor drops none of them.  The number of prefixes whose
    floor is positive."""
    with patch.object(search, "_piece_floor", lambda terms, row, pieces: 0):
        unpruned = enumerate_admissible(tri, budget)
    assert enumerate_admissible(tri, budget) == unpruned
    frontiers = search._frontiers(tri)
    positive = 0
    for v in unpruned:
        pieces = [sum(row) for row in v.coords]
        for t in range(tri.tet_count):
            terms = search._floor_terms(frontiers[t], v.coords[:t], pieces[:t])
            floor = search._piece_floor(terms, v.coords[t], pieces[t])
            assert sum(pieces[:t + 1]) + floor <= v.piece_count()
            positive += floor > 0
    return positive


def test_piece_floor_is_sound_on_the_family(fam):
    positive = sum(_assert_piece_floor_is_sound(fam(i).tri, SearchBudget(fib(i + 6) - 4))
                   for i in range(5))
    assert positive > 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gluing_tables(max_tets=3))
def test_piece_floor_is_sound_on_random_tables(table):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    # where no tetrahedron is glued to another the floor is 0 throughout
    if any(search._frontiers(tri)):
        _assert_piece_floor_is_sound(tri, SearchBudget(6))


def test_admissible_counts_at_recorded_budgets(fam):
    # computed regression values at the recorded piece budgets fib(i+6) - 4
    counts = {0: 8, 1: 9, 2: 28, 3: 66, 4: 175, 5: 1173}
    for i, want in counts.items():
        vecs = enumerate_admissible(fam(i).tri, SearchBudget(fib(i + 6) - 4))
        assert len(vecs) == want


def test_weight_budget(fam):
    tri = fam(0).tri
    vecs = enumerate_admissible(tri, SearchBudget(8, max_weight=6))
    assert all(total_weight(tri, v) <= 6 for v in vecs)
    all_vecs = enumerate_admissible(tri, SearchBudget(8))
    manual = [v for v in all_vecs if total_weight(tri, v) <= 6]
    assert vecs == manual


def test_time_limit():
    from coretorus.layered import family
    tri = family(3).tri
    with pytest.raises(BudgetExhausted):
        list(__import__("coretorus.search", fromlist=["x"])._enumerate_raw(
            tri, SearchBudget(40, time_limit=0.0)))
    res = find_meridian_discs(tri, SearchBudget(40, time_limit=0.0))
    assert res.inconclusive and not res.discs


@pytest.mark.parametrize("limit", [-1.0, -1e-9, float("nan"), float("-inf")])
def test_budget_rejects_a_negative_or_nan_time_limit(limit):
    with pytest.raises(ValueError, match="time limit"):
        SearchBudget(10, time_limit=limit)
    assert SearchBudget(10, time_limit=0.0).time_limit == 0.0


def _assert_meridian_discs(tri, cal, discs):
    for d in discs:
        assert check_matching(tri, d.vector)[0]
        (curve,) = d.surface.boundary_curves_by_component[0]
        assert cal.is_meridian_class(cal.coords_of_cycle(curve.chain))


def test_time_limit_stops_candidate_generation(fam, homology_of):
    # T_7 at its recorded budget (36,113 admissible vectors) takes several
    # times the limit to enumerate; the search must stop with a bounded
    # overshoot, not finish the walk
    tri = fam(7).tri
    cal = homology_of(7).calibration
    start = time.monotonic()
    res = find_meridian_discs(tri, SearchBudget(fib(13) - 4, time_limit=0.3))
    assert res.inconclusive and not res.complete
    assert time.monotonic() - start < 3.0
    # whatever was found before the stop is a checked meridian disc
    _assert_meridian_discs(tri, cal, res.discs)


def test_time_limit_bounds_the_overshoot(fam, homology_of):
    # T_8's full search takes longer than T_7's (about 5 s on a 2-core
    # Xeon), many times the limit; the limit holds through the enumeration
    # and the disc filter together
    tri = fam(8).tri
    cal = homology_of(8).calibration
    start = time.monotonic()
    res = find_meridian_discs(tri, SearchBudget(fib(14) - 4, time_limit=1.0))
    assert time.monotonic() - start < 1.5
    assert res.inconclusive and not res.complete and res.note == "time limit reached"
    _assert_meridian_discs(tri, cal, res.discs)


def test_disc_filter_keeps_the_time_limit(fam, homology_of, monkeypatch):
    # T_3 enumerates in milliseconds; a slowed reconstruct makes the filter
    # run past the limit, and the search stops between vectors with the
    # discs found so far.  At twice the least disc's piece count, 5 of the
    # 326 admitted vectors pass both count filters, so several reconstructs
    # are due.
    tri = fam(3).tri
    cal = homology_of(3).calibration
    budget = SearchBudget(2 * (fib(9) - 5))
    full = find_meridian_discs(tri, budget)
    calls = []

    def slow_reconstruct(tri, v):
        calls.append(v)
        time.sleep(0.1)
        return reconstruct(tri, v)

    monkeypatch.setattr(search, "reconstruct", slow_reconstruct)
    start = time.monotonic()
    res = find_meridian_discs(tri, SearchBudget(budget.max_piece_count, time_limit=0.25))
    assert time.monotonic() - start < 1.0
    assert res.inconclusive and not res.complete and res.note == "time limit reached"
    filtered = sum(search.count_euler(tri, v) == 1 for v in enumerate_admissible(tri, budget))
    assert 1 <= len(calls) < filtered
    found = {d.vector for d in full.discs}
    assert all(d.vector in found for d in res.discs)
    _assert_meridian_discs(tri, cal, res.discs)


def _is_disc_surface(cal, surface):
    """The checks the disc filter makes after reconstruct."""
    if not surface.connected or surface.euler_by_component[0] != 1:
        return False
    curves = surface.boundary_curves_by_component[0]
    return len(curves) == 1 and cal.is_meridian_class(cal.coords_of_cycle(curves[0].chain))


def _discs_without_cut_filter(tri, cal, vectors):
    """The disc filter as it was before the cut filter: the Euler count,
    then reconstruct and the disc checks on every vector that passes it."""
    discs = []
    for v in vectors:
        if count_euler(tri, v) != 1:
            continue
        surface = reconstruct(tri, v)
        if _is_disc_surface(cal, surface):
            (curve,) = surface.boundary_curves_by_component[0]
            discs.append(MeridianDisc(v, surface, curve.length, surface.weight))
    discs.sort(key=lambda d: (d.complexity, d.vector.coords))
    return discs


# a solid torus whose boundary torus has two vertices: two of its six
# boundary edges are loops with a cut number, the others join the vertices
TWO_VERTEX_TEXT = ("tets 3\n0: - 1:1032 - 2:1230\n1: 0:1032 2:3102 - -\n"
                   "2: 0:3012 1:2130 2:1230 2:3012\n")


def _cut_filter_cases(fam):
    for i in range(4):
        yield f"T_{i}", fam(i).tri, 2 * (fib(i + 6) - 5)
    # its least disc has 13 pieces
    yield "two-vertex", parse_tri(TWO_VERTEX_TEXT), 13


def test_cut_filter_drops_no_disc(fam):
    for name, tri, pieces in _cut_filter_cases(fam):
        cal = first_homology(tri).calibration
        budget = SearchBudget(pieces)
        vectors = enumerate_admissible(tri, budget)
        res = find_meridian_discs(tri, budget)
        want = _discs_without_cut_filter(tri, cal, vectors)
        assert res.complete and want, name
        assert ([(d.vector, d.complexity) for d in res.discs]
                == [(d.vector, d.complexity) for d in want]), name
        if name == "two-vertex":
            assert 0 < len(cal.edge_coords) < sum(ec.boundary for ec in tri.edge_classes)
        cuts = loop_cuts(tri)
        dropped = [v for v in vectors
                   if any(edge_weight(tri, v, e) < cut for e, cut in cuts.items())]
        assert dropped, name
        for v in dropped:
            assert not _is_disc_surface(cal, reconstruct(tri, v)), (name, v.coords)


def test_cut_filter_reads_every_loop_edge(fam, monkeypatch):
    # a vector reaches the Euler count only if it meets every edge loop,
    # interior edges included, at least c(e) times
    seen = []

    def recorded(tri, v):
        seen.append(v)
        return count_euler(tri, v)

    monkeypatch.setattr(search, "count_euler", recorded)
    for i in (2, 3):
        tri = fam(i).tri
        cuts = loop_cuts(tri)
        assert any(not ec.boundary for ec in tri.edge_classes if ec.index in cuts)
        seen.clear()
        # at twice the least disc's piece count, where the boundary loops
        # alone let through vectors that an interior loop drops
        assert find_meridian_discs(tri, SearchBudget(2 * (fib(i + 6) - 5))).discs
        assert len(seen) > 1
        for v in seen:
            assert all(edge_weight(tri, v, e) >= c for e, c in cuts.items()), (i, v.coords)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gluing_tables(max_tets=3))
def test_cut_filter_drops_no_disc_on_random_tables(table):
    # the filter drops only non-discs, also where an interior edge is a loop
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    cal = first_homology(tri).calibration
    if cal is None:
        return
    budget = SearchBudget(8)
    res = find_meridian_discs(tri, budget)
    want = _discs_without_cut_filter(tri, cal, enumerate_admissible(tri, budget))
    assert ([(d.vector, d.complexity) for d in res.discs]
            == [(d.vector, d.complexity) for d in want])


def _stopping_after(n):
    """An _enumerate_raw that yields its first n vectors, then runs out of time."""
    def stopping(tri, budget):
        vectors = _enumerate_raw(tri, budget)
        for _ in range(n):
            yield next(vectors)
        raise BudgetExhausted("time limit reached")
    return stopping


def test_stopped_search_keeps_what_it_found(fam, monkeypatch):
    tri = fam(3).tri
    budget = SearchBudget(fib(9) - 4)
    order = list(_enumerate_raw(tri, budget))
    full = find_meridian_discs(tri, budget)
    assert len(full.discs) == 1 and full.complete
    for n in (0, len(order) // 2, len(order)):
        monkeypatch.setattr(search, "_enumerate_raw", _stopping_after(n))
        with pytest.raises(BudgetExhausted) as stop:
            enumerate_admissible(tri, budget)
        assert stop.value.found == sorted(order[:n], key=lambda v: (v.piece_count(), v.coords))
        res = find_meridian_discs(tri, budget)
        assert not res.complete and res.inconclusive and res.note == "time limit reached"
        want = [d for d in full.discs if d.vector in order[:n]]
        assert [d.vector for d in res.discs] == [d.vector for d in want]


def test_time_limit_inside_one_tetrahedron(fam):
    # a huge piece budget on one tetrahedron: all the work is candidate
    # generation for tet 0, before the search reaches a second node
    start = time.monotonic()
    with pytest.raises(BudgetExhausted):
        list(_enumerate_raw(fam(0).tri, SearchBudget(10 ** 6, time_limit=0.2)))
    assert time.monotonic() - start < 3.0


def _renamed(text, order):
    """The parsed table with tet t renamed order[t], vertex labels kept."""
    table = parse_tri(text).gluings
    out = [[None] * 4 for _ in table]
    for t, row in enumerate(table):
        for f, glued in enumerate(row):
            if glued is not None:
                out[order[t]][f] = (order[glued[0]], glued[1])
    return Triangulation(out)


@pytest.mark.parametrize("case", ["parsed", "renamed", "stopped"])
def test_a_disc_search_frees_its_triangulation_by_reference_counting(fam, case):
    # with the collector off only reference counting frees anything: once
    # the search returns and its result is dropped, the triangulation, and
    # every Triangulation the search made, is gone, and the collector finds
    # no cycle left behind.  T_2 renamed 0-2-1 along its chain is enumerated
    # through a renamed copy; a zero time limit stops the walk by
    # BudgetExhausted
    text = serialize_tri(fam(2).tri)
    make = (lambda: _renamed(text, [0, 2, 1])) if case == "renamed" else lambda: parse_tri(text)
    budget = SearchBudget(fib(8) - 4, time_limit=0.0 if case == "stopped" else None)

    def live():
        return sum(isinstance(obj, Triangulation) for obj in gc.get_objects())

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = live()
        tri = make()
        ref = weakref.ref(tri)
        res = find_meridian_discs(tri, budget)
        assert len(res.discs) == (0 if case == "stopped" else 1)
        assert res.complete == (case != "stopped")
        del tri, res
        assert ref() is None and live() == before
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_count_filter_keeps_every_disc(fam, homology_of):
    # oracle: reconstruct every admissible vector and apply the surface
    # checks directly, without the count-level Euler filter
    for i in range(4):
        tri = fam(i).tri
        cal = homology_of(i).calibration
        budget = SearchBudget(fib(i + 6) - 4)
        want = []
        for v in enumerate_admissible(tri, budget):
            if v.piece_count() == 0:
                continue
            s = reconstruct(tri, v)
            if not s.connected or s.euler_by_component[0] != 1:
                continue
            curves = s.boundary_curves_by_component[0]
            if len(curves) == 1 and cal.is_meridian_class(
                    cal.coords_of_cycle(curves[0].chain)):
                want.append(v.coords)
        res = find_meridian_discs(tri, budget)
        assert want
        assert sorted(d.vector.coords for d in res.discs) == sorted(want)


def test_discs_found_and_verified(fam, minimal_disc, homology_of):
    # recorded minima: pieces fib(i+6) - 5, length = sum of the cuts
    # and weight fib(i+6) - 2
    expected = {0: (3, 6, 6), 1: (8, 10, 11), 2: (16, 16, 19),
                3: (29, 26, 32), 4: (50, 42, 53), 5: (84, 68, 87)}
    for i, (pieces, length, weight) in expected.items():
        d = minimal_disc(i)
        assert d.piece_count == pieces == fib(i + 6) - 5
        assert d.boundary_length == length
        assert d.weight == weight == fib(i + 6) - 2


def test_minimal_disc_length_equals_curve_formula(fam, minimal_disc, homology_of):
    # the minimal disc boundary realizes the shortest normal meridian curve:
    # its length equals the length formula at slope (0,1) over the
    # meridian-calibrated boundary edge slopes
    from coretorus.normal import min_curve_length
    from coretorus.slopes import Slope, SlopeTriple
    for i in range(3):
        h = homology_of(i)
        triple = SlopeTriple(h.boundary_edge_slopes.values())
        assert minimal_disc(i).boundary_length == \
            min_curve_length(triple, Slope(0, 1)) == sum(h.boundary_edge_cuts.values())


def test_no_disc_below_budget(fam):
    res = find_meridian_discs(fam(2).tri, SearchBudget(10))
    assert res.inconclusive and not res.discs


def test_inconclusive_minimal_disc(fam):
    res = minimal_complexity_disc(fam(1).tri, SearchBudget(4))
    assert res.inconclusive and res.disc is None


def _stub_cover_pass(monkeypatch, cover_pass):
    """Run minimal_complexity_disc's first pass for real, pause 0.2 s after
    it, and answer the cover pass with cover_pass; returns the budgets of
    both passes."""
    real = search.find_meridian_discs
    budgets = []

    def passes(tri, budget):
        budgets.append(budget)
        if len(budgets) > 1:
            return cover_pass(tri, budget)
        res = real(tri, budget)
        time.sleep(0.2)
        return res
    monkeypatch.setattr(search, "find_meridian_discs", passes)
    return budgets


def test_cover_pass_gets_what_is_left_of_the_time_limit(fam, monkeypatch):
    monkeypatch.setattr(search, "floor_vector", lambda tri: None)
    budgets = _stub_cover_pass(monkeypatch, search.find_meridian_discs)
    res = minimal_complexity_disc(fam(2).tri, SearchBudget(fib(8) - 4, time_limit=5.0))
    assert res.certified and not res.inconclusive
    assert budgets[0].time_limit == 5.0
    assert 0 <= budgets[1].time_limit <= 5.0 - 0.2


def test_stopped_cover_pass_is_inconclusive(fam, monkeypatch):
    def stopped(tri, budget):
        return DiscSearchResult([], False, True, "time limit reached")
    monkeypatch.setattr(search, "floor_vector", lambda tri: None)
    _stub_cover_pass(monkeypatch, stopped)
    res = minimal_complexity_disc(fam(2).tri, SearchBudget(fib(8) - 4, time_limit=5.0))
    assert res.disc is not None
    assert not res.certified and res.inconclusive


def test_floor_vector_is_the_closed_form_disc(fam):
    for i in range(31):
        assert search.floor_vector(fam(i).tri) == closed_form_disc(i)


def _floor_and_searched(monkeypatch, tri, budget):
    """minimal_complexity_disc as it is, and with the enumeration and its
    cover pass forced, as when floor_vector finds no v*; the two agree."""
    floor = minimal_complexity_disc(tri, budget)
    with monkeypatch.context() as m:
        m.setattr(search, "floor_vector", lambda tri: None)
        searched = minimal_complexity_disc(tri, budget)
    assert replace(floor, disc=None) == replace(searched, disc=None)
    assert (floor.disc is None) == (searched.disc is None)
    if floor.disc is not None:
        assert floor.disc.vector == searched.disc.vector
        assert floor.disc.complexity == searched.disc.complexity
    return floor


def test_floor_disc_is_the_searched_minimum(fam, monkeypatch):
    # the recorded budget, budgets that v* just fits, and budgets it misses
    # by one piece or one crossing
    for i in range(6):
        tri = fam(i).tri
        least, weight = fib(i + 6) - 5, fib(i + 6) - 2
        for budget in (SearchBudget(least + 1), SearchBudget(least),
                       SearchBudget(least + 1, max_weight=weight)):
            assert _floor_and_searched(monkeypatch, tri, budget).certified
        for budget in (SearchBudget(least - 1), SearchBudget(least + 1, max_weight=weight - 1)):
            assert _floor_and_searched(monkeypatch, tri, budget).disc is None


def test_floor_bound_holds_where_v_star_is_no_disc(monkeypatch):
    # v* still has the fewest pieces a meridian disc can have: below them
    # no disc fits, and the searched minimum meets every edge e at least
    # c(e) times
    tri = parse_tri(ANNULUS_FLOOR_TEXT)
    v = search.floor_vector(tri)
    surface = reconstruct(tri, v)
    assert surface.connected and surface.euler_by_component == [0]
    assert _floor_and_searched(monkeypatch, tri, SearchBudget(v.piece_count() - 1)).disc is None
    res = _floor_and_searched(monkeypatch, tri, SearchBudget(13))
    assert res.disc.piece_count == 13 > v.piece_count()
    cuts = loop_cuts(tri)
    assert len(cuts) == len(tri.edge_classes)
    assert all(edge_weight(tri, res.disc.vector, e) >= c for e, c in cuts.items())


def test_meridian_length_bound_counts_every_boundary_loop(fam, homology_of):
    # a boundary edge that is a loop in M meets a meridian disc at least c(e)
    # times, all on its boundary curve, whether or not it is a loop of the
    # boundary torus; on a one-vertex torus every boundary edge is both
    for i in range(6):
        want = sum(homology_of(i).boundary_edge_cuts.values())
        assert search.minimal_meridian_length(fam(i).tri) == want
    tri = parse_tri(ANNULUS_FLOOR_TEXT)
    assert len(first_homology(tri).boundary_edge_cuts) < sum(
        ec.boundary for ec in tri.edge_classes)
    res = minimal_complexity_disc(tri, SearchBudget(13))
    assert res.disc.piece_count == 13 and not res.certified
    assert res.note == "best length 18 > homological bound 14"


def test_floor_disc_off_the_family():
    # the boundary torus has two vertices, the manifold one: every edge is a
    # loop, and v* is the least disc the enumeration finds
    tri = parse_tri(TWO_VERTEX_TEXT)
    res = minimal_complexity_disc(tri, SearchBudget(13))
    assert res.certified and not res.inconclusive
    assert res.disc.piece_count == 13 and res.disc.complexity == (20, 20)
    assert find_meridian_discs(tri, SearchBudget(13)).discs[0].vector == res.disc.vector


def test_cover_pass_certifies_where_there_is_no_v_star(monkeypatch):
    tri = parse_tri(COVER_PASS_TEXT)
    assert len(tri.vertex_classes) == 2
    assert len(tri.edge_classes) == 7 and len(loop_cuts(tri)) == 5
    assert search.floor_vector(tri) is None
    real = search.find_meridian_discs
    budgets = []

    def counting(tri, budget):
        budgets.append(budget)
        return real(tri, budget)

    monkeypatch.setattr(search, "find_meridian_discs", counting)
    for pieces in (5, 14):
        budgets.clear()
        res = minimal_complexity_disc(tri, SearchBudget(pieces))
        assert res.certified and not res.inconclusive
        assert len(budgets) == 2 and budgets[1].max_weight == 7     # the cover pass ran
        assert res.disc.piece_count == 5 and res.disc.complexity == (6, 7)
    assert real(tri, SearchBudget(14)).discs[0].vector == res.disc.vector
    res = minimal_complexity_disc(tri, SearchBudget(4))
    assert res.disc is None and res.inconclusive and res.note == "no disc within budget"


def test_every_disc_passes_surface_checks(fam, homology_of):
    tri = fam(1).tri
    cal = homology_of(1).calibration
    res = find_meridian_discs(tri, SearchBudget(fib(7) - 4))
    assert res.discs
    for d in res.discs:
        s = d.surface
        assert s.connected and s.euler_by_component == [1]
        assert len(s.boundary_curves_by_component[0]) == 1
        assert cal.is_meridian_class(
            cal.coords_of_cycle(s.boundary_curves_by_component[0][0].chain))


def test_verify_61_1_small():
    # a pass at every index, and the bound never above the recorded minimal
    # discs of fib(i+6) - 5 pieces
    for i in (*range(8), 99, 1000):
        rep = verify_61_1(i)
        d = rep.details
        assert rep.status == "pass" and d["newest_edge_degree"] == 1
        assert d["newest_edge_cut"] >= d["required_pieces"] == fib(i + 3)
        if i <= 7:
            assert d["newest_edge_cut"] <= fib(i + 6) - 5


def test_verify_61_1_does_not_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_61_1 enumerated")
    monkeypatch.setattr(search, "enumerate_admissible", refuse)
    monkeypatch.setattr(search, "_enumerate_raw", refuse)
    assert verify_61_1(7).status == "pass"


def test_weak_certificate_is_inconclusive(fam, homology_of, monkeypatch):
    lt, h = fam(3), homology_of(3)
    newest, middle = lt.class_with_label(slope_seq(5)), lt.class_with_label(slope_seq(4))
    # the newest label on an edge of degree > 1 whose cut, fib(6), is enough
    swapped = dict(lt.boundary_slopes)
    swapped[newest], swapped[middle] = swapped[middle], swapped[newest]
    monkeypatch.setattr(search, "family", lambda i: LayeredTriangulation(lt.tri, swapped))
    rep = verify_61_1(3)
    assert rep.details["newest_edge_degree"] > 1
    assert rep.details["newest_edge_cut"] >= fib(6)
    assert rep.status == "inconclusive"
    # degree 1, but a cut below fib(i+3)
    monkeypatch.setattr(search, "family", lambda i: lt)
    cuts = {**h.boundary_edge_cuts, newest: fib(6) - 1}
    monkeypatch.setattr(search, "first_homology",
                        lambda tri: replace(h, boundary_edge_cuts=cuts))
    rep = verify_61_1(3)
    assert rep.details["newest_edge_degree"] == 1
    assert rep.status == "inconclusive"


def test_least_certifying_cut_passes(fam, homology_of, monkeypatch):
    # degree 1 and a cut of exactly fib(i+3), which is at least phi^(i+1):
    # the edge of the certificate still passes
    lt, h = fam(3), homology_of(3)
    cuts = {**h.boundary_edge_cuts, lt.class_with_label(slope_seq(5)): fib(6)}
    monkeypatch.setattr(search, "first_homology",
                        lambda tri: replace(h, boundary_edge_cuts=cuts))
    rep = verify_61_1(3)
    assert (rep.details["newest_edge_cut"], rep.status) == (fib(6), "pass")


def test_verify_61_2():
    for i in (0, 1, 2, 5, 12, 20, 100, 1000):
        rep = verify_61_2(i)
        assert rep.status == "pass"
        assert rep.details["window"] == "all"
    assert verify_61_2(5).details["minimizing_n"] == 1
    with pytest.raises(ValueError):
        verify_61_2(-3)


def test_verify_61_2_brute_force_window():
    # the closed-form minimum is the first minimum of a window scan
    for i in range(41):
        rep = verify_61_2(i)
        x, y = fib(i + 3), fib(i + 2)
        vals = [abs(n * x - y) for n in range(-1000, 1001)]
        assert rep.details["min_intersection"] == min(vals)
        assert rep.details["minimizing_n"] == vals.index(min(vals)) - 1000
