"""Relabelling a triangulation changes none of its verdicts.

A relabelling renames the tetrahedra by a permutation and the vertices of
each tetrahedron by a permutation of its own.  It gives an isomorphic
triangulation, so every quantity that does not depend on the labels --
validity, H1, the cut numbers, the edge degrees, the calibrated slopes and,
on the layered family, the certified minimal disc, the cut along it, the
bundle claims and the core curve the disc witnesses -- must come out the
same.  So must the piece counts of the admissible vectors: the enumerator
meets the tetrahedra in another order, and with it prunes by other piece
floors.
"""
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from coretorus.bundle import check_claims, cut_along
from coretorus.homology import first_homology, loop_cuts
from coretorus.curves import make_61_curve
from coretorus.layered import LayeredTriangulation, family
from coretorus.search import (SearchBudget, _placement, enumerate_admissible,
                              minimal_complexity_disc)
from coretorus.slopes import fib
from coretorus.triangulation import Triangulation, TriangulationError, parse_tri, perm_inverse

from test_homology import (ANNULUS_FLOOR_TEXT, BALL_TEXT, COVER_PASS_TEXT, FOLDED_BALL_TEXT,
                           TWO_VERTEX_TEXT)
from test_search import CHECKED_TEXT
from test_triangulation import _PERMS, gluing_tables


def relabel(table, order, perms):
    """The gluing table with tet t renamed order[t] and its vertex x renamed
    perms[t][x]."""
    out = [[None] * 4 for _ in table]
    for t, row in enumerate(table):
        inv = perm_inverse(perms[t])
        for f, glued in enumerate(row):
            if glued is not None:
                t2, p = glued
                out[order[t]][perms[t][f]] = (
                    order[t2], tuple(perms[t2][p[inv[y]]] for y in range(4)))
    return out


@st.composite
def relabelled(draw, tables):
    """A table from ``tables`` and a random relabelling of it."""
    table = draw(tables)
    n = len(table)
    order = draw(st.permutations(range(n)))
    perms = draw(st.lists(st.sampled_from(_PERMS), min_size=n, max_size=n))
    return table, relabel(table, order, perms)


def _table(tri):
    return [list(row) for row in tri.gluings]


def _invariants(table):
    """None for a table Triangulation rejects, else what no label changes."""
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return None
    h = first_homology(tri)
    return (h.h1_rank, h.h1_torsion, sorted(loop_cuts(tri).values()),
            sorted(ec.degree for ec in tri.edge_classes),
            set(h.boundary_edge_slopes.values()))


def _disc_invariants(table):
    """On T_i: the certified minimal disc's complexity, the cut along it, the
    claims on it, and the one-crossing curve it witnesses: its kind, |winding|
    and |pairing| (the signs rest on H1's generator)."""
    tri = Triangulation(table)
    m = minimal_complexity_disc(tri, SearchBudget(fib(tri.tet_count + 5) - 4))
    assert m.certified
    cut = cut_along(tri, m.disc)
    claims = check_claims(tri, m.disc, minimal_disc=m.disc)
    # make_61_curve reads no slope labels, so none are mapped over
    cert = make_61_curve(LayeredTriangulation(tri, {}), witness_disc=m.disc)
    return (m.disc.complexity, cut.component_count, cut.euler_cut, cut.a_patch_count,
            claims.claim1, claims.claim2, sorted(claims.details["bases"]),
            cert.kind, abs(cert.winding), abs(cert.algebraic_pairing), cert.max_arcs_per_face)


def test_relabel_is_a_group_action():
    # the identity changes nothing, and a relabelling is undone by its inverse
    table = _table(family(2).tri)
    identity = (0, 1, 2, 3)
    assert relabel(table, [0, 1, 2], [identity] * 3) == table
    order, perms = [2, 0, 1], [(1, 0, 3, 2), (0, 2, 3, 1), (3, 1, 0, 2)]
    there = relabel(table, order, perms)
    assert there != table
    back_order = [order.index(t) for t in range(3)]
    back_perms = [perm_inverse(perms[back_order[t]]) for t in range(3)]
    assert relabel(there, back_order, back_perms) == table


@settings(max_examples=36, deadline=None, derandomize=True)
@given(relabelled(st.integers(0, 5).map(lambda i: _table(family(i).tri))))
def test_relabelling_keeps_the_family_verdicts(pair):
    table, other = pair
    assert _invariants(other) == _invariants(table) is not None
    assert _disc_invariants(other) == _disc_invariants(table)


_NAMED = [_table(parse_tri(text)) for text in (TWO_VERTEX_TEXT, COVER_PASS_TEXT)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(relabelled(st.one_of(st.sampled_from(_NAMED), gluing_tables())))
def test_relabelling_keeps_validity_and_homology(pair):
    table, other = pair
    assert _invariants(other) == _invariants(table)


# each table with a piece budget: T_0..T_3 at fib(i+6) - 4, the two-vertex
# torus at 10 and the cover-pass torus at 8
_ENUMERATED = ([(_table(family(i).tri), fib(i + 6) - 4) for i in range(4)]
               + list(zip(_NAMED, (10, 8))))


def _piece_counts(table, pieces):
    return sorted(v.piece_count()
                  for v in enumerate_admissible(Triangulation(table), SearchBudget(pieces)))


def _glued_down(table):
    """Is every tetrahedron but the first glued to an earlier one?"""
    return all(any(g is not None and g[0] < t for g in row) for t, row in enumerate(table) if t)


@pytest.mark.parametrize("table, pieces", _ENUMERATED,
                         ids=["T_0", "T_1", "T_2", "T_3", "two-vertex", "cover-pass"])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_relabelling_keeps_the_enumeration(table, pieces, data):
    _, other = data.draw(relabelled(st.just(table)))
    assert _piece_counts(other, pieces) == _piece_counts(table, pieces)


def test_placement_is_the_identity_on_glued_down_tables():
    # so the enumerator renames nothing on the family and the named tables
    texts = (TWO_VERTEX_TEXT, COVER_PASS_TEXT, CHECKED_TEXT, BALL_TEXT, FOLDED_BALL_TEXT,
             ANNULUS_FLOOR_TEXT)
    for tri in [family(i).tri for i in range(21)] + [parse_tri(text) for text in texts]:
        assert _glued_down(_table(tri))
        assert _placement(tri) == list(range(tri.tet_count))


def test_enumeration_places_tetrahedra_glued_down_in_any_order():
    # T_3 with its tetrahedra renamed, vertex labels kept: placed in label
    # order, 8 of the 16 orders that do not glue each tetrahedron to an
    # earlier one ran past 2 s; placed glued down, each takes a fraction
    table = _table(family(3).tri)
    want = enumerate_admissible(Triangulation(table), SearchBudget(fib(9) - 4))
    orders = [order for order in permutations(range(4))
              if not _glued_down(relabel(table, order, [(0, 1, 2, 3)] * 4))]
    assert len(orders) == 16
    for order in orders:
        other = Triangulation(relabel(table, order, [(0, 1, 2, 3)] * 4))
        got = enumerate_admissible(other, SearchBudget(fib(9) - 4, time_limit=2))
        # tet t is renamed order[t], so row order[t] of a vector is row t of T_3's
        assert sorted(v.coords for v in got) == sorted(
            tuple(v.coords[order.index(s)] for s in range(4)) for v in want)
