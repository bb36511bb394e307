from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from coretorus.normal import (QUAD_CROSSES, QUAD_CUT, QUAD_MISSED, NormalVector, arc_count,
                              boundary_counts_match, boundary_curves_from_counts,
                              check_admissible, check_matching, coorientation, count_euler,
                              crossing_position, curve_slopes, edge_slot_crossings,
                              edge_weight, face_stack, min_curve_length, piece_at,
                              piece_cycle, reconstruct, row_counts, total_weight)
from coretorus.search import SearchBudget, enumerate_admissible
from coretorus.slopes import Slope, SlopeTriple, fib, intersection, slope_seq
from coretorus.triangulation import (EDGE_PAIRS, FACE_VERTICES, Triangulation,
                                     TriangulationError, parse_tri)
from conftest import side_sum_counts, vertex_link
from test_triangulation import gluing_tables

BALL_TEXT = "tets 1\n0: - - - -\n"


def test_vector_basics():
    v = NormalVector([(1, 2, 0, 0, 0, 3, 0)])
    assert v.tri(0, 1) == 2 and v.quad(0, 1) == 3
    assert v.quad_type(0) == 1
    assert v.piece_count() == 6
    assert (2 * v).piece_count() == 12
    assert (v + v) == 2 * v
    assert NormalVector.from_json(v.to_json()) == v
    with pytest.raises(ValueError):
        NormalVector([(1, -1, 0, 0, 0, 0, 0)])


def test_admissibility():
    assert check_admissible(NormalVector.zero(2))
    assert not check_admissible(NormalVector([(0, 0, 0, 0, 1, 1, 0)]))
    assert check_admissible(NormalVector([(3, 0, 0, 0, 0, 0, 5)]))


def test_matching_examples(fam):
    tri = fam(0).tri
    assert check_matching(tri, NormalVector.zero(1))[0]
    assert check_matching(tri, vertex_link(tri))[0]
    ok, violations = check_matching(tri, NormalVector([(1, 0, 0, 0, 0, 0, 0)]))
    assert not ok and violations


def test_vertex_link_reconstruction(fam, homology_of):
    tri = fam(0).tri
    s = reconstruct(tri, vertex_link(tri))
    assert s.connected
    assert s.euler_by_component == [1]          # boundary vertex: link is a disc
    assert s.orientable_by_component == [True]
    assert s.weight == 6
    curve_slopes(tri, s, homology_of(0).calibration)
    (curve,) = s.boundary_curves_by_component[0]
    assert curve.length == 6
    assert curve.chain == {}                    # null-homologous on the torus
    assert curve.slope is None and curve.multiplicity == 0


def test_ball_vertex_link_is_four_spheres_worth():
    tri = parse_tri(BALL_TEXT)
    s = reconstruct(tri, vertex_link(tri))
    assert len(s.components) == 4
    assert s.euler_by_component == [1, 1, 1, 1]


def test_minimal_disc_reconstruction(fam, homology_of, minimal_disc):
    tri = fam(0).tri
    d = minimal_disc(0)
    s = d.surface
    assert s.connected and s.euler_by_component == [1]
    assert d.boundary_length == 6 and d.weight == 6
    (curve,) = s.boundary_curves_by_component[0]
    assert curve.multiplicity == 1 and curve.slope == Slope(0, 1)
    # crossings of each boundary edge equal the cut numbers
    cuts = homology_of(0).boundary_edge_cuts
    for e, c in cuts.items():
        assert edge_weight(tri, d.vector, e) == c


def test_doubling_scales_everything(fam, minimal_disc):
    tri = fam(0).tri
    d = minimal_disc(0)
    s1 = d.surface
    s2 = reconstruct(tri, 2 * d.vector)
    assert len(s2.components) == 2 * len(s1.components)
    assert sum(s2.euler_by_component) == 2 * sum(s1.euler_by_component)
    assert s2.weight == 2 * s1.weight
    assert s2.piece_count == 2 * s1.piece_count


def test_weight_additivity(fam):
    tri = fam(1).tri
    a = vertex_link(tri)
    b = 2 * a
    assert total_weight(tri, a) + total_weight(tri, b) == total_weight(tri, a + b)


def test_euler_two_ways_small_vectors(fam):
    from coretorus.search import SearchBudget, enumerate_admissible
    tri = fam(1).tri
    for v in enumerate_admissible(tri, SearchBudget(6)):
        s = reconstruct(tri, v)
        assert s.euler_total == s.euler_from_counts


def test_count_euler_matches_reconstruction(fam):
    # the count-level filter in the disc search relies on this identity
    from coretorus.search import SearchBudget, enumerate_admissible
    from coretorus.slopes import fib
    for i in range(3):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            assert count_euler(tri, v) == reconstruct(tri, v).euler_total


def test_min_curve_length_formula():
    t = SlopeTriple({Slope(1, 0), Slope(1, 1), Slope(2, 1)})
    assert min_curve_length(t, Slope(0, 1)) == 4
    assert min_curve_length(t, Slope(1, 0)) == 2   # the edge itself: other two
    assert min_curve_length(t, Slope(1, 1)) == 2


def test_min_curve_length_edge_slope_counts_others():
    for i in range(4):
        t = SlopeTriple({slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)})
        for j in (i, i + 1, i + 2):
            s = slope_seq(j)
            others = [e for e in t if e != s]
            assert min_curve_length(t, s) == sum(intersection(s, e) for e in others)


def test_boundary_curve_oracle_attains_formula(fam, homology_of):
    # the canonical curve with the formula's side sums is connected, has the
    # predicted length, and its label-basis class is the slope it was built
    # from
    from coretorus.layered import label_chain_class
    for i in range(3):
        lt = fam(i)
        bc = lt.tri.boundary_complex
        triple = lt.triple
        for s in [Slope(0, 1), Slope(1, 0), Slope(1, 2), Slope(3, 1), Slope(2, -1)]:
            sums = {be.index: intersection(s, lt.boundary_slopes[be.manifold_edge])
                    for be in bc.bedges}
            counts = side_sum_counts(bc, sums)
            if counts is None or s in triple:
                continue
            curves = boundary_curves_from_counts(bc, counts)
            assert len(curves) == 1
            assert curves[0]["length"] == min_curve_length(triple, s)
            mult, got = label_chain_class(lt, curves[0]["chain"])
            assert (mult, got) == (1, s)


def test_surface_and_count_tracing_agree(fam, minimal_disc):
    # a reconstructed surface's boundary curves are those traced from its
    # boundary corner counts, in the same order, with the same lengths and
    # chains: on every admissible vector of T_0..T_3 within the recorded
    # piece budget, and on the doubled minimal discs (two curves each)
    def agree(tri, v):
        bc = tri.boundary_complex
        counts = [[arc_count(v, t, f, vtx) for vtx in FACE_VERTICES[f]]
                  for t, f in bc.triangles]
        surface = reconstruct(tri, v)
        got = [(c.length, c.chain) for curves in surface.boundary_curves_by_component
               for c in curves]
        assert got == [(c["length"], c["chain"])
                       for c in boundary_curves_from_counts(bc, counts)]
        return len(got)

    vectors = 0
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            agree(tri, v)
            vectors += 1
    assert vectors == 111
    for i in range(3):
        assert agree(fam(i).tri, 2 * minimal_disc(i).vector) == 2


def _oracle_edge_stack(v, t, directed_edge):
    """The pieces crossing a directed edge of tet t, in order from the tail,
    by concatenation: the tail's triangles nearest first, then the quads
    crossing the edge from the tail's side, then the head's triangles
    nearest first."""
    u, w = directed_edge
    quads = []
    q = v.quad_type(t)
    if q is not None and tuple(sorted(directed_edge)) in QUAD_CROSSES[q]:
        order = list(range(v.quad(t, q)))
        if u not in QUAD_MISSED[q][0]:
            order.reverse()
        quads = [("quad", t, q, m) for m in order]
    return ([("tri", t, u, j) for j in range(v.tri(t, u))] + quads
            + [("tri", t, w, j) for j in reversed(range(v.tri(t, w)))])


def test_crossing_position_is_the_stack_index(fam):
    # piece_at and crossing_position are inverses and agree with the stack
    # built by concatenation at every position of every directed edge;
    # crossing_position is also the arc level in every face where the
    # piece's arc cuts off the edge's tail, and face_stack holds one piece
    # per arc; the edges a piece crosses are those of its cycle,
    # consecutive ones sharing a vertex
    crossings = 0
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 3)):
            for t in range(tri.tet_count):
                crossed = {}
                for u, w in permutations(range(4), 2):
                    stack = _oracle_edge_stack(v, t, (u, w))
                    assert len(stack) == v.counts(t).crossings[u][w]
                    for pos, piece in enumerate(stack):
                        assert piece_at(v, t, (u, w), pos) == piece
                        assert crossing_position(v, t, piece, (u, w)) == pos
                        crossed.setdefault(piece, set()).add((u, w))
                        crossings += 1
                for f in range(4):
                    for vtx in FACE_VERTICES[f]:
                        stack = face_stack(v, t, f, vtx)
                        assert len(stack) == arc_count(v, t, f, vtx)
                        for level, piece in enumerate(stack):
                            for x in FACE_VERTICES[f]:
                                if x != vtx:
                                    assert crossing_position(v, t, piece, (vtx, x)) == level
                for piece, edges in crossed.items():
                    cyc = piece_cycle(piece)
                    assert edges == set(cyc) | {(w, u) for u, w in cyc}
                    assert all(len(set(d) & set(cyc[k - 1])) == 1 for k, d in enumerate(cyc))
    assert crossings > 10_000


def test_coorientation_points_one_way_through_each_piece():
    # a triangle's coorientation points at its vertex, a quad's from the low
    # side of its missed edges to the high side; reversing the edge flips it
    pieces = [("tri", 0, a, 0) for a in range(4)] + [("quad", 0, q, 0) for q in range(3)]
    for piece in pieces:
        kind, _, a, _ = piece
        for u, w in piece_cycle(piece):
            toward = w == a if kind == "tri" else w in QUAD_MISSED[a][1]
            assert coorientation(piece, (u, w)) == (1 if toward else -1)
            assert coorientation(piece, (w, u)) == -coorientation(piece, (u, w))


def _glued_arcs_at_one_class_position(tri, v):
    """Assert that the paired arcs of the two slots of every glued face cross
    each edge of the face at the same place along its edge class; return how
    many arc ends were compared."""
    compared = 0
    for slots in tri.face_classes:
        if len(slots) != 2:
            continue
        (t1, f1), (t2, f2) = slots
        perm = tri.gluings[t1][f1][1]
        for vtx in FACE_VERTICES[f1]:
            stack1, stack2 = face_stack(v, t1, f1, vtx), face_stack(v, t2, f2, perm[vtx])
            assert len(stack1) == len(stack2)
            for x in FACE_VERTICES[f1]:
                if x == vtx:
                    continue
                c1, e1 = tri.class_direction[(t1, (vtx, x))]
                c2, e2 = tri.class_direction[(t2, (perm[vtx], perm[x]))]
                assert c1 == c2 and (perm[e1[0]], perm[e1[1]]) == e2
                for p1, p2 in zip(stack1, stack2):
                    assert crossing_position(v, t1, p1, e1) == crossing_position(v, t2, p2, e2)
                    compared += 1
    return compared


def test_glued_slots_put_paired_arcs_at_one_class_position(fam):
    compared = 0
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            compared += _glued_arcs_at_one_class_position(tri, v)
    assert compared == 5230


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gluing_tables(max_tets=2))
def test_glued_slots_agree_on_class_positions_on_random_tables(table):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    for v in enumerate_admissible(tri, SearchBudget(4)):
        _glued_arcs_at_one_class_position(tri, v)


# -- the per-row count table against the per-call formulas it replaced -------

def _oracle_quad_type(v, t):
    row = v.coords[t]
    types = [q for q in range(3) if row[4 + q] > 0]
    if len(types) > 1:
        raise ValueError(f"tetrahedron {t} has two quad types")
    return types[0] if types else None


def _oracle_arc_count(v, t, f, vtx):
    n = v.tri(t, vtx)
    q = _oracle_quad_type(v, t)
    if q is not None and QUAD_CUT[q][f] == vtx:
        n += v.quad(t, q)
    return n


def _oracle_edge_slot_crossings(v, t, edge):
    u, w = edge
    n = v.tri(t, u) + v.tri(t, w)
    q = _oracle_quad_type(v, t)
    if q is not None and tuple(sorted(edge)) in QUAD_CROSSES[q]:
        n += v.quad(t, q)
    return n


def _oracle_check_matching(tri, v):
    violations = []
    for idx, slots in enumerate(tri.face_classes):
        if len(slots) != 2:
            continue
        (t1, f1), (t2, f2) = slots
        perm = tri.gluings[t1][f1][1]
        for vtx in FACE_VERTICES[f1]:
            if _oracle_arc_count(v, t1, f1, vtx) != _oracle_arc_count(v, t2, f2, perm[vtx]):
                violations.append((idx, (t1, f1), vtx))
    return (not violations), violations


def _oracle_count_euler(tri, v):
    points = sum(_oracle_edge_slot_crossings(v, *ec.slots[0]) for ec in tri.edge_classes)
    arcs = 0
    for slots in tri.face_classes:
        t, f = slots[0]
        arcs += sum(_oracle_arc_count(v, t, f, vtx) for vtx in FACE_VERTICES[f])
    return points - arcs + v.piece_count()


def _assert_counts_match_oracle(v, t):
    counts = row_counts(v.coords[t])
    assert counts.quad == v.quad_type(t) == _oracle_quad_type(v, t)
    for f in range(4):
        for vtx in FACE_VERTICES[f]:
            assert counts.arcs[f][vtx] == arc_count(v, t, f, vtx) \
                == _oracle_arc_count(v, t, f, vtx)
    for u, w in EDGE_PAIRS:
        want = _oracle_edge_slot_crossings(v, t, (u, w))
        assert counts.crossings[u][w] == counts.crossings[w][u] == want
        assert edge_slot_crossings(v, t, (w, u)) == want


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def test_row_counts_match_the_oracle_on_admissible_vectors(fam):
    for i in range(5):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            for t in range(tri.tet_count):
                _assert_counts_match_oracle(v, t)
            assert check_matching(tri, v) == _oracle_check_matching(tri, v)
            assert count_euler(tri, v) == _oracle_count_euler(tri, v)
            # the tables are shared through the memo, never kept on a vector
            assert vars(v) == {"coords": v.coords}


# a quad coordinate is 0 about half the time, so half the rows have one
# quad type or none and the rest have two or three
_quad = st.one_of(st.just(0), st.integers(1, 3))
_rows = st.tuples(*[st.integers(0, 4)] * 4, _quad, _quad, _quad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gluing_tables(), st.data())
def test_row_counts_match_the_oracle_on_any_rows(table, data):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    rows = data.draw(st.lists(_rows, min_size=tri.tet_count, max_size=tri.tet_count))
    v = NormalVector(rows)
    for t in range(tri.tet_count):
        assert _outcome(v.quad_type, t) == _outcome(_oracle_quad_type, v, t)
        if sum(1 for n in rows[t][4:] if n) > 1:
            with pytest.raises(ValueError, match=f"^tetrahedron {t} has two quad types$"):
                arc_count(v, t, 0, 1)
            with pytest.raises(ValueError):
                row_counts(rows[t])
        else:
            _assert_counts_match_oracle(v, t)
    # the violations found, or which tetrahedron a two-quad error names (a
    # tetrahedron with no interior face is never read)
    assert _outcome(check_matching, tri, v) == _outcome(_oracle_check_matching, tri, v)


def test_row_counts_tables_are_tuples():
    for row in [(0,) * 7, (1, 2, 0, 3, 0, 4, 0), (0, 0, 5, 0, 0, 0, 1)]:
        counts = row_counts(row)
        assert isinstance(counts, tuple)
        for table in (counts.arcs, counts.crossings):
            assert isinstance(table, tuple) and len(table) == 4
            assert all(type(r) is tuple and len(r) == 4 for r in table)
    assert row_counts((1, 2, 0, 3, 0, 4, 0)) is row_counts((1, 2, 0, 3, 0, 4, 0))
