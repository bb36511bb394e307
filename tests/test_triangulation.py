from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import edge_class_oracle
import skeleton_oracle
import vertex_class_oracle
from coretorus.homology import first_homology
from coretorus.layered import BASE_T0_TEXT
from coretorus.triangulation import (ParseError, Triangulation, TriangulationError,
                                     parse_tri, perm_inverse, serialize_tri, two_colour)
from skeleton_oracle import component_summary, perm_sign, two_colour_oracle

BALL_TEXT = "tets 1\n0: - - - -\n"


def test_parse_serialize_roundtrip():
    for text in (BASE_T0_TEXT, BALL_TEXT):
        tri = parse_tri(text)
        assert serialize_tri(tri) == text
        assert serialize_tri(parse_tri(serialize_tri(tri))) == text


def test_parse_comments_and_spacing():
    messy = "# a solid torus\n tets 1 \n0:  -  - 0:1230   0:3012 # glued pair\n"
    assert serialize_tri(parse_tri(messy)) == BASE_T0_TEXT


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_tri("")
    with pytest.raises(ParseError) as e:
        parse_tri("tets x\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_tri("tets 1\n0: - -\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_tri("tets 2\n0: - - - -\n")          # missing row
    with pytest.raises(ParseError):
        parse_tri("tets 1\n0: - - 0:12 -\n")       # bad token


def test_non_permutation_face_token_rejected():
    with pytest.raises(TriangulationError, match="is not a permutation"):
        parse_tri("tets 1\n0: 0:0012 - - -\n")


def test_involution_violation():
    # face (0,0) claims to glue to (0,1) but (0,1) says boundary
    with pytest.raises(TriangulationError):
        Triangulation([[(0, (1, 0, 2, 3)), None, None, None]])


def test_self_gluing_rejected():
    with pytest.raises(TriangulationError):
        Triangulation([[(0, (0, 1, 2, 3)), None, None, None]])


def test_reversed_edge_rejected():
    # gluing face 0 to face 1 by swapping 0 and 1 reverses their common edges
    glu = [[None] * 4]
    perm = (1, 0, 3, 2)
    glu[0][2] = (0, perm)
    glu[0][3] = (0, perm)
    with pytest.raises(TriangulationError):
        Triangulation(glu)


def test_nonorientable_rejected():
    # an even self-gluing permutation cannot be coherently oriented
    perm = (0, 3, 1, 2)   # sends face 2 to face perm[2] = 1, a 3-cycle on 1,2,3
    inv = (0, 2, 3, 1)
    glu = [[None, perm and (0, inv), (0, perm), None]]
    glu[0][1] = (0, inv)
    with pytest.raises(TriangulationError):
        Triangulation(glu)


def test_ball_skeleton():
    tri = parse_tri(BALL_TEXT)
    sk = tri.skeleton()
    assert (sk.vertex_classes, sk.edge_classes, sk.face_classes) == (4, 6, 4)
    assert sk.euler_characteristic == 1
    bc = tri.boundary_complex
    assert len(bc.components) == 1
    assert component_summary(bc)[0]["euler"] == 2      # sphere
    assert not bc.is_single_torus


def test_solid_torus_skeleton():
    tri = parse_tri(BASE_T0_TEXT)
    sk = tri.skeleton()
    assert (sk.vertex_classes, sk.edge_classes, sk.face_classes) == (1, 3, 3)
    assert sk.euler_characteristic == 0
    assert sorted(ec.degree for ec in tri.edge_classes) == [1, 2, 3]
    assert all(ec.boundary for ec in tri.edge_classes)
    bc = tri.boundary_complex
    assert bc.is_single_torus and len(bc.vertex_classes) == 1
    assert len(bc.bedges) == 3


def test_face_slot_accounting():
    for text in (BASE_T0_TEXT, BALL_TEXT):
        tri = parse_tri(text)
        glued = sum(1 for t in range(tri.tet_count) for f in range(4)
                    if tri.gluings[t][f] is not None)
        assert glued % 2 == 0
        assert glued + len(tri.boundary_faces) == 4 * tri.tet_count


def test_two_colour_consistent_relations():
    sign, comps = two_colour("abcde", [("a", "b", -1), ("b", "c", 1), ("d", "e", -1)])
    assert sign == {"a": 1, "b": -1, "c": -1, "d": 1, "e": -1}
    assert comps == [(["a", "b", "c"], True), (["d", "e"], True)]


def test_two_colour_odd_cycle_is_inconsistent():
    # three -1 relations around a triangle: no two-colouring exists
    sign, comps = two_colour(range(4), [(0, 1, -1), (1, 2, -1), (2, 0, -1)])
    assert comps == [([0, 1, 2], False), ([3], True)]
    assert sign[0] == sign[3] == 1
    # an even cycle of -1 relations and a loop of +1 are fine
    _, comps = two_colour(range(4), [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 0, -1),
                                     (2, 2, 1)])
    assert comps == [([0, 1, 2, 3], True)]


@st.composite
def relation_lists(draw):
    """``(nodes, relations)`` for ``two_colour``: int or tuple nodes listed
    in a random order, random relations (self-loops and repeats too), and
    half the time a random spanning tree on top, so one component."""
    n = draw(st.integers(0, 12))
    names = list(range(n)) if draw(st.booleans()) else [(k % 3, k // 3) for k in range(n)]
    nodes = draw(st.permutations(names))
    if not n:
        return nodes, []
    sign = st.sampled_from((1, -1))
    relations = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names), sign),
                              max_size=2 * n))
    if draw(st.booleans()):
        relations += [(nodes[draw(st.integers(0, k - 1))], nodes[k], draw(sign))
                      for k in range(1, n)]
    return nodes, draw(st.permutations(relations))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(relation_lists())
# isolated nodes beside an odd cycle; one inconsistent component of tuple
# nodes; several components, one of them a loop
@example(([3, 0, 1, 2], [(0, 1, -1), (1, 2, -1), (2, 0, -1)]))
@example(([(0, 0), (1, 0), (0, 1)], [((0, 0), (0, 1), -1), ((0, 1), (1, 0), -1),
                                     ((1, 0), (0, 0), -1)]))
@example((list("edcba"), [("a", "b", -1), ("d", "e", 1), ("c", "c", 1)]))
def test_two_colour_matches_its_oracle(case):
    # the same signs, reached in the same order, and the same components,
    # members in nodes order; an inconsistent component's signs follow the
    # depth-first tree, which both walk alike
    nodes, relations = case
    got, want = two_colour(nodes, relations), two_colour_oracle(nodes, relations)
    assert got == want
    assert list(got[0].items()) == list(want[0].items())


_PERMS = tuple(permutations(range(4)))


def test_perm_table_matches_the_loop_definitions():
    # the loop definitions of the inverse and the sign; layered passes
    # lists as well as tuples
    identity = (0, 1, 2, 3)
    for p in _PERMS:
        inv = [0, 0, 0, 0]
        for i, v in enumerate(p):
            inv[v] = i
        inversions = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        for arg in (p, list(p)):
            q = perm_inverse(arg)
            assert q == tuple(inv)
            assert tuple(p[q[i]] for i in range(4)) == identity
            assert tuple(q[p[i]] for i in range(4)) == identity
            assert perm_sign(arg) == (-1) ** inversions


@st.composite
def gluing_tables(draw, max_tets=3):
    """Random gluing tables on 1 to max_tets tetrahedra: face slots paired at
    random, each pair glued by a permutation carrying one face to the other."""
    n = draw(st.integers(1, max_tets))
    slots = draw(st.permutations([(t, f) for t in range(n) for f in range(4)]))
    pairs = draw(st.integers(0, len(slots) // 2))
    table = [[None] * 4 for _ in range(n)]
    for k in range(pairs):
        (t1, f1), (t2, f2) = slots[2 * k], slots[2 * k + 1]
        p = draw(st.sampled_from([p for p in _PERMS if p[f1] == f2]))
        inv = tuple(p.index(i) for i in range(4))
        table[t1][f1] = (t2, p)
        table[t2][f2] = (t1, inv)
    return table


@settings(max_examples=200, deadline=None)
@given(gluing_tables())
def test_valid_gluing_tables_go_through_homology(table):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    first_homology(tri)
    sign = tri.orientation
    for t in range(tri.tet_count):
        for g in tri.gluings[t]:
            if g is not None:
                t2, perm = g
                assert sign[t2] == -sign[t] * perm_sign(perm)


@settings(max_examples=300, deadline=None)
@given(gluing_tables())
def test_edge_classes_match_the_oracle_on_random_tables(table):
    # the link walks give the directed union-find's classes, directions and
    # walks, and the same error where an edge comes back reversed; edges are
    # checked before orientability
    try:
        want = edge_class_oracle.edge_classes(table)
    except TriangulationError as e:
        with pytest.raises(TriangulationError, match="reversing orientation") as got:
            Triangulation(table)
        assert str(got.value) == str(e)
        return
    try:
        tri = Triangulation(table)
    except TriangulationError as e:
        assert "reversing orientation" not in str(e)
        return
    assert (tri.edge_classes, tri.class_direction, tri.edge_walks) == want
    assert len(tri.class_direction) == 12 * tri.tet_count


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gluing_tables())
@example([[None, None, (0, (1, 2, 3, 0)), (0, (3, 0, 1, 2))]])       # T_0
def test_edge_walks_cover_slots(table):
    # the walk contract: one sector per slot, each sector's face_out glued to
    # the next sector's face_in carrying the edge, a boundary walk running
    # from boundary face to boundary face and an interior walk closing up
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    for ec in tri.edge_classes:
        walk = tri.edge_walks[ec.index]
        sectors = walk["sectors"]
        assert walk["boundary"] == ec.boundary
        assert len(sectors) == ec.degree
        assert {(t, tuple(sorted(d))) for t, d, _, _ in sectors} == set(ec.slots)
        for t, d, f_in, f_out in sectors:
            assert f_in != f_out and f_in not in d and f_out not in d
        glued = zip(sectors, sectors[1:] if walk["boundary"] else sectors[1:] + sectors[:1])
        for (t, d, _, f_out), (t2, d2, f_in2, _) in glued:
            assert tri.gluings[t][f_out] is not None
            t_next, perm = tri.gluings[t][f_out]
            assert (t_next, perm[f_out], (perm[d[0]], perm[d[1]])) == (t2, f_in2, d2)
        if walk["boundary"]:
            (t0, _, f0, _), (t1, _, _, f1) = sectors[0], sectors[-1]
            assert tri.gluings[t0][f0] is None and tri.gluings[t1][f1] is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gluing_tables())
@example([[None, None, (0, (1, 2, 3, 0)), (0, (3, 0, 1, 2))]])       # T_0
def test_one_pass_skeleton_matches_the_separate_loops(table):
    # the face classes, boundary faces, orientation and vertex classes of
    # the one pass over the face slots are those of the separate loops, and
    # a table the loops reject gets the same error
    try:
        skeleton_oracle.validate(table)
    except TriangulationError as e:
        with pytest.raises(TriangulationError) as got:
            Triangulation(table)
        assert str(got.value) == str(e)
        return
    tri = Triangulation(table)
    assert tri.face_classes == skeleton_oracle.face_classes(table)
    assert tri.boundary_faces == skeleton_oracle.boundary_faces(table)
    assert tri.orientation == skeleton_oracle.orientation(table)
    assert tri.vertex_classes == vertex_class_oracle.vertex_classes(table)


@st.composite
def broken_tables(draw):
    """A ``gluing_tables`` table with one side of one glued pair broken: glued
    by another permutation, to another tetrahedron, to the face itself, or
    left as a boundary face.  No such table is an involution."""
    table = draw(gluing_tables().filter(lambda rows: any(g for row in rows for g in row)))
    n = len(table)
    t, f = draw(st.sampled_from([(t, f) for t in range(n) for f in range(4) if table[t][f]]))
    t2, perm = table[t][f]
    how = draw(st.sampled_from(("permutation", "self", "boundary")
                               + (("tetrahedron",) if n > 1 else ())))
    if how == "permutation":
        table[t][f] = (t2, draw(st.sampled_from([p for p in _PERMS if p != perm])))
    elif how == "tetrahedron":
        table[t][f] = (draw(st.sampled_from([u for u in range(n) if u != t2])), perm)
    elif how == "self":
        table[t][f] = (t, draw(st.sampled_from([p for p in _PERMS if p[f] == f])))
    else:
        table[t][f] = None
    return table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(broken_tables())
@example([[(0, (1, 0, 2, 3)), None, None, None]])
@example([[(0, (0, 1, 2, 3)), None, None, None]])
def test_broken_tables_get_the_first_slot_error(table):
    # the error is that of the first bad slot in (tet, face) order, as the
    # separate involution loop raises it
    with pytest.raises(TriangulationError) as want:
        skeleton_oracle.validate(table)
    with pytest.raises(TriangulationError) as got:
        Triangulation(table)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(("is not an involution", "is glued to itself"))
