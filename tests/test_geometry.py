from fractions import Fraction
from itertools import combinations

from hypothesis import given, strategies as st

from coretorus.geometry import (FaceArc, GeometrizedSurface, face_chart_point, orient2,
                                segments_cross_properly, segments_intersect)
from coretorus.normal import coorientation, face_stack, reconstruct
from coretorus.search import SearchBudget, enumerate_admissible
from coretorus.slopes import fib
from coretorus.triangulation import FACE_VERTICES

from conftest import vertex_link

F = Fraction


def arcs_disjoint_in_every_face(g):
    """No two straight arcs of any face slot of g share a point."""
    return not any(segments_intersect(a.p0, a.p1, b.p0, b.p1)
                   for t in range(g.tri.tet_count) for f in range(4)
                   for a, b in combinations(g.face_arcs(t, f), 2))


def test_orientation_predicate():
    assert orient2((F(0), F(0)), (F(1), F(0)), (F(0), F(1))) == 1
    assert orient2((F(0), F(0)), (F(0), F(1)), (F(1), F(0))) == -1
    assert orient2((F(0), F(0)), (F(1), F(1)), (F(2), F(2))) == 0


def test_segment_intersection_cases():
    a, b = (F(0), F(0)), (F(2), F(2))
    c, d = (F(0), F(2)), (F(2), F(0))
    assert segments_intersect(a, b, c, d)
    assert segments_cross_properly(a, b, c, d)
    # touching at an endpoint: intersects but not properly
    assert segments_intersect(a, b, b, (F(3), F(0)))
    assert not segments_cross_properly(a, b, b, (F(3), F(0)))
    # disjoint parallels
    assert not segments_intersect(a, b, (F(0), F(1)), (F(1), F(2)))
    # collinear overlap
    assert segments_intersect(a, b, (F(1), F(1)), (F(3), F(3)))


coords = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@given(coords, coords, coords, coords, coords, coords, coords, coords)
def test_intersection_symmetry(ax, ay, bx, by, cx, cy, dx, dy):
    a, b, c, d = (ax, ay), (bx, by), (cx, cy), (dx, dy)
    assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)
    assert segments_cross_properly(a, b, c, d) == segments_cross_properly(c, d, a, b)


def test_geometrize_vertex_link(fam):
    tri = fam(0).tri
    s = reconstruct(tri, vertex_link(tri))
    g = GeometrizedSurface(tri, s)
    assert arcs_disjoint_in_every_face(g)
    # every edge has weight 2 here, so crossing parameters are thirds
    for (t, f), arcs in g._face_arcs.items():
        for arc in arcs:
            assert set(arc.p0 + arc.p1) <= {F(0), F(1, 3), F(2, 3)}


def test_geometrize_minimal_disc(fam, minimal_disc):
    for i in (0, 1):
        tri = fam(i).tri
        g = GeometrizedSurface(tri, minimal_disc(i).surface)
        assert arcs_disjoint_in_every_face(g)


def test_geometrize_doubled_disc_stays_disjoint(fam, minimal_disc):
    tri = fam(0).tri
    doubled = reconstruct(tri, 2 * minimal_disc(0).vector)
    g = GeometrizedSurface(tri, doubled)
    assert arcs_disjoint_in_every_face(g)


def test_edge_points_ordered_consistently(fam, minimal_disc):
    # both slots of an edge class place the k-th crossing at the same
    # class-level parameter
    tri = fam(1).tri
    d = minimal_disc(1)
    g = GeometrizedSurface(tri, d.surface)
    from coretorus.normal import edge_slot_crossings
    for ec in tri.edge_classes:
        params = set()
        for t, e in ec.slots:
            w = edge_slot_crossings(d.vector, t, e)
            pts = []
            for pos in range(w):
                p = g.edge_point_param(t, e, pos)
                if ec.dir_sign[(t, e)] == -1:
                    p = 1 - p
                pts.append(p)
            params.add(tuple(sorted(pts)))
        assert len(params) <= 1


# -- the lazy face arcs against an eager oracle ------------------------------

_CHART = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))


def _weighted_chart_point(f, vertex_weights):
    """A face chart point as the weighted sum of the corners' chart points."""
    x = y = F(0)
    for i, v in enumerate(FACE_VERTICES[f]):
        w = F(vertex_weights.get(v, 0))
        x += w * _CHART[i][0]
        y += w * _CHART[i][1]
    return (x, y)


def _eager_face_arcs(g, tri):
    """Every face slot's arcs, built up front by the chart's weighted sums."""
    out = {}
    for t in range(tri.tet_count):
        for f in range(4):
            arcs = []
            for vtx in FACE_VERTICES[f]:
                x, y = (u for u in FACE_VERTICES[f] if u != vtx)
                for j, piece in enumerate(face_stack(g.vector, t, f, vtx)):
                    s0 = g.edge_point_param(t, (vtx, x), j)
                    s1 = g.edge_point_param(t, (vtx, y), j)
                    p0 = _weighted_chart_point(f, {vtx: 1 - s0, x: s0})
                    p1 = _weighted_chart_point(f, {vtx: 1 - s1, y: s1})
                    plus = g.surface.sigma[piece] * coorientation(piece, (x, vtx))
                    arcs.append(FaceArc(piece, vtx, j, p0, p1, plus == 1))
            out[(t, f)] = arcs
    return out


def test_lazy_face_arcs_match_the_eager_build(fam):
    checked = 0
    for i in range(4):
        tri = fam(i).tri
        slots = [(t, f) for t in range(tri.tet_count) for f in range(4)]
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 3)):
            surface = reconstruct(tri, v)
            if not all(surface.orientable_by_component):
                continue
            forward, backward = GeometrizedSurface(tri, surface), GeometrizedSurface(tri, surface)
            want = _eager_face_arcs(forward, tri)
            assert [forward.face_arcs(t, f) for t, f in slots] == [want[s] for s in slots]
            assert ([backward.face_arcs(t, f) for t, f in reversed(slots)]
                    == [want[s] for s in reversed(slots)])
            # a second read returns the cached arcs
            assert all(forward.face_arcs(t, f) is forward.face_arcs(t, f) for t, f in slots)
            checked += 1
    assert checked == 85


@given(st.integers(0, 3), coords, coords, coords)
def test_face_chart_point_is_the_weighted_sum(f, a, b, c):
    weights = dict(zip(FACE_VERTICES[f], (a, b, c)))
    assert face_chart_point(f, weights) == _weighted_chart_point(f, weights)
    # a vertex left out weighs 0
    del weights[FACE_VERTICES[f][1]]
    assert face_chart_point(f, weights) == _weighted_chart_point(f, weights)


def test_geometry_builds_only_the_faces_read(fam, minimal_disc, monkeypatch):
    built = []
    build = GeometrizedSurface._build_face

    def counting(self, t, f):
        built.append((t, f))
        return build(self, t, f)

    monkeypatch.setattr(GeometrizedSurface, "_build_face", counting)
    g = GeometrizedSurface(fam(2).tri, minimal_disc(2).surface)
    assert built == []
    g.face_arcs(1, 2)
    g.face_arcs(1, 2)
    assert built == [(1, 2)]
