"""Straight face arcs of normal surfaces in exact rational arithmetic.

The k-th crossing point along an edge of weight w sits at parameter
(k+1)/(w+1) measured along the edge class's representative direction, which
makes the ordering of crossing points consistent in every tetrahedron
around the edge.  Arcs are straight segments between their edge points in
the affine structure of each face.

A face slot's arcs are built on first read and cached, so a caller that
reads one face (the core-curve certificate) builds only that face.

All predicates (segment intersection, sidedness) are exact over Q.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .normal import coorientation, edge_slot_crossings, face_stack
from .triangulation import FACE_VERTICES


# -- exact 2D predicates -----------------------------------------------------

def orient2(p, q, r):
    """Sign of the cross product (q-p) x (r-p)."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def on_segment(p, q, r):
    """Is r on the closed segment pq (assuming collinear)?"""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segments_intersect(p1, q1, p2, q2):
    """Do the closed segments share any point?"""
    d1 = orient2(p2, q2, p1)
    d2 = orient2(p2, q2, q1)
    d3 = orient2(p1, q1, p2)
    d4 = orient2(p1, q1, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and on_segment(p2, q2, p1):
        return True
    if d2 == 0 and on_segment(p2, q2, q1):
        return True
    if d3 == 0 and on_segment(p1, q1, p2):
        return True
    if d4 == 0 and on_segment(p1, q1, q2):
        return True
    return False


def segments_cross_properly(p1, q1, p2, q2):
    """Transverse interior crossing: endpoints strictly on opposite sides."""
    d1 = orient2(p2, q2, p1)
    d2 = orient2(p2, q2, q1)
    d3 = orient2(p1, q1, p2)
    d4 = orient2(p1, q1, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def face_chart_point(f, vertex_weights):
    """2D chart point of a barycentric combination on face f.

    ``vertex_weights`` maps tetrahedron vertices (of face f) to rationals
    summing to 1.  The chart drops the weight of the first vertex in
    FACE_VERTICES[f] order, so that corner is the origin and the other two
    weights are the coordinates.
    """
    _, a, b = FACE_VERTICES[f]
    return (Fraction(vertex_weights.get(a, 0)), Fraction(vertex_weights.get(b, 0)))


def corner_point(f, v):
    return face_chart_point(f, {v: Fraction(1)})


@dataclass
class FaceArc:
    piece: tuple
    cut_vertex: int
    level: int
    p0: tuple               # chart point on the first edge at the cut vertex
    p1: tuple
    plus_side_is_cut: bool  # global + coorientation points at the cut vertex


class GeometrizedSurface:
    """Per face slot: straight arcs with exactly placed endpoints and the
    global transverse orientation."""

    def __init__(self, tri, surface):
        self.tri = tri
        self.surface = surface
        self.vector = surface.vector
        if not all(surface.orientable_by_component):
            raise ValueError("geometrized coorientation needs a two-sided surface")
        self._face_arcs = {}

    def edge_point_param(self, t, directed_edge, position):
        """Parameter along the directed tet edge of the crossing at the given
        slot position, i.e. (k+1)/(w+1) in the class direction."""
        w = edge_slot_crossings(self.vector, t, tuple(sorted(directed_edge)))
        return Fraction(position + 1, w + 1)

    def _build_face(self, t, f):
        arcs = []
        v = self.vector
        for vtx in FACE_VERTICES[f]:
            x, y = (u for u in FACE_VERTICES[f] if u != vtx)
            stack = face_stack(v, t, f, vtx)
            for j, piece in enumerate(stack):
                s0 = self.edge_point_param(t, (vtx, x), j)
                s1 = self.edge_point_param(t, (vtx, y), j)
                p0 = face_chart_point(f, {vtx: 1 - s0, x: s0})
                p1 = face_chart_point(f, {vtx: 1 - s1, y: s1})
                plus_is_cut = self.surface.sigma[piece] * coorientation(piece, (x, vtx)) == 1
                arcs.append(FaceArc(piece, vtx, j, p0, p1, plus_is_cut))
        return arcs

    def face_arcs(self, t, f):
        """The arcs of face slot (t, f), built on first read."""
        arcs = self._face_arcs.get((t, f))
        if arcs is None:
            arcs = self._face_arcs[(t, f)] = self._build_face(t, f)
        return arcs
