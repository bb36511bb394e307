"""Straight face arcs of normal surfaces, with exact integer predicates.

The k-th crossing point along an edge of weight w, counted from the given
edge's tail, sits at parameter (k+1)/(w+1) from that tail.  The spacing is
even, so the point is the same counted from either end, and the crossing
points sit alike in every tetrahedron around the edge.  Arcs are straight
segments between their edge points in the affine structure of each face.

A face slot's arcs are built on first read and cached, so a caller that
reads one face (the core-curve certificate) builds only that face.

Points are pairs of rationals (Fractions or ints).  The predicates decide on
numerators and denominators by integer determinants (Shewchuk, 1997) and
cross-multiplied comparisons, exactly and with no rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .normal import coorientation, edge_slot_crossings, face_stack
from .triangulation import FACE_VERTICES

_ZERO = Fraction(0)


# -- exact 2D predicates -----------------------------------------------------

def orient2(p, q, r):
    """Sign of the cross product (q-p) x (r-p).

    With p = (a/A, b/B), q = (c/C, d/D) and r = (e/E, g/G), denominators
    positive, the cross product times ABCDEG is the integer
    (cA - aC)(gB - bG)DE - (dB - bD)(eA - aE)CG."""
    (a, A), (b, B) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
    (c, C), (d, D) = q[0].as_integer_ratio(), q[1].as_integer_ratio()
    (e, E), (g, G) = r[0].as_integer_ratio(), r[1].as_integer_ratio()
    v = (c * A - a * C) * (g * B - b * G) * D * E - (d * B - b * D) * (e * A - a * E) * C * G
    return (v > 0) - (v < 0)


def on_segment(p, q, r):
    """Is r on the closed segment pq (assuming collinear)?  Per axis,
    (r - p)(r - q) <= 0, each factor cross-multiplied by positive denominators."""
    for x, y, z in zip(p, q, r):
        (m, M), (n, N), (k, K) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
        if (k * M - m * K) * (k * N - n * K) > 0:
            return False
    return True


def segments_intersect(p1, q1, p2, q2):
    """Do the closed segments share a point: a proper crossing, or an endpoint on the other?"""
    return (segments_cross_properly(p1, q1, p2, q2)
            or any(orient2(p, q, r) == 0 and on_segment(p, q, r)
                   for p, q, r in ((p2, q2, p1), (p2, q2, q1), (p1, q1, p2), (p1, q1, q2))))


def segments_cross_properly(p1, q1, p2, q2):
    """Transverse interior crossing: endpoints strictly on opposite sides."""
    return (orient2(p2, q2, p1) * orient2(p2, q2, q1) < 0
            and orient2(p1, q1, p2) * orient2(p1, q1, q2) < 0)


def face_chart_point(f, vertex_weights):
    """2D chart point of a barycentric combination on face f.

    ``vertex_weights`` maps tetrahedron vertices (of face f) to rationals
    summing to 1.  The chart drops the weight of the first vertex in
    FACE_VERTICES[f] order, so that corner is the origin and the other two
    weights are the coordinates.
    """
    _, a, b = FACE_VERTICES[f]
    return (vertex_weights.get(a, _ZERO), vertex_weights.get(b, _ZERO))


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

    def _build_face(self, t, f):
        arcs = []
        v = self.vector
        for vtx in FACE_VERTICES[f]:
            x, y = (u for u in FACE_VERTICES[f] if u != vtx)
            # the arc at level k - 1 ends k/(w+1) along each edge from vtx
            nx = edge_slot_crossings(v, t, tuple(sorted((vtx, x)))) + 1
            ny = edge_slot_crossings(v, t, tuple(sorted((vtx, y)))) + 1
            for k, piece in enumerate(face_stack(v, t, f, vtx), 1):
                p0 = face_chart_point(f, {vtx: Fraction(nx - k, nx), x: Fraction(k, nx)})
                p1 = face_chart_point(f, {vtx: Fraction(ny - k, ny), y: Fraction(k, ny)})
                plus_is_cut = self.surface.sigma[piece] * coorientation(piece, (x, vtx)) == 1
                arcs.append(FaceArc(piece, vtx, k - 1, p0, p1, plus_is_cut))
        return arcs

    def face_arcs(self, t, f):
        """The arcs of face slot (t, f), built on first read."""
        arcs = self._face_arcs.get((t, f))
        if arcs is None:
            arcs = self._face_arcs[(t, f)] = self._build_face(t, f)
        return arcs
