"""The boundary surface of a triangulation, as a closed triangulated surface.

Boundary face slots become triangles; two triangle sides are identified when
the walk around their common manifold edge connects them through the
interior.  Each boundary edge is one record, ``BoundaryEdge.ends``: its two
triangle sides, both directed the way the link walk runs, which is the
direction the edge counts +1.  From these the surface keeps a map back to
carrier faces, vertex classes, components, Euler characteristics and
orientability, which is everything the homology and normal-curve machinery
needs.

A boundary complex keeps the edge links and the signed-edge table it reads,
not the triangulation, so a triangulation that caches its boundary complex
(and the calibration built on it) forms no reference cycle and is freed as
soon as it is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .triangulation import FACE_VERTICES, TriangulationError, two_colour


@dataclass
class BoundaryEdge:
    index: int
    ends: tuple               # ((triangle, (p, q)), (triangle, (p, q))), as the link walk runs
    manifold_edge: int        # edge class index in the 3-manifold
    manifold_sign: int        # +1 if the walk runs along the manifold edge class, else -1


def _along(f, d):
    """+1 if the directed pair d runs along the (a, b, c) cycle of face f, else -1."""
    a, b, c = FACE_VERTICES[f]
    return 1 if d in ((a, b), (b, c), (c, a)) else -1


class BoundaryComplex:
    def __init__(self, edge_walks, class_direction, boundary_faces):
        self.edge_walks = edge_walks
        self.class_direction = class_direction
        self.triangles = list(boundary_faces)
        self.tri_index = {slot: i for i, slot in enumerate(self.triangles)}

    def side_vertices(self, i, k):
        """Vertex pair (sorted) of side k of boundary triangle i."""
        t, f = self.triangles[i]
        return tuple(combinations(FACE_VERTICES[f], 2))[k]

    def side_of(self, i, edge):
        t, f = self.triangles[i]
        pairs = tuple(combinations(FACE_VERTICES[f], 2))
        return pairs.index(tuple(sorted(edge)))

    @cached_property
    def bedges(self):
        out = []
        for e, walk in enumerate(self.edge_walks):
            if not walk["boundary"]:
                continue
            (t0, d0, f0, _), (t1, d1, _, f1) = walk["sectors"][0], walk["sectors"][-1]
            # the walk carries d0 to d1, so both sides run the same way
            ends = ((self.tri_index[(t0, f0)], d0), (self.tri_index[(t1, f1)], d1))
            sign = 1 if self.class_direction[(t0, d0)][1] == d0 else -1
            out.append(BoundaryEdge(len(out), ends, e, sign))
        if 2 * len(out) != 3 * len(self.triangles):
            raise TriangulationError("boundary surface sides do not pair up")
        return out

    @cached_property
    def bedge_of_side(self):
        return {(i, self.side_of(i, d)): be.index for be in self.bedges for i, d in be.ends}

    @cached_property
    def bedge_of_manifold_edge(self):
        return {be.manifold_edge: be.index for be in self.bedges}

    @cached_property
    def side_dir(self):
        """Side (i, k) -> its direction (p, q) that the boundary edge counts +1."""
        return {(i, self.side_of(i, d)): d for be in self.bedges for i, d in be.ends}

    @cached_property
    def vertex_classes(self):
        corners = [(i, v) for i, (t, f) in enumerate(self.triangles) for v in FACE_VERTICES[f]]
        relations = [((i0, d0[k]), (i1, d1[k]), 1)
                     for (i0, d0), (i1, d1) in (be.ends for be in self.bedges) for k in (0, 1)]
        return [members for members, _ in two_colour(corners, relations)[1]]

    @cached_property
    def vertex_class_of(self):
        out = {}
        for idx, corners in enumerate(self.vertex_classes):
            for c in corners:
                out[c] = idx
        return out

    @cached_property
    def _colouring(self):
        """``two_colour`` of the triangles: the two triangles at a boundary
        edge have the same orientation when they induce opposite directions
        on it."""
        relations = []
        for be in self.bedges:
            (i0, d0), (i1, d1) = be.ends
            along = _along(self.triangles[i0][1], d0) * _along(self.triangles[i1][1], d1)
            relations.append((i0, i1, -along))
        return two_colour(range(len(self.triangles)), relations)

    @cached_property
    def components(self):
        return [members for members, _ in self._colouring[1]]

    @cached_property
    def orientation(self):
        """Orientation sign per boundary triangle (the surface of an
        orientable manifold is orientable, but this is computed, not assumed)."""
        sign, components = self._colouring
        if not all(ok for _, ok in components):
            raise TriangulationError("boundary surface is not orientable")
        return sign

    @property
    def is_single_torus(self):
        if not self.triangles or len(self.components) != 1:
            return False
        self.orientation
        return self.euler_characteristic() == 0

    def euler_characteristic(self):
        return len(self.vertex_classes) - len(self.bedges) + len(self.triangles)

    # -- hooks for curve homology ------------------------------------------

    def corner_end(self, i, k, vertex):
        """Which end (0 = tail, 1 = head) of the boundary edge's representative
        direction the given corner of side k of triangle i is."""
        d = self.side_dir[(i, k)]
        if vertex == d[0]:
            return 0
        if vertex == d[1]:
            return 1
        raise ValueError(f"vertex {vertex} not on side {k} of triangle {i}")

    def triangle_boundary_chain(self, i):
        """The triangle's boundary as a 1-chain over boundary edges."""
        chain = {}
        f = self.triangles[i][1]
        for k in range(3):
            be = self.bedge_of_side[(i, k)]
            chain[be] = chain.get(be, 0) + _along(f, self.side_dir[(i, k)])
        return chain
