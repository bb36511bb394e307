"""The boundary surface of a triangulation, as a closed triangulated surface.

Boundary face slots become triangles; two triangle sides are identified when
the walk around their common manifold edge connects them through the
interior.  The resulting surface keeps a map back to carrier faces, directed
boundary-edge classes with signs, vertex classes, components, Euler
characteristics and orientability, which is everything the homology and
normal-curve machinery needs.

A boundary complex keeps the gluing table and edge classes it reads, not
the triangulation, so a triangulation that caches its boundary complex (and
the calibration built on it) forms no reference cycle and is freed as soon
as it is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .triangulation import (FACE_VERTICES, TriangulationError, _UnionFind, class_walk,
                            two_colour)


@dataclass
class BoundaryEdge:
    index: int
    sides: list              # [(triangle, side_k), (triangle, side_k)]
    rep_dir: tuple            # (triangle, (p, q)) directed representative
    sign: dict                # (triangle, (p, q)) -> +1/-1 vs rep_dir
    manifold_edge: int        # edge class index in the 3-manifold
    manifold_sign: int        # sign of rep_dir inside the manifold edge class


class BoundaryComplex:
    def __init__(self, gluings, edge_classes, class_direction, boundary_faces):
        self.gluings = gluings
        self.edge_classes = edge_classes
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
        for ec in self.edge_classes:
            if not ec.boundary:
                continue
            walk = class_walk(self.gluings, ec.slots)
            if not walk["boundary"]:
                raise TriangulationError(f"edge class {ec.index} flagged boundary but link is a circle")
            t0, d0, f0, _ = walk["sectors"][0]
            t1, d1, _, f1 = walk["sectors"][-1]
            i0 = self.tri_index[(t0, f0)]
            i1 = self.tri_index[(t1, f1)]
            k0 = self.side_of(i0, d0)
            k1 = self.side_of(i1, d1)
            sign = {
                (i0, d0): 1, (i0, (d0[1], d0[0])): -1,
            }
            # the walk carries d0 to d1, so d1 is the same directed boundary edge
            sign[(i1, d1)] = 1
            sign[(i1, (d1[1], d1[0]))] = -1
            out.append(BoundaryEdge(
                index=len(out),
                sides=[(i0, k0), (i1, k1)],
                rep_dir=(i0, d0),
                sign=sign,
                manifold_edge=ec.index,
                manifold_sign=1 if self.class_direction[(t0, d0)][1] == d0 else -1,
            ))
        if 2 * len(out) != 3 * len(self.triangles):
            raise TriangulationError("boundary surface sides do not pair up")
        return out

    @cached_property
    def bedge_of_side(self):
        out = {}
        for be in self.bedges:
            for s in be.sides:
                out[s] = be.index
        return out

    @cached_property
    def bedge_of_manifold_edge(self):
        return {be.manifold_edge: be.index for be in self.bedges}

    @cached_property
    def side_dir(self):
        """Side (i, k) -> its direction (p, q) that the boundary edge counts +1."""
        return {(i, self.side_of(i, d)): d for be in self.bedges
                for (i, d), s in be.sign.items() if s == 1}

    @cached_property
    def vertex_classes(self):
        corners = [(i, v) for i, (t, f) in enumerate(self.triangles) for v in FACE_VERTICES[f]]
        uf = _UnionFind(corners)
        for be in self.bedges:
            (i0, d0), (i1, d1) = ((i, self.side_dir[(i, k)]) for i, k in be.sides)
            uf.union((i0, d0[0]), (i1, d1[0]))
            uf.union((i0, d0[1]), (i1, d1[1]))
        return uf.classes()

    @cached_property
    def vertex_class_of(self):
        out = {}
        for idx, corners in enumerate(self.vertex_classes):
            for c in corners:
                out[c] = idx
        return out

    @cached_property
    def components(self):
        uf = _UnionFind(range(len(self.triangles)))
        for be in self.bedges:
            (i0, _), (i1, _) = be.sides
            uf.union(i0, i1)
        return uf.classes()

    def _traversal_dir(self, i, k):
        """Directed pair of side k as traversed by the triangle's (a,b,c) cycle."""
        u, v = self.side_vertices(i, k)
        t, f = self.triangles[i]
        a, b, c = FACE_VERTICES[f]
        return (u, v) if (u, v) in ((a, b), (b, c)) else (v, u)

    @cached_property
    def orientation(self):
        """Orientation sign per boundary triangle (the surface of an
        orientable manifold is orientable, but this is computed, not assumed)."""
        relations = []
        for be in self.bedges:
            (i0, k0), (i1, k1) = be.sides
            s0 = be.sign[(i0, self._traversal_dir(i0, k0))]
            s1 = be.sign[(i1, self._traversal_dir(i1, k1))]
            # opposite induced directions <=> same orientation
            relations.append((i0, i1, -s0 * s1))
        sign, components = two_colour(range(len(self.triangles)), relations)
        if not all(ok for _, ok in components):
            raise TriangulationError("boundary surface is not orientable")
        return sign

    def component_summary(self):
        """Per component: triangle count, vertex/edge counts, Euler char."""
        out = []
        for comp in self.components:
            tris = set(comp)
            verts = {self.vertex_class_of[(i, v)] for i in tris
                     for v in FACE_VERTICES[self.triangles[i][1]]}
            edges = {self.bedge_of_side[(i, k)] for i in tris for k in range(3)}
            chi = len(verts) - len(edges) + len(tris)
            out.append({
                "triangles": len(tris),
                "vertices": len(verts),
                "edges": len(edges),
                "euler": chi,
            })
        return out

    @property
    def is_single_torus(self):
        if not self.triangles or len(self.components) != 1:
            return False
        self.orientation
        return self.component_summary()[0]["euler"] == 0

    @property
    def is_one_vertex_torus(self):
        return self.is_single_torus and len(self.vertex_classes) == 1

    def euler_characteristic(self):
        return sum(c["euler"] for c in self.component_summary())

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
        for k in range(3):
            be = self.bedge_of_side[(i, k)]
            d = self._traversal_dir(i, k)
            coeff = self.bedges[be].sign[(i, d)]
            chain[be] = chain.get(be, 0) + coeff
        return chain
