"""Layered triangulations of the solid torus.

``base_t0`` is a fixed one-tetrahedron solid torus (the unique such
triangulation up to isomorphism; the gluing below is the lexicographically
least table passing the solid-torus oracle).  ``layer`` attaches a new
tetrahedron across the two boundary faces adjacent to a chosen boundary
edge, which performs a diagonal flip on the one-vertex boundary torus, and
``family(i)`` follows the Farey-tree path that always removes the oldest
remaining boundary slope.

Slope labels are bookkeeping in the convention of the slope recursion
(s_0 = (1,0), s_1 = (1,1), ...), assigned on the base triangulation by
ordering the three boundary edges by their meridian cut numbers and updated
by the elementary move at each layering.  The actual homology of the
triangulations pins the labels down: the cut number of the edge labeled
(x, y) is always x + y, which the tests assert exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .homology import first_homology
from .slopes import Slope, SlopeTriple, elementary_move, slope_seq
from .triangulation import (FACE_VERTICES, Triangulation, TriangulationError, parse_tri,
                            perm_inverse)

BASE_T0_TEXT = """\
tets 1
0: - - 0:1230 0:3012
"""


@dataclass
class LayeredTriangulation:
    tri: Triangulation
    boundary_slopes: dict          # edge class index -> Slope
    history: list = field(default_factory=list)   # (step, removed, inserted)

    @property
    def triple(self) -> SlopeTriple:
        return SlopeTriple(self.boundary_slopes.values())

    def class_with_label(self, s: Slope) -> int:
        for e, lab in self.boundary_slopes.items():
            if lab == s:
                return e
        raise KeyError(f"no boundary edge labeled {s}")


def base_t0() -> LayeredTriangulation:
    tri = parse_tri(BASE_T0_TEXT)
    summary = first_homology(tri)
    if summary.calibration is None:
        raise TriangulationError("base triangulation failed meridian calibration")
    cuts = summary.boundary_edge_cuts
    if sorted(cuts.values()) != [1, 2, 3]:
        raise TriangulationError(f"unexpected base cut numbers {cuts}")
    by_cut = sorted(cuts, key=cuts.get)
    labels = {e: slope_seq(i) for i, e in enumerate(by_cut)}
    return LayeredTriangulation(tri, labels, [])


def layer(lt: LayeredTriangulation, edge) -> LayeredTriangulation:
    """Attach a tetrahedron across the two boundary faces meeting an edge.

    ``edge`` is a boundary edge class index or its Slope label.  The edge
    becomes interior and the new boundary edge is labeled with the flip of
    the removed slope.
    """
    if isinstance(edge, Slope):
        edge = lt.class_with_label(edge)
    if edge not in lt.boundary_slopes:
        raise ValueError(f"edge class {edge} is not a labeled boundary edge")
    tri = lt.tri
    walk = tri.edge_walk(edge)
    if not walk["boundary"]:
        raise ValueError(f"edge class {edge} is not on the boundary")
    t0, f0, d0 = walk["pages"][0]
    t1, f1, d1 = walk["pages"][-1]
    if (t0, f0) == (t1, f1):
        raise ValueError("the two boundary faces across the edge are not distinct")

    apex0 = next(v for v in FACE_VERTICES[f0] if v not in d0)
    apex1 = next(v for v in FACE_VERTICES[f1] if v not in d1)
    n = tri.tet_count
    # new tetrahedron: edge (0,1) sits over the layered edge, faces 2 and 3
    # are glued down, faces 0 and 1 become the new boundary square
    p2 = [0, 0, 0, 0]
    p2[0], p2[1], p2[3], p2[2] = d0[0], d0[1], apex0, f0
    p3 = [0, 0, 0, 0]
    p3[0], p3[1], p3[2], p3[3] = d1[0], d1[1], apex1, f1

    gluings = [list(row) for row in tri.gluings]
    gluings.append([None, None, (t0, tuple(p2)), (t1, tuple(p3))])
    gluings[t0][f0] = (n, perm_inverse(p2))
    gluings[t1][f1] = (n, perm_inverse(p3))
    new_tri = Triangulation(gluings)

    removed = lt.boundary_slopes[edge]
    new_triple = elementary_move(lt.triple, removed)
    inserted = next(iter(set(new_triple) - set(lt.triple)), None)
    if inserted is None:
        # flip along a just-inserted edge walks back up the Farey tree
        inserted = next(s for s in new_triple if s not in
                        (set(lt.triple) - {removed}))

    labels = {}
    for e, lab in lt.boundary_slopes.items():
        if e == edge:
            continue
        t, pair = tri.edge_classes[e].slots[0]
        new_e = new_tri.edge_class_of[(t, pair)]
        if not new_tri.edge_classes[new_e].boundary:
            raise TriangulationError("a kept boundary edge became interior")
        labels[new_e] = lab
    new_edge = new_tri.edge_class_of[(n, (2, 3))]
    if not new_tri.edge_classes[new_edge].boundary:
        raise TriangulationError("the inserted edge is not on the boundary")
    labels[new_edge] = inserted

    if set(labels.values()) != set(new_triple):
        raise TriangulationError("slope bookkeeping does not match the elementary move")
    old_class_rep = tri.edge_classes[edge].slots[0]
    if new_tri.edge_classes[new_tri.edge_class_of[old_class_rep]].boundary:
        raise TriangulationError("the layered edge is still on the boundary")
    history = list(lt.history) + [(len(lt.history), removed, inserted)]
    return LayeredTriangulation(new_tri, labels, history)


def family(i: int) -> LayeredTriangulation:
    """T_i: i layerings from the base, always removing the oldest slope."""
    if i < 0:
        raise ValueError("family index must be nonnegative")
    lt = base_t0()
    for k in range(i):
        lt = layer(lt, slope_seq(k))
    return lt


def label_chain_class(lt: LayeredTriangulation, chain):
    """(multiplicity, Slope) of a boundary 1-cycle in the tracked label basis.

    The labels orient uniquely (up to a global sign) so that the triangle
    relation of the one-vertex torus vanishes; a chain over boundary edges
    then maps to an integer label-basis vector.
    """
    from itertools import product

    bc = lt.tri.boundary_complex
    rel = bc.triangle_boundary_chain(0)
    labels = {be.index: lt.boundary_slopes[be.manifold_edge] for be in bc.bedges}
    idxs = sorted(labels)
    if sorted(rel) != idxs or any(abs(c) != 1 for c in rel.values()):
        raise TriangulationError("boundary is not a one-vertex torus triangulation")
    for signs in product((1, -1), repeat=len(idxs)):
        if signs[0] != 1:
            continue
        vx = sum(rel[j] * s * labels[j].x for j, s in zip(idxs, signs))
        vy = sum(rel[j] * s * labels[j].y for j, s in zip(idxs, signs))
        if vx == 0 and vy == 0:
            break
    else:
        raise TriangulationError("labels admit no relation-compatible orientation")
    x = sum(chain.get(j, 0) * s * labels[j].x for j, s in zip(idxs, signs))
    y = sum(chain.get(j, 0) * s * labels[j].y for j, s in zip(idxs, signs))
    if x == 0 and y == 0:
        return 0, None
    from math import gcd
    from .slopes import normalize_slope
    g = gcd(x, y)
    return g, normalize_slope(x, y)
