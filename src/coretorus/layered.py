"""Layered triangulations of the solid torus.

``base_t0`` is a fixed one-tetrahedron solid torus (the unique such
triangulation up to isomorphism; the gluing below is the lexicographically
least table passing the solid-torus oracle).  ``layer`` attaches a new
tetrahedron across the two boundary faces adjacent to a chosen boundary
edge, the ends of the edge's walk that its triangulation already holds
(``Triangulation.edge_walks``), which performs a diagonal flip on the
one-vertex boundary torus, and validates each result it returns.
``family(i)`` is T_i, on the Farey-tree path that always removes the oldest
remaining boundary slope (Jaco-Rubinstein, arXiv:math/0603601).  Every step
of that path glues the same way, so ``family`` writes T_i's table down with
no layering and no state, and runs the bookkeeping checks on the validated
result.

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


def _labeled(tri, slots, layered, history) -> LayeredTriangulation:
    """The layered triangulation, after the bookkeeping checks on it:
    every layered edge is interior and the labels sit on distinct boundary
    edge classes.  ``slots`` maps each label to a slot (tet, edge) of its
    edge, ``layered`` lists a slot of each layered edge."""
    classes = tri.edge_classes
    if any(classes[tri.class_direction[slot][0]].boundary for slot in layered):
        raise TriangulationError("a layered edge is still on the boundary")
    labels = {tri.class_direction[slot][0]: lab for lab, slot in slots.items()}
    if len(labels) != len(slots) or not all(classes[c].boundary for c in labels):
        raise TriangulationError("the slope labels are not distinct boundary edges")
    return LayeredTriangulation(tri, labels, history)


def layer(lt: LayeredTriangulation, edge) -> LayeredTriangulation:
    """Attach a tetrahedron across the two boundary faces meeting an edge.

    ``edge`` is a boundary edge class index or its Slope label.  The new
    tetrahedron's edge (0,1) sits over the edge, its faces 2 and 3 are glued
    to the boundary faces at the two ends of the edge's walk in
    ``Triangulation.edge_walks``, and its faces 0 and 1 become the new
    boundary square.  The edge becomes interior; its flip, the new edge
    (2,3), is labeled with the inserted slope of the elementary move.  Old
    slots keep their edges, so a kept label stays on the class of its old
    representative slot.  The result is a fully validated triangulation.
    """
    if isinstance(edge, Slope):
        edge = lt.class_with_label(edge)
    if edge not in lt.boundary_slopes or not lt.tri.edge_classes[edge].boundary:
        raise ValueError(f"edge class {edge} is not a labeled boundary edge")
    removed = lt.boundary_slopes[edge]
    slots = {lab: lt.tri.edge_classes[e].rep for e, lab in lt.boundary_slopes.items() if e != edge}
    inserted = next(s for s in elementary_move(lt.triple, removed) if s not in slots)
    sectors = lt.tri.edge_walks[edge]["sectors"]
    t0, d0, f0, _ = sectors[0]
    t1, d1, _, f1 = sectors[-1]
    if (t0, f0) == (t1, f1):
        raise ValueError("the two boundary faces across the edge are not distinct")

    apex0 = next(v for v in FACE_VERTICES[f0] if v not in d0)
    apex1 = next(v for v in FACE_VERTICES[f1] if v not in d1)
    n = lt.tri.tet_count
    p2 = [0, 0, 0, 0]
    p2[0], p2[1], p2[3], p2[2] = d0[0], d0[1], apex0, f0
    p3 = [0, 0, 0, 0]
    p3[0], p3[1], p3[2], p3[3] = d1[0], d1[1], apex1, f1
    gluings = [list(row) for row in lt.tri.gluings]
    gluings.append([None, None, (t0, tuple(p2)), (t1, tuple(p3))])
    gluings[t0][f0] = (n, perm_inverse(p2))
    gluings[t1][f1] = (n, perm_inverse(p3))

    slots[inserted] = (n, (2, 3))
    history = list(lt.history) + [(len(lt.history), removed, inserted)]
    return _labeled(Triangulation(gluings), slots, [lt.tri.edge_classes[edge].rep], history)


# T_i's gluing table: tet k is glued up to tet k+1 by faces 0 and 1, down
# to tet k-1 by faces 2 and 3, and tet 0 folds its faces 2 and 3 together
_UP = ((3, 1, 0, 2), (0, 2, 3, 1))
_DOWN = ((0, 3, 1, 2), (2, 1, 3, 0))
_FOLD = ((1, 2, 3, 0), (3, 0, 1, 2))


def family(i: int) -> LayeredTriangulation:
    """T_i: i layerings from the base, always removing the oldest slope.

    Induction: T_k's boundary is tet k's faces 0 and 1; its edge (2,3)
    carries s_{k+2}, its edges (0,3) and (1,2) carry s_k, and (0,2) and
    (1,3) carry s_{k+1}.  This holds for T_0 (``base_t0``).  So each step
    layers along s_k at the same local position: tet k+1's faces 2 and 3
    go onto tet k's faces 1 and 0 with its edge (0,1) over s_k, the same
    gluing every time, and that gluing puts T_{k+1}'s labels on tet k+1 in
    the same pattern.  The table is then the periodic one above; the tests
    check it against ``layer`` run from ``base_t0``.
    """
    if i < 0:
        raise ValueError("family index must be nonnegative")
    (u0, u1), (d0, d1) = _UP, _DOWN
    gluings = [[(k + 1, u0), (k + 1, u1), (k - 1, d0), (k - 1, d1)] for k in range(i + 1)]
    gluings[0][2:] = [(0, p) for p in _FOLD]
    gluings[i][:2] = [None, None]
    s, x, y = [], 1, 0                  # s_0 = (1, 0); s_{k+1} = (x + y, x) from s_k = (x, y)
    for _ in range(i + 3):
        s.append(Slope(x, y))
        x, y = x + y, x
    slots = {s[i]: (i, (0, 3)), s[i + 1]: (i, (0, 2)), s[i + 2]: (i, (2, 3))}
    history = [(k, s[k], s[k + 3]) for k in range(i)]
    lt = _labeled(Triangulation(gluings), slots, [(k, (0, 3)) for k in range(i)], history)
    if set(lt.boundary_slopes.values()) != {slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)}:
        raise TriangulationError("slope bookkeeping does not follow the slope recursion")
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
