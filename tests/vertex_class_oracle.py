"""The union-find vertex classes, kept as the oracle for the corner
components.

``vertex_classes`` is what ``Triangulation.vertex_classes`` computed before
it took the ``two_colour`` components of the corners: one union-find over
the corners (t, v), joined across every glued face from both of its sides.
``boundary_vertex_classes`` is the same for ``BoundaryComplex``: the corners
(triangle, v) of the boundary triangles, joined end to end across each
boundary edge.  ``_UnionFind.classes`` lists each class sorted, the classes
in order of least member.  Tests assert that the two agree.
"""
from coretorus.triangulation import FACE_VERTICES
from union_find import _UnionFind


def vertex_classes(gluings):
    """The corner classes of a gluing table whose face gluings are
    involutions."""
    uf = _UnionFind([(t, v) for t in range(len(gluings)) for v in range(4)])
    for t in range(len(gluings)):
        for f in range(4):
            g = gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            for v in FACE_VERTICES[f]:
                uf.union((t, v), (t2, perm[v]))
    return uf.classes()


def boundary_vertex_classes(bc):
    """The corner classes of a ``BoundaryComplex``."""
    corners = [(i, v) for i, (t, f) in enumerate(bc.triangles) for v in FACE_VERTICES[f]]
    uf = _UnionFind(corners)
    for be in bc.bedges:
        (i0, d0), (i1, d1) = be.ends
        uf.union((i0, d0[0]), (i1, d1[0]))
        uf.union((i0, d0[1]), (i1, d1[1]))
    return uf.classes()
