"""The directed union-find edge classes, kept as the oracle for the link
walks.

``edge_classes`` here is what ``Triangulation._edge_classes`` computed
before it walked each class's link instead: one union-find over the directed
edges (t, (p, q)), keyed 16t + 4p + q, joined across every glued face.  An
undirected class is the directed class of its representative together with
the directed class of the reverse, and an edge identified with its own
reverse is caught where the two coincide.  A class is on the boundary when a
face holding one of its slots is a boundary face.  Tests assert that the two
agree.  Each class's walk starts where the scan in ``class_walk`` finds it,
not by the rule ``Triangulation._edge_classes`` uses.
"""
from coretorus.triangulation import (EDGE_PAIRS, FACE_VERTICES, EdgeClass,
                                     TriangulationError, link_walk)
from union_find import _UnionFind


def class_walk(gluings, slots):
    """``link_walk`` of the edge class with these slots (sorted (tet, (u, v))
    with u < v), with the edge directed (u, v): from the first boundary face
    containing the edge, over slots and then faces in order, or else from
    the first face of the first slot."""
    side = next(((t, e, f) for t, e in slots for f in range(4)
                 if f not in e and gluings[t][f] is None), None)
    if side is None:
        t, e = slots[0]
        side = (t, e, next(f for f in range(4) if f not in e))
    return link_walk(gluings, *side)


def edge_classes(gluings):
    """(edge classes, class_direction, edge walks) of a gluing table whose
    face gluings are involutions; raises TriangulationError where an edge is
    identified with itself reversing orientation."""
    n = len(gluings)
    uf = _UnionFind([16 * t + 4 * p + q for t in range(n)
                     for p in range(4) for q in range(4) if p != q])
    for t in range(n):
        for f in range(4):
            g = gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            if (t2, perm[f]) < (t, f):
                continue                      # the pair was visited from the other side
            for p in FACE_VERTICES[f]:
                for q in FACE_VERTICES[f]:
                    if p != q:
                        uf.union(16 * t + 4 * p + q, 16 * t2 + 4 * perm[p] + perm[q])
    members = {}
    for t in range(n):
        for u, v in EDGE_PAIRS:
            ra, rb = uf.find(16 * t + 4 * u + v), uf.find(16 * t + 4 * v + u)
            if ra == rb:
                raise TriangulationError(
                    f"edge {(t, (u, v))} is identified with itself reversing orientation")
            members.setdefault(min(ra, rb), []).append((t, (u, v)))
    # _UnionFind roots every class at its least key, so a class's root is
    # the key of its least slot, which is its representative
    classes, direction, walks = [], {}, []
    for idx, root in enumerate(sorted(members)):
        slots = members[root]
        for t, (u, v) in slots:
            d = (u, v) if uf.find(16 * t + 4 * u + v) == root else (v, u)
            direction[(t, (u, v))] = direction[(t, (v, u))] = (idx, d)
        walks.append(class_walk(gluings, slots))
        boundary = any(gluings[t][f] is None for t, e in slots for f in range(4) if f not in e)
        classes.append(EdgeClass(idx, slots, slots[0], boundary))
    return classes, direction, walks
