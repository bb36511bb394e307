"""The separate face-slot loops, kept as the oracle for the one pass that
``Triangulation._validate`` makes over the face slots.

Each function here is one of the loops ``Triangulation`` ran before that
pass: the involution check over every slot, the face classes built with a
seen set, the boundary faces, and the orientation from the tetrahedron
relations of the face classes.  ``validate`` runs the checks in their
order: every slot's involution check first, then the edge classes (which
raise where an edge comes back reversed), then the orientation.  Tests
assert that the one pass gives the same lists and the same error text.
``perm_sign`` reads a permutation's sign off the table validation uses.

``two_colour_oracle`` is ``two_colour`` as it was before it read each sign
once and returned a lone component without a per-node component map; a
property test asserts that both give the same signs and components.
``component_summary`` counts each boundary component's cells,
``bedge_of_manifold_edge`` maps an edge class to its boundary edge and
``triangle_boundary_chain`` reads a boundary triangle's boundary side by
side; only the tests read them.
"""
import edge_class_oracle
from coretorus.boundary import _along
from coretorus.triangulation import (_PERMS, FACE_VERTICES, TriangulationError, perm_inverse,
                                     two_colour)


def perm_sign(p):
    return _PERMS[tuple(p)][1]


def check_involution(gluings):
    """Raises at the first slot, in (tet, face) order, that is glued to
    itself or whose partner is not glued back by the inverse permutation."""
    for t in range(len(gluings)):
        for f in range(4):
            g = gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            f2 = perm[f]
            if (t2, f2) == (t, f):
                raise TriangulationError(f"face ({t},{f}) is glued to itself")
            back = gluings[t2][f2]
            if back is None or back != (t, perm_inverse(perm)):
                raise TriangulationError(
                    f"gluing of face ({t},{f}) to ({t2},{f2}) is not an involution")


def face_classes(gluings):
    """Each interior class is a glued slot pair; boundary faces are singletons."""
    classes, seen = [], set()
    for t in range(len(gluings)):
        for f, g in enumerate(gluings[t]):
            if (t, f) not in seen:
                slots = ((t, f),) if g is None else ((t, f), (g[0], g[1][f]))
                classes.append(slots)
                seen.update(slots)
    return classes


def boundary_faces(gluings):
    return [(t, f) for t in range(len(gluings)) for f in range(4) if gluings[t][f] is None]


def orientation_relations(gluings):
    """(t, t2, -sign) for each glued face class, from its first slot."""
    relations = []
    for slots in face_classes(gluings):
        if len(slots) == 2:
            (t, f), (t2, _) = slots
            relations.append((t, t2, -perm_sign(gluings[t][f][1])))
    return relations


def orientation(gluings):
    """Orientation sign per tetrahedron; raises if none exists."""
    sign, components = two_colour(range(len(gluings)), orientation_relations(gluings))
    if not all(ok for _, ok in components):
        raise TriangulationError("triangulation is not orientable")
    return sign


def validate(gluings):
    """Raises the error validation raises first, in the checks' order."""
    check_involution(gluings)
    edge_class_oracle.edge_classes(gluings)
    orientation(gluings)


def two_colour_oracle(nodes, relations):
    """``two_colour`` with a component index for every node."""
    adj = {x: [] for x in nodes}
    for a, b, rel in relations:
        adj[a].append((b, rel))
        adj[b].append((a, rel))
    sign, comp_of, consistent = {}, {}, []
    for start in adj:
        if start in sign:
            continue
        c = len(consistent)
        consistent.append(True)
        sign[start], comp_of[start] = 1, c
        stack = [start]
        while stack:
            a = stack.pop()
            for b, rel in adj[a]:
                if b not in sign:
                    sign[b], comp_of[b] = sign[a] * rel, c
                    stack.append(b)
                elif sign[b] != sign[a] * rel:
                    consistent[c] = False
    members = [[] for _ in consistent]
    for x in adj:
        members[comp_of[x]].append(x)
    return sign, list(zip(members, consistent))


def component_summary(bc):
    """Per component of the boundary complex ``bc``: triangle count,
    vertex/edge counts, Euler char."""
    out = []
    for comp in bc.components:
        tris = set(comp)
        verts = {bc.vertex_class_of[(i, v)] for i in tris
                 for v in FACE_VERTICES[bc.triangles[i][1]]}
        edges = {bc.bedge_of_side[(i, k)] for i in tris for k in range(3)}
        chi = len(verts) - len(edges) + len(tris)
        out.append({
            "triangles": len(tris),
            "vertices": len(verts),
            "edges": len(edges),
            "euler": chi,
        })
    return out


def bedge_of_manifold_edge(bc):
    """Edge class index -> the boundary edge of ``bc`` it carries."""
    return {be.manifold_edge: be.index for be in bc.bedges}


def triangle_boundary_chain(bc, i):
    """Boundary triangle i's boundary as a 1-chain over boundary edges,
    read side by side through ``bedge_of_side`` and ``side_dir``."""
    chain = {}
    f = bc.triangles[i][1]
    for k in range(3):
        be = bc.bedge_of_side[(i, k)]
        chain[be] = chain.get(be, 0) + _along(f, bc.side_dir[(i, k)])
    return chain
