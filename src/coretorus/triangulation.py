"""Generalized triangulations: tetrahedra with affine face gluings.

A triangulation is a list of tetrahedra, each with four faces (face ``f`` is
opposite vertex ``f``), and a gluing table: face ``f`` of tetrahedron ``t``
is either boundary or glued to a face of another (or the same) tetrahedron
by a vertex permutation of {0,1,2,3}.  Validation enforces that the gluing
relation is a fixed-point-free involution, that no edge is identified with
itself reversing orientation, that every edge link is connected, and that a
consistent orientation exists.

Validation is one pass over the face slots: the involution check at each
glued slot, and from the smaller slot of each glued pair its face class, the
tetrahedron relation whose ``two_colour`` gives the orientation, and the three
corner relations whose ``two_colour`` components are the vertex classes.
Each edge class is found by walking its link (``link_walk``) from its least
slot, and the other way too when the walk ends on the boundary.  A walk step
carries the directed edge across a glued face; every directed edge a walk
records, and the reverse ``_edge_classes`` files beside it, is one of the
twelve shared tuples of ``_DIRECTED``, so a sector or a slot key makes no
new edge tuple.  The walks give
``Triangulation.class_direction``, the one signed-edge table: each directed
edge slot maps to its class and to the slot's edge directed as the class
representative.  A slot that comes back reversed is an edge identified with
its own reverse.  Every chain sign downstream (H1, the boundary complex, the
PL curves' class parameters) is read from it.  Each class's link, walked from
a fixed start, is kept in ``Triangulation.edge_walks``; the boundary complex,
the bundle's Q cells, the curves' push-off and ``layered.layer`` all read
those walks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TriangulationError(ValueError):
    pass


class ParseError(TriangulationError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


# each permutation of {0,1,2,3} -> (its inverse, its sign)
_PERMS = {p: (tuple(p.index(i) for i in range(4)),
              (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)))
          for p in permutations(range(4))}


def perm_inverse(p):
    return _PERMS[tuple(p)][0]


# the twelve directed edges, one tuple each: _DIRECTED[u][v] is (u, v)
_DIRECTED = tuple(tuple((u, v) if u != v else None for v in range(4)) for u in range(4))


def two_colour(nodes, relations):
    """Signs +1/-1 with ``sign[b] == sign[a] * rel`` for each ``(a, b, rel)``.

    The first node of each connected component, in ``nodes`` order, gets +1
    and the rest follow a depth-first spanning tree.  Returns ``(sign,
    components)``, where ``components`` lists ``(members, consistent)`` in
    order of first node, members in ``nodes`` order, and ``consistent`` says
    whether every relation inside the component holds.  ``sign`` holds the
    nodes in the order the search reaches them, so each component is a run
    of its keys.  A lone component's members are all the nodes, in order;
    only with more than one does each node get its component, to list the
    members.
    """
    adj = {x: [] for x in nodes}
    for a, b, rel in relations:
        adj[a].append((b, rel))
        adj[b].append((a, rel))
    sign, starts, consistent = {}, [], []
    get = sign.get
    for start in adj:
        if start in sign:
            continue
        starts.append(len(sign))
        sign[start], ok, stack = 1, True, [start]
        while stack:
            a = stack.pop()
            s = sign[a]
            for b, rel in adj[a]:
                sb = get(b)
                if sb is None:
                    sign[b] = s * rel
                    stack.append(b)
                elif sb != s * rel:
                    ok = False
        consistent.append(ok)
    if len(consistent) == 1:
        return sign, [(list(adj), consistent[0])]
    reached, comp_of = list(sign), {}
    for c, (lo, hi) in enumerate(zip(starts, starts[1:] + [len(reached)])):
        for x in reached[lo:hi]:
            comp_of[x] = c
    members = [[] for _ in consistent]
    for x in adj:
        members[comp_of[x]].append(x)
    return sign, list(zip(members, consistent))


@dataclass(frozen=True)
class SkeletonSummary:
    vertex_classes: int
    edge_classes: int
    face_classes: int
    tet_count: int
    euler_characteristic: int


@dataclass
class EdgeClass:
    index: int
    slots: list                  # [(tet, (u, v)) with u < v]
    rep: tuple                   # representative directed edge (tet, (a, b))
    boundary: bool

    @property
    def degree(self):
        return len(self.slots)


class Triangulation:
    """Immutable after construction; all derived data is cached and read-only."""

    def __init__(self, gluings):
        table, n = [], len(gluings)
        for t, faces in enumerate(gluings):
            if len(faces) != 4:
                raise TriangulationError(f"tetrahedron {t} needs exactly 4 face entries")
            row = []
            for f, g in enumerate(faces):
                if g is None:
                    row.append(None)
                    continue
                t2, perm = g
                if type(g) is not tuple or type(perm) is not tuple:    # else kept as given
                    perm = tuple(perm)
                    g = (t2, perm)
                if perm not in _PERMS:
                    raise TriangulationError(f"face ({t},{f}): {perm} is not a permutation")
                if not 0 <= t2 < n:
                    raise TriangulationError(f"face ({t},{f}) glued to missing tetrahedron {t2}")
                row.append(g)
            table.append(tuple(row))
        self.gluings = tuple(table)
        self.tet_count = len(table)
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self):
        """The one pass over the face slots, in (tet, face) order; then the
        edge classes, then the orientation, each raising where it fails."""
        gluings, tet_relations = self.gluings, []
        self.face_classes, self.boundary_faces, self._corner_relations = (
            faces, boundary, corner_relations) = [], [], []
        for t, row in enumerate(gluings):
            for f, g in enumerate(row):
                if g is None:
                    faces.append(((t, f),))
                    boundary.append((t, f))
                    continue
                t2, perm = g
                f2 = perm[f]
                if t2 == t and f2 == f:
                    raise TriangulationError(f"face ({t},{f}) is glued to itself")
                inverse, sign = _PERMS[perm]
                if gluings[t2][f2] != (t, inverse):
                    raise TriangulationError(
                        f"gluing of face ({t},{f}) to ({t2},{f2}) is not an involution")
                if t < t2 or t == t2 and f < f2:
                    faces.append(((t, f), (t2, f2)))
                    tet_relations.append((t, t2, -sign))
                    a, b, c = FACE_VERTICES[f]
                    x, y = 4 * t, 4 * t2
                    corner_relations += ((x + a, y + perm[a], 1), (x + b, y + perm[b], 1),
                                         (x + c, y + perm[c], 1))
        # raises if an edge is identified with its reverse
        self.edge_classes, self.class_direction, self.edge_walks = self._edge_classes()
        sign, components = two_colour(range(self.tet_count), tet_relations)
        if not all(ok for _, ok in components):
            raise TriangulationError("triangulation is not orientable")
        self.orientation = sign          # the orientation sign of each tetrahedron

    # -- quotient skeleton -----------------------------------------------

    def _edge_classes(self):
        """The edge classes; ``class_direction``: (tet, directed edge) ->
        (edge class, the slot's edge directed as the class representative),
        for both directions of every slot; and each class's walk, its one
        ordered link.  A directed edge runs along its class exactly when it
        is its own class direction, and a crossing point is named by its
        class and its ``crossing_position`` along it, the same in every slot
        of the class.

        A class is found by walking its link from its least slot (u, v),
        u < v, the representative, through the slot's first face, and the
        other way too if the walk ends on the boundary.  Each sector's
        directed edge is its slot's class direction; a slot met again
        reversed is an edge identified with itself reversing orientation.
        An interior class's walk is that first walk.  A boundary class's
        walk starts from the least (tet, sorted edge, face) of the two ends
        of its link, the boundary faces where the two half-walks stop, with
        the edge directed (u, v), u < v."""
        gluings, directed, classes, direction, walks = self.gluings, _DIRECTED, [], {}, []
        setdefault = direction.setdefault
        for t in range(self.tet_count):
            # the faces holding edge d are the two other vertices' opposites
            for d, (f, f_back) in zip(EDGE_PAIRS, EDGE_PAIRS[::-1]):
                if (t, d) in direction:
                    continue
                idx = len(classes)
                walk = link_walk(gluings, t, d, f)
                sectors, boundary = walk["sectors"], walk["boundary"]
                if boundary:
                    back = link_walk(gluings, t, d, f_back)["sectors"]
                    ends = [(t2, e if e[0] < e[1] else directed[e[1]][e[0]], f_out)
                            for t2, e, _, f_out in (sectors[-1], back[-1])]
                    sectors = sectors + back
                slots = []
                for t2, e, _, _ in sectors:
                    key, got = (t2, e), (idx, e)
                    if setdefault(key, got) is got:         # a new slot
                        p, q = e
                        rev = (t2, directed[q][p])
                        direction[rev] = got
                        slots.append(key if p < q else rev)
                    elif direction[key][1] != e:
                        raise TriangulationError(
                            f"edge {(t, d)} is identified with itself reversing orientation")
                slots.sort()
                walks.append(link_walk(gluings, *min(ends)) if boundary else walk)
                classes.append(EdgeClass(idx, slots, slots[0], boundary))
        return classes, direction, walks

    @cached_property
    def vertex_classes(self):
        """The corners (t, v) of each vertex class, in order of least corner:
        the components of corners 4t + v, joined across each glued face pair
        by the corner relations ``_validate`` takes from its smaller slot,
        which are dropped once read."""
        relations = vars(self).pop("_corner_relations")
        _, components = two_colour(range(4 * self.tet_count), relations)
        corners = list(product(range(self.tet_count), range(4)))      # corner 4t + v
        if len(components) == 1:                                      # all of them, in order
            return [corners]
        return [[corners[x] for x in members] for members, _ in components]

    @cached_property
    def vertex_class_of(self):
        out = {}
        for idx, corners in enumerate(self.vertex_classes):
            for c in corners:
                out[c] = idx
        return out

    @cached_property
    def face_class_of(self):
        out = {}
        for idx, slots in enumerate(self.face_classes):
            for s in slots:
                out[s] = idx
        return out

    def skeleton(self) -> SkeletonSummary:
        v = len(self.vertex_classes)
        e = len(self.edge_classes)
        f = len(self.face_classes)
        return SkeletonSummary(
            vertex_classes=v,
            edge_classes=e,
            face_classes=f,
            tet_count=self.tet_count,
            euler_characteristic=v - e + f - self.tet_count,
        )

    @cached_property
    def boundary_complex(self):
        from .boundary import BoundaryComplex
        return BoundaryComplex(self.edge_walks, self.class_direction, self.boundary_faces)


# -- edge links on a gluing table --------------------------------------------

def link_walk(gluings, t, d, f_in):
    """Walk the link of directed edge ``d`` of tetrahedron ``t``, entering its
    sector through face ``f_in``.

    Returns {"boundary": bool, "sectors": [...]}, a sector being (tet,
    directed_edge, face_in, face_out).  Each sector's face_out is glued to
    the next sector's face_in, the gluing carrying the one directed edge to
    the other.  If face ``f_in`` is a boundary face the walk runs to the
    other boundary face: it starts at the face_in of sectors[0] and ends at
    the face_out of sectors[-1].  Otherwise the list is cyclic, and the last
    sector's face_out is glued to the first sector's face_in.  The gluing
    carries face_in's vertex too, to the vertex opposite the next face_out.
    """
    u, v = d
    f_out = 6 - u - v - f_in             # the other face of t containing d
    t0, u0, v0, f0 = t, u, v, f_in
    directed, sectors = _DIRECTED, []
    append = sectors.append
    while True:
        append((t, directed[u][v], f_in, f_out))
        g = gluings[t][f_out]
        if g is None:
            return {"boundary": True, "sectors": sectors}
        t, perm = g
        u, v, f_in, f_out = perm[u], perm[v], perm[f_out], perm[f_in]
        if t == t0 and u == u0 and v == v0 and f_in == f0:
            return {"boundary": False, "sectors": sectors}


# -- exchange format -------------------------------------------------------

def parse_tri(text: str) -> Triangulation:
    """Parse the exchange format.

    First line ``tets N``; then one line per tetrahedron ``i: tok0 tok1 tok2
    tok3`` where a token is ``-`` for a boundary face or ``t:abcd`` for a
    gluing sending vertex k of this tetrahedron to digit k.  ``#`` starts a
    comment.
    """
    rows = {}
    count = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if count is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "tets":
                raise ParseError("expected header 'tets N'", lineno)
            try:
                count = int(parts[1])
            except ValueError:
                raise ParseError(f"bad tetrahedron count {parts[1]!r}", lineno)
            if count < 0:
                raise ParseError("tetrahedron count must be nonnegative", lineno)
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected '<i>: tok0 tok1 tok2 tok3'", lineno)
        try:
            idx = int(head)
        except ValueError:
            raise ParseError(f"bad tetrahedron index {head!r}", lineno)
        if not 0 <= idx < count:
            raise ParseError(f"tetrahedron index {idx} out of range", lineno)
        if idx in rows:
            raise ParseError(f"duplicate row for tetrahedron {idx}", lineno)
        toks = rest.split()
        if len(toks) != 4:
            raise ParseError(f"tetrahedron {idx} needs 4 face tokens", lineno)
        faces = []
        for tok in toks:
            if tok == "-":
                faces.append(None)
                continue
            t2s, sep2, digits = tok.partition(":")
            if not sep2 or len(digits) != 4 or not digits.isdigit():
                raise ParseError(f"bad face token {tok!r}", lineno)
            try:
                t2 = int(t2s)
            except ValueError:
                raise ParseError(f"bad face token {tok!r}", lineno)
            faces.append((t2, tuple(int(c) for c in digits)))
        rows[idx] = faces
    if count is None:
        raise ParseError("missing 'tets N' header")
    if set(rows) != set(range(count)):
        missing = sorted(set(range(count)) - set(rows))
        raise ParseError(f"missing rows for tetrahedra {missing}")
    return Triangulation([rows[i] for i in range(count)])


def serialize_tri(tri: Triangulation, labels=None) -> str:
    """Canonical text form; bit-exact (tet order, single spaces).

    ``labels`` may map edge class indices to strings, emitted as comments.
    """
    lines = [f"tets {tri.tet_count}"]
    for t in range(tri.tet_count):
        toks = []
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                toks.append("-")
            else:
                t2, perm = g
                toks.append(f"{t2}:{''.join(str(v) for v in perm)}")
        lines.append(f"{t}: {' '.join(toks)}")
    if labels:
        for idx in sorted(labels):
            ec = tri.edge_classes[idx]
            lines.append(f"# edge {idx} rep {ec.rep} {labels[idx]}")
    return "\n".join(lines) + "\n"
