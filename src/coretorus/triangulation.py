"""Generalized triangulations: tetrahedra with affine face gluings.

A triangulation is a list of tetrahedra, each with four faces (face ``f`` is
opposite vertex ``f``), and a gluing table: face ``f`` of tetrahedron ``t``
is either boundary or glued to a face of another (or the same) tetrahedron
by a vertex permutation of {0,1,2,3}.  Validation enforces that the gluing
relation is a fixed-point-free involution, that no edge is identified with
itself reversing orientation, that every edge link is connected, and that a
consistent orientation exists.

The quotient skeleton (vertex, edge and face classes) is computed by
union-find over the identifications induced by the gluings.  Edge classes
come from a single union-find over directed edges: an edge class is the
directed class of its representative together with the directed class of
the reverse, so every chain-level computation downstream has exact signs
available, and an edge identified with its own reverse is caught there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TriangulationError(ValueError):
    pass


class ParseError(TriangulationError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def perm_inverse(p):
    inv = [0, 0, 0, 0]
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_sign(p):
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                sign = -sign
    return sign


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(groups[r]) for r in sorted(groups)]


def two_colour(nodes, relations):
    """Signs +1/-1 with ``sign[b] == sign[a] * rel`` for each ``(a, b, rel)``.

    The first node of each connected component, in ``nodes`` order, gets +1
    and the rest follow a depth-first spanning tree.  Returns ``(sign,
    components)``, where ``components`` lists ``(members, consistent)`` in
    order of first node, members in ``nodes`` order, and ``consistent`` says
    whether every relation inside the component holds.
    """
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


@dataclass(frozen=True)
class SkeletonSummary:
    vertex_classes: int
    edge_classes: int
    face_classes: int
    tet_count: int
    edge_degrees: tuple          # slots per edge class
    edge_on_boundary: tuple      # per edge class
    euler_characteristic: int


@dataclass
class EdgeClass:
    index: int
    slots: list                  # [(tet, (u, v)) with u < v]
    rep: tuple                   # representative directed edge (tet, (a, b))
    boundary: bool
    dir_sign: dict               # (tet, (p, q)) -> +1/-1 relative to rep

    @property
    def degree(self):
        return len(self.slots)


class Triangulation:
    """Immutable after construction; all derived data is cached and read-only."""

    def __init__(self, gluings):
        table = []
        for t, faces in enumerate(gluings):
            if len(faces) != 4:
                raise TriangulationError(f"tetrahedron {t} needs exactly 4 face entries")
            row = []
            for f, g in enumerate(faces):
                if g is None:
                    row.append(None)
                    continue
                t2, perm = g
                perm = tuple(perm)
                if sorted(perm) != [0, 1, 2, 3]:
                    raise TriangulationError(f"face ({t},{f}): {perm} is not a permutation")
                if not 0 <= t2 < len(gluings):
                    raise TriangulationError(f"face ({t},{f}) glued to missing tetrahedron {t2}")
                row.append((t2, perm))
            table.append(tuple(row))
        self.gluings = tuple(table)
        self.tet_count = len(table)
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self):
        for t in range(self.tet_count):
            for f in range(4):
                g = self.gluings[t][f]
                if g is None:
                    continue
                t2, perm = g
                f2 = perm[f]
                if (t2, f2) == (t, f):
                    raise TriangulationError(f"face ({t},{f}) is glued to itself")
                back = self.gluings[t2][f2]
                if back is None or back != (t, perm_inverse(perm)):
                    raise TriangulationError(
                        f"gluing of face ({t},{f}) to ({t2},{f2}) is not an involution")
        self._check_edges()
        self._check_orientability()
        for ec in self.edge_classes:
            self._walk_for_validation(ec)

    def _check_edges(self):
        self.edge_classes  # raises if an edge is identified with its reverse

    def _check_orientability(self):
        self.orientation  # raises if inconsistent

    def _walk_for_validation(self, ec):
        walk = self.edge_walk(ec.index)
        seen = {(t, tuple(sorted(d))) for (t, d, _, _) in walk["sectors"]}
        if seen != {(t, e) for t, e in ec.slots}:
            raise TriangulationError(
                f"edge class {ec.index} has a disconnected link (pinched edge)")

    # -- quotient skeleton -----------------------------------------------

    @cached_property
    def edge_classes(self):
        # one union-find over directed edges (t, (p, q)), keyed 16t + 4p + q;
        # an undirected class is the directed class of its representative
        # together with the directed class of the reverse
        uf = _UnionFind([16 * t + 4 * p + q for t in range(self.tet_count)
                         for p in range(4) for q in range(4) if p != q])
        for t in range(self.tet_count):
            for f in range(4):
                g = self.gluings[t][f]
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
        for t in range(self.tet_count):
            for u, v in EDGE_PAIRS:
                ra, rb = uf.find(16 * t + 4 * u + v), uf.find(16 * t + 4 * v + u)
                if ra == rb:
                    raise TriangulationError(
                        f"edge {(t, (u, v))} is identified with itself reversing orientation")
                members.setdefault(min(ra, rb), []).append((t, (u, v)))
        # _UnionFind roots every class at its least key, so a class's root
        # is the key of its least slot, which is its representative
        classes = []
        for idx, root in enumerate(sorted(members)):
            slots = members[root]
            rep = slots[0]
            sign = {}
            for t, (u, v) in slots:
                sign[(t, (u, v))] = 1 if uf.find(16 * t + 4 * u + v) == root else -1
                sign[(t, (v, u))] = -sign[(t, (u, v))]
            boundary = boundary_side(self.gluings, slots) is not None
            classes.append(EdgeClass(idx, slots, rep, boundary, sign))
        return classes

    @cached_property
    def class_direction(self):
        """(tet, directed edge) -> (edge class, the slot's edge directed as
        the class representative).  A crossing point is named by its class
        and its ``crossing_position`` along that direction, the same in
        every slot of the class."""
        return {(t, d): (ec.index, d if sign == 1 else d[::-1])
                for ec in self.edge_classes for (t, d), sign in ec.dir_sign.items()}

    @cached_property
    def edge_class_of(self):
        out = {}
        for ec in self.edge_classes:
            for t, e in ec.slots:
                out[(t, e)] = ec.index
        return out

    @cached_property
    def vertex_classes(self):
        uf = _UnionFind([(t, v) for t in range(self.tet_count) for v in range(4)])
        for t in range(self.tet_count):
            for f in range(4):
                g = self.gluings[t][f]
                if g is None:
                    continue
                t2, perm = g
                for v in FACE_VERTICES[f]:
                    uf.union((t, v), (t2, perm[v]))
        return uf.classes()

    @cached_property
    def vertex_class_of(self):
        out = {}
        for idx, corners in enumerate(self.vertex_classes):
            for c in corners:
                out[c] = idx
        return out

    @cached_property
    def face_classes(self):
        """Each interior class is a glued slot pair; boundary faces are singletons."""
        classes = []
        seen = set()
        for t in range(self.tet_count):
            for f in range(4):
                if (t, f) in seen:
                    continue
                g = self.gluings[t][f]
                if g is None:
                    classes.append(((t, f),))
                    seen.add((t, f))
                else:
                    t2, perm = g
                    classes.append(((t, f), (t2, perm[f])))
                    seen.add((t, f))
                    seen.add((t2, perm[f]))
        return classes

    @cached_property
    def face_class_of(self):
        out = {}
        for idx, slots in enumerate(self.face_classes):
            for s in slots:
                out[s] = idx
        return out

    @cached_property
    def boundary_faces(self):
        return [(t, f) for t in range(self.tet_count) for f in range(4)
                if self.gluings[t][f] is None]

    @cached_property
    def orientation(self):
        """Orientation sign per tetrahedron; raises if none exists."""
        relations = []
        for slots in self.face_classes:
            if len(slots) == 2:
                (t, f), (t2, _) = slots
                relations.append((t, t2, -perm_sign(self.gluings[t][f][1])))
        sign, components = two_colour(range(self.tet_count), relations)
        if not all(ok for _, ok in components):
            raise TriangulationError("triangulation is not orientable")
        return sign

    def skeleton(self) -> SkeletonSummary:
        v = len(self.vertex_classes)
        e = len(self.edge_classes)
        f = len(self.face_classes)
        return SkeletonSummary(
            vertex_classes=v,
            edge_classes=e,
            face_classes=f,
            tet_count=self.tet_count,
            edge_degrees=tuple(ec.degree for ec in self.edge_classes),
            edge_on_boundary=tuple(ec.boundary for ec in self.edge_classes),
            euler_characteristic=v - e + f - self.tet_count,
        )

    # -- edge links --------------------------------------------------------

    def edge_walk(self, edge_class_index):
        """Ordered link of an edge class (see ``class_walk``)."""
        return class_walk(self.gluings, self.edge_classes[edge_class_index].slots)

    @cached_property
    def boundary_complex(self):
        from .boundary import BoundaryComplex
        return BoundaryComplex(self.gluings, self.edge_classes, self.boundary_faces)


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
    sector's face_out is glued to the first sector's face_in.
    """
    start = (t, d, f_in)
    sectors = []
    while True:
        f_out = 6 - d[0] - d[1] - f_in        # the other face of t containing d
        sectors.append((t, d, f_in, f_out))
        g = gluings[t][f_out]
        if g is None:
            return {"boundary": True, "sectors": sectors}
        t2, perm = g
        t, d, f_in = t2, (perm[d[0]], perm[d[1]]), perm[f_out]
        if (t, d, f_in) == start:
            return {"boundary": False, "sectors": sectors}


def boundary_side(gluings, slots):
    """The first (tet, face, edge) over ``slots`` (sorted (tet, (u, v)) with
    u < v) and faces in order whose face is a boundary face containing the
    edge; None for an interior edge."""
    for t, e in slots:
        for f in range(4):
            if f not in e and gluings[t][f] is None:
                return t, f, e
    return None


def class_walk(gluings, slots):
    """``link_walk`` of the edge class with these slots, from a fixed start:
    its first boundary side, or else the first face of its first slot, with
    the edge directed (u, v)."""
    side = boundary_side(gluings, slots)
    if side is None:
        t, e = slots[0]
        side = (t, next(f for f in range(4) if f not in e), e)
    t, f, e = side
    return link_walk(gluings, t, e, f)


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
