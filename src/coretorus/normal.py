"""Normal surface coordinates and reconstruction.

Coordinates are 7 nonnegative integers per tetrahedron: four triangle counts
(one per cut-off vertex) and three quad counts (one per pair of opposite
edges missed).  Admissibility, at most one nonzero quad coordinate per
tetrahedron, is a property of the type: ``NormalVector`` raises on a row
with two quad types, so every vector is admissible and no reader checks
again.  The matching equations require induced arc counts to agree across
every interior face.

Which coordinates a count adds has one definition, the index table
``ARC_COORDS``: the arcs cutting off vtx in face f are the triangle at vtx
plus the quad type that misses edge f-vtx.  The matching equations add
them directly.  Every other count is read from one table, ``row_counts``:
a row's quad type, its arcs, and its crossings, an edge's being the arcs
at its two ends in a face through it.  The table is memoised by row value:
the rows of the vectors a search meets repeat (T_6's 6,052 admissible
vectors have 917 distinct rows), and nothing is stored on a vector.

Where a piece meets a tetrahedron edge also has one rule,
``crossing_position``: the piece's index along the directed edge, counted
from the tail, which is also its arc level in the tail's corner stack.
Its inverse ``piece_at`` names the piece at a given position.  A face's
corner stack (``face_stack``) is the run of triangles at the corner, then
the run of quads, listed straight from the row in that order.
``piece_cycle`` lists the directed edges a piece crosses, in cyclic order
around it.

Two more rules say what the bundle and the geometry read of a piece.
Which way it faces: ``coorientation(piece, directed_edge)`` is +1 when
the piece's canonical coorientation (a triangle's toward its vertex, a
quad's toward the high side of the edges it misses) points along the
directed edge, and a two-sided surface's global sign on the piece is
``sigma[piece]`` times it.  Which crossing it passes through: a crossing
point is named by its edge class and its ``crossing_position`` along the
slot edge directed as the class representative
(``Triangulation.class_direction``), a name every slot of the class
agrees on.

Reconstruction builds the surface cell by cell: face arcs with their
stacking order, pieces, connected components and two-sidedness, then each
component's crossing points, read at each edge class's representative slot
(``EdgeClass.rep``), its Euler characteristic and its boundary curves with
their slopes (computed homologically, by collapsing each curve to a loop of
boundary edges, never by assuming minimal position).  The count-level Euler
characteristic ``count_euler`` is computed apart from the surface: for a
matching vector it sums the same crossings, arcs and pieces as the
surface's ``euler_total``.  The surface keys its components and its
transverse signs ``sigma`` by piece.

Boundary curves have one tracer, ``trace_boundary_arcs``.  Its input is
corner counts, three per boundary triangle; it builds the boundary arcs,
pairs their ends at their crossings and walks each cycle once.  A
reconstructed surface passes the arc counts of its boundary faces and maps
the arcs back to the pieces of their corner stacks, and
``boundary_curves_from_counts`` passes the counts of a curve given only on
the boundary surface.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .homology import _per_triangulation
from .triangulation import EDGE_PAIRS, FACE_VERTICES, TriangulationError, two_colour

# quad type q misses the two opposite edges QUAD_MISSED[q]; the side of the
# first (the one containing vertex 0) is the "low" side used to index copies
QUAD_MISSED = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
# QUAD_CUT[q][f]: the vertex cut off by the type-q quad's arc in face f, the
# partner of f in the missed edge through f
QUAD_CUT = tuple(tuple(b if a == f else a for f in range(4)
                       for a, b in QUAD_MISSED[q] if f in (a, b))
                 for q in range(3))
# QUAD_CROSSES[q]: the four (sorted) tetrahedron edges a type-q quad crosses
QUAD_CROSSES = tuple(frozenset(e for e in EDGE_PAIRS if e not in QUAD_MISSED[q])
                     for q in range(3))
# ARC_COORDS[f][vtx]: the two coordinates whose sum is the number of arcs
# cutting off vtx in face f, the triangle at vtx and the quad type that
# misses edge f-vtx (its arc in f cuts off vtx); () off a face
ARC_COORDS = (((), (1, 4), (2, 5), (3, 6)),
              ((0, 4), (), (2, 6), (3, 5)),
              ((0, 5), (1, 6), (), (3, 4)),
              ((0, 6), (1, 5), (2, 4), ()))


class RowCounts(NamedTuple):
    """The counts of one tetrahedron's row; entries off a face or an edge
    (arcs[f][f], crossings[u][u]) are 0."""
    quad: int | None         # the row's quad type, or None
    arcs: tuple              # arcs[f][vtx]: arcs cutting off vtx in face f
    crossings: tuple         # crossings[u][w]: crossing points on edge uw


@cache
def row_counts(row) -> RowCounts:
    """Quad type, arc counts and edge crossings of a row of 7 coordinates:
    arcs[f][vtx] sums ``ARC_COORDS[f][vtx]``, and an edge's crossings are
    the arcs at its two ends in a face through it, crossings[u][w] =
    arcs[f][u] + arcs[f][w].

    Memoised by row value, so the tables are shared and immutable; a search
    builds one for every row its count filters meet, so the build is plain
    loops.  A raw row with two quad types raises ValueError."""
    types = [q for q in range(3) if row[4 + q]]
    if len(types) > 1:
        raise ValueError(f"row {row} has two quad types")
    arcs = tuple(tuple([row[c[0]] + row[c[1]] if c else 0 for c in r]) for r in ARC_COORDS)
    # each face gives its edges' crossings (an edge's two faces agree)
    crossings = [[0] * 4 for _ in range(4)]
    for f, (x, y, z) in enumerate(FACE_VERTICES):
        a = arcs[f]
        crossings[x][y] = crossings[y][x] = a[x] + a[y]
        crossings[x][z] = crossings[z][x] = a[x] + a[z]
        crossings[y][z] = crossings[z][y] = a[y] + a[z]
    return RowCounts(types[0] if types else None, arcs, tuple(map(tuple, crossings)))


def row_of_crossings(crossings):
    """The admissible row whose ``row_counts`` crossings are the given 4x4
    table, or None if no row has them.

    The two edges a quad misses carry the triangle total T between them and
    every other opposite pair carries T plus twice the quad count, so the
    quad misses the pair with the smallest sum and its count is half the
    gap; the triangle counts follow from the edge weights less the quads.
    A candidate is returned only if its crossings are the table, so the
    row is unique."""
    sums = [crossings[a][b] + crossings[c][d] for (a, b), (c, d) in QUAD_MISSED]
    q = sums.index(min(sums))
    n = (max(sums) - sums[q]) // 2

    def bare(u, w):
        return crossings[u][w] - n * ((min(u, w), max(u, w)) in QUAD_CROSSES[q])

    tris = []
    for v in range(4):
        a, b, _ = (x for x in range(4) if x != v)
        tris.append((bare(v, a) + bare(v, b) - bare(a, b)) // 2)
    row = tuple(tris + [n if k == q else 0 for k in range(3)])
    if min(row) < 0 or row_counts(row).crossings != tuple(map(tuple, crossings)):
        return None
    return row


@dataclass(frozen=True)
class NormalVector:
    """Per tetrahedron: (tri0, tri1, tri2, tri3, q01_23, q02_13, q03_12),
    with at most one quad type: a vector is admissible by construction."""
    coords: tuple

    def __init__(self, coords):
        coords = tuple(map(tuple, coords))
        # plain loops, no generator: every leaf of a search builds a vector
        for t, row in enumerate(coords):
            if len(row) == 7:
                for c in row:
                    if type(c) is not int or c < 0:
                        break
                else:
                    if row[4:].count(0) < 2:
                        raise ValueError(f"tetrahedron {t} has two quad types")
                    continue
            raise ValueError("each tetrahedron needs 7 nonnegative integer coordinates")
        object.__setattr__(self, "coords", coords)

    def tri(self, t, v):
        return self.coords[t][v]

    def quad(self, t, q):
        return self.coords[t][4 + q]

    def counts(self, t) -> RowCounts:
        """``row_counts`` of tetrahedron t."""
        return row_counts(self.coords[t])

    def piece_count(self):
        return sum(map(sum, self.coords))

    def __add__(self, other):
        return NormalVector(tuple(tuple(a + b for a, b in zip(r1, r2))
                                  for r1, r2 in zip(self.coords, other.coords)))

    def __rmul__(self, k):
        return NormalVector(tuple(tuple(k * c for c in row) for row in self.coords))

    def to_json(self):
        return [list(row) for row in self.coords]

    @staticmethod
    def from_json(data):
        try:
            return NormalVector(tuple(tuple(row) for row in data))
        except TypeError as e:
            raise ValueError(f"a normal vector is a list of rows of 7 integers: {e}") from None

    @staticmethod
    def zero(tet_count):
        return NormalVector(tuple((0,) * 7 for _ in range(tet_count)))


@_per_triangulation
def _face_equations(tri):
    """Per equation, its (face class, side, vertex) and the two pairs of
    coordinates, indexed in the concatenated rows, whose sums must agree."""
    interior = [(idx, slots) for idx, slots in enumerate(tri.face_classes) if len(slots) == 2]
    equations = []
    for idx, ((t1, f1), (t2, f2)) in interior:
        perm = tri.gluings[t1][f1][1]
        for vtx in FACE_VERTICES[f1]:
            (a, b), (c, d) = ARC_COORDS[f1][vtx], ARC_COORDS[f2][perm[vtx]]
            equations.append(((idx, (t1, f1), vtx), 7 * t1 + a, 7 * t1 + b, 7 * t2 + c, 7 * t2 + d))
    return equations


def check_matching(tri, v: NormalVector):
    """(ok, violations): one linear equation per interior face and arc type."""
    if len(v.coords) != tri.tet_count:
        raise ValueError("coordinate vector does not match the triangulation size")
    x = [c for row in v.coords for c in row]
    violations = [where for where, a, b, c, d in _face_equations(tri)
                  if x[a] + x[b] != x[c] + x[d]]
    return (not violations), violations


def edge_weight(tri, v: NormalVector, edge_class_index):
    """Crossings of the surface with one edge class, read at
    ``EdgeClass.rep``: every slot of a matching vector's class agrees."""
    t, (a, b) = tri.edge_classes[edge_class_index].rep
    return v.counts(t).crossings[a][b]


def count_euler(tri, v: NormalVector):
    """Euler characteristic from the coordinates alone: crossing points
    (the weight) minus arcs plus pieces.  A connected disc has 1.  Each
    edge class and face class is counted at one slot, which is exact for a
    matching vector: an edge class at ``EdgeClass.rep``, as ``reconstruct``
    reads it, and a face class at its first slot."""
    points = arcs = 0
    for ec in tri.edge_classes:
        t, (a, b) = ec.rep
        points += v.counts(t).crossings[a][b]
    for slots in tri.face_classes:
        t, f = slots[0]
        arcs += sum(v.counts(t).arcs[f])
    return points - arcs + v.piece_count()


# -- stacking order ----------------------------------------------------------

def piece_at(v: NormalVector, t, directed_edge, k):
    """The piece at position k along the directed edge of tet t, counted
    from the tail: the triangles at the tail nearest first, then the quads,
    then the triangles at the head.  The inverse of ``crossing_position``."""
    u, w = directed_edge
    counts, nu = v.counts(t), v.tri(t, u)
    if k < nu:
        return ("tri", t, u, k)
    n = counts.crossings[u][w]
    nq = n - nu - v.tri(t, w)
    if k < nu + nq:
        q, m = counts.quad, k - nu
        return ("quad", t, q, m if u in QUAD_MISSED[q][0] else nq - 1 - m)
    return ("tri", t, w, n - 1 - k)


def face_stack(v: NormalVector, t, f, vtx):
    """Pieces behind the type-vtx arcs of face f of tet t, nearest vtx first:
    the first ``arcs[f][vtx]`` positions along either edge of f from vtx.
    That is the run of triangles at vtx, then the run of quads whose arc in
    f cuts off vtx, ascending from the low side ``QUAD_MISSED[q][0]`` as
    ``crossing_position`` counts them."""
    counts, n = v.counts(t), v.tri(t, vtx)
    stack = [("tri", t, vtx, j) for j in range(n)]
    nq = counts.arcs[f][vtx] - n
    if nq:
        q = counts.quad
        levels = range(nq) if vtx in QUAD_MISSED[q][0] else range(nq - 1, -1, -1)
        stack += [("quad", t, q, m) for m in levels]
    return stack


def piece_cycle(piece):
    """The directed tetrahedron edges the piece crosses, in cyclic order
    around it: a triangle's from its vertex, a quad's from its low side."""
    kind, _, a, _ = piece
    if kind == "tri":
        return [(a, x) for x in range(4) if x != a]
    (l0, l1), (h0, h1) = QUAD_MISSED[a]
    return [(l0, h0), (l0, h1), (l1, h1), (l1, h0)]


def crossing_position(v: NormalVector, t, piece, directed_edge):
    """Where the piece crosses the directed edge of tet t, counted from the
    edge's tail; ``piece_at`` is the inverse.  In a face through the edge
    where the piece's arc cuts off the tail, this is also the arc's level in
    the tail's corner stack (``face_stack``): the bundle's R cells read
    their slab gaps off that stack-level rule."""
    kind, _, a, level = piece
    u, w = directed_edge
    if kind == "tri":
        return level if a == u else v.counts(t).crossings[u][w] - 1 - level
    return v.tri(t, u) + (level if u in QUAD_MISSED[a][0] else v.quad(t, a) - 1 - level)


def coorientation(piece, directed_edge):
    """+1 if the piece's canonical coorientation points along the directed
    edge it crosses, else -1.  A triangle's points at its vertex; a quad's
    points at the high side ``QUAD_MISSED[q][1]`` of the edges it misses."""
    kind, _, a, _ = piece
    if kind == "tri":
        return -1 if directed_edge[0] == a else 1
    return 1 if directed_edge[1] in QUAD_MISSED[a][1] else -1


# -- reconstruction ----------------------------------------------------------

@dataclass
class NormalCurve:
    """One boundary curve component."""
    length: int
    chain: dict              # boundary-edge 1-cycle (bedge -> coefficient)


@dataclass
class ReconstructedSurface:
    tri: object
    vector: NormalVector
    pieces: list
    components: list          # lists of pieces, each in pieces order
    euler_by_component: list
    orientable_by_component: list
    boundary_curves_by_component: list
    weight: int
    piece_count: int
    euler_total: int
    sigma: dict               # piece -> +1/-1 transverse orientation, if two-sided

    @property
    def connected(self):
        return len(self.components) == 1


def reconstruct(tri, v: NormalVector) -> ReconstructedSurface:
    ok, violations = check_matching(tri, v)
    if not ok:
        raise ValueError(f"matching equations violated: {violations[:3]}")

    pieces = []
    for t in range(tri.tet_count):
        for vtx in range(4):
            pieces += [("tri", t, vtx, j) for j in range(v.tri(t, vtx))]
        q = v.counts(t).quad
        if q is not None:
            pieces += [("quad", t, q, m) for m in range(v.quad(t, q))]

    arc_pieces = []         # per face arc: the piece on its first side
    relations = []          # two-sidedness: sigma * coorientation agrees across interior arcs
    boundary_pieces = []    # per boundary arc, in the tracer's order: the piece behind it
    for slots in tri.face_classes:
        t1, f1 = slots[0]
        for vtx in FACE_VERTICES[f1]:
            stack1 = face_stack(v, t1, f1, vtx)
            arc_pieces += stack1
            if len(slots) == 1:
                boundary_pieces += stack1
                continue
            t2, f2 = slots[1]
            perm = tri.gluings[t1][f1][1]
            x = next(u for u in FACE_VERTICES[f1] if u != vtx)
            # the two stacks are as long as the arc counts check_matching compared
            for p1, p2 in zip(stack1, face_stack(v, t2, f2, perm[vtx])):
                relations.append((p1, p2, coorientation(p1, (x, vtx))
                                  * coorientation(p2, (perm[x], perm[vtx]))))

    sigma, comps = two_colour(pieces, relations)
    components = [members for members, _ in comps]
    orientable = [ok for _, ok in comps]
    comp_of = {piece: c for c, members in enumerate(components) for piece in members}

    # crossing points, counted once per edge class at its representative
    # slot.  Every slot sees a crossing in one component: around the edge,
    # the pieces at one crossing in neighbouring sectors share the face arc
    # through it, and ``relations`` joins them.
    n_comp = len(components)
    v_count = [0] * n_comp
    e_count = [0] * n_comp
    weight = 0
    for ec in tri.edge_classes:
        t, (a, b) = ec.rep
        w = v.counts(t).crossings[a][b]
        weight += w
        for k in range(w):
            v_count[comp_of[piece_at(v, t, (a, b), k)]] += 1
    for piece in arc_pieces:
        e_count[comp_of[piece]] += 1
    euler_by_component = [v_count[i] - e_count[i] + len(components[i]) for i in range(n_comp)]

    # boundary singletons come in (t, f) order, as bc.triangles does, and
    # each stack level 0 first, as the tracer numbers its arcs
    bc = tri.boundary_complex
    counts = [[v.counts(t).arcs[f][vtx] for vtx in FACE_VERTICES[f]] for t, f in bc.triangles]
    curves_by_component = [[] for _ in range(n_comp)]
    for arc_ids, chain in trace_boundary_arcs(bc, counts):
        comp = comp_of[boundary_pieces[arc_ids[0]]]
        curves_by_component[comp].append(NormalCurve(length=len(arc_ids), chain=chain))

    return ReconstructedSurface(
        tri=tri, vector=v, pieces=pieces, components=components,
        euler_by_component=euler_by_component,
        orientable_by_component=orientable,
        boundary_curves_by_component=curves_by_component,
        weight=weight, piece_count=v.piece_count(),
        euler_total=sum(euler_by_component), sigma=sigma,
    )


def trace_boundary_arcs(bc, counts):
    """The one normal-curve tracer on the boundary surface, fed by corner
    counts: counts[i][pos] arcs of boundary triangle i cut off the pos-th
    vertex of its face.

    The arcs are numbered triangle by triangle, corner by corner in face
    order, each corner's arcs from the corner outward.  An arc's end
    through the corner's k-th other vertex is the crossing ``(boundary
    edge, index)`` there.  Ends at the same crossing are paired, and each
    cycle is walked once from its first arc, entering at end 0.  Per curve:
    its arc numbers in walk order and its boundary-edge 1-cycle (bedge ->
    nonzero coefficient)."""
    arcs = []
    for i, (_, f) in enumerate(bc.triangles):
        verts = FACE_VERTICES[f]
        for pos, vtx in enumerate(verts):
            ends = []           # per end: (bedge, crossing index of level 0, step)
            for other in (u for u in verts if u != vtx):
                k = bc.side_of(i, (vtx, other))
                be = bc.bedge_of_side[(i, k)]
                last = counts[i][verts.index(vtx)] + counts[i][verts.index(other)] - 1
                # levels run from the corner; the bedge counts along its direction
                if vtx == bc.side_dir[(i, k)][0]:
                    ends.append((be, 0, 1))
                else:
                    ends.append((be, last, -1))
            (b0, a0, s0), (b1, a1, s1) = ends
            for level in range(counts[i][pos]):
                arcs.append((i, vtx, ((b0, a0 + s0 * level), (b1, a1 + s1 * level))))
    ends = {}
    for a, (_, _, keys) in enumerate(arcs):
        for end, key in enumerate(keys):
            ends.setdefault(key, []).append((a, end))
    partner = {}
    for key, halves in ends.items():
        if len(halves) != 2:
            raise TriangulationError(f"boundary crossing {key} has {len(halves)} arc ends")
        partner[halves[0]] = halves[1]
        partner[halves[1]] = halves[0]

    seen = [False] * len(arcs)
    out = []
    for start in range(len(arcs)):
        if seen[start]:
            continue
        arc_ids, chain = [], {}
        a, entry = start, 0
        while True:
            seen[a] = True
            arc_ids.append(a)
            i, vtx, keys = arcs[a]
            b, b_entry = partner[(a, 1 - entry)]
            a_end = _corner_end(bc, i, vtx, 1 - entry)
            b_end = _corner_end(bc, arcs[b][0], arcs[b][1], b_entry)
            if a_end != b_end:
                bedge = keys[1 - entry][0]
                chain[bedge] = chain.get(bedge, 0) + (1 if a_end == 0 else -1)
            if (b, b_entry) == (start, 0):
                break
            a, entry = b, b_entry
        out.append((arc_ids, {k: c for k, c in chain.items() if c}))
    return out


def _corner_end(bc, i, vtx, end_slot):
    """Which end (0/1, in the boundary edge's representative direction) the
    corner at vertex vtx of boundary triangle i sits at, on the side through
    the other vertex in the given end slot."""
    others = [u for u in FACE_VERTICES[bc.triangles[i][1]] if u != vtx]
    return bc.corner_end(i, bc.side_of(i, (vtx, others[end_slot])), vtx)


def min_curve_length(triple, s) -> int:
    """Minimal length of a normal curve of slope s: the sum of its
    intersection numbers with the three boundary edge slopes."""
    from .slopes import intersection
    return sum(intersection(s, e) for e in triple)


# -- standalone normal curves on the boundary surface ------------------------

def boundary_counts_match(bc, counts):
    """Do per-triangle corner counts satisfy the edge matching equations?"""
    for be in bc.bedges:
        sums = set()
        for i, (u, v) in be.ends:
            verts = FACE_VERTICES[bc.triangles[i][1]]
            sums.add(counts[i][verts.index(u)] + counts[i][verts.index(v)])
        if len(sums) != 1:
            return False
    return True


def boundary_curves_from_counts(bc, counts):
    """Reconstruct the normal multicurve on the boundary surface with the
    given corner arc counts: one record per component, with its length and
    its boundary-edge 1-cycle (for the homology class)."""
    if (len(counts) != len(bc.triangles) or any(len(row) != 3 for row in counts)
            or any(type(c) is not int or c < 0 for row in counts for c in row)):
        raise ValueError("corner counts must be 3 nonnegative integers per boundary triangle")
    if not boundary_counts_match(bc, counts):
        raise ValueError("corner counts violate the matching equations")
    return [{"length": len(arc_ids), "chain": chain}
            for arc_ids, chain in trace_boundary_arcs(bc, counts)]
