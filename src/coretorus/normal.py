"""Normal surface coordinates and reconstruction.

Coordinates are 7 nonnegative integers per tetrahedron: four triangle counts
(one per cut-off vertex) and three quad counts (one per pair of opposite
edges missed).  Admissibility allows at most one nonzero quad coordinate per
tetrahedron; the matching equations require induced arc counts to agree
across every interior face.

Every count read from a tetrahedron's row -- its quad type, its arcs per
(face, cut-off vertex) and its crossing points per tetrahedron edge --
comes from one function, ``row_counts``.  It is memoised by row value:
the rows of the vectors a search meets repeat (T_6's 6,052 admissible
vectors have 917 distinct rows), so each table is computed once and
shared, and nothing is stored on a vector.

Where a piece meets a tetrahedron edge also has one rule,
``crossing_position``: the piece's index along the directed edge, counted
from the tail, which is also its arc level in the tail's corner stack.
Its inverse ``piece_at`` names the piece at a given position, and the
whole corner stack of a face (``face_stack``) is read through it.
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

Reconstruction builds the surface cell by cell: edge crossing points,
face arcs with their stacking order, pieces, connected components, Euler
characteristic both from the assembled complex and independently from the
coordinate counts, two-sidedness, and the boundary curves with their slopes
(computed homologically, by collapsing each curve to a loop of boundary
edges, never by assuming minimal position).  The surface keys its
components and its transverse signs ``sigma`` by piece.

Boundary curves have one tracer, ``trace_boundary_arcs``: it pairs the
ends of boundary arcs at their crossings and walks each cycle once.  A
reconstructed surface feeds it the arcs of its boundary faces, and
``boundary_curves_from_counts`` the arcs of a curve given only by its
corner counts on the boundary surface.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

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


class RowCounts(NamedTuple):
    """The counts of one tetrahedron's row; entries off a face or an edge
    (arcs[f][f], crossings[u][u]) are 0."""
    quad: int | None         # the row's quad type, or None
    arcs: tuple              # arcs[f][vtx]: arcs cutting off vtx in face f
    crossings: tuple         # crossings[u][w]: crossing points on edge uw


@cache
def row_counts(row) -> RowCounts:
    """Quad type, arc counts and edge crossings of a row of 7 coordinates.

    The only place these counts are computed; memoised by row value, so the
    tables are shared and immutable.  A row with two quad types raises
    ValueError (the caller names the tetrahedron)."""
    types = [q for q in range(3) if row[4 + q]]
    if len(types) > 1:
        raise ValueError(f"row {row} has two quad types")
    arcs = [[0] * 4 for _ in range(4)]
    crossings = [[0] * 4 for _ in range(4)]
    for f in range(4):
        for vtx in FACE_VERTICES[f]:
            arcs[f][vtx] = row[vtx]
    for u, w in EDGE_PAIRS:
        crossings[u][w] = crossings[w][u] = row[u] + row[w]
    q = types[0] if types else None
    if types:
        n = row[4 + q]
        for f in range(4):
            arcs[f][QUAD_CUT[q][f]] += n
        for u, w in QUAD_CROSSES[q]:
            crossings[u][w] += n
            crossings[w][u] += n
    return RowCounts(q, tuple(map(tuple, arcs)), tuple(map(tuple, crossings)))


@dataclass(frozen=True)
class NormalVector:
    """Per tetrahedron: (tri0, tri1, tri2, tri3, q01_23, q02_13, q03_12)."""
    coords: tuple

    def __init__(self, coords):
        coords = tuple(map(tuple, coords))
        for row in coords:
            if len(row) != 7 or any(type(c) is not int or c < 0 for c in row):
                raise ValueError("each tetrahedron needs 7 nonnegative integer coordinates")
        object.__setattr__(self, "coords", coords)

    def tri(self, t, v):
        return self.coords[t][v]

    def quad(self, t, q):
        return self.coords[t][4 + q]

    def counts(self, t) -> RowCounts:
        """``row_counts`` of tetrahedron t."""
        try:
            return row_counts(self.coords[t])
        except ValueError:
            raise ValueError(f"tetrahedron {t} has two quad types") from None

    def quad_type(self, t):
        """The single quad type present in tetrahedron t, or None."""
        return self.counts(t).quad

    def piece_count(self):
        return sum(sum(row) for row in self.coords)

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


def check_admissible(v: NormalVector) -> bool:
    for t in range(len(v.coords)):
        if sum(1 for q in range(3) if v.quad(t, q) > 0) > 1:
            return False
    return True


def arc_count(v: NormalVector, t, f, vtx):
    """Arcs of the given type (cut-off vertex) in face f of tetrahedron t."""
    return v.counts(t).arcs[f][vtx]


class _Tables(dict):
    """Each tetrahedron's counts, looked up when a face or edge first needs
    them: once per tetrahedron and call, in the order of the reads."""

    def __init__(self, v: NormalVector):
        self.v = v

    def __missing__(self, t):
        self[t] = counts = self.v.counts(t)
        return counts


def check_matching(tri, v: NormalVector):
    """(ok, violations): one linear equation per interior face and arc type."""
    if len(v.coords) != tri.tet_count:
        raise ValueError("coordinate vector does not match the triangulation size")
    tables = _Tables(v)
    violations = []
    for idx, slots in enumerate(tri.face_classes):
        if len(slots) != 2:
            continue
        (t1, f1), (t2, f2) = slots
        arcs1, arcs2 = tables[t1].arcs[f1], tables[t2].arcs[f2]
        perm = tri.gluings[t1][f1][1]
        for vtx in FACE_VERTICES[f1]:
            if arcs1[vtx] != arcs2[perm[vtx]]:
                violations.append((idx, (t1, f1), vtx))
    return (not violations), violations


def edge_slot_crossings(v: NormalVector, t, edge):
    u, w = edge
    return v.counts(t).crossings[u][w]


def edge_weight(tri, v: NormalVector, edge_class_index):
    """Crossings of the surface with one edge class (all slots agree)."""
    ec = tri.edge_classes[edge_class_index]
    counts = {edge_slot_crossings(v, t, e) for t, e in ec.slots}
    if len(counts) != 1:
        raise TriangulationError(f"inconsistent crossings on edge class {ec.index}")
    return counts.pop()


def total_weight(tri, v: NormalVector):
    return sum(edge_weight(tri, v, ec.index) for ec in tri.edge_classes)


def count_euler(tri, v: NormalVector):
    """Euler characteristic from the coordinates alone: crossing points
    (the weight) minus arcs plus pieces.  A connected disc has 1.  Each
    edge class and face class is counted at one slot, which is exact for a
    matching vector."""
    tables = _Tables(v)
    points = 0
    for ec in tri.edge_classes:
        t, (u, w) = ec.slots[0]
        points += tables[t].crossings[u][w]
    arcs = 0
    for slots in tri.face_classes:
        t, f = slots[0]
        arcs += sum(tables[t].arcs[f])
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
    the first ``arcs[f][vtx]`` positions along either edge of f from vtx,
    built as two runs whose quad ends ``piece_at`` gives."""
    n, total = v.tri(t, vtx), v.counts(t).arcs[f][vtx]
    stack = [("tri", t, vtx, j) for j in range(n)]
    if total > n:
        edge = (vtx, next(x for x in FACE_VERTICES[f] if x != vtx))
        _, _, q, first = piece_at(v, t, edge, n)
        last = piece_at(v, t, edge, total - 1)[3]
        step = 1 if first <= last else -1
        stack += [("quad", t, q, m) for m in range(first, last + step, step)]
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
    the tail's corner stack (``face_stack``)."""
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
    multiplicity: int = 0    # |class| as a multiple of a primitive slope
    slope: object = None     # Slope or None when null-homologous


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
    euler_from_counts: int
    sigma: dict               # piece -> +1/-1 transverse orientation, if two-sided

    @property
    def connected(self):
        return len(self.components) == 1


def reconstruct(tri, v: NormalVector) -> ReconstructedSurface:
    if not check_admissible(v):
        raise ValueError("vector is not admissible")
    ok, violations = check_matching(tri, v)
    if not ok:
        raise ValueError(f"matching equations violated: {violations[:3]}")

    pieces = []
    for t in range(tri.tet_count):
        for vtx in range(4):
            pieces += [("tri", t, vtx, j) for j in range(v.tri(t, vtx))]
        q = v.quad_type(t)
        if q is not None:
            pieces += [("quad", t, q, m) for m in range(v.quad(t, q))]

    direction = tri.class_direction
    bc = tri.boundary_complex
    arc_pieces = []         # per face arc: the piece on its first side
    relations = []          # two-sidedness: sigma * coorientation agrees across interior arcs
    boundary_arcs = []      # the tracer's input, see trace_boundary_arcs
    boundary_pieces = []    # the piece behind each boundary arc
    for slots in tri.face_classes:
        t1, f1 = slots[0]
        for vtx in FACE_VERTICES[f1]:
            x, y = (u for u in FACE_VERTICES[f1] if u != vtx)
            stack1 = face_stack(v, t1, f1, vtx)
            arc_pieces += stack1
            if len(slots) == 2:
                t2, f2 = slots[1]
                perm = tri.gluings[t1][f1][1]
                stack2 = face_stack(v, t2, f2, perm[vtx])
                if len(stack1) != len(stack2):
                    raise TriangulationError("matching holds but stacks disagree")
                for p1, p2 in zip(stack1, stack2):
                    relations.append((p1, p2, coorientation(p1, (x, vtx))
                                      * coorientation(p2, (perm[x], perm[vtx]))))
                continue
            i = bc.tri_index[(t1, f1)]
            (cx, ex), (cy, ey) = direction[(t1, (vtx, x))], direction[(t1, (vtx, y))]
            bx, by = bc.bedge_of_manifold_edge[cx], bc.bedge_of_manifold_edge[cy]
            for p in stack1:
                boundary_arcs.append((i, vtx, ((bx, crossing_position(v, t1, p, ex)),
                                               (by, crossing_position(v, t1, p, ey)))))
            boundary_pieces += stack1

    sigma, comps = two_colour(pieces, relations)
    components = [members for members, _ in comps]
    orientable = [ok for _, ok in comps]
    comp_of = {piece: c for c, members in enumerate(components) for piece in members}

    # crossing points, each named by its place along its edge class; every
    # slot must see each crossing in the same component
    weight = total_weight(tri, v)
    crossing_comp = {}
    for piece in pieces:
        comp, t = comp_of[piece], piece[1]
        for d in piece_cycle(piece):
            c, e = direction[(t, d)]
            if crossing_comp.setdefault((c, crossing_position(v, t, piece, e)), comp) != comp:
                raise TriangulationError("edge crossing spans two components")

    n_comp = len(components)
    v_count = [0] * n_comp
    e_count = [0] * n_comp
    for c in crossing_comp.values():
        v_count[c] += 1
    for piece in arc_pieces:
        e_count[comp_of[piece]] += 1
    euler_by_component = [v_count[i] - e_count[i] + len(components[i]) for i in range(n_comp)]

    # independent Euler characteristic from the coordinates alone
    euler_from_counts = count_euler(tri, v)
    euler_total = sum(euler_by_component)
    if euler_total != euler_from_counts:
        raise TriangulationError("Euler characteristic computations disagree")

    curves_by_component = [[] for _ in range(n_comp)]
    for arc_ids, chain in trace_boundary_arcs(bc, boundary_arcs):
        comp = comp_of[boundary_pieces[arc_ids[0]]]
        curves_by_component[comp].append(NormalCurve(length=len(arc_ids), chain=chain))

    return ReconstructedSurface(
        tri=tri, vector=v, pieces=pieces, components=components,
        euler_by_component=euler_by_component,
        orientable_by_component=orientable,
        boundary_curves_by_component=curves_by_component,
        weight=weight, piece_count=v.piece_count(),
        euler_total=euler_total, euler_from_counts=euler_from_counts,
        sigma=sigma,
    )


def trace_boundary_arcs(bc, arcs):
    """The one normal-curve tracer on the boundary surface.

    Each arc is (boundary triangle, cut-off corner, (key0, key1)): key k is
    the crossing ``(boundary edge, index)`` at the arc's end through the
    corner's k-th other vertex of the face.  Ends with the same key are
    paired, and each cycle is walked once from its first arc, entering at
    end 0.  Per curve: its arc indices in walk order and its boundary-edge
    1-cycle (bedge -> nonzero coefficient)."""
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


def curve_slopes(tri, surface: ReconstructedSurface, calibration):
    """Attach (multiplicity, slope) to every boundary curve, in place."""
    for curves in surface.boundary_curves_by_component:
        for c in curves:
            mult, slope = calibration.slope_of_cycle(c.chain)
            c.multiplicity = mult
            c.slope = slope
    return surface


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
        for i, k in be.sides:
            u, v = bc.side_vertices(i, k)
            verts = FACE_VERTICES[bc.triangles[i][1]]
            sums.add(counts[i][verts.index(u)] + counts[i][verts.index(v)])
        if len(sums) != 1:
            return False
    return True


def boundary_curves_from_counts(bc, counts):
    """Reconstruct the normal multicurve on the boundary surface with the
    given corner arc counts: one record per component, with its length and
    its boundary-edge 1-cycle (for the homology class)."""
    if not boundary_counts_match(bc, counts):
        raise ValueError("corner counts violate the matching equations")

    arcs = []
    for i, (t, f) in enumerate(bc.triangles):
        verts = FACE_VERTICES[f]
        for pos, vtx in enumerate(verts):
            ends = []           # per end: (bedge, crossing index of level 0, step)
            for other in (u for u in verts if u != vtx):
                pair = tuple(sorted((vtx, other)))
                be = bc.bedges[bc.bedge_of_side[(i, bc.side_of(i, pair))]]
                last = counts[i][verts.index(pair[0])] + counts[i][verts.index(pair[1])] - 1
                # levels run from the corner; the bedge counts along its sign
                if (vtx == pair[0]) == (be.sign[(i, pair)] == 1):
                    ends.append((be.index, 0, 1))
                else:
                    ends.append((be.index, last, -1))
            (b0, a0, s0), (b1, a1, s1) = ends
            for level in range(counts[i][pos]):
                arcs.append((i, vtx, ((b0, a0 + s0 * level), (b1, a1 + s1 * level))))
    return [{"length": len(arc_ids), "chain": chain}
            for arc_ids, chain in trace_boundary_arcs(bc, arcs)]
