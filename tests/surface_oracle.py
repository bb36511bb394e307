"""The per-piece readers ``normal.reconstruct`` once used, kept as an
oracle for the per-class count and the corner-count tracer that replaced
them; nothing in ``coretorus`` uses this.

Crossing points are named by their edge class and their
``crossing_position`` along the class direction, collected from every
piece's ``piece_cycle``; boundary arcs are named by the same crossings,
mapped to boundary edges, and traced by the arc-list tracer the counts
tracer grew from.  ``surface_counts`` gives what ``reconstruct`` reports
of these: the Euler characteristic per component, the weight and the
boundary curves per component as (length, chain).  ``total_weight`` sums
``slot_weight`` over every edge class, each read at all of its slots.
"""
from coretorus.normal import _corner_end, crossing_position, face_stack, piece_cycle
from coretorus.triangulation import FACE_VERTICES, TriangulationError
from skeleton_oracle import bedge_of_manifold_edge


def slot_weight(tri, v, edge_class_index):
    """Crossings of v with one edge class, read at every slot of the class,
    which must all agree (``normal.edge_weight`` reads one slot)."""
    ec = tri.edge_classes[edge_class_index]
    counts = {v.counts(t).crossings[a][b] for t, (a, b) in ec.slots}
    if len(counts) != 1:
        raise TriangulationError(f"inconsistent crossings on edge class {ec.index}")
    return counts.pop()


def total_weight(tri, v):
    """Crossings of v with every edge class, each class read at all of its
    slots (``slot_weight``)."""
    return sum(slot_weight(tri, v, ec.index) for ec in tri.edge_classes)


def surface_counts(tri, v, components):
    """(euler_by_component, weight, boundary curves by component) of the
    matching vector v whose surface has the given components."""
    comp_of = {piece: c for c, members in enumerate(components) for piece in members}
    direction = tri.class_direction
    bc = tri.boundary_complex
    bedge_of = bedge_of_manifold_edge(bc)
    arc_pieces = []         # per face arc: the piece on its first side
    boundary_arcs = []      # the tracer's input, see trace_arcs
    boundary_pieces = []    # the piece behind each boundary arc
    for slots in tri.face_classes:
        t1, f1 = slots[0]
        for vtx in FACE_VERTICES[f1]:
            x, y = (u for u in FACE_VERTICES[f1] if u != vtx)
            stack1 = face_stack(v, t1, f1, vtx)
            arc_pieces += stack1
            if len(slots) == 2:
                continue
            i = bc.tri_index[(t1, f1)]
            (cx, ex), (cy, ey) = direction[(t1, (vtx, x))], direction[(t1, (vtx, y))]
            bx, by = bedge_of[cx], bedge_of[cy]
            for p in stack1:
                boundary_arcs.append((i, vtx, ((bx, crossing_position(v, t1, p, ex)),
                                               (by, crossing_position(v, t1, p, ey)))))
            boundary_pieces += stack1

    # crossing points, each named by its place along its edge class; every
    # slot must see each crossing in the same component
    weight = total_weight(tri, v)
    crossing_comp = {}
    for piece in comp_of:
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

    curves_by_component = [[] for _ in range(n_comp)]
    for arc_ids, chain in trace_arcs(bc, boundary_arcs):
        comp = comp_of[boundary_pieces[arc_ids[0]]]
        curves_by_component[comp].append((len(arc_ids), chain))
    return euler_by_component, weight, curves_by_component


def trace_arcs(bc, arcs):
    """Each arc is (boundary triangle, cut-off corner, (key0, key1)): key k is
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
