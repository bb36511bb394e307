"""Cutting along a normal surface and the parallelity bundle.

Cutting the solid torus along a meridian disc leaves, in each tetrahedron,
vertex caps, one or two central chunks, and parallelity slabs between
adjacent parallel pieces.  Each face's bits are read off its corner stacks
(``face_stack``), and the cut manifold X needs no cell count of its own:
chi(X) = chi(M) + chi(S).  The parallelity bundle is bigger than the union
of the tetrahedron slabs: between two adjacent parallel arcs in a face
lies a parallelity rectangle of the face's thickening, and between two
consecutive crossing points on an edge lies a slab of the edge's thickening
(always a product piece, whatever the flanking pieces are).  The bundle's
base surface F is therefore assembled from three kinds of 2-cells:

  P cells: slabs between consecutive same-type pieces in a tetrahedron,
  R cells: rectangles between consecutive arcs of one corner stack of a face,
  Q cells: slabs between consecutive crossing points of an edge,

glued along canonically named 1-cells, with 0-cells named by (tetrahedron,
edge pair, crossing gap counted along the edge class, adjacent face).  Components, base Euler
characteristics, base orientability (product versus twisted) and the
contacts with the two disc copies and the annulus A all come out of this
complex by counting and 2-coloring, on the cells numbered in name order.

Each builder works its per-kind data out once.  P cells walk their
piece's cycle through ``_P_STEPS``, one table of cycle steps per piece kind,
and one kind's slabs cross each edge at gaps g0 + s * k, s = +-1.  An R
cell's slab above stack level j crosses its corner's edges at gap j
(``crossing_position``'s stack-level rule), so its class gap is j, or
n - 2 - j where the edge class runs the other way.  Q cells read their
sectors' pairs and page sides once per edge class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .normal import (NormalVector, QUAD_CUT, QUAD_MISSED, ReconstructedSurface,
                     coorientation, crossing_position, face_stack, piece_at,
                     piece_cycle, reconstruct)
from .layered import family
from .search import MeridianDisc, SearchBudget, VerifyReport, minimal_complexity_disc
from .slopes import fib
from .triangulation import FACE_VERTICES, TriangulationError, perm_inverse, two_colour


# ---------------------------------------------------------------------------
# region decomposition of the cut manifold
# ---------------------------------------------------------------------------

def tet_regions(v: NormalVector, t):
    """Closures of the components of the tetrahedron minus the surface."""
    regions = []
    q = v.counts(t).quad
    qc = v.quad(t, q) if q is not None else 0
    for vtx in range(4):
        if v.tri(t, vtx) >= 1:
            regions.append(("cap", vtx))
        for k in range(v.tri(t, vtx) - 1):
            regions.append(("tslab", vtx, k))
    for m in range(qc - 1):
        regions.append(("qslab", m))
    if qc:
        regions.append(("central", "low"))
        regions.append(("central", "high"))
    else:
        regions.append(("central", None))
    return regions


def _regions_behind_face(v: NormalVector, t, f, corners):
    """The tetrahedron regions behind face f of tet t: the one behind the
    face's middle, then the one behind each bit of each corner's stack
    (``face_stack``), from the corner outward, for the corners in the order
    given."""
    q = v.counts(t).quad

    def central(vtx):
        return ("central", None if q is None else "low" if vtx in QUAD_MISSED[q][0] else "high")

    # the middle lies on the side of the face's vertices that no quad arc cuts off
    cut = None if q is None else QUAD_CUT[q][f]
    out = [central(next(u for u in FACE_VERTICES[f] if u != cut))]
    for vtx in corners:
        stack = face_stack(v, t, f, vtx)
        for lo, hi in zip([None] + stack, stack):
            kinds = (lo and lo[0], hi[0])
            if kinds == (None, "tri"):
                out.append(("cap", vtx))
            elif kinds == ("tri", "tri"):
                out.append(("tslab", vtx, lo[3]))
            elif kinds == ("quad", "quad"):
                out.append(("qslab", min(lo[3], hi[3])))
            else:
                out.append(central(vtx))
    return out


@dataclass
class CutComplex:
    surface: object
    regions: dict                  # (t, region) -> node index
    adjacency: list                # sorted node-index pairs
    components: list               # list of sorted node lists
    euler_cut: int
    a_patch_count: int

    @property
    def component_count(self):
        return len(self.components)


def _vector_and_surface(tri, disc):
    """``disc``'s vector and its surface on ``tri``, which must be two-sided.
    A surface reconstructed on ``tri``, or a MeridianDisc found on ``tri``,
    is its own surface; any other input is reconstructed."""
    surface = disc.surface if isinstance(disc, MeridianDisc) else disc
    if isinstance(surface, ReconstructedSurface) and surface.tri is tri:
        v = surface.vector
    else:
        v = disc if isinstance(disc, NormalVector) else disc.vector
        surface = reconstruct(tri, v)
    if not all(surface.orientable_by_component):
        raise ValueError("cutting and the parallelity bundle need a two-sided surface")
    return v, surface


def cut_along(tri, disc) -> CutComplex:
    """Cut the manifold along a two-sided normal surface.

    ``disc`` may be a NormalVector or anything with a ``vector`` attribute.
    """
    v, surface = _vector_and_surface(tri, disc)
    regions = {}
    for t in range(tri.tet_count):
        for r in tet_regions(v, t):
            regions[(t, r)] = len(regions)

    adjacency = set()
    for slots in tri.face_classes:
        if len(slots) == 2:
            (t1, f1), (t2, f2) = slots
            perm = tri.gluings[t1][f1][1]
            side1 = _regions_behind_face(v, t1, f1, FACE_VERTICES[f1])
            side2 = _regions_behind_face(v, t2, f2, [perm[u] for u in FACE_VERTICES[f1]])
            adjacency.update(tuple(sorted((regions[(t1, r1)], regions[(t2, r2)])))
                             for r1, r2 in zip(side1, side2))
    _, comps = two_colour(range(len(regions)), [(a, b, 1) for a, b in adjacency])

    # X = M cut along S has, with V, E, F, n the vertex, edge and face
    # classes and the tetrahedra of M and w, a, p the surface's weight, arcs
    # and pieces: V + 2w points, (w + E) + 2a edge segments and arc copies,
    # (F + a) + 2p face bits and piece copies, and p + n regions
    # (``tet_regions`` lists p_t + 1 per tetrahedron).  So chi(X) =
    # (V - E + F - n) + (w - a + p) = chi(M) + chi(S), where w - a + p is
    # ``count_euler``, equal to the surface's ``euler_total``.
    euler_cut = tri.skeleton().euler_characteristic + surface.euler_total
    # one A-patch per bit of each boundary face: its middle and its arcs
    a_patches = sum(1 + sum(v.counts(t).arcs[f]) for t, f in tri.boundary_faces)
    return CutComplex(surface, regions, sorted(adjacency), [members for members, _ in comps],
                      euler_cut, a_patches)


# ---------------------------------------------------------------------------
# the parallelity bundle's base complex
# ---------------------------------------------------------------------------

@dataclass
class _Cell:
    name: tuple
    sides: list          # 1-cell names, cyclic
    corners: list        # corners[i] sits between sides[i-1] and sides[i]
    a_contact: list      # per side: touches the annulus A
    sheets: list         # global signs of the two horizontal sheets


@dataclass
class BundleComponent:
    cells: list
    base_euler: int
    base_orientable: bool
    meets_dminus: bool
    meets_dplus: bool
    meets_a: bool

    @property
    def is_product(self):
        return self.base_orientable


def _cycle_steps(cycle):
    """Per step of a piece's cycle: its directed edge d, d's sorted pair, the
    faces f_prev and f_next it shares with the steps before and after, the
    vertex vq it shares with the next, and d directed from vq."""
    steps = []
    for d, prev_d, next_d in zip(cycle, cycle[-1:] + cycle[:-1], cycle[1:] + cycle[:1]):
        vq = (set(d) & set(next_d)).pop()
        steps.append((d, tuple(sorted(d)), 6 - sum(set(d) | set(prev_d)),
                      6 - sum(set(d) | set(next_d)), vq, (vq, sum(d) - vq)))
    return tuple(steps)


# the cycle steps of the seven piece kinds, indexed as a row's coordinates
_KINDS = tuple(("tri", a) for a in range(4)) + tuple(("quad", q) for q in range(3))
_P_STEPS = tuple(_cycle_steps(piece_cycle((kind, 0, a, 0))) for kind, a in _KINDS)


class BundleComplex:
    def __init__(self, tri, vector, surface):
        self.tri = tri
        self.v = vector
        self.surface = surface
        self.cells = {}
        self._build_p_cells()
        self._build_r_cells()
        self._build_q_cells()

    def _facing(self, pieces, toward):
        """Global sign of each piece along a directed edge they all cross.
        The slab between adjacent parallel pieces lo and hi, the edge
        pointing from lo to hi, has horizontal sheets [facing(lo),
        -facing(hi)]: lo's sheet faces the slab along it, hi's against it."""
        sigma = self.surface.sigma
        return [sigma[p] * coorientation(p, toward) for p in pieces]

    # -- P cells -----------------------------------------------------------

    def _build_p_cells(self):
        v, direction, cells = self.v, self.tri.class_direction, self.cells
        for t in range(self.tri.tet_count):
            for index, count in enumerate(v.coords[t]):
                if count < 2:
                    continue
                # one kind's pieces cross an edge at positions p0 + s * k
                # (s = +-1), so the slab above level k has gap g0 + s * k;
                # the cycle's first edge points from level k to level k + 1
                kind, a = _KINDS[index]
                pieces = [(kind, t, a, k) for k in range(count)]
                facing = self._facing(pieces, _P_STEPS[index][0][0])
                steps = []
                for d, pair, f_prev, f_next, vq, level_edge in _P_STEPS[index]:
                    lines = []
                    for e in (direction[(t, d)][1], level_edge):
                        p0 = crossing_position(v, t, pieces[0], e)
                        s = crossing_position(v, t, pieces[1], e) - p0
                        lines += [p0 + min(s, 0), s]
                    steps.append((pair, f_prev, f_next, vq, *lines))
                for k in range(count - 1):
                    sides, corners = [], []
                    for pair, f_prev, f_next, vq, g0, gs, l0, ls in steps:
                        gap = g0 + gs * k
                        sides += [("PQ", t, pair, gap), ("RP", t, f_next, vq, l0 + ls * k)]
                        corners += [(t, pair, gap, f_prev, False), (t, pair, gap, f_next, False)]
                    name = ("P", t, kind, a, k)
                    cells[name] = _Cell(name, sides, corners, [False] * len(sides),
                                        [facing[k], -facing[k + 1]])

    # -- R cells -----------------------------------------------------------

    def _build_r_cells(self):
        v, tri, cells = self.v, self.tri, self.cells
        direction = tri.class_direction
        for fc_idx, slots in enumerate(tri.face_classes):
            t1, f1 = slots[0]
            counts = v.counts(t1)
            for vtx in FACE_VERTICES[f1]:
                if counts.arcs[f1][vtx] < 2:
                    continue
                x, y = (u for u in FACE_VERTICES[f1] if u != vtx)
                facing = self._facing(face_stack(v, t1, f1, vtx), (vtx, x))
                px, py = tuple(sorted((vtx, x))), tuple(sorted((vtx, y)))
                # the slab between stack levels j and j + 1 crosses (vtx, u)
                # at gap j (``crossing_position``'s stack-level rule), so its
                # class gap is j, or n - 2 - j where the class runs from u
                (ox, sx), (oy, sy) = ((0, 1) if direction[(t1, (vtx, u))][1] == (vtx, u)
                                      else (counts.crossings[vtx][u] - 2, -1) for u in (x, y))
                bd = len(slots) == 1
                if bd:        # the far side lies on the annulus A
                    t2, f2, qx, qy, far = t1, f1, px, py, ("RA", (t1, f1), vtx)
                else:
                    (t2, f2), perm = slots[1], tri.gluings[t1][f1][1]
                    qx, qy = (tuple(sorted((perm[vtx], perm[u]))) for u in (x, y))
                    far = ("RP", t2, f2, perm[vtx])
                for j in range(len(facing) - 1):
                    # a glued slot sees the same crossings, so the same class gaps
                    gx, gy = ox + sx * j, oy + sy * j
                    name = ("R", fc_idx, vtx, j)
                    cells[name] = _Cell(
                        name,
                        [("RP", t1, f1, vtx, j), ("QR", (t1, f1), py, gy), (*far, j),
                         ("QR", (t1, f1), px, gx)],
                        [(t1, px, gx, f1, False), (t1, py, gy, f1, False), (t2, qy, gy, f2, bd),
                         (t2, qx, gx, f2, bd)],
                        [False, False, bd, False], [facing[j], -facing[j + 1]])

    # -- Q cells -----------------------------------------------------------

    def _build_q_cells(self):
        v, tri, cells = self.v, self.tri, self.cells
        for ec in tri.edge_classes:
            walk = tri.edge_walks[ec.index]
            sectors = walk["sectors"]
            # the weight and the slab's sheets are read in the walk's first
            # sector.  Every sector gives the same: a reconstructed surface's
            # slots agree on each class's crossings, the pieces at one crossing
            # in neighbouring sectors share the face arc through it, and sigma
            # * coorientation is constant across every arc of a two-sided one
            t, d, _, _ = sectors[0]
            w = v.counts(t).crossings[d[0]][d[1]]
            if w < 2:
                continue
            e = tri.class_direction[(t, d)][1]
            facing = self._facing([piece_at(v, t, e, k) for k in range(w)], e)
            # per sector: its tet, sorted pair, faces and page side's slot and
            # pair, the same for every gap
            steps = [(t, tuple(sorted(d)), f_in, f_out, *self._q_page(t, f_out, d))
                     for t, d, f_in, f_out in sectors]
            a_contact = [True, False] * walk["boundary"] + [False, False] * len(steps)
            if walk["boundary"]:
                # the annulus side, then the boundary face the walk enters by
                (t0, d0, f0, _), (t1, _, _, f1) = sectors[0], sectors[-1]
                pair0, pair1, page0 = steps[0][1], steps[-1][1], self._q_page(t0, f0, d0)
            for gap in range(w - 1):
                sides, corners = [], []
                if walk["boundary"]:
                    sides += [("QA", ec.index, gap), ("QR", *page0, gap)]
                    corners += [(t1, pair1, gap, f1, True), (t0, pair0, gap, f0, True)]
                for ts, pair, f_in, f_out, slot, rep_pair in steps:
                    sides += [("PQ", ts, pair, gap), ("QR", slot, rep_pair, gap)]
                    corners += [(ts, pair, gap, f_in, False), (ts, pair, gap, f_out, False)]
                name = ("Q", ec.index, gap)
                cells[name] = _Cell(name, sides, corners, list(a_contact),
                                    [facing[gap], -facing[gap + 1]])

    def _q_page(self, t, f, d):
        """The face class representative slot and the vertex pair in its
        coordinates of the 2-handle 1-cell that face slot (t, f) carries
        along directed edge d."""
        t1, f1 = self.tri.face_classes[self.tri.face_class_of[(t, f)]][0]
        if (t, f) != (t1, f1):
            inv = perm_inverse(self.tri.gluings[t1][f1][1])
            d = (inv[d[0]], inv[d[1]])
        return (t1, f1), tuple(sorted(d))

    # -- assembly ------------------------------------------------------------

    def components(self):
        """The components of the base complex, its cells numbered in name
        order: two cells are related across each side they share, +1 where
        they run its corners in opposite directions (compatible
        orientations), -1 where in the same."""
        names = sorted(self.cells)
        cells = [self.cells[n] for n in names]
        first, relations = {}, []       # side -> (cell, position) of its first user
        shared = [0] * len(cells)       # per cell: its sides met before, in it or earlier
        for a, cell in enumerate(cells):
            for i, s in enumerate(cell.sides):
                here = (a, i)
                there = first.setdefault(s, here)
                if there is here:
                    continue
                b, j = there
                if j is None:
                    raise TriangulationError(f"1-cell {s} has more than two users")
                first[s], shared[a] = (b, None), shared[a] + 1
                c1, c2 = cell.corners, cells[b].corners
                run1 = (c1[i], c1[(i + 1) % len(c1)])
                run2 = (c2[j], c2[(j + 1) % len(c2)])
                if run1 == run2[::-1]:
                    relations.append((b, a, 1))
                elif run1 == run2:
                    relations.append((b, a, -1))
                else:
                    raise TriangulationError(f"side {s} glued with mismatched corners")

        out = []
        for members, orientable in two_colour(range(len(cells)), relations)[1]:
            corners, sheets, sides, meets_a = set(), set(), 0, False
            for a in members:
                cell = cells[a]
                corners.update(cell.corners)
                sheets.update(cell.sheets)
                sides += len(cell.sides) - shared[a]
                meets_a = meets_a or any(cell.a_contact)
            out.append(BundleComponent(
                cells=[names[a] for a in members],
                base_euler=len(corners) - sides + len(members),
                base_orientable=orientable,
                meets_dminus=-1 in sheets,
                meets_dplus=1 in sheets,
                meets_a=meets_a,
            ))
        return out


def parallelity_bundle(tri, disc) -> list:
    """Connected components of the parallelity bundle of the cut manifold."""
    return BundleComplex(tri, *_vector_and_surface(tri, disc)).components()


def bundle_prime(components) -> list:
    """The components that intersect the annulus A."""
    return [c for c in components if c.meets_a]


@dataclass
class ClaimsReport:
    claim1: bool
    claim2: bool
    input_is_minimal: bool | None
    details: dict = field(default_factory=dict)


def check_claims(tri, disc, minimal_disc=None) -> ClaimsReport:
    """Claim 1: every bundle component is a product (orientable base).
    Claim 2: every component meeting A meets both copies of the disc."""
    v = disc if isinstance(disc, NormalVector) else disc.vector
    comps = parallelity_bundle(tri, disc)
    claim1 = all(c.base_orientable for c in comps)
    prime = bundle_prime(comps)
    claim2 = all(c.meets_dminus and c.meets_dplus for c in prime)
    minimal = None
    if minimal_disc is not None:
        other = (minimal_disc if isinstance(minimal_disc, NormalVector)
                 else minimal_disc.vector)
        minimal = v == other
    details = {
        "components": len(comps),
        "components_meeting_a": len(prime),
        "bases": [(c.base_euler, c.base_orientable,
                   c.meets_dminus, c.meets_dplus, c.meets_a) for c in comps],
    }
    if minimal is False:
        details["note"] = "input not minimal"
    return ClaimsReport(claim1, claim2, minimal, details)


def verify_claims(i: int) -> VerifyReport:
    """Claims 1-2 on the minimal meridian disc of the i-th layered
    triangulation, which ``minimal_complexity_disc`` certifies by the
    homology floor without a search.  The claims are stated for the minimal
    disc: with no disc, or with an uncertified minimum, the verdict is
    inconclusive."""
    lt = family(i)
    m = minimal_complexity_disc(lt.tri, SearchBudget(fib(i + 6) - 4))
    if m.disc is None:
        return VerifyReport("claims-1-2", "inconclusive")
    claims = check_claims(lt.tri, m.disc, minimal_disc=m.disc)
    ok = claims.claim1 and claims.claim2
    status = "inconclusive" if not m.certified else "pass" if ok else "fail"
    return VerifyReport("claims-1-2", status, {
        "claim1_all_products": claims.claim1,
        "claim2_prime_meets_both_copies": claims.claim2,
        "minimal_certified": m.certified,
        "details": claims.details,
    })
