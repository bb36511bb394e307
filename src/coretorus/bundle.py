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
complex by counting and 2-coloring.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .normal import (NormalVector, QUAD_CUT, QUAD_MISSED, ReconstructedSurface,
                     coorientation, crossing_position, edge_weight, face_stack, piece_at,
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
    q = v.quad_type(t)
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
    q = v.quad_type(t)

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


def _slab_gap(v, t, lo, hi, directed_edge):
    """Gap along a directed edge of tet t between two adjacent parallel pieces."""
    return min(crossing_position(v, t, lo, directed_edge),
               crossing_position(v, t, hi, directed_edge))


class BundleComplex:
    def __init__(self, tri, vector, surface):
        self.tri = tri
        self.v = vector
        self.surface = surface
        self.cells = {}
        self._build_p_cells()
        self._build_r_cells()
        self._build_q_cells()

    @staticmethod
    def _corner(t, pair, gap, f, bd=False):
        return (t, pair, gap, f, bd)

    @staticmethod
    def _rp_side(t, f, vtx, level):
        return ("RP", t, f, vtx, level)

    @staticmethod
    def _pq_side(t, pair, gap):
        return ("PQ", t, pair, gap)

    def _add_cell(self, name, sides, corners, sheets, a_contact=None):
        if a_contact is None:
            a_contact = [False] * len(sides)
        if len(sides) != len(corners) or len(sides) != len(a_contact):
            raise AssertionError(f"malformed cell {name}")
        self.cells[name] = _Cell(name, sides, corners, a_contact, sheets)

    def _sheets(self, lo, hi, toward_hi):
        """Global signs of the two horizontal sheets of the slab between
        adjacent parallel pieces lo and hi, given a directed edge both cross
        that points from lo to hi: lo's sheet faces the slab along it, hi's
        against it."""
        sigma = self.surface.sigma
        return [sigma[lo] * coorientation(lo, toward_hi),
                -sigma[hi] * coorientation(hi, toward_hi)]

    def _class_gap(self, t, lo, hi, directed_edge):
        """The gap between two adjacent parallel pieces on an edge of tet t,
        counted along the edge class."""
        return _slab_gap(self.v, t, lo, hi, self.tri.class_direction[(t, directed_edge)][1])

    # -- P cells -----------------------------------------------------------

    def _build_p_cells(self):
        v = self.v
        for t in range(self.tri.tet_count):
            slabs = [(("tri", t, vtx, k), ("tri", t, vtx, k + 1))
                     for vtx in range(4) for k in range(v.tri(t, vtx) - 1)]
            q = v.quad_type(t)
            if q is not None:
                slabs += [(("quad", t, q, m), ("quad", t, q, m + 1))
                          for m in range(v.quad(t, q) - 1)]
            for lo, hi in slabs:
                cyc = piece_cycle(lo)
                sides, corners = [], []
                for idx, d in enumerate(cyc):
                    prev_d, next_d = cyc[idx - 1], cyc[(idx + 1) % len(cyc)]
                    f_prev = 6 - sum(set(d) | set(prev_d))
                    f_next = 6 - sum(set(d) | set(next_d))
                    # the slab's arcs in face f_next cut off the vertex d shares with next_d
                    vq = (set(d) & set(next_d)).pop()
                    pair = tuple(sorted(d))
                    gap = self._class_gap(t, lo, hi, d)
                    level = _slab_gap(v, t, lo, hi, (vq, sum(d) - vq))
                    sides += [self._pq_side(t, pair, gap), self._rp_side(t, f_next, vq, level)]
                    corners += [self._corner(t, pair, gap, f_prev),
                                self._corner(t, pair, gap, f_next)]
                self._add_cell(("P", t, lo[0], lo[2], lo[3]), sides, corners,
                               self._sheets(lo, hi, cyc[0]))

    # -- R cells -----------------------------------------------------------

    def _build_r_cells(self):
        v = self.v
        tri = self.tri
        for fc_idx, slots in enumerate(tri.face_classes):
            t1, f1 = slots[0]
            for vtx in FACE_VERTICES[f1]:
                stack1 = face_stack(v, t1, f1, vtx)
                x, y = (u for u in FACE_VERTICES[f1] if u != vtx)
                px, py = tuple(sorted((vtx, x))), tuple(sorted((vtx, y)))
                for j in range(len(stack1) - 1):
                    lo, hi = stack1[j], stack1[j + 1]
                    # a glued slot sees the same crossings, so the same class gaps
                    gx = self._class_gap(t1, lo, hi, (vtx, x))
                    gy = self._class_gap(t1, lo, hi, (vtx, y))
                    side_t1 = self._rp_side(t1, f1, vtx, j)
                    end_x = ("QR", (t1, f1), px, gx)
                    end_y = ("QR", (t1, f1), py, gy)
                    sheets = self._sheets(lo, hi, (vtx, x))
                    if len(slots) == 2:
                        t2, f2 = slots[1]
                        perm = tri.gluings[t1][f1][1]
                        dx2 = (perm[vtx], perm[x])
                        dy2 = (perm[vtx], perm[y])
                        sides = [side_t1, end_y,
                                 self._rp_side(t2, f2, perm[vtx], j), end_x]
                        corners = [
                            self._corner(t1, px, gx, f1),
                            self._corner(t1, py, gy, f1),
                            self._corner(t2, tuple(sorted(dy2)), gy, f2),
                            self._corner(t2, tuple(sorted(dx2)), gx, f2),
                        ]
                        a_contact = [False] * 4
                    else:
                        sides = [side_t1, end_y, ("RA", (t1, f1), vtx, j), end_x]
                        corners = [
                            self._corner(t1, px, gx, f1),
                            self._corner(t1, py, gy, f1),
                            self._corner(t1, py, gy, f1, bd=True),
                            self._corner(t1, px, gx, f1, bd=True),
                        ]
                        a_contact = [False, False, True, False]
                    self._add_cell(("R", fc_idx, vtx, j), sides, corners,
                                   sheets, a_contact)

    # -- Q cells -----------------------------------------------------------

    def _build_q_cells(self):
        v = self.v
        tri = self.tri
        for ec in tri.edge_classes:
            w = edge_weight(tri, v, ec.index)
            if w < 2:
                continue
            walk = tri.edge_walks[ec.index]
            sectors = walk["sectors"]
            for gap in range(w - 1):
                sides, corners, a_contact = [], [], []
                if walk["boundary"]:
                    # the annulus side, then the boundary face the walk enters by
                    t0, d0, f0, _ = sectors[0]
                    t1, d1, _, f1 = sectors[-1]
                    sides += [("QA", ec.index, gap), self._q_page_side(t0, f0, d0, gap)]
                    corners += [self._q_corner(t1, d1, gap, f1, bd=True),
                                self._q_corner(t0, d0, gap, f0, bd=True)]
                    a_contact += [True, False]
                for t, d, f_in, f_out in sectors:
                    sides += [self._pq_side(t, tuple(sorted(d)), gap),
                              self._q_page_side(t, f_out, d, gap)]
                    corners += [self._q_corner(t, d, gap, f_in),
                                self._q_corner(t, d, gap, f_out)]
                    a_contact += [False, False]
                self._add_cell(("Q", ec.index, gap), sides, corners,
                               self._q_sheets(walk, gap), a_contact)

    def _q_corner(self, t, d, canonical_gap, f, bd=False):
        return self._corner(t, tuple(sorted(d)), canonical_gap, f, bd)

    def _q_page_side(self, t, f, d, canonical_gap):
        """Name of the 2-handle 1-cell that face slot (t, f) carries along
        directed edge d, in the coordinates of the face class's
        representative slot."""
        fc_idx = self.tri.face_class_of[(t, f)]
        slots = self.tri.face_classes[fc_idx]
        t1, f1 = slots[0]
        if (t, f) == (t1, f1):
            rep_pair = tuple(sorted(d))
        else:
            inv = perm_inverse(self.tri.gluings[t1][f1][1])
            rep_pair = tuple(sorted((inv[d[0]], inv[d[1]])))
        return ("QR", (t1, f1), rep_pair, canonical_gap)

    def _q_sheets(self, walk, gap):
        """The slab's sheets, read in the walk's first sector.  Every sector
        gives the same: the pieces at one crossing in neighbouring sectors
        share the face arc through it, and sigma * coorientation is constant
        across every arc of a two-sided surface."""
        t, d, _, _ = walk["sectors"][0]
        e = self.tri.class_direction[(t, d)][1]
        return self._sheets(piece_at(self.v, t, e, gap), piece_at(self.v, t, e, gap + 1), e)

    # -- assembly ------------------------------------------------------------

    def components(self):
        side_users = {}
        for cell in self.cells.values():
            for i, s in enumerate(cell.sides):
                side_users.setdefault(s, []).append((cell.name, i))
        relations = []
        for s, users in side_users.items():
            if len(users) > 2:
                raise TriangulationError(f"1-cell {s} has {len(users)} users")
            if len(users) != 2:
                continue
            (n1, i1), (n2, i2) = users
            c1, c2 = self.cells[n1].corners, self.cells[n2].corners
            run1 = (c1[i1], c1[(i1 + 1) % len(c1)])
            run2 = (c2[i2], c2[(i2 + 1) % len(c2)])
            if run1 == run2[::-1]:
                relations.append((n1, n2, 1))    # opposite traversal: compatible orientations
            elif run1 == run2:
                relations.append((n1, n2, -1))
            else:
                raise TriangulationError(f"side {s} glued with mismatched corners")

        out = []
        for cell_names, orientable in two_colour(sorted(self.cells), relations)[1]:
            sheets = [s for n in cell_names for s in self.cells[n].sheets]
            out.append(BundleComponent(
                cells=cell_names,
                base_euler=self._component_euler(cell_names),
                base_orientable=orientable,
                meets_dminus=any(s == -1 for s in sheets),
                meets_dplus=any(s == 1 for s in sheets),
                meets_a=any(any(self.cells[n].a_contact) for n in cell_names),
            ))
        return out

    def _component_euler(self, cell_names):
        sides, corners = set(), set()
        for n in cell_names:
            cell = self.cells[n]
            sides.update(cell.sides)
            corners.update(cell.corners)
        return len(corners) - len(sides) + len(cell_names)


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
