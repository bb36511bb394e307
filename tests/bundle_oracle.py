"""The parallelity bundle's base complex as ``bundle.BundleComplex`` built
it cell by cell before its builders read their per-kind data from tables:
each P cell step builds its faces from sets of the cycle's directed edges,
and each slab gap is two ``crossing_position`` calls.  The tests take it as
the oracle for the cells and components of ``BundleComplex``; nothing in
``coretorus`` uses it.
"""
from coretorus.bundle import BundleComponent, _Cell
from coretorus.normal import (coorientation, crossing_position, face_stack, piece_at,
                              piece_cycle)
from coretorus.triangulation import FACE_VERTICES, TriangulationError, perm_inverse, two_colour
from surface_oracle import slot_weight


def _slab_gap(v, t, lo, hi, directed_edge):
    """Gap along a directed edge of tet t between two adjacent parallel pieces."""
    return min(crossing_position(v, t, lo, directed_edge),
               crossing_position(v, t, hi, directed_edge))


class BundleComplexOracle:
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
            q = v.counts(t).quad
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
            w = slot_weight(tri, v, ec.index)
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
