"""First homology by exact integer reduction, and meridian calibration.

Everything here is arbitrary-precision integer arithmetic: Smith normal form
with a log of its row operations, cellular H1 of the quotient complex and of
the boundary surface, the map between them, and the slope basis of the
boundary torus calibrated from the kernel of that map (the meridian is
computed, never assumed).

A 1-chain is a sparse {edge: coefficient} dict everywhere: a cycle given
to ``H1Group.class_of_cycle`` and the boundary curves of reconstructed
surfaces.  d2 is given to ``H1Group`` as its rows: one sparse {2-cell:
coefficient} dict per edge.  H1(M)'s rows are built in one pass over the
face classes; a boundary edge's row is read off its two ends
(``BoundaryEdge.ends``), each +-1 at its triangle by ``_along``.

Each H1 group is one Smith normal form of its cotree presentation: d2
restricted to the edges off a spanning forest of the 1-skeleton, with no
kernel lattice and no solves.  The Smith normal form is computed on sparse
rows and returns the diagonal and the log of its row operations; U, U^-1
and V are never formed.  H1 replays from the log its coordinate rows of U,
1-cocycles that read a class, one backward pass each, and drops the log.
The pivot rule and operation order are those of the dense reduction kept
in the tests as its oracle; the closing Euclid of two rows that share their
one column runs on two integers and logs the same operations.  The map
H1(bdry) -> H1(M) = Z is the free row phi of H1(M)'s U, which ``loop_cuts``
reads too, pulled back to the boundary edges.  H1(M) and the calibration
are computed once per triangulation object and kept with it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import gcd

from .boundary import _along
from .slopes import Slope, normalize_slope
from .triangulation import FACE_VERTICES


# -- small exact linear algebra over Z --------------------------------------

def smith_normal_form(rows, n):
    """Diagonal of U*A*V = D in Smith normal form, and a log of the row
    operations whose product is U.

    ``rows`` holds A as one {column: entry} dict per row, with ``n``
    columns; zero entries are ignored.  Returns (factors, log): the m
    diagonal entries of D, 0 past the rank, and the row operations in order,
    each (i, j, c) for row_i += c * row_j, (i, j) for a swap or (i,) for a
    negation, so U = E_k ... E_1; ``replay`` reads a row of U off the log.
    U, U^-1 and V are never formed.  Each row of D is a {column: entry}
    dict, and a column swap exchanges two entries of the position <-> column
    permutation.  A row or column operation touches only
    nonzeros, and a column operation only the rows that hold the pivot
    column.  ``last[c]`` bounds from above the rows that hold column c: a
    row add or a row swap that puts c into a row further down raises it,
    and a column operation puts c only into rows whose row add has just
    raised it, so clearing the pivot column scans the rows up to
    ``last[piv]``, not all of them.  The pivot is the first entry of least
    absolute value in row-major order, found by a plain loop over the
    nonzeros; that rule and the order of the operations are those of the
    dense reduction in the tests, which pins the factors and the log.
    """
    m = len(rows)
    D = [{c: x for c, x in row.items() if x} for row in rows]
    col, pos = list(range(n)), list(range(n))
    log = []
    last = [-1] * n
    for i, row in enumerate(D):
        for c in row:
            last[c] = i

    def row_add(i, j, c):          # row_i += c * row_j, dropping what cancels
        Di = D[i]
        for k, x in D[j].items():
            s = Di.get(k, 0) + c * x
            if s:
                Di[k] = s
                if last[k] < i:
                    last[k] = i
            else:
                del Di[k]
        log.append((i, j, c))

    t = 0
    while True:
        if t + 2 == m and D[t] and D[t].keys() == D[t + 1].keys() == {col[t]}:
            # the closing Euclid of the last two rows on their one shared
            # column (row t is nonempty, so t < n), run on two ints and
            # logged as the steps below would log it (i steps on T_i)
            u, c = t + 1, col[t]
            a, b = D[t][c], D[u][c]
            while b:
                if abs(b) < abs(a):            # the upper row wins a tie
                    log.append((t, u))
                    a, b = b, a
                if a < 0:
                    log.append((t,))
                    a = -a
                q = -(b // a)
                log.append((u, t, q))
                b += q * a
            D[t][c] = a
            t = u
            break
        # the first entry of least absolute value in row-major order: a
        # later row wins only with a smaller entry, a later entry of the same
        # row with an equal one at a smaller position.  A unit is least, so
        # the scan stops after the row holding the first one.  The rows from
        # t on have no entry left of position t.
        i = j = least = None
        for r in range(t, m):
            for c, x in D[r].items():
                a = x if x > 0 else -x
                if least is None or a < least or (a == least and r == i and pos[c] < j):
                    i, j, least = r, pos[c], a
            if least == 1:
                break
        if i is None:
            break
        if i != t:
            D[t], D[i] = D[i], D[t]
            log.append((t, i))
            for c in D[i]:
                if last[c] < i:
                    last[c] = i
        if j != t:
            col[t], col[j] = col[j], col[t]
            pos[col[t]], pos[col[j]] = t, j
        piv, row = col[t], D[t]
        if row[piv] < 0:
            for k in row:
                row[k] = -row[k]
            log.append((t,))
        d = row[piv]
        clean, holders = True, [t]
        for i in range(t + 1, last[piv] + 1):
            if piv in D[i]:
                row_add(i, t, -(D[i][piv] // d))
                if piv in D[i]:
                    clean = False
                    holders.append(i)
        for c in [c for c in row if c != piv]:   # column c += q * column piv
            q = -(row[c] // d)
            for r in holders:
                s = D[r].get(c, 0) + q * D[r][piv]
                if s:
                    D[r][c] = s
                else:
                    del D[r][c]
            if c in row:
                clean = False
        if not clean:
            continue
        if d == 1:
            t += 1
            continue
        # enforce divisibility d_t | D[i][j] for the trailing block
        bad = next((i for i in range(t + 1, m) if any(x % d for x in D[i].values())), None)
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return [D[i][col[i]] for i in range(t)] + [0] * (m - t), log


def replay(log, r):
    """Row r of U = E_k ... E_1, as a {index: entry} dict of its nonzeros,
    in O(len(log)): it starts from the unit vector e_r and reads the log
    backwards, so row_i += c * row_j does x[j] += c * x[i]."""
    x = {r: 1}
    for op in reversed(log):
        if len(op) == 3:
            i, j, c = op
            if i in x:
                x[j] = x.get(j, 0) + c * x[i]
        elif len(op) == 2:                 # a swap
            i, j = op
            x[i], x[j] = x.get(j, 0), x.get(i, 0)
        elif op[0] in x:                   # a negation
            x[op[0]] = -x[op[0]]
    return {k: v for k, v in x.items() if v}


# -- cellular H1 -------------------------------------------------------------

class H1Group:
    """H1 = ker(d1)/im(d2) of a free chain complex C2 -> C1 -> C0.

    ``ends`` lists each edge's (tail, head) vertex and ``d2_rows`` gives d2
    as one {2-cell: coefficient} row per edge, over ``n_cells`` 2-cells.  A
    1-cycle is determined by its entries on the edges off a spanning forest
    of the 1-skeleton (the cotree edges; the forest is the edges one
    breadth-first search finds its vertices by), so H1 is the cokernel of d2
    restricted to the cotree rows: one Smith normal form U A V = D of the
    sparse cotree rows.  Only the diagonal is kept, with the forest (root
    first, as ``forest``) and the coordinate rows of U (those of the factors
    other than 1), each replayed once from the reduction's log as an {edge:
    entry} dict; the log is dropped.  Each such row is 0 on the forest, and
    on every 2-cell's boundary 0 modulo its factor (exactly 0 on a free
    row, a 1-cocycle); reading a class costs the size of the cycle.

    Classes are canonical coordinate tuples: one residue per torsion factor,
    then one integer per free factor.
    """

    def __init__(self, ends, d2_rows, n_cells):
        self.ends = ends
        self.n_vertices = 1 + max((v for e in ends for v in e), default=-1)
        adjacent = {v: [] for v in range(self.n_vertices)}
        for e, (tail, head) in enumerate(ends):
            adjacent[tail].append((head, e))
            adjacent[head].append((tail, e))
        # one breadth-first search: each vertex reached, with the edge it came by
        order, seen = [], set()
        for root in range(self.n_vertices):
            if root not in seen:
                seen.add(root)
                layer = [root]
                for v in layer:
                    for w, e in adjacent[v]:
                        if w not in seen:
                            seen.add(w)
                            layer.append(w)
                            order.append((w, e))
        self.forest = order                            # root first
        cotree = sorted(set(range(len(ends))).difference(e for _, e in order))
        excess = {}                                    # d1 d2, per (2-cell, vertex)
        for (tail, head), row in zip(ends, d2_rows):
            if tail != head:                           # a loop's boundary is 0
                for f, x in row.items():
                    excess[f, tail] = excess.get((f, tail), 0) - x
                    excess[f, head] = excess.get((f, head), 0) + x
        if any(excess.values()):
            raise ValueError("d1*d2 != 0: not a chain complex")
        # factor: 0 free, 1 dead, d > 1 torsion
        self.factor, log = smith_normal_form([d2_rows[e] for e in cotree], n_cells)
        self.rank = sum(1 for d in self.factor if d == 0)
        self.torsion = sorted(d for d in self.factor if d > 1)
        self.coord_index = [i for i, d in enumerate(self.factor) if d != 1]
        self._U_rows = [{cotree[k]: x for k, x in replay(log, i).items()}
                        for i in self.coord_index]

    def class_of_cycle(self, z):
        """Canonical coordinates of the 1-cycle z, an {edge: coefficient}
        chain."""
        d1 = {}
        for e, c in z.items():
            tail, head = self.ends[e]
            if tail != head:                # a loop's boundary is 0
                d1[head] = d1.get(head, 0) + c
                d1[tail] = d1.get(tail, 0) - c
        if any(d1.values()):
            raise ValueError("not a 1-cycle")
        out = []
        for i, row in zip(self.coord_index, self._U_rows):
            w = sum(c * row.get(e, 0) for e, c in z.items())
            d = self.factor[i]
            out.append(w % d if d > 1 else w)
        return tuple(out)

    @property
    def is_infinite_cyclic(self):
        return self.rank == 1 and not self.torsion


def _per_triangulation(build):
    """Compute ``build(tri)`` once per triangulation object.

    The result is kept in the triangulation's own ``__dict__``, so it lives
    exactly as long as the triangulation does.  Nothing in it refers back to
    the triangulation (a calibration holds one H1 group and coordinate
    tuples), so dropping the triangulation frees both by reference
    counting.  A freshly parsed copy of the same text is another object and
    starts cold.
    """
    @wraps(build)
    def memoised(tri):
        memo = vars(tri).setdefault("_homology", {})
        if build.__name__ not in memo:
            memo[build.__name__] = build(tri)
        return memo[build.__name__]
    return memoised


# each face's three sides, directed around its (a, b, c) cycle
_FACE_CYCLES = tuple(((a, b), (b, c), (c, a)) for a, b, c in FACE_VERTICES)


@_per_triangulation
def manifold_h1(tri) -> H1Group:
    vc, direction = tri.vertex_class_of, tri.class_direction
    ends = [(vc[(t, p)], vc[(t, q)]) for t, (p, q) in (ec.rep for ec in tri.edge_classes)]
    rows = [{} for _ in ends]
    for k, slots in enumerate(tri.face_classes):
        t, f = slots[0]
        for d in _FACE_CYCLES[f]:
            e, rep = direction[(t, d)]
            row = rows[e]
            row[k] = row.get(k, 0) + (1 if rep == d else -1)
    return H1Group(ends, rows, len(tri.face_classes))


@_per_triangulation
def loop_cuts(tri) -> dict:
    """c(e) = |[e]| in H1(M) = Z for each edge class e that is a loop; empty
    unless H1(M) = Z.  Then the free coordinate is H1's only one, so [e] is
    the entry at e of its row of U, which is what ``class_of_cycle({e: 1})``
    reads.  This is the only table of cut numbers.

    A meridian disc D meets a loop e at least c(e) times.  Where the
    boundary is a torus and H1(M) = Z, H2(M) = 0, so [D] generates
    H2(M, bdry) = Hom(H1(M), Z).  Pushed off the boundary near its vertex,
    which D avoids, e meets D only where D meets e, and its algebraic
    intersection with D is +-[e]."""
    h1m = manifold_h1(tri)
    if not h1m.is_infinite_cyclic:
        return {}
    row = h1m._U_rows[0]
    return {e: abs(row.get(e, 0)) for e, (tail, head) in enumerate(h1m.ends) if tail == head}


def boundary_h1(bc) -> H1Group:
    """H1 of the boundary surface; a triangle meeting an edge on two sides
    gets the sum of its two ends' signs."""
    vc, triangles = bc.vertex_class_of, bc.triangles
    ends, rows = [], []
    for be in bc.bedges:
        (i, d), (i1, d1) = be.ends
        ends.append((vc[(i, d[0])], vc[(i, d[1])]))
        row = {i: _along(triangles[i][1], d)}
        row[i1] = row.get(i1, 0) + _along(triangles[i1][1], d1)
        rows.append(row)
    return H1Group(ends, rows, len(triangles))


# -- meridian calibration ----------------------------------------------------

def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _values_on_generators(h1, psi):
    """The values (t1, t2) of the 1-cocycle psi, a list over edges, on the
    generators of H1 = Z^2, whose coordinate rows of U are r1 and r2.

    psi less the coboundary of its potential h along the forest is 0 on the
    forest, as r1 and r2 are, and on a cotree edge it is psi of that edge's
    fundamental cycle.  So t * (r1(e), r2(e)) = psi(e) - h(head) + h(tail)
    on every edge: t is solved on two edges with independent rows by
    Cramer's rule, and checked on every edge, which fails unless psi is a
    cocycle."""
    h = [0] * h1.n_vertices
    for w, e in h1.forest:                 # root first: e's other end is set
        tail, head = h1.ends[e]
        h[w] = h[tail] + psi[e] if w == head else h[head] - psi[e]
    r1, r2 = h1._U_rows
    eqs = [((r1.get(e, 0), r2.get(e, 0)), psi[e] - h[head] + h[tail])
           for e, (tail, head) in enumerate(h1.ends)]
    a, y1 = next(eq for eq in eqs if eq[0] != (0, 0))
    b, y2 = next(eq for eq in eqs if _det2(a, eq[0]))
    d = _det2(a, b)
    t = ((y1 * b[1] - a[1] * y2) // d, (a[0] * y2 - y1 * b[0]) // d)
    if any(t[0] * r[0] + t[1] * r[1] != y for r, y in eqs):
        raise ValueError("not a 1-cocycle")
    return t


@dataclass
class MeridianCalibration:
    """Slope coordinates on a one-torus boundary, with the meridian at (0,1).

    ``kernel`` generates ker(H1(bdry) -> H1(M)); lam and mu form a basis of
    H1(bdry) = Z^2 with mu = kernel, so the meridian has slope (0,1) by
    construction and every other slope is measured against it.
    ``edge_coords`` holds, for each boundary edge that is a loop of the torus
    (by manifold edge class), its H1(bdry) coordinates; its cut number is in
    ``loop_cuts``.
    """
    h1_bdry: H1Group
    kernel: tuple
    lam: tuple
    mu: tuple
    basis_det: int
    edge_coords: dict

    def coords_of_cycle(self, bedge_chain):
        """H1(bdry) coordinates of a {boundary edge: coefficient} cycle."""
        return self.h1_bdry.class_of_cycle(bedge_chain)

    def slope_of_coords(self, w):
        """(multiplicity, Slope) of a class; (0, None) for the trivial class."""
        x = _det2(w, self.mu) // self.basis_det
        y = _det2(self.lam, w) // self.basis_det
        if x == 0 and y == 0:
            return 0, None
        g = gcd(x, y)
        return g, normalize_slope(x, y)

    def is_meridian_class(self, w):
        return tuple(w) in (tuple(self.kernel), tuple(-c for c in self.kernel))

    def boundary_edge_slope(self, manifold_edge_index):
        return self.slope_of_coords(self.edge_coords[manifold_edge_index])[1]


@_per_triangulation
def calibrate(tri) -> MeridianCalibration | None:
    """Build meridian-calibrated slope coordinates, or None if the manifold
    is not a solid-torus candidate (torus boundary, H1 = Z, primitive kernel).
    The sign of mu (the kernel) is the one whose edge loop slopes, as
    primitive integer pairs, sort first."""
    bc = tri.boundary_complex
    if not bc.is_single_torus:
        return None
    h1m = manifold_h1(tri)
    if not h1m.is_infinite_cyclic:
        return None
    h1b = boundary_h1(bc)
    if h1b.rank != 2 or h1b.torsion:
        return None

    # phi, the free row of H1(M)'s U, is a 1-cocycle; pulled back to the
    # boundary edges it evaluates H1(bdry) -> H1(M) = Z
    phi = h1m._U_rows[0]
    t1, t2 = _values_on_generators(
        h1b, [be.manifold_sign * phi.get(be.manifold_edge, 0) for be in bc.bedges])
    if t1 == 0 and t2 == 0:
        return None
    g = gcd(t1, t2)
    kernel = (-t2 // g, t1 // g)
    if kernel[0] < 0 or (kernel[0] == 0 and kernel[1] < 0):
        kernel = (-kernel[0], -kernel[1])

    # lam with det(lam, kernel) = 1 by extended Euclid, as a loop: on T_i it
    # takes about i steps, too deep for recursion near T_1000
    g2, b, u, v, u1, v1 = kernel[1], -kernel[0], 1, 0, 0, 1
    while b:
        q = g2 // b
        g2, b, u, v, u1, v1 = b, g2 - q * b, u1, v1, u - q * u1, v - q * v1
    assert g2 in (1, -1)
    lam0 = (u // g2, v // g2)

    # H1(bdry) coordinates of each boundary edge loop
    cuts = loop_cuts(tri)
    coords = {be.manifold_edge: h1b.class_of_cycle({be.index: 1})
              for be, (tail, head) in zip(bc.bedges, h1b.ends) if tail == head}

    def shear(mu):
        # lam0 sheared so the lowest-cut boundary edge has 0 <= y < x
        for e in sorted(coords, key=lambda e: (cuts[e], e)):
            w = coords[e]
            x = _det2(w, mu) // _det2(lam0, mu)
            if x == 0:
                continue
            if x < 0:
                w = tuple(-c for c in w)
                x = -x
            n = (_det2(lam0, w) // _det2(lam0, mu)) // x
            return (lam0[0] + n * mu[0], lam0[1] + n * mu[1])
        return lam0

    def sign_key(lam, mu):
        # the edge loops' slopes (x, y), primitive with x > 0 or x = 0 < y,
        # sorted by (x, -y)
        d, key = _det2(lam, mu), []
        for x, y in ((_det2(w, mu) // d, _det2(lam, w) // d) for w in coords.values()):
            if x or y:
                g = gcd(x, y) if x > 0 or (x == 0 and y > 0) else -gcd(x, y)
                key.append((x // g, -y // g))
        return sorted(key)

    minus = (-kernel[0], -kernel[1])
    lam_plus, lam_minus = shear(kernel), shear(minus)
    lam, mu = ((lam_plus, kernel) if sign_key(lam_plus, kernel) <= sign_key(lam_minus, minus)
               else (lam_minus, minus))
    return MeridianCalibration(h1b, kernel, lam, mu, _det2(lam, mu), coords)


@dataclass
class HomologySummary:
    h1_rank: int
    h1_torsion: tuple
    boundary_map_kernel_slope: Slope | None
    boundary_edge_cuts: dict          # manifold edge class -> meridian cuts
    boundary_edge_slopes: dict        # manifold edge class -> calibrated Slope
    calibration: MeridianCalibration | None
    candidate: bool                   # a solid-torus candidate, on necessary conditions


def first_homology(tri) -> HomologySummary:
    """H1(M) and, where the boundary calibrates, what is read off the
    calibration.  ``candidate`` is the solid-torus verdict on necessary
    conditions: a calibrated torus boundary (so H1 = Z) and chi = 0."""
    h1 = manifold_h1(tri)
    cal = calibrate(tri)
    candidate = cal is not None and tri.skeleton().euler_characteristic == 0
    if cal is None:
        return HomologySummary(h1.rank, tuple(h1.torsion), None, {}, {}, None, candidate)
    cuts = loop_cuts(tri)
    slopes = {e: cal.boundary_edge_slope(e) for e in cal.edge_coords}
    mult, kernel_slope = cal.slope_of_coords(cal.kernel)
    assert mult == 1 and kernel_slope == Slope(0, 1)
    return HomologySummary(h1.rank, tuple(h1.torsion), kernel_slope,
                           {e: cuts[e] for e in cal.edge_coords}, slopes, cal, candidate)
