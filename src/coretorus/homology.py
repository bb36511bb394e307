"""First homology by exact integer reduction, and meridian calibration.

Everything here is arbitrary-precision integer arithmetic: Smith normal form
with unimodular transforms, integer kernels and solves, cellular H1 of the
quotient complex and of the boundary surface, the map between them, and the
slope basis of the boundary torus calibrated from the kernel of that map
(the meridian is computed, never assumed).

H1(M) and the calibration are computed once per triangulation object and
kept with it.  The Smith transforms are mostly identity, so solves and class
coordinates multiply only by their nonzero entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import gcd

from .slopes import Slope, normalize_slope


# -- small exact linear algebra over Z --------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Return (D, U, Uinv, V, Vinv) with U*A*V = D in Smith normal form."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U, Uinv = _identity(m), _identity(m)
    V, Vinv = _identity(n), _identity(n)

    def row_add(i, j, c):          # row_i += c * row_j
        for k in range(n):
            D[i][k] += c * D[j][k]
        for k in range(m):
            U[i][k] += c * U[j][k]
            Uinv[k][j] -= c * Uinv[k][i]

    def col_add(j, i, c):          # col_j += c * col_i
        for k in range(m):
            D[k][j] += c * D[k][i]
        for k in range(n):
            V[k][j] += c * V[k][i]
            Vinv[i][k] -= c * Vinv[j][k]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for k in range(m):
            Uinv[k][i], Uinv[k][j] = Uinv[k][j], Uinv[k][i]

    def col_swap(i, j):
        for k in range(m):
            D[k][i], D[k][j] = D[k][j], D[k][i]
        for k in range(n):
            V[k][i], V[k][j] = V[k][j], V[k][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_neg(i):
        for k in range(n):
            D[i][k] = -D[i][k]
        for k in range(m):
            U[i][k] = -U[i][k]
            Uinv[k][i] = -Uinv[k][i]

    t = 0
    while True:
        # the first entry of least absolute value in row-major order; a unit
        # is such an entry, so the scan stops at the first one
        pivot, least = None, None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                a = abs(row[j])
                if a and (least is None or a < least):
                    pivot, least = (i, j), a
                    if a == 1:
                        break
            if least == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if D[t][t] < 0:
            row_neg(t)
        clean = True
        for i in range(t + 1, m):
            if D[i][t] != 0:
                row_add(i, t, -(D[i][t] // D[t][t]))
                if D[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if D[t][j] != 0:
                col_add(j, t, -(D[t][j] // D[t][t]))
                if D[t][j] != 0:
                    clean = False
        if not clean:
            continue
        if D[t][t] == 1:
            t += 1
            continue
        # enforce divisibility d_t | D[i][j] for the trailing block
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return D, U, Uinv, V, Vinv


def mat_mul(A, B):
    if not A or not B:
        return []
    n = len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)]
            for i in range(len(A))]


def _nonzeros(rows):
    """Each row as the (column, entry) pairs of its nonzero entries."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in rows]


def _apply(rows, v):
    """M v for M given by the nonzero entries of its rows."""
    return [sum(x * v[k] for k, x in row) for row in rows]


class IntegerLattice:
    """SNF-backed map data for one integer matrix: U A V = D.

    Only the diagonal of D and the nonzero entries of the rows of U, U^-1
    and V are kept.  The transforms are mostly identity, so products with
    them cost their nonzeros only, and an H1 group kept with its
    triangulation stays small.
    """

    def __init__(self, A, m, n):
        self.m, self.n = m, n
        if m == 0 or n == 0:
            D, U, Uinv, V = [], _identity(m), _identity(m), _identity(n)
        else:
            D, U, Uinv, V, _ = smith_normal_form(A)
        self.diag = [D[i][i] for i in range(min(m, n))]
        self.rank = sum(1 for d in self.diag if d != 0)
        self.U_rows, self.Uinv_rows, self.V_rows = _nonzeros(U), _nonzeros(Uinv), _nonzeros(V)

    def kernel_basis(self):
        """Columns of V past the rank: an integer basis of ker(A)."""
        cols = [[0] * self.n for _ in range(self.rank, self.n)]
        for i, row in enumerate(self.V_rows):
            for j, x in row:
                if j >= self.rank:
                    cols[j - self.rank][i] = x
        return cols

    def solve(self, b):
        """Integer x with A x = b, or None."""
        ub = _apply(self.U_rows, b)
        y = [0] * self.n
        for i in range(self.m):
            d = self.diag[i] if i < len(self.diag) else 0
            if d == 0:
                if ub[i] != 0:
                    return None
            else:
                if ub[i] % d != 0:
                    return None
                y[i] = ub[i] // d
        return _apply(self.V_rows, y)


# -- cellular H1 -------------------------------------------------------------

class H1Group:
    """H1 = ker(d1)/im(d2) of a free chain complex C2 -> C1 -> C0.

    Classes are canonical coordinate tuples: one residue per torsion factor,
    then one integer per free factor.
    """

    def __init__(self, d1_rows, d2_cols, n_edges):
        self.n_edges = n_edges
        d1 = d1_rows                                  # V x E
        ker = IntegerLattice(d1, len(d1), n_edges) if d1 else IntegerLattice(
            [[0] * n_edges], 1, n_edges)
        K = ker.kernel_basis()                         # list of E-vectors
        self.k = len(K)
        self._K_nonzeros = _nonzeros(K)
        K_mat = [[K[j][i] for j in range(self.k)] for i in range(n_edges)]  # E x k
        self._K_lat = IntegerLattice(K_mat, n_edges, self.k)
        A_cols = []
        for col in d2_cols:                            # each an E-vector
            a = self._K_lat.solve(col)
            if a is None:
                raise ValueError("d1*d2 != 0: not a chain complex")
            A_cols.append(a)
        A = [[A_cols[j][i] for j in range(len(A_cols))] for i in range(self.k)]  # k x F
        self._A = IntegerLattice(A, self.k, len(A_cols)) if A_cols else IntegerLattice(
            [[0] for _ in range(self.k)], self.k, 1)
        diag = self._A.diag + [0] * (self.k - len(self._A.diag))
        self.factor = diag[:self.k]                    # 0 = free, 1 = dead, d>1 = torsion
        self.rank = sum(1 for d in self.factor if d == 0)
        self.torsion = sorted(d for d in self.factor if d > 1)
        self.coord_index = [i for i, d in enumerate(self.factor) if d != 1]

    def class_of_cycle(self, z):
        """Canonical coordinates of the 1-cycle z (length n_edges)."""
        c = self._K_lat.solve(z)
        if c is None:
            raise ValueError("not a 1-cycle")
        U_rows = self._A.U_rows
        out = []
        for i in self.coord_index:
            w = sum(x * c[k] for k, x in U_rows[i])
            d = self.factor[i]
            out.append(w % d if d > 1 else w)
        return tuple(out)

    def representative_cycle(self, coords):
        """A 1-cycle whose class has the given canonical coordinates."""
        w = [0] * self.k
        for pos, i in enumerate(self.coord_index):
            w[i] = coords[pos]
        c = _apply(self._A.Uinv_rows, w)
        z = [0] * self.n_edges
        for cj, col in zip(c, self._K_nonzeros):
            if cj:
                for i, x in col:
                    z[i] += cj * x
        return z

    @property
    def is_infinite_cyclic(self):
        return self.rank == 1 and not self.torsion


def _per_triangulation(build):
    """Compute ``build(tri)`` once per triangulation object.

    The result is kept in the triangulation's own ``__dict__``, so it lives
    exactly as long as the triangulation does.  Nothing in it refers back to
    the triangulation (a calibration holds the boundary complex, which holds
    only the gluing table and edge classes), so dropping the triangulation
    frees both by reference counting.  A freshly parsed copy of the same
    text is another object and starts cold.
    """
    @wraps(build)
    def memoised(tri):
        memo = vars(tri).setdefault("_homology", {})
        if build.__name__ not in memo:
            memo[build.__name__] = build(tri)
        return memo[build.__name__]
    return memoised


@_per_triangulation
def manifold_h1(tri) -> H1Group:
    nv = len(tri.vertex_classes)
    ne = len(tri.edge_classes)
    d1 = [[0] * ne for _ in range(nv)]
    for ec in tri.edge_classes:
        t, (p, q) = ec.rep
        d1[tri.vertex_class_of[(t, q)]][ec.index] += 1
        d1[tri.vertex_class_of[(t, p)]][ec.index] -= 1
    d2_cols = []
    for slots in tri.face_classes:
        t, f = slots[0]
        from .triangulation import FACE_VERTICES
        a, b, c = FACE_VERTICES[f]
        col = [0] * ne
        for p, q in ((a, b), (b, c), (c, a)):
            ec = tri.edge_class_of[(t, tuple(sorted((p, q))))]
            col[ec] += tri.edge_classes[ec].dir_sign[(t, (p, q))]
        d2_cols.append(col)
    return H1Group(d1, d2_cols, ne)


def boundary_h1(bc) -> H1Group:
    nv = len(bc.vertex_classes)
    ne = len(bc.bedges)
    d1 = [[0] * ne for _ in range(nv)]
    for be in bc.bedges:
        i, (p, q) = be.rep_dir
        d1[bc.vertex_class_of[(i, q)]][be.index] += 1
        d1[bc.vertex_class_of[(i, p)]][be.index] -= 1
    d2_cols = []
    for i in range(len(bc.triangles)):
        chain = bc.triangle_boundary_chain(i)
        col = [0] * ne
        for be, coeff in chain.items():
            col[be] += coeff
        d2_cols.append(col)
    return H1Group(d1, d2_cols, ne)


# -- meridian calibration ----------------------------------------------------

def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


@dataclass
class MeridianCalibration:
    """Slope coordinates on a one-torus boundary, with the meridian at (0,1).

    ``kernel`` generates ker(H1(bdry) -> H1(M)); lam and mu form a basis of
    H1(bdry) = Z^2 with mu = kernel, so the meridian has slope (0,1) by
    construction and every other slope is measured against it.
    """
    bc: object
    h1_bdry: H1Group
    h1_mfld: H1Group
    kernel: tuple
    lam: tuple
    mu: tuple
    basis_det: int

    def coords_of_cycle(self, bedge_chain):
        z = [0] * len(self.bc.bedges)
        for be, coeff in bedge_chain.items():
            z[be] += coeff
        return self.h1_bdry.class_of_cycle(z)

    def slope_of_coords(self, w):
        """(multiplicity, Slope) of a class; (0, None) for the trivial class."""
        x = _det2(w, self.mu) // self.basis_det
        y = _det2(self.lam, w) // self.basis_det
        if x == 0 and y == 0:
            return 0, None
        g = gcd(x, y)
        return g, normalize_slope(x, y)

    def slope_of_cycle(self, bedge_chain):
        return self.slope_of_coords(self.coords_of_cycle(bedge_chain))

    def is_meridian_class(self, w):
        return tuple(w) in (tuple(self.kernel), tuple(-c for c in self.kernel))

    def manifold_image(self, w):
        """Image in H1(M) = Z of the class with boundary coordinates w."""
        z = self.h1_bdry.representative_cycle(list(w))
        ne = len(self.bc.edge_classes)
        chain = [0] * ne
        for be in self.bc.bedges:
            chain[be.manifold_edge] += be.manifold_sign * z[be.index]
        return self.h1_mfld.class_of_cycle(chain)[0]

    def cut_number(self, manifold_edge_index):
        """|image in H1(M)| of a boundary edge loop, i.e. its meridian
        intersection number; None if the edge joins two different vertices
        of the boundary (a loop there is a loop in M too)."""
        bc = self.bc
        i, (p, q) = bc.bedges[bc.bedge_of_manifold_edge[manifold_edge_index]].rep_dir
        if bc.vertex_class_of[(i, p)] != bc.vertex_class_of[(i, q)]:
            return None
        chain = [0] * len(bc.edge_classes)
        chain[manifold_edge_index] = 1
        return abs(self.h1_mfld.class_of_cycle(chain)[0])

    def boundary_edge_coords(self, manifold_edge_index):
        be = self.bc.bedge_of_manifold_edge[manifold_edge_index]
        return self.coords_of_cycle({be: 1})

    def boundary_edge_slope(self, manifold_edge_index):
        mult, s = self.slope_of_coords(self.boundary_edge_coords(manifold_edge_index))
        return s


@_per_triangulation
def calibrate(tri) -> MeridianCalibration | None:
    """Build meridian-calibrated slope coordinates, or None if the manifold
    is not a solid-torus candidate (torus boundary, H1 = Z, primitive kernel)."""
    bc = tri.boundary_complex
    if not bc.is_single_torus:
        return None
    h1m = manifold_h1(tri)
    if not h1m.is_infinite_cyclic:
        return None
    h1b = boundary_h1(bc)
    if h1b.rank != 2 or h1b.torsion:
        return None

    def image(w):
        z = h1b.representative_cycle(list(w))
        ne = len(tri.edge_classes)
        chain = [0] * ne
        for be in bc.bedges:
            chain[be.manifold_edge] += be.manifold_sign * z[be.index]
        return h1m.class_of_cycle(chain)[0]

    t1, t2 = image((1, 0)), image((0, 1))
    if t1 == 0 and t2 == 0:
        return None
    g = gcd(t1, t2)
    kernel = (-t2 // g, t1 // g)
    if kernel[0] < 0 or (kernel[0] == 0 and kernel[1] < 0):
        kernel = (-kernel[0], -kernel[1])

    def extended_gcd(a, b):
        if b == 0:
            return (a, 1, 0)
        g2, x, y = extended_gcd(b, a % b)
        return (g2, y, x - (a // b) * y)

    # lam with det(lam, kernel) = 1
    g2, u, v = extended_gcd(kernel[1], -kernel[0])
    assert g2 in (1, -1)
    lam0 = (u // g2, v // g2)

    def calibrated(mu):
        # shear so the lowest-cut boundary edge has 0 <= y < x
        cal = MeridianCalibration(bc, h1b, h1m, kernel, lam0, mu,
                                  _det2(lam0, mu))
        cuts = {e: cal.cut_number(e) for e in bc.bedge_of_manifold_edge}
        edges = sorted((e for e, c in cuts.items() if c is not None),
                       key=lambda e: (cuts[e], e))
        lam = lam0
        for e in edges:
            w = cal.boundary_edge_coords(e)
            x = _det2(w, mu) // _det2(lam0, mu)
            if x == 0:
                continue
            if x < 0:
                w = tuple(-c for c in w)
                x = -x
            y = _det2(lam, w) // _det2(lam, mu)
            n = y // x
            lam = (lam[0] + n * mu[0], lam[1] + n * mu[1])
            break
        return MeridianCalibration(bc, h1b, h1m, kernel, lam, mu, _det2(lam, mu))

    def sign_key(cal):
        out = []
        for e in sorted(bc.bedge_of_manifold_edge):
            if cal.cut_number(e) is None:
                continue
            s = cal.boundary_edge_slope(e)
            if s is not None:
                out.append((s.x, -s.y))
        return sorted(out)

    plus = calibrated(kernel)
    minus = calibrated((-kernel[0], -kernel[1]))
    return plus if sign_key(plus) <= sign_key(minus) else minus


@dataclass
class HomologySummary:
    h1_rank: int
    h1_torsion: tuple
    boundary_map_kernel_slope: Slope | None
    boundary_edge_cuts: dict          # manifold edge class -> meridian cuts
    boundary_edge_slopes: dict        # manifold edge class -> calibrated Slope
    calibration: MeridianCalibration | None


def first_homology(tri) -> HomologySummary:
    h1 = manifold_h1(tri)
    cal = calibrate(tri)
    if cal is None:
        return HomologySummary(h1.rank, tuple(h1.torsion), None, {}, {}, None)
    cuts, slopes = {}, {}
    for e in cal.bc.bedge_of_manifold_edge:
        c = cal.cut_number(e)
        if c is None:
            continue
        cuts[e] = c
        slopes[e] = cal.boundary_edge_slope(e)
    mult, kernel_slope = cal.slope_of_coords(cal.kernel)
    assert mult == 1 and kernel_slope == Slope(0, 1)
    return HomologySummary(h1.rank, tuple(h1.torsion), kernel_slope, cuts, slopes, cal)


@dataclass
class SolidTorusReport:
    boundary_is_single_torus: bool
    euler_characteristic_zero: bool
    h1_infinite_cyclic: bool
    kernel_slope_defined: bool
    candidate: bool


def solid_torus_candidate(tri) -> SolidTorusReport:
    """Necessary conditions only; a True verdict means 'candidate'."""
    torus = tri.boundary_complex.is_single_torus
    chi0 = tri.skeleton().euler_characteristic == 0
    h1 = manifold_h1(tri)
    cal = calibrate(tri) if torus and h1.is_infinite_cyclic else None
    return SolidTorusReport(
        boundary_is_single_torus=torus,
        euler_characteristic_zero=chi0,
        h1_infinite_cyclic=h1.is_infinite_cyclic,
        kernel_slope_defined=cal is not None,
        candidate=torus and chi0 and h1.is_infinite_cyclic and cal is not None,
    )
