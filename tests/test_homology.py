import hashlib
import random
from itertools import permutations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coretorus import homology
from coretorus.curves import make_61_curve
from coretorus.homology import (H1Group, boundary_h1, calibrate, first_homology, loop_cuts,
                                manifold_h1, smith_normal_form)
from coretorus.layered import BASE_T0_TEXT, family
from coretorus.slopes import Slope, fib
from coretorus.triangulation import (FACE_VERTICES, Triangulation, TriangulationError, parse_tri,
                                     serialize_tri)

import edge_class_oracle
import vertex_class_oracle
from skeleton_oracle import component_summary
from snf_oracle import mat_mul, smith_normal_form as dense_smith_normal_form, sparse_result
from test_triangulation import gluing_tables

BALL_TEXT = "tets 1\n0: - - - -\n"
# a solid torus whose boundary torus has two vertices
TWO_VERTEX_TEXT = ("tets 3\n0: - 1:1032 - 2:1230\n1: 0:1032 2:3102 - -\n"
                   "2: 0:3012 1:2130 2:1230 2:3012\n")
# one tetrahedron with two faces folded together: a ball whose boundary
# sphere has two sides of one triangle glued to each other
FOLDED_BALL_TEXT = "tets 1\n0: - - 0:0132 0:0132\n"
# a 3-tet solid torus whose manifold has two vertices: 5 of its 7 edges are
# loops, so it has no v* and only the search and its cover pass certify
COVER_PASS_TEXT = ("tets 3\n0: - 2:0312 1:1320 1:0123\n1: - - 0:3021 0:0123\n"
                   "2: 2:1023 2:1023 - 0:0231\n")
# a solid torus whose v* is an annulus (found among seeded random 3-tet tables)
ANNULUS_FLOOR_TEXT = ("tets 3\n0: 1:1302 - 2:3012 -\n1: 2:2031 0:2031 - 2:2103\n"
                      "2: - 0:1230 1:1302 1:2103\n")
# chi = 0 and no calibration (both found among seeded random tables): a
# closed manifold with H1 = Z/4, and one with a torus boundary and
# H1 = Z + Z/2
CLOSED_Z4_TEXT = "tets 1\n0: 0:2031 0:1302 0:1302 0:2031\n"
TORSION_TORUS_TEXT = ("tets 3\n0: - 1:3210 2:3021 -\n1: 2:0132 - 0:3210 2:3201\n"
                      "2: 1:0132 1:2310 0:1320 -\n")


@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=80)
def test_snf_transforms(rows):
    # the oracle's transforms: U*A*V = D with U and V invertible over Z
    D, U, Uinv, V, Vinv = dense_smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    assert mat_mul(mat_mul(U, rows), V) == D
    ident_m = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    ident_n = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(U, Uinv) == ident_m
    assert mat_mul(V, Vinv) == ident_n
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0


def _matrices(entries):
    """1-7 x 1-7 integer matrices with the given entries."""
    return st.integers(1, 7).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=7))


def _replay_column(log, r):
    """Column r of U^-1 = E_1^-1 ... E_k^-1, as a {index: entry} dict of its
    nonzeros: from the unit vector e_r, the log read backwards, where
    row_i += c * row_j does x[i] -= c * x[j]."""
    x = {r: 1}
    for op in reversed(log):
        if len(op) == 3:
            i, j, c = op
            if j in x:
                x[i] = x.get(i, 0) - c * x[j]
        elif len(op) == 2:                 # a swap
            i, j = op
            x[i], x[j] = x.get(j, 0), x.get(i, 0)
        elif op[0] in x:                   # a negation
            x[op[0]] = -x[op[0]]
    return {k: v for k, v in x.items() if v}


def _sparse_snf(rows):
    """The sparse reduction of a dense matrix, zero entries included: its
    diagonal, and every row of U and column of U^-1 replayed from its log."""
    factors, log = smith_normal_form([dict(enumerate(row)) for row in rows],
                                     len(rows[0]) if rows else 0)
    return (factors, [homology.replay(log, r) for r in range(len(rows))],
            [_replay_column(log, r) for r in range(len(rows))])


@given(_matrices(st.integers(-9, 9)))
@example([])
@example([[]])
@example([[0, 0], [0, 0]])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_snf_matches_the_dense_oracle(rows):
    assert _sparse_snf(rows) == sparse_result(rows)


# no unit entry, so that pivots above 1 run the divisibility sweep
@given(_matrices(st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9,
                                  10, -10, 12, -12, 15, -15))))
@example([[2, 0], [0, 3]])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_snf_matches_the_dense_oracle_without_unit_entries(rows):
    assert _sparse_snf(rows) == sparse_result(rows)


def test_snf_closing_euclid_matches_the_dense_oracle_on_fibonacci_pairs():
    # T_i's Smith form closes with a Euclid on consecutive Fibonacci numbers;
    # both row orders and every sign, through the tie F(1) = F(2)
    for k in range(101):
        for x, y in product((fib(k), -fib(k)), (fib(k + 1), -fib(k + 1))):
            for rows in ([[x], [y]], [[y], [x]]):
                assert _sparse_snf(rows) == sparse_result(rows), rows


def test_snf_matches_the_dense_oracle_on_cotree_matrices(fam, monkeypatch):
    matrices = []

    def recorded(rows, n):
        matrices.append([[row.get(c, 0) for c in range(n)] for row in rows])
        return smith_normal_form(rows, n)

    tris = [parse_tri(serialize_tri(fam(i).tri)) for i in range(41)]
    monkeypatch.setattr(homology, "smith_normal_form", recorded)
    for tri in tris:
        manifold_h1(tri)
        boundary_h1(tri.boundary_complex)
    assert len(matrices) == 82
    for A in matrices:
        assert _sparse_snf(A) == sparse_result(A)


@pytest.mark.parametrize("i", [100, 300, 1000])
def test_loop_cuts_sum_to_the_floor_weight_at_scale(i):
    # every edge class of T_i is a loop; its cut numbers, each read off the
    # one replayed row of U of an (i + 3) x (2i + 3) cotree matrix, sum to
    # the least weight of a meridian disc
    assert sum(loop_cuts(family(i).tri).values()) == fib(i + 6) - 2


def test_ball_homology():
    tri = parse_tri(BALL_TEXT)
    h = first_homology(tri)
    assert h.h1_rank == 0 and not h.h1_torsion
    assert h.boundary_map_kernel_slope is None
    assert not h.candidate


def test_chi_zero_without_a_calibration_is_no_candidate():
    for text, torsion in ((CLOSED_Z4_TEXT, (4,)), (TORSION_TORUS_TEXT, (2,))):
        tri = parse_tri(text)
        assert tri.skeleton().euler_characteristic == 0
        h = first_homology(tri)
        assert h.h1_torsion == torsion
        assert h.calibration is None and not h.candidate


def test_solid_torus_homology():
    tri = parse_tri(BASE_T0_TEXT)
    h = first_homology(tri)
    assert h.h1_rank == 1 and not h.h1_torsion
    assert h.boundary_map_kernel_slope == Slope(0, 1)
    # the three boundary edges cut the meridian disc 1, 2 and 3 times
    assert sorted(h.boundary_edge_cuts.values()) == [1, 2, 3]
    assert sorted(str(s) for s in h.boundary_edge_slopes.values()) == \
        ["(1,0)", "(2,1)", "(3,1)"]
    assert h.candidate


def test_boundary_h1_of_torus_is_z2():
    tri = parse_tri(BASE_T0_TEXT)
    h1b = boundary_h1(tri.boundary_complex)
    assert h1b.rank == 2 and not h1b.torsion


def _pulled_back(tri):
    """psi: the free row of H1(M)'s U, a 1-cocycle, on the boundary edges."""
    phi = manifold_h1(tri)._U_rows[0]
    return [be.manifold_sign * phi.get(be.manifold_edge, 0) for be in tri.boundary_complex.bedges]


def test_calibration_meridian_class():
    tri = parse_tri(BASE_T0_TEXT)
    cal = calibrate(tri)
    assert cal is not None
    mult, s = cal.slope_of_coords(cal.kernel)
    assert mult == 1 and s == Slope(0, 1)
    assert cal.is_meridian_class(cal.kernel)
    assert not cal.is_meridian_class(cal.lam)
    # the kernel really does die in H1(M), and lam maps to a generator
    t = homology._values_on_generators(cal.h1_bdry, _pulled_back(tri))
    assert t[0] * cal.kernel[0] + t[1] * cal.kernel[1] == 0
    assert t[0] * cal.lam[0] + t[1] * cal.lam[1] in (1, -1)


def test_a_psi_that_is_not_a_cocycle_is_rejected():
    # one boundary edge's value moved by 1: a triangle's boundary is no
    # longer 0, and some edge's equation fails
    for text in (BASE_T0_TEXT, TWO_VERTEX_TEXT):
        tri = parse_tri(text)
        h1b = boundary_h1(tri.boundary_complex)
        for e in range(len(h1b.ends)):
            psi = _pulled_back(tri)
            psi[e] += 1
            with pytest.raises(ValueError, match="not a 1-cocycle"):
                homology._values_on_generators(h1b, psi)


def _face_boundaries(tri):
    """Each face class's boundary, an {edge class: coefficient} chain."""
    out = []
    for t, f in (slots[0] for slots in tri.face_classes):
        a, b, c = FACE_VERTICES[f]
        z = {}
        for d in ((a, b), (b, c), (c, a)):
            e, rep = tri.class_direction[(t, d)]
            z[e] = z.get(e, 0) + (1 if rep == d else -1)
        out.append(z)
    return out


def _triangle_boundaries(bc):
    return [bc.triangle_boundary_chain(i) for i in range(len(bc.triangles))]


def _fundamental_cycles(h1):
    """Each edge off the forest, closed by the forest path from its head
    back to its tail."""
    up = {}                        # vertex -> a chain from it to its root
    for w, e in h1.forest:
        tail, head = h1.ends[e]
        v, x = (tail, -1) if w == head else (head, 1)
        up[w] = dict(up.get(v, {}))
        up[w][e] = x
    tree = {e for _, e in h1.forest}
    cycles = []
    for e, (tail, head) in enumerate(h1.ends):
        if e not in tree:
            z = {e: 1}
            for chain, sign in ((up.get(head, {}), 1), (up.get(tail, {}), -1)):
                for k, x in chain.items():
                    z[k] = z.get(k, 0) + sign * x
            cycles.append({k: x for k, x in z.items() if x})
    return cycles


def _assert_roundtrip(h1, boundaries, rng, rounds=20, psis=()):
    """Every 2-cell boundary has class 0.  Where H1 = Z^2, t is recovered
    from the cocycle psi = t * (r1, r2) + dh for random t and potentials h,
    and each cocycle psi, those and ``psis``, has psi(z) = t * [z] on random
    integer sums z of fundamental cycles."""
    zero = (0,) * len(h1.coord_index)
    for z in boundaries:
        assert h1.class_of_cycle(z) == zero
    if h1.rank != 2 or h1.torsion:
        return
    r1, r2 = h1._U_rows
    cycles, psis = _fundamental_cycles(h1), list(psis)
    for _ in range(rounds):
        t = (rng.randint(-3, 3), rng.randint(-3, 3))
        h = [rng.randint(-3, 3) for _ in range(h1.n_vertices)]
        psi = [t[0] * r1.get(e, 0) + t[1] * r2.get(e, 0) + h[head] - h[tail]
               for e, (tail, head) in enumerate(h1.ends)]
        assert homology._values_on_generators(h1, psi) == t
        psis.append(psi)
    for psi in psis:
        t = homology._values_on_generators(h1, psi)
        for _ in range(rounds):
            z = {}
            for cycle in cycles:
                k = rng.randint(-2, 2)
                for e, x in cycle.items():
                    z[e] = z.get(e, 0) + k * x
            w = h1.class_of_cycle(z)
            assert sum(psi[e] * x for e, x in z.items()) == t[0] * w[0] + t[1] * w[1]


def test_class_of_cycle_roundtrip():
    tri = parse_tri(BASE_T0_TEXT)
    _assert_roundtrip(manifold_h1(tri), _face_boundaries(tri), random.Random(7))


def test_class_of_cycle_roundtrip_through_a_spanning_tree():
    # two boundary vertices: one boundary edge is a tree edge, which the
    # potential zeroes and which closes a fundamental cycle
    tri = parse_tri(TWO_VERTEX_TEXT)
    bc = tri.boundary_complex
    h1b = boundary_h1(bc)
    assert h1b.n_vertices == 2 and h1b.rank == 2 and not h1b.torsion
    assert len(h1b.forest) == 1
    _assert_roundtrip(h1b, _triangle_boundaries(bc), random.Random(3), psis=[_pulled_back(tri)])
    # a hexagon with a chord: H1 = Z^2, and the forest reaches 2 and 4
    # through 1 and 5, so the potential must be walked root first
    hexagon = H1Group([(k, (k + 1) % 6) for k in range(6)] + [(0, 3)], [{}] * 7, 0)
    assert [w for w, _ in hexagon.forest] == [1, 5, 3, 2, 4]
    _assert_roundtrip(hexagon, [], random.Random(5))


def test_h1_group_rejects_a_non_chain_complex():
    # one edge from vertex 0 to vertex 1 bounding a 2-cell: d1 d2 != 0
    with pytest.raises(ValueError, match="d1\\*d2"):
        H1Group([(0, 1)], [{0: 1}], 1)


def test_h1_group_checks_d1_d2_on_the_edges_that_are_not_loops():
    # loops 0 and 2 at vertices 0 and 1, edges 1 and 3 from 0 to 1; cell 0
    # is bounded by loop 0 and cell 1 by edge 1 - edge 3, a chain complex
    ends = [(0, 0), (0, 1), (1, 1), (0, 1)]
    h1 = H1Group(ends, [{0: 1}, {1: 1}, {}, {1: -1}], 2)
    assert h1.rank == 1 and not h1.torsion
    # cell 1 bounded by loop 0 + edge 1 + loop 2 instead: d1 d2 = v1 - v0
    with pytest.raises(ValueError, match="d1\\*d2"):
        H1Group(ends, [{0: 1, 1: 1}, {1: 1}, {1: 1}, {}], 2)


def test_class_of_cycle_rejects_a_non_cycle():
    h1 = H1Group([(0, 1), (1, 0)], [{}, {}], 0)   # a circle of two edges
    assert h1.rank == 1 and h1.class_of_cycle({0: 1, 1: 1}) in ((1,), (-1,))
    with pytest.raises(ValueError, match="not a 1-cycle"):
        h1.class_of_cycle({0: 1})
    h1b = boundary_h1(parse_tri(TWO_VERTEX_TEXT).boundary_complex)
    joining = next(e for e, (tail, head) in enumerate(h1b.ends) if tail != head)
    with pytest.raises(ValueError, match="not a 1-cycle"):
        h1b.class_of_cycle({joining: 1})


def test_folded_ball_boundary_is_a_sphere():
    bc = parse_tri(FOLDED_BALL_TEXT).boundary_complex
    assert [c["euler"] for c in component_summary(bc)] == [2]
    assert len(bc.vertex_classes) == 3
    h1b = boundary_h1(bc)
    assert h1b.rank == 0 and not h1b.torsion


def _valid(table):
    try:
        return Triangulation(table)
    except TriangulationError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gluing_tables())
def test_boundary_h1_rank_is_sum_of_two_minus_euler(table):
    tri = _valid(table)
    assume(tri is not None and tri.boundary_complex.triangles)
    bc = tri.boundary_complex
    h1b = boundary_h1(bc)
    assert not h1b.torsion
    assert h1b.rank == sum(2 - c["euler"] for c in component_summary(bc))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gluing_tables())
# a face meeting one edge class twice with opposite signs: an explicit 0 in d2
@example([[(1, (0, 1, 2, 3)), None, (0, (0, 1, 3, 2)), (0, (0, 1, 3, 2))],
          [(0, (0, 1, 2, 3)), None, None, None], [None] * 4])
def test_class_of_cycle_roundtrip_on_random_tables(table):
    tri = _valid(table)
    assume(tri is not None)
    rng = random.Random(len(tri.edge_classes))
    h1m = manifold_h1(tri)
    _assert_roundtrip(h1m, _face_boundaries(tri), rng, rounds=5)
    bc = tri.boundary_complex
    if bc.triangles:
        psis = [_pulled_back(tri)] if h1m.is_infinite_cyclic else []
        _assert_roundtrip(boundary_h1(bc), _triangle_boundaries(bc), rng, rounds=5, psis=psis)


def test_two_vertex_boundary_calibrates():
    # only boundary edges that are loops of the torus get cut numbers
    tri = parse_tri(TWO_VERTEX_TEXT)
    assert len(tri.boundary_complex.vertex_classes) == 2
    h = first_homology(tri)
    assert h.h1_rank == 1 and not h.h1_torsion
    assert h.calibration is not None
    assert h.boundary_map_kernel_slope == Slope(0, 1)
    assert h.boundary_edge_cuts and len(h.boundary_edge_cuts) < len(tri.boundary_complex.bedges)
    assert h.candidate


def test_homology_is_computed_once_per_triangulation(monkeypatch):
    lt = family(10)
    calls = []

    def counted(rows, n):
        calls.append(rows)
        return smith_normal_form(rows, n)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    first_homology(lt.tri)
    first_homology(lt.tri)
    make_61_curve(lt)
    # one reduction for H1(M) and one for H1(bdry), however many of these
    # ask for them
    assert len(calls) == 2
    tri = lt.tri
    assert calibrate(tri) is calibrate(tri)
    assert manifold_h1(tri) is manifold_h1(tri)
    copy = parse_tri(serialize_tri(tri))
    assert calibrate(copy) is not calibrate(tri)
    assert (calibrate(copy).lam, calibrate(copy).mu) == (calibrate(tri).lam, calibrate(tri).mu)
    assert len(calls) == 4


def test_h1_groups_replay_only_their_coordinate_rows_and_keep_no_log(monkeypatch):
    # H1(M) replays its one coordinate row of U and H1(bdry) its two, once
    # each, and neither keeps its reduction's log
    rows, logs = [], []
    replay, snf = homology.replay, homology.smith_normal_form

    def counted(log, r):
        rows.append(r)
        return replay(log, r)

    def logged(matrix, n):
        factors, log = snf(matrix, n)
        logs.append(log)
        return factors, log

    tri = family(10).tri
    monkeypatch.setattr(homology, "replay", counted)
    monkeypatch.setattr(homology, "smith_normal_form", logged)
    h = first_homology(tri)
    assert len(rows) == 3 and len(logs) == 2 and h.candidate
    for group in (manifold_h1(tri), h.calibration.h1_bdry):
        assert not any(x is log for x in vars(group).values() for log in logs)


def _seeded_table(rng):
    """A gluing table on 1 to 3 tetrahedra drawn as ``gluing_tables`` draws
    one, from a seeded generator."""
    n = rng.randint(1, 3)
    slots = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(slots)
    table = [[None] * 4 for _ in range(n)]
    for k in range(rng.randint(0, len(slots) // 2)):
        (t1, f1), (t2, f2) = slots[2 * k], slots[2 * k + 1]
        p = rng.choice([p for p in permutations(range(4)) if p[f1] == f2])
        table[t1][f1] = (t2, p)
        table[t2][f2] = (t1, tuple(p.index(i) for i in range(4)))
    return table


def _outcome(read):
    try:
        return read()
    except (TriangulationError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _boundary_record(tri):
    """Everything read off a triangulation's boundary complex."""
    bc = tri.boundary_complex
    return [
        bc.triangles,
        [(be.index, be.manifold_edge, be.manifold_sign) for be in bc.bedges],
        sorted(bc.bedge_of_side.items()), sorted(bc.side_dir.items()),
        sorted(bc.bedge_of_manifold_edge.items()),
        bc.vertex_classes, bc.components,
        _outcome(lambda: sorted(bc.orientation.items())),
        [sorted(bc.triangle_boundary_chain(i).items()) for i in range(len(bc.triangles))],
        component_summary(bc),
        [ec.boundary for ec in tri.edge_classes],
        _outcome(lambda: boundary_h1(bc).factor),
    ]


def _boundary_tables():
    """T_0..T_7, the folded ball, the two-vertex torus and seeded random
    tables, by name, until 60 of the random ones are valid."""
    yield from ((f"T_{i}", family(i).tri.gluings) for i in range(8))
    yield "folded ball", parse_tri(FOLDED_BALL_TEXT).gluings
    yield "two-vertex", parse_tri(TWO_VERTEX_TEXT).gluings
    valid, seed = 0, 0
    while valid < 60:
        table = _seeded_table(random.Random(seed))
        valid += not isinstance(_outcome(lambda: Triangulation(table)), str)
        yield f"seed {seed}", table
        seed += 1


def _boundary_inputs():
    """The triangulations of ``_boundary_tables``; the seeds skipped on the
    way give their validation errors."""
    for name, table in _boundary_tables():
        yield name, _outcome(lambda: Triangulation(table))


def test_boundary_complexes_keep_their_digests():
    records = [(name, tri if isinstance(tri, str) else _boundary_record(tri))
               for name, tri in _boundary_inputs()]
    assert sum(not isinstance(r, str) for _, r in records) == 70
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "19f380423f147649"


def _coned(tri, count):
    """``tri``'s gluing table with a new tetrahedron glued by its face 0 onto
    each of its first ``count`` boundary faces, by the permutation that
    keeps the table orientable.  Each cone swaps a boundary triangle for
    three around a new vertex and leaves the manifold as it was."""
    table = [list(row) for row in tri.gluings]
    for t, f in tri.boundary_faces[:count]:
        new = len(table)
        for p in permutations(range(4)):
            if p[0] != f:
                continue
            trial = [list(row) for row in table] + [[(t, p), None, None, None]]
            trial[t][f] = (new, tuple(p.index(i) for i in range(4)))
            if not isinstance(_outcome(lambda: Triangulation(trial)), str):
                table = trial
                break
    return table


def test_boundary_h1_rows_are_read_off_the_boundary_edge_ends(monkeypatch):
    # each boundary edge's d2 row, read off its two ends, is the row the
    # boundary chains of the triangles give: on the seeded valid tables, on
    # boundary tori with three and four vertices, and where one triangle
    # meets one boundary edge on two sides
    rows = []
    group = homology.H1Group
    monkeypatch.setattr(homology, "H1Group",
                        lambda ends, d2, n: rows.append(d2) or group(ends, d2, n))
    tris = [(name, Triangulation(table)) for name, table in _boundary_tables()
            if not isinstance(_outcome(lambda: Triangulation(table)), str)]
    tris += [(f"T_1 coned {k}", Triangulation(_coned(family(1).tri, k))) for k in (2, 3)]
    tris.append(("two-vertex coned 2", Triangulation(_coned(parse_tri(TWO_VERTEX_TEXT), 2))))
    many_vertex_tori = two_sided = 0
    for name, tri in tris:
        bc = tri.boundary_complex
        if not bc.triangles:
            continue
        want = [{} for _ in bc.bedges]
        for i in range(len(bc.triangles)):
            for be, x in bc.triangle_boundary_chain(i).items():
                want[be][i] = x
        boundary_h1(bc)
        assert rows.pop() == want, name
        many_vertex_tori += bc.is_single_torus and len(bc.vertex_classes) >= 3
        two_sided += any(be.ends[0][0] == be.ends[1][0] for be in bc.bedges)
    assert many_vertex_tori == 3 and two_sided >= 2


def test_edge_classes_match_the_union_find_oracle(fam):
    # the link walks give the directed union-find's classes, directions and
    # walks, and the same error where an edge comes back reversed
    tables = [(f"T_{i}", fam(i).tri.gluings) for i in range(41)]
    tables.append(("annulus floor", parse_tri(ANNULUS_FLOOR_TEXT).gluings))
    tables += _boundary_tables()            # the folded ball and two-vertex torus too
    reversed_edges = 0
    for name, table in tables:
        got = _outcome(lambda: Triangulation(table))
        want = _outcome(lambda: edge_class_oracle.edge_classes(table))
        if isinstance(want, str):
            assert got == want, name
            reversed_edges += 1
        elif isinstance(got, str):
            assert "reversing orientation" not in got, name
        else:
            assert (got.edge_classes, got.class_direction, got.edge_walks) == want, name
    assert reversed_edges > 0


def _assert_vertex_classes_match_the_oracle(tri, name=None):
    want = vertex_class_oracle.vertex_classes(tri.gluings)
    assert tri.vertex_classes == want, name
    assert tri.vertex_class_of == {c: k for k, cs in enumerate(want) for c in cs}, name
    bc = tri.boundary_complex
    assert (_outcome(lambda: bc.vertex_classes)
            == _outcome(lambda: vertex_class_oracle.boundary_vertex_classes(bc))), name


def test_vertex_classes_match_the_union_find_oracle(fam):
    # the corner components give the union-find's classes, in its order
    tris = [(f"T_{i}", fam(i).tri) for i in range(101)]
    tris += [("two-vertex", parse_tri(TWO_VERTEX_TEXT)),
             ("folded ball", parse_tri(FOLDED_BALL_TEXT))]
    for name, tri in tris:
        _assert_vertex_classes_match_the_oracle(tri, name)


@settings(max_examples=300, deadline=None)
@given(gluing_tables())
def test_vertex_classes_match_the_oracle_on_random_tables(table):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    _assert_vertex_classes_match_the_oracle(tri)


def _check_loop_cuts(tri, name=None):
    """Asserts that each loop's cut number is |class_of_cycle| of the loop
    when H1(M) = Z, and that there are none otherwise; says whether
    H1(M) = Z."""
    h1m, cuts = manifold_h1(tri), loop_cuts(tri)
    if not h1m.is_infinite_cyclic:
        assert cuts == {}, name
        return False
    loops = [e for e, (tail, head) in enumerate(h1m.ends) if tail == head]
    assert sorted(cuts) == loops, name
    for e in loops:
        assert cuts[e] == abs(h1m.class_of_cycle({e: 1})[0]), (name, e)
    return True


def test_loop_cuts_read_class_of_cycle(fam):
    tris = [(f"T_{i}", fam(i).tri) for i in range(41)]
    tris += [("two-vertex", parse_tri(TWO_VERTEX_TEXT)),
             ("cover pass", parse_tri(COVER_PASS_TEXT))]
    for name, tri in tris:
        assert _check_loop_cuts(tri, name), name


@settings(max_examples=300, deadline=None)
@given(gluing_tables())
def test_loop_cuts_read_class_of_cycle_on_random_tables(table):
    try:
        tri = Triangulation(table)
    except TriangulationError:
        return
    _check_loop_cuts(tri)
