import hashlib

import pytest

from coretorus import bundle
from coretorus.bundle import (BundleComplex, _regions_behind_face, bundle_prime, check_claims,
                              cut_along, parallelity_bundle, tet_regions)
from coretorus.geometry import GeometrizedSurface
from coretorus.normal import NormalVector, reconstruct
from coretorus.search import SearchBudget, enumerate_admissible, floor_vector
from coretorus.slopes import fib
from coretorus.triangulation import FACE_VERTICES, parse_tri, serialize_tri

from bundle_oracle import BundleComplexOracle
from conftest import vertex_link
from test_layered import seeded_layerings
from union_find import _UnionFind


def region_sweep_oracle(v: NormalVector, t):
    """Independent region list: sweep positions along each corner stack and
    across the quad stack, one region per achievable position."""
    out = []
    q = v.quad_type(t)
    qc = v.quad(t, q) if q is not None else 0
    for vtx in range(4):
        for depth in range(v.tri(t, vtx)):
            out.append(("cap", vtx) if depth == 0 else ("tslab", vtx, depth - 1))
    for pos in range(qc + 1):
        if pos == 0:
            out.append(("central", "low") if qc else ("central", None))
        elif pos == qc:
            out.append(("central", "high"))
        else:
            out.append(("qslab", pos - 1))
    return out


def test_region_count_is_pieces_plus_one(fam):
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 3)):
            for t in range(tri.tet_count):
                pieces_t = sum(v.coords[t])
                regions = tet_regions(v, t)
                assert len(regions) == pieces_t + 1
                assert sorted(regions) == sorted(region_sweep_oracle(v, t))


def test_face_bits_map_to_regions(fam):
    # by hand, face 0 of (2,1,0,0,0,0,3): the three quads miss edges 03 and
    # 12, and their arcs in face 0 cut off vertex 3, so the middle lies on
    # the high side (vertices 1 and 2); corner 1 holds one triangle's arc,
    # corner 2 none, and corner 3 the three quad arcs, whose first bit is
    # the low central region and the next two the slabs between the quads
    v = NormalVector([(2, 1, 0, 0, 0, 0, 3)])
    assert _regions_behind_face(v, 0, 0, (1, 2, 3)) == [
        ("central", "high"), ("cap", 1), ("central", "low"), ("qslab", 0), ("qslab", 1)]
    # every listed region is one of tet_regions, one per face bit, and the
    # four faces together touch every region
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            for t in range(tri.tet_count):
                regions, seen = tet_regions(v, t), set()
                for f in range(4):
                    behind = _regions_behind_face(v, t, f, FACE_VERTICES[f])
                    assert len(behind) == 1 + sum(v.counts(t).arcs[f])
                    assert set(behind) <= set(regions)
                    seen.update(behind)
                assert seen == set(regions)


def test_cut_along_minimal_disc(fam, minimal_disc):
    for i in (0, 1):
        tri = fam(i).tri
        cut = cut_along(tri, minimal_disc(i))
        assert cut.euler_cut == 1          # a meridian disc cuts to a ball
        assert cut.component_count == 1
        assert len(cut.regions) == minimal_disc(i).piece_count + tri.tet_count


def test_cut_along_doubled_disc(fam, minimal_disc):
    tri = fam(0).tri
    v2 = 2 * minimal_disc(0).vector
    cut = cut_along(tri, v2)
    # two parallel meridian discs separate the solid torus into two pieces:
    # the product between them and a ball
    assert cut.component_count == 2
    assert cut.euler_cut == 2


def test_cut_components_match_the_union_find_oracle(fam):
    # the components of the cut regions are the union-find's classes, in its
    # order, on every two-sided admissible vector of T_0..T_3 and its double
    checked = 0
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            if not all(reconstruct(tri, v).orientable_by_component):
                continue
            for w in (v, 2 * v):
                cut = cut_along(tri, w)
                uf = _UnionFind(range(len(cut.regions)))
                for a, b in cut.adjacency:
                    uf.union(a, b)
                assert cut.components == uf.classes(), (i, w.coords)
                checked += 1
    assert checked == 2 * 78


def test_cut_boundary_patches(fam):
    # D_0 = (0,0,1,1,0,0,1) on T_0, whose boundary faces are 0 and 1: each
    # carries the arcs of the triangles at vertices 2 and 3 and one quad
    # arc, 3 arcs cutting it into 4 bits, so 8 A-patches; 2·D_0 cuts each
    # face into 7 bits, so 14
    tri = fam(0).tri
    assert sorted(tri.boundary_faces) == [(0, 0), (0, 1)]
    assert cut_along(tri, closed_form_disc(0)).a_patch_count == 8
    assert cut_along(tri, 2 * closed_form_disc(0)).a_patch_count == 14


def test_vertex_link_bundle_is_edge_slabs_only(fam):
    # between the two crossing points on each edge lies a product slab of
    # the edge's thickening; nothing else of the link is parallel
    tri = fam(0).tri
    comps = parallelity_bundle(tri, vertex_link(tri))
    assert len(comps) == len(tri.edge_classes)
    for c in comps:
        assert len(c.cells) == 1 and c.cells[0][0] == "Q"
        assert c.base_euler == 1 and c.base_orientable


def test_doubled_vertex_link_bundle(fam):
    # the product between the two link copies, plus one trivial edge slab per
    # edge between the two innermost crossings; the slabs meet A but only one
    # disc copy, so Claim 2 genuinely needs a meridian disc
    tri = fam(0).tri
    comps = parallelity_bundle(tri, 2 * vertex_link(tri))
    assert len(comps) == 4
    big = max(comps, key=lambda c: len(c.cells))
    assert big.base_euler == 1 and big.base_orientable and big.meets_a
    small = [c for c in comps if c is not big]
    assert all(len(c.cells) == 1 and c.base_euler == 1 for c in small)
    assert any(not (c.meets_dminus and c.meets_dplus) for c in small)


def test_doubled_disc_bundle(fam, minimal_disc):
    tri = fam(0).tri
    d = minimal_disc(0)
    single = parallelity_bundle(tri, d.vector)
    doubled = parallelity_bundle(tri, 2 * d.vector)
    assert len(doubled) == len(single) + 1
    # the middle product between the two copies has a disc base
    middles = [c for c in doubled if len(c.cells) not in {len(s.cells) for s in single}]
    assert any(c.base_euler == 1 and c.base_orientable for c in doubled)
    for c in doubled:
        assert c.base_orientable


def test_claims_on_minimal_discs(fam, minimal_disc):
    for i in (0, 1, 2):
        rep = check_claims(fam(i).tri, minimal_disc(i), minimal_disc=minimal_disc(i))
        assert rep.claim1, (i, rep.details)
        assert rep.claim2, (i, rep.details)
        assert rep.input_is_minimal is True
        for euler, orientable, dm, dp, a in rep.details["bases"]:
            if a:
                assert dm and dp


def test_claims_reuse_the_disc_surface(fam, minimal_disc, monkeypatch):
    # a disc found on this triangulation carries its surface; a bare
    # vector, or a disc found on another copy of the triangulation, is
    # reconstructed, and every input gives the same report
    calls = []

    def counting(tri, v):
        calls.append(v)
        return reconstruct(tri, v)

    monkeypatch.setattr(bundle, "reconstruct", counting)
    for i in (0, 1, 2):
        tri, d = fam(i).tri, minimal_disc(i)
        calls.clear()
        rep = check_claims(tri, d, minimal_disc=d)
        assert calls == []
        assert check_claims(tri, d.vector, minimal_disc=d) == rep
        assert calls == [d.vector]
        copy = parse_tri(serialize_tri(tri))
        assert check_claims(copy, d, minimal_disc=d) == rep
        assert calls == [d.vector, d.vector]


def test_claims_report_flags_non_minimal_input(fam, minimal_disc):
    tri = fam(0).tri
    d = minimal_disc(0)
    rep = check_claims(tri, 2 * d.vector, minimal_disc=d)
    assert rep.input_is_minimal is False
    assert rep.details["note"] == "input not minimal"
    assert rep.claim1        # products still, for this input


def test_bundle_prime_filter(fam, minimal_disc):
    comps = parallelity_bundle(fam(1).tri, minimal_disc(1))
    prime = bundle_prime(comps)
    assert all(c.meets_a for c in prime)
    assert len(prime) <= len(comps)


def test_two_parallel_triangles_in_a_ball():
    # hand-checked: the slab between two parallel corner triangles assembles
    # from one tetrahedron cell, three face rectangles and three edge slabs
    # into a disc
    from coretorus.triangulation import parse_tri
    tri = parse_tri("tets 1\n0: - - - -\n")
    v = NormalVector([(2, 0, 0, 0, 0, 0, 0)])
    comps = parallelity_bundle(tri, v)
    assert len(comps) == 1
    c = comps[0]
    assert len(c.cells) == 7
    assert c.base_euler == 1 and c.base_orientable
    assert c.meets_a and c.meets_dminus and c.meets_dplus


def test_cut_rejects_one_sided_surface(fam):
    # a vector that fails the matching equations is rejected before any
    # surface is built (one-sided surfaces: test_one_sided_surface_is_rejected)
    tri = fam(0).tri
    with pytest.raises(ValueError):
        cut_along(tri, NormalVector([(1, 0, 0, 0, 0, 0, 0)]))


def test_one_sided_surface_is_rejected(fam):
    # a single quad in T_0 closes up into a Moebius band
    tri = fam(0).tri
    surface = reconstruct(tri, NormalVector([(0, 0, 0, 0, 0, 1, 0)]))
    assert surface.orientable_by_component == [False]
    assert surface.euler_total == 0
    # it and the other one-sided admissible vectors of T_0..T_3 get neither
    # a verdict nor an internal error from the cut, the bundle, the claims
    # or the geometry, whether handed over as a vector or as its surface
    one_sided = 0
    for i in range(4):
        tri = fam(i).tri
        for v in enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4)):
            surface = reconstruct(tri, v)
            if all(surface.orientable_by_component):
                continue
            one_sided += 1
            for check in (cut_along, parallelity_bundle, check_claims):
                for disc in (v, surface):
                    with pytest.raises(ValueError, match="^cutting and the parallelity "
                                       "bundle need a two-sided surface$"):
                        check(tri, disc)
            with pytest.raises(ValueError):
                GeometrizedSurface(tri, surface)
    assert one_sided == 33


# sha256 prefixes of each closed-form disc's claims details, cut complex
# (components, Euler characteristic, A-patch count, adjacency) and face arcs
CLOSED_FORM_DIGESTS = {
    0: "4452d46e06d681d5", 1: "8b0fdf97902153c6", 2: "b0dc6d988d64961d",
    3: "13499250bb8dd403", 4: "13ec11680e19c347", 5: "430c42279448447c",
    6: "3bf6fda01b306457", 7: "23f3d732d52ed495", 8: "c60dd4a407825745",
    9: "d13e873cb25982cb", 10: "da37ae8ecdd11965", 11: "23b2c7bb24d3d8a0",
    12: "2e06c80731b3a311",
}


def closed_form_disc(i):
    """D_i: row k is (0, 0, F(k+2), F(k+2), 0, 0, F(k+1)) for k = 0..i."""
    return NormalVector([(0, 0, fib(k + 2), fib(k + 2), 0, 0, fib(k + 1))
                         for k in range(i + 1)])


def test_closed_form_discs_keep_their_digests(fam):
    got = {}
    for i in range(13):
        tri, v = fam(i).tri, closed_form_disc(i)
        claims, cut = check_claims(tri, v), cut_along(tri, v)
        geom = GeometrizedSurface(tri, cut.surface)
        arcs = [(a.piece, a.cut_vertex, a.level, a.p0, a.p1, a.plus_side_is_cut)
                for t in range(tri.tet_count) for f in range(4) for a in geom.face_arcs(t, f)]
        record = (claims.claim1, claims.claim2, claims.details, cut.components, cut.euler_cut,
                  cut.a_patch_count, cut.adjacency, arcs)
        got[i] = hashlib.sha256(repr(record).encode()).hexdigest()[:16]
    assert got == CLOSED_FORM_DIGESTS


def _surface_record(tri, v):
    """Everything read off one input: the surface, and for a two-sided
    surface its bundle cells and components, its cut complex and its face
    arcs."""
    s = reconstruct(tri, v)
    curves = [[(c.length, sorted(c.chain.items())) for c in comp]
              for comp in s.boundary_curves_by_component]
    record = [s.pieces, [s.sigma[p] for p in s.pieces], s.components, s.euler_by_component,
              s.orientable_by_component, curves]
    if all(s.orientable_by_component):
        bc = BundleComplex(tri, v, s)
        cells = [(c.name, c.sides, c.corners, c.a_contact, c.sheets)
                 for c in (bc.cells[n] for n in sorted(bc.cells))]
        comps = [(c.cells, c.base_euler, c.base_orientable, c.meets_dminus, c.meets_dplus,
                  c.meets_a) for c in bc.components()]
        cut = cut_along(tri, v)
        geom = GeometrizedSurface(tri, s)
        arcs = [(a.piece, a.cut_vertex, a.level, a.p0, a.p1, a.plus_side_is_cut)
                for t in range(tri.tet_count) for f in range(4) for a in geom.face_arcs(t, f)]
        record += [cells, comps, sorted(cut.regions.items()), cut.adjacency, cut.components,
                   cut.euler_cut, cut.a_patch_count, arcs]
    return record


# sha256 prefixes of _surface_record over the admissible vectors of T_i
# within fib(i+6) - 4 pieces ("T_i"), and over D_i and 2·D_i ("D_i")
SURFACE_DIGESTS = {
    "T_0": "2de052ccf99879c3", "T_1": "014037192becfa2a", "T_2": "842240bc3789f35c",
    "T_3": "7fc292106ce8b54e", "D_0": "5f788b547a42b16e", "D_1": "3189ea3d6cc65bf4",
    "D_2": "383ee57af548dc5c", "D_3": "e4331875507f0444", "D_4": "d37bd8d53ef7ac8e",
    "D_5": "e64d4975f3f03ac4", "D_6": "5aa6e8ee9fb54ae0", "D_7": "174d662bcdf6f486",
    "D_8": "5d734a495f7a8a1d",
}


def test_surfaces_bundles_and_arcs_keep_their_digests(fam):
    got, admissible = {}, 0
    for i in range(4):
        tri = fam(i).tri
        vectors = enumerate_admissible(tri, SearchBudget(fib(i + 6) - 4))
        admissible += len(vectors)
        records = [_surface_record(tri, v) for v in vectors]
        got[f"T_{i}"] = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    for i in range(9):
        tri, v = fam(i).tri, closed_form_disc(i)
        records = [_surface_record(tri, v), _surface_record(tri, 2 * v)]
        got[f"D_{i}"] = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert admissible == 111
    assert got == SURFACE_DIGESTS


def _cell_records(complex_):
    return [(n, c.name, c.sides, c.corners, c.a_contact, c.sheets)
            for n, c in complex_.cells.items()]


def test_bundle_matches_its_oracle_on_seeded_layerings():
    # the table-driven builders and the int-numbered components give the
    # per-step builders' cells, in the same order, and components, on v* of
    # layering words off the Farey path that no digest covers, 20 of them
    # with two bundle components
    two = 0
    for lt in seeded_layerings():
        tri = lt.tri
        v = floor_vector(tri)
        s = reconstruct(tri, v)
        assert all(s.orientable_by_component)
        got, want = BundleComplex(tri, v, s), BundleComplexOracle(tri, v, s)
        assert _cell_records(got) == _cell_records(want), lt.history
        comps = got.components()
        assert comps == want.components(), lt.history
        two += len(comps) == 2
    assert two == 20
