import hashlib
import random
from fractions import Fraction

import pytest

from coretorus.curves import (Chord, CurveError, NonTransverseError, PLCurve, Segment,
                              TransverseCurve, algebraic_intersection, arcs_per_face,
                              curve_h1_class, face_bound_check, is_embedded,
                              make_61_curve, min_boundary_precore_length,
                              push_off, tet_bound_check)
from coretorus.geometry import GeometrizedSurface, segments_cross_properly
from coretorus.normal import reconstruct
from coretorus.slopes import fib, slope_seq

from conftest import vertex_link

F = Fraction


def _interior_face(tri):
    return next(i for i, slots in enumerate(tri.face_classes) if len(slots) == 2)


def test_curve_validation(fam):
    tri = fam(0).tri
    fc = _interior_face(tri)
    # the interior face carries the cut-1 edge class on two of its sides
    with pytest.raises(CurveError):
        PLCurve(tri, [])
    with pytest.raises(CurveError):
        PLCurve(tri, [Segment(fc, (F(1), F(0), F(0)), (F(0), F(1), F(0)))])
    with pytest.raises(CurveError):   # endpoints on different manifold points
        PLCurve(tri, [Segment(fc, (F(1, 2), F(1, 2), F(0)), (F(1, 3), F(0), F(2, 3)))])
    # one weight of the curve's first point halved: the junction reads the
    # other weight of the pair, but the weights no longer sum to 1
    seg = make_61_curve(fam(0)).curve.segments[0]
    for k in range(3):
        if seg.p0[k]:
            bad = tuple(c / 2 if j == k else c for j, c in enumerate(seg.p0))
            with pytest.raises(CurveError):
                PLCurve(tri, [Segment(seg.face_class, bad, seg.p1)])



def test_curve_validation_rejects_bad_points(fam):
    tri = fam(0).tri
    fc = _interior_face(tri)
    inside = (F(1, 2), F(1, 4), F(1, 4))
    for p, message in [((F(1, 2), F(1, 2)), "bad barycentric point"),
                       ((F(1, 2), F(1, 2), F(1, 2)), "bad barycentric point"),
                       ((F(3, 2), F(-1, 2), F(0)), "bad barycentric point"),
                       ((F(0), F(0), F(1)), "touches a vertex")]:
        with pytest.raises(ValueError, match=message):
            PLCurve(tri, [Segment(fc, p, inside)])
    with pytest.raises(ValueError, match="degenerate segment"):
        PLCurve(tri, [Segment(fc, inside, inside)])

def test_61_curve_certificates(fam, minimal_disc):
    for i in range(4):
        lt = fam(i)
        cert = make_61_curve(lt, witness_disc=minimal_disc(i) if i <= 2 else None)
        assert cert.one_skeleton_hits == 1
        assert cert.embedded
        assert abs(cert.winding) == 1
        assert cert.max_arcs_per_face <= 10
        if i == 0:
            assert cert.kind == "pre-core"
            # the crossing sits on the edge labeled (1,0)
            assert lt.boundary_slopes[cert.hit_edge_class] == slope_seq(0)
        else:
            assert cert.kind == "core"
            assert not cert.curve.touches_boundary()
        if cert.witness_disc is not None:
            assert abs(cert.algebraic_pairing) == 1


def test_minimal_disc_witnesses_the_core_curve(fam, minimal_disc):
    # the floor certificate makes the minimal disc cheap at every index, so
    # the +-1 pairing is checked past the reach of the enumeration
    for i in range(15):
        cert = make_61_curve(fam(i), witness_disc=minimal_disc(i))
        assert abs(cert.algebraic_pairing) == 1


def test_pairing_additive_under_doubling(fam, minimal_disc):
    lt = fam(1)
    d = minimal_disc(1)
    cert = make_61_curve(lt, witness_disc=d)
    doubled = GeometrizedSurface(lt.tri, reconstruct(lt.tri, 2 * d.vector))
    assert algebraic_intersection(cert.curve, doubled) == 2 * cert.algebraic_pairing


def _refine(curve, rng):
    """Split one random segment at a random rational interior point."""
    segs = list(curve.segments)
    k = rng.randrange(len(segs))
    s = segs[k]
    for _ in range(50):
        t = F(rng.randint(1, 15), 16)
        mid = tuple(a + (b - a) * t for a, b in zip(s.p0, s.p1))
        if all(c > 0 for c in mid):
            break
    else:
        return curve
    segs[k:k + 1] = [Segment(s.face_class, s.p0, mid), Segment(s.face_class, mid, s.p1)]
    return PLCurve(curve.tri, segs)


def test_pairing_invariant_under_refinement(fam, minimal_disc):
    lt = fam(1)
    d = minimal_disc(1)
    cert = make_61_curve(lt, witness_disc=d)
    geom = GeometrizedSurface(lt.tri, d.surface)
    base = algebraic_intersection(cert.curve, geom)
    rng = random.Random(20260808)
    curve = cert.curve
    for _ in range(100):
        curve = _refine(curve, rng)
        assert algebraic_intersection(curve, geom) == base
        assert curve_h1_class(curve) == curve_h1_class(cert.curve)
    assert len(curve.segments) > len(cert.curve.segments)


def test_pairing_rejects_a_curve_through_a_surface_arc(fam, minimal_disc):
    # the witnessed curve split where it crosses the disc: its two halves
    # meet on a surface arc, which is no transverse crossing
    lt, d = fam(1), minimal_disc(1)
    geom = GeometrizedSurface(lt.tri, d.surface)
    (seg,) = make_61_curve(lt, witness_disc=d).curve.segments
    t, f = lt.tri.face_classes[seg.face_class][0]
    c0, c1 = seg.p0[1:], seg.p1[1:]
    arc = next(a for a in geom.face_arcs(t, f) if segments_cross_properly(a.p0, a.p1, c0, c1))

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    # c0 + s (c1 - c0) is on the arc's line
    v = (arc.p1[0] - arc.p0[0], arc.p1[1] - arc.p0[1])
    s = (cross((arc.p0[0] - c0[0], arc.p0[1] - c0[1]), v)
         / cross((c1[0] - c0[0], c1[1] - c0[1]), v))
    assert 0 < s < 1
    mid = tuple(a + s * (b - a) for a, b in zip(seg.p0, seg.p1))
    curve = PLCurve(lt.tri, [Segment(seg.face_class, seg.p0, mid),
                             Segment(seg.face_class, mid, seg.p1)])
    with pytest.raises(NonTransverseError, match="^curve endpoint on a surface arc$"):
        algebraic_intersection(curve, geom)


def test_vertex_link_pairs_to_zero(fam, minimal_disc):
    lt = fam(1)
    cert = make_61_curve(lt)
    link = GeometrizedSurface(lt.tri, reconstruct(lt.tri, vertex_link(lt.tri)))
    assert algebraic_intersection(cert.curve, link) == 0


def test_embeddedness_detects_crossing(fam):
    tri = fam(0).tri
    fc = _interior_face(tri)
    from coretorus.triangulation import FACE_VERTICES
    t, f = tri.face_classes[fc][0]
    # two interior segments crossing inside one face, closed through
    # interior junctions: structurally a curve but not embedded
    a = (F(1, 2), F(1, 4), F(1, 4))
    b = (F(1, 4), F(1, 2), F(1, 4))
    c = (F(1, 4), F(1, 4), F(1, 2))
    d = (F(5, 12), F(5, 12), F(1, 6))
    quad = PLCurve(tri, [Segment(fc, a, b), Segment(fc, b, c),
                         Segment(fc, c, d), Segment(fc, d, a)])
    assert not is_embedded(quad)       # d-a crosses b-c
    tri_loop = PLCurve(tri, [Segment(fc, a, b), Segment(fc, b, c), Segment(fc, c, a)])
    assert is_embedded(tri_loop)


def test_arcs_per_face_counts(fam):
    lt = fam(0)
    cert = make_61_curve(lt)
    counts, mx = arcs_per_face(cert.curve)
    assert mx == 1
    assert sum(counts.values()) == len(cert.curve.segments)
    rep = face_bound_check(cert.curve)
    assert rep["ok"] and rep["max_arcs"] <= 10


def test_push_off_bounds(fam):
    for i in (1, 2, 3):
        cert = make_61_curve(fam(i))
        tc = push_off(cert.curve)
        rep = tet_bound_check(tc)
        assert rep["ok"], rep
        assert rep["endpoints_interior"]
        counts, mx = tc.arcs_per_tet()
        assert mx <= 18


def crowded_curve(curve, arcs=11):
    """The curve refined by ``_refine`` until some face carries ``arcs``
    segments, and that face; every other face carries fewer."""
    rng = random.Random(20261019)
    while True:
        counts, mx = arcs_per_face(curve)
        if mx == arcs:
            return curve, max(counts, key=counts.get)
        curve = _refine(curve, rng)


def test_face_bound_check_names_a_crowded_face(fam):
    curve, face = crowded_curve(make_61_curve(fam(1)).curve)
    rep = face_bound_check(curve)
    assert not rep["ok"]
    assert (rep["max_arcs"], rep["violations"]) == (11, [face])


def test_tet_bound_check_names_a_crowded_tetrahedron(fam):
    tc = push_off(make_61_curve(fam(1)).curve)
    ch = tc.chords[0]
    rep = tet_bound_check(TransverseCurve(tc.tri, [ch] * 19))
    assert not rep["ok"]
    assert (rep["max_arcs"], rep["violations"]) == (19, [ch.tet])
    assert rep["endpoints_interior"]


def test_endpoint_on_a_face_side_is_not_interior(fam):
    tc = push_off(make_61_curve(fam(1)).curve)
    ch = tc.chords[0]
    assert tc.endpoints_interior()
    on_side = Chord(ch.tet, (ch.entry[0], (F(0), F(1, 2), F(1, 2))), ch.exit)
    assert not TransverseCurve(tc.tri, [on_side] + tc.chords[1:]).endpoints_interior()
    assert not tet_bound_check(TransverseCurve(tc.tri, [on_side]))["endpoints_interior"]


def test_push_off_is_closed_chain(fam):
    cert = make_61_curve(fam(2))
    tc = push_off(cert.curve)
    # every chord's exit point equals the next chord's entry point as a
    # manifold point (same face class, matching barycentric data)
    tri = fam(2).tri
    n = len(tc.chords)
    for k, ch in enumerate(tc.chords):
        nxt = tc.chords[(k + 1) % n]
        f_out, p_out = ch.exit
        f_in, p_in = nxt.entry
        fc_out = tri.face_class_of.get((ch.tet, f_out))
        fc_in = tri.face_class_of.get((nxt.tet, f_in))
        assert fc_out == fc_in


def test_61_curve_single_hit_up_to_six(fam):
    for i in range(7):
        cert = make_61_curve(fam(i))
        assert cert.one_skeleton_hits == 1
        assert abs(cert.winding) == 1
        assert cert.kind == ("pre-core" if i == 0 else "core")


def test_min_boundary_precore_lengths():
    r0 = min_boundary_precore_length(0)
    assert r0["ok"] and r0["min_length"] >= 1
    for i in range(12):
        assert min_boundary_precore_length(i)["ok"]
    big = min_boundary_precore_length(10)
    assert big["minimizing_n"] == 1
    # the closed-form minimum is the first minimum of a window scan
    for i in range(41):
        rep = min_boundary_precore_length(i)
        triple = [slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)]
        vals = [sum(abs(n * s.x - s.y) for s in triple) for n in range(-50, 51)]
        assert rep["min_length"] == min(vals)
        assert rep["minimizing_n"] == vals.index(min(vals)) - 50


def test_curve_json_roundtrip(fam):
    cert = make_61_curve(fam(0))
    tri = fam(0).tri
    again = PLCurve.from_json(tri, cert.curve.to_json())
    assert again.segments == cert.curve.segments


def _certificate_record(cert):
    return (cert.curve.to_json(), cert.curve.junctions, cert.kind, cert.winding,
            cert.hit_edge_class, cert.algebraic_pairing)


# sha256 of the one-crossing curves of T_0..T_13 (segments, junctions with
# their class parameters, kind, winding, hit edge class), their push-off
# chords from T_1 on, and the curves witnessed by the minimal disc on T_0..T_2
# with their pairings
CURVE_CERTIFICATES_DIGEST = "f9c09f75912d9c83916253882e2a8c40f0f0c946685802ebdc74b20e7f71df12"


def test_curve_certificates_keep_their_digests(fam, minimal_disc):
    record = []
    for i in range(14):
        cert = make_61_curve(fam(i))
        record.append(_certificate_record(cert))
        if i >= 1:
            record.append([(ch.tet, ch.entry, ch.exit) for ch in push_off(cert.curve).chords])
        if i <= 2:
            record.append(_certificate_record(make_61_curve(fam(i), witness_disc=minimal_disc(i))))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == CURVE_CERTIFICATES_DIGEST
