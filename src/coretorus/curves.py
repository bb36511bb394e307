"""PL curves in the 2-skeleton, transverse push-offs, and certificates.

A PL curve is a cyclic chain of straight segments carried by faces, with
exact rational barycentric coordinates in each face class's representative
slot.  Consecutive segments meet at a common point of a common edge class
(or at an interior point of a common face, which subdivision tests use).

Certificates never trust floating point: embeddedness is exact segment
arithmetic, the pairing with a meridian disc is a signed count of exact
proper crossings against the disc's straightened arcs, and the homology
class of a curve is computed by collapsing each edge crossing to the edge.
Sides and crossings are ``geometry``'s integer determinants; validation and
placed points work on numerators and denominators, with no rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .geometry import (GeometrizedSurface, face_chart_point, on_segment, orient2,
                       segments_intersect)
from .homology import loop_cuts, manifold_h1
from .layered import family
from .search import VerifyReport
from .slopes import at_least_golden_power, fib, min_pre_core_intersection, slope_seq
from .triangulation import FACE_VERTICES


class CurveError(ValueError):
    pass


class NonTransverseError(CurveError):
    pass


@dataclass(frozen=True)
class Segment:
    face_class: int
    p0: tuple                 # barycentric (3 Fractions), rep-slot vertex order
    p1: tuple


@dataclass
class PLCurve:
    tri: object
    segments: list

    def __post_init__(self):
        if not self.segments:
            raise CurveError("a curve needs at least one segment")
        for seg in self.segments:
            for p in (seg.p0, seg.p1):
                if len(p) != 3:
                    raise CurveError(f"bad barycentric point {p}")
                (a, A), (b, B), (c, C) = (x.as_integer_ratio() for x in p)
                if a * B * C + b * A * C + c * A * B != A * B * C or min(a, b, c) < 0:
                    raise CurveError(f"bad barycentric point {p}")
                if a == A or b == B or c == C:
                    raise CurveError("curve touches a vertex")
            if seg.p0 == seg.p1:
                raise CurveError("degenerate segment")
        self.junctions = self._junctions()

    def rep_slot(self, seg):
        return self.tri.face_classes[seg.face_class][0]

    def _edge_point(self, seg, which):
        """(edge_class, class parameter, pair, slot) when the endpoint is on
        an edge, else None.  The class parameter is the weight of the head of
        the side directed as its class (``Triangulation.class_direction``)."""
        t, f = self.rep_slot(seg)
        bary = seg.p0 if which == 0 else seg.p1
        verts = FACE_VERTICES[f]
        # validation leaves at most one zero weight: two would put the point at a vertex
        zeros = [i for i, c in enumerate(bary) if c == 0]
        if not zeros:
            return None
        a, b = (verts[j] for j in range(3) if j != zeros[0])
        ec, (_, head) = self.tri.class_direction[(t, (a, b))]
        return ec, bary[verts.index(head)], (a, b), (t, f)

    def _junctions(self):
        """Per cyclic gap between segment k and k+1: either
        ("edge", edge_class, class parameter, exit data, entry data) or
        ("interior", face_class, point)."""
        out = []
        n = len(self.segments)
        for k in range(n):
            a = self.segments[k]
            b = self.segments[(k + 1) % n]
            ea = self._edge_point(a, 1)
            eb = self._edge_point(b, 0)
            if ea is not None and eb is not None:
                if ea[0] != eb[0] or ea[1] != eb[1]:
                    raise CurveError(
                        f"segments {k},{(k + 1) % n} do not meet on a common edge point")
                out.append(("edge", ea[0], ea[1], (a, ea), (b, eb)))
            elif ea is None and eb is None:
                if a.face_class != b.face_class or a.p1 != b.p0:
                    raise CurveError(
                        f"segments {k},{(k + 1) % n} do not share an interior point")
                out.append(("interior", a.face_class, a.p1))
            else:
                raise CurveError(
                    f"segments {k},{(k + 1) % n} mix edge and interior endpoints")
        return out

    @property
    def one_skeleton_hits(self):
        return sum(1 for j in self.junctions if j[0] == "edge")

    def touches_boundary(self):
        tri = self.tri
        for s in self.segments:
            if len(tri.face_classes[s.face_class]) == 1:
                return True
        for j in self.junctions:
            if j[0] == "edge" and tri.edge_classes[j[1]].boundary:
                return True
        return False

    def to_json(self):
        out = []
        for s in self.segments:
            out.append({
                "face": s.face_class,
                "p0": [str(c) for c in s.p0],
                "p1": [str(c) for c in s.p1],
            })
        return out

    @staticmethod
    def from_json(tri, data):
        """The curve ``to_json`` wrote; CurveError on any other input."""
        if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
            raise CurveError("a curve is a list of segment objects")
        segs = []
        for d in data:
            face, p0, p1 = d.get("face"), d.get("p0"), d.get("p1")
            if type(face) is not int or not 0 <= face < len(tri.face_classes):
                raise CurveError(f"no face class {face!r}")
            if not all(isinstance(p, list) and len(p) == 3 for p in (p0, p1)):
                raise CurveError("p0 and p1 must each be a list of three coordinates")
            try:
                segs.append(Segment(face, tuple(map(Fraction, p0)), tuple(map(Fraction, p1))))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
                raise CurveError(f"bad coordinate in segment {len(segs)}: {e}") from None
        return PLCurve(tri, segs)


def is_embedded(curve: PLCurve) -> bool:
    """Exact pairwise disjointness, allowing only the shared junction point
    between cyclically consecutive segments."""
    n = len(curve.segments)
    # distinct edge junctions must be distinct manifold points
    edge_pts = [(j[1], j[2]) for j in curve.junctions if j[0] == "edge"]
    if len(set(edge_pts)) != len(edge_pts):
        return False
    by_face = {}
    for idx, seg in enumerate(curve.segments):
        by_face.setdefault(seg.face_class, []).append((idx, seg.p0[1:], seg.p1[1:]))
    for fc, segs in by_face.items():
        for (i, a1, b1), (j, a2, b2) in combinations(segs, 2):
            if not segments_intersect(a1, b1, a2, b2):
                continue
            adjacent = (j - i) % n == 1 or (i - j) % n == 1
            if not adjacent or n == 1:
                return False
            shared = {a1, b1} & {a2, b2}
            if len(shared) != 1:
                return False
            # two segments that share exactly the endpoint p meet elsewhere
            # only by overlapping along a line through p.  They cannot cross
            # properly, since p lies on both; and an endpoint of one inside
            # the other is collinear with p and on the same side of it: the
            # nearer of q1, q2 lies on the segment from p to the other.
            p = shared.pop()
            q1 = b1 if a1 == p else a1
            q2 = b2 if a2 == p else a2
            if orient2(p, q1, q2) == 0 and (on_segment(p, q1, q2) or on_segment(p, q2, q1)):
                return False
    return True


def arcs_per_face(curve: PLCurve):
    """Straight arcs per face class interior (isolated edge points do not
    count), plus the maximum."""
    counts = {}
    for s in curve.segments:
        counts[s.face_class] = counts.get(s.face_class, 0) + 1
    return counts, (max(counts.values()) if counts else 0)


def face_bound_check(curve: PLCurve, bound=10):
    counts, mx = arcs_per_face(curve)
    bad = [fc for fc, c in counts.items() if c > bound]
    return {"max_arcs": mx, "bound": bound, "ok": mx <= bound, "violations": bad}


def curve_h1_class(curve: PLCurve):
    """Class of the curve in H1(M): collapse each edge junction to a run
    along the edge between the corners cut off by the face paths on its two
    sides.  Interior junctions (from subdivision) do not bend the path out
    of its face, so only edge junctions are read."""
    tri = curve.tri
    edges = [j for j in curve.junctions if j[0] == "edge"]
    chain = {}
    for k, (_, ec, _, (_, exit_data), (_, entry_data)) in enumerate(edges):
        # the path reaching this junction entered its face at junction k-1,
        # the path leaving it exits its face at junction k+1
        end_a = _cut_corner_end(tri, edges[k - 1][4][1], exit_data)
        end_b = _cut_corner_end(tri, edges[(k + 1) % len(edges)][3][1], entry_data)
        if end_a != end_b:
            chain[ec] = chain.get(ec, 0) + (1 if end_a == 0 else -1)
    return manifold_h1(tri).class_of_cycle(chain)


def _cut_corner_end(tri, other_edge_data, this_edge_data):
    """Which end (0 tail / 1 head of the side directed as its class) of this
    edge the corner shared with the face path's other side sits at."""
    _, _, pair, (t, _) = this_edge_data
    _, _, other_pair, _ = other_edge_data
    shared = set(other_pair) & set(pair)
    if len(shared) != 1:
        raise CurveError("face path does not join two distinct sides")
    return 0 if shared.pop() == tri.class_direction[(t, pair)][1][0] else 1


def algebraic_intersection(curve: PLCurve, geom: GeometrizedSurface) -> int:
    """Signed crossings of a 2-skeleton curve with a cooriented straightened
    surface: +1 when the curve passes from the surface's negative side to
    its positive side."""
    total = 0
    for seg in curve.segments:
        t, f = curve.rep_slot(seg)
        c0, c1 = seg.p0[1:], seg.p1[1:]    # chart points: drop the first weight
        for arc in geom.face_arcs(t, f):
            d0 = orient2(arc.p0, arc.p1, c0)
            d1 = orient2(arc.p0, arc.p1, c1)
            if d0 == d1 != 0:
                continue        # strictly on one side of the arc's line: disjoint
            if d0 * d1 < 0 and orient2(c0, c1, arc.p0) * orient2(c0, c1, arc.p1) < 0:
                o_cut = orient2(arc.p0, arc.p1, face_chart_point(f, {arc.cut_vertex: 1}))
                if o_cut == 0:
                    raise NonTransverseError("degenerate surface arc")
                into_cut_side = d1 == o_cut
                into_plus = into_cut_side == arc.plus_side_is_cut
                total += 1 if into_plus else -1
            elif segments_intersect(arc.p0, arc.p1, c0, c1):
                raise NonTransverseError("curve endpoint on a surface arc" if d0 == 0 or d1 == 0
                                         else "curve meets a surface arc endpoint")
    return total


# ---------------------------------------------------------------------------
# the one-crossing curve certificate (the make-61 search)
# ---------------------------------------------------------------------------

@dataclass
class CurveCertificate:
    curve: PLCurve
    kind: str                     # "pre-core" | "core"
    witness_disc: object          # MeridianDisc or None
    algebraic_pairing: int | None
    winding: int                  # homological class in H1(M) = Z
    one_skeleton_hits: int
    hit_edge_class: int | None
    max_arcs_per_face: int
    embedded: bool = True


def make_61_curve(lt, witness_disc=None) -> CurveCertificate:
    """A pre-core curve in the 2-skeleton meeting the 1-skeleton once.

    ``lt`` is a layered triangulation of the family; the curve is found by
    exhaustive search over one-segment loops in faces that carry the same
    edge class on two of their sides, certified by embeddedness, a single
    1-skeleton crossing on the least edge loop of cut 1 (``loop_cuts``; on
    T_i the one labelled (1,0)), and winding number one.  The search reads
    only ``lt.tri``, so no label or tetrahedron number picks the edge.
    The certificate kind is "core" exactly when the curve misses the
    boundary, which happens from the first layering on.
    """
    tri = lt.tri
    target_edge = next((e for e, cut in loop_cuts(tri).items() if cut == 1), None)
    geom = None
    if witness_disc is not None:
        geom = GeometrizedSurface(tri, witness_disc.surface)

    # face-class candidates, scanned lazily: the first certified one is returned
    candidates = ((fc_idx, t, f, pair1, pair2)
                  for fc_idx, ((t, f), *_) in enumerate(tri.face_classes)
                  for pair1, pair2 in combinations(
                      [pair for pair in combinations(FACE_VERTICES[f], 2)
                       if tri.class_direction[(t, pair)][0] == target_edge], 2))
    for fc_idx, t, f, pair1, pair2 in candidates:
        # class parameters k/n in lowest terms, n = 4, 3, 5, each made when tried
        for u in (Fraction(k, n) for n in (4, 3, 5) for k in range(1, n) if gcd(k, n) == 1):
            p0 = _class_point(tri, t, f, pair1, u, 0)
            p1 = _class_point(tri, t, f, pair2, u, 0)
            try:
                curve = PLCurve(tri, [Segment(fc_idx, p0, p1)])
            except CurveError:
                continue
            if curve.one_skeleton_hits != 1:
                continue
            if not is_embedded(curve):
                continue
            winding = curve_h1_class(curve)[0]
            if abs(winding) != 1:
                continue
            pairing = None
            if geom is not None:
                try:
                    pairing = algebraic_intersection(curve, geom)
                except NonTransverseError:
                    continue
                if abs(pairing) != 1:
                    continue
            counts, mx = arcs_per_face(curve)
            kind = "pre-core" if curve.touches_boundary() else "core"
            return CurveCertificate(
                curve=curve, kind=kind, witness_disc=witness_disc,
                algebraic_pairing=pairing, winding=winding,
                one_skeleton_hits=1, hit_edge_class=target_edge,
                max_arcs_per_face=mx, embedded=True,
            )
    raise CurveError("no one-crossing pre-core curve found; this is a bug")


def _class_point(tri, t, f, pair, u, depth):
    """Barycentric point of face slot (t, f) at class parameter u along its
    side ``pair`` (u is the weight of the head of the side directed as its
    class), pushed ``depth`` off that side toward the opposite corner."""
    tail, head = tri.class_direction[(t, pair)][1]
    verts = FACE_VERTICES[f]
    (n, d), (k, m) = u.as_integer_ratio(), depth.as_integer_ratio()
    bary = [Fraction(k, m)] * 3
    bary[verts.index(tail)] = Fraction((d - n) * (m - k), d * m)
    bary[verts.index(head)] = Fraction(n * (m - k), d * m)
    return tuple(bary)


# ---------------------------------------------------------------------------
# transverse push-off and the per-tetrahedron bound
# ---------------------------------------------------------------------------

# how far a pushed-off point sits off its junction edge, toward the
# opposite corner of its face
PUSH_DEPTH = Fraction(1, 16)


@dataclass
class Chord:
    tet: int
    entry: tuple        # (face, barycentric point in slot coordinates)
    exit: tuple


@dataclass
class TransverseCurve:
    tri: object
    chords: list

    def arcs_per_tet(self):
        counts = {}
        for ch in self.chords:
            counts[ch.tet] = counts.get(ch.tet, 0) + 1
        return counts, (max(counts.values()) if counts else 0)

    def endpoints_interior(self):
        for ch in self.chords:
            for f, p in (ch.entry, ch.exit):
                if any(c <= 0 for c in p):
                    return False
        return True


def tet_bound_check(tc: TransverseCurve, bound=18):
    counts, mx = tc.arcs_per_tet()
    bad = [t for t, c in counts.items() if c > bound]
    return {"max_arcs": mx, "bound": bound, "ok": mx <= bound,
            "violations": bad, "endpoints_interior": tc.endpoints_interior()}


def push_off(curve: PLCurve) -> TransverseCurve:
    """Displace a 2-skeleton curve to a curve transverse to the 2-skeleton.

    Each segment is pushed into the tetrahedron behind the first slot of its
    carrier face; around each edge junction the displaced curve runs through
    the pages of the edge's link between the two carrier slots, meeting each
    intermediate face in one interior point ``PUSH_DEPTH`` off the junction.
    The chords between consecutive face crossings are the per-tetrahedron
    arcs.
    """
    tri = curve.tri
    if any(j[0] != "edge" for j in curve.junctions):
        raise CurveError("push-off expects a curve with edge junctions only")
    # events: cyclic list of oriented face crossings:
    # (entry-side slot and point, exit-side slot and point, tet entered)
    events = []
    for _, ec, u, (_, (_, _, pair_a, slot_a)), (_, (_, _, pair_b, slot_b)) in curve.junctions:
        walk = tri.edge_walks[ec]
        sectors = walk["sectors"]
        occs = _page_occurrences(walk)
        key_a = (slot_a, tuple(sorted(pair_a)))
        key_b = (slot_b, tuple(sorted(pair_b)))
        if key_a not in occs or key_b not in occs:
            raise CurveError("carrier face is not a page of the junction edge link")
        for s_from, s_to, forward in _sector_steps(walk, occs[key_a], occs[key_b]):
            # a forward step leaves through face_out and enters through face_in
            t_from, d_from, in_from, out_from = sectors[s_from]
            t_to, d_to, in_to, out_to = sectors[s_to]
            slot_from = (t_from, out_from if forward else in_from)
            slot_to = (t_to, in_to if forward else out_to)
            pt_from = _class_point(tri, *slot_from, d_from, u, PUSH_DEPTH)
            pt_to = _class_point(tri, *slot_to, d_to, u, PUSH_DEPTH)
            events.append((slot_from, pt_from, slot_to, pt_to, t_to))

    if not events:
        raise CurveError("push-off crosses no faces; the curve sits in one tetrahedron")
    chords = []
    m = len(events)
    for i, (_, _, slot_to, pt_to, tet_after) in enumerate(events):
        nxt = events[(i + 1) % m]
        chords.append(Chord(tet_after, (slot_to[1], pt_to), (nxt[0][1], nxt[1])))
    return TransverseCurve(tri, chords)


def verify_curve_bounds(i: int) -> VerifyReport:
    """Theorems 1.1/1.2 bounds on the one-crossing curve of the i-th layered
    triangulation: at most 10 arcs in each face and, from the first
    layering on, where the curve is a core curve, at most 18 arcs in each
    tetrahedron of its push-off, whose endpoints lie inside faces."""
    curve = make_61_curve(family(i)).curve
    fb = face_bound_check(curve)
    details = {"face_bound": fb}
    ok = fb["ok"]
    if i >= 1:
        tb = tet_bound_check(push_off(curve))
        details["tet_bound"] = tb
        ok = ok and tb["ok"] and tb["endpoints_interior"]
    return VerifyReport("theorem-1.1/1.2 bounds on the 6.1(3) curve",
                        "pass" if ok else "fail", details)


def _page_occurrences(walk):
    """Map (face slot, sorted edge pair) -> the index of the sector behind
    that side of the page."""
    occs = {}
    for i, (t, d, f_in, f_out) in enumerate(walk["sectors"]):
        occs[((t, f_in), tuple(sorted(d)))] = i
        occs[((t, f_out), tuple(sorted(d)))] = i
    return occs


def _sector_steps(walk, sector_a, sector_b):
    """Steps (from sector, to sector, forward) leading from one sector of an
    edge link to another, the shorter way around for interior edges.  A
    forward step goes from a sector to the next one in the walk."""
    n = len(walk["sectors"])
    if walk["boundary"]:
        forward = sector_a <= sector_b
    else:
        forward = (sector_b - sector_a) % n <= (sector_a - sector_b) % n
    steps = []
    i = sector_a
    while i != sector_b:
        j = (i + 1 if forward else i - 1) % n
        steps.append((i, j, forward))
        i = j
    return steps


# ---------------------------------------------------------------------------
# boundary pre-core lengths (companion arithmetic to verify 61-2)
# ---------------------------------------------------------------------------

def min_boundary_precore_length(i: int):
    """Minimum 1-skeleton crossings of a boundary pre-core curve (slope
    (1, n), any integer n) on the i-th layered triangulation, with exact
    golden-ratio certificates for the lower bounds."""
    best, best_n = min_pre_core_intersection([slope_seq(i), slope_seq(i + 1),
                                              slope_seq(i + 2)])
    x = fib(i + 3)
    ok = (3 * best >= x) and at_least_golden_power(best, i - 1)
    return {
        "i": i,
        "min_length": best,
        "minimizing_n": best_n,
        "bound_third_of_x": Fraction(x, 3),
        "golden_exponent": i - 1,
        "ok": ok,
    }
