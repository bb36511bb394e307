#!/usr/bin/env python3
"""Run every desk-scale verification and print a summary table.

Covers the layered family through a chosen index: homology and meridian
calibration (also at T_20..T_1000), the cut numbers of all edge loops
summing to the least disc weight, and the family at T_300 and T_1000 (H1,
the loop cuts and the family build each timed as the least of three fresh
builds, in milliseconds, so a 20% change shows), the exponential lower
bound on meridian discs from the newest edge's degree and cut number (also
at T_99 and T_1000), the boundary pre-core length bound, the enumerator off
the family (a two-vertex solid torus, timed), parallelity-bundle claims on
the certified minimal discs (through T_14, timed), the cut along each of
those discs (one ball), and the one-crossing
core-curve certificates with their arc bounds, each with the certified
minimal disc as witness, whose one boundary curve is a meridian of the
least length the loop cuts allow.  Everything recomputes from scratch;
expect a few seconds with the default settings.
"""
import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from coretorus import (SearchBudget, boundary_h1, enumerate_admissible, fib,
                       first_homology, make_61_curve, manifold_h1,
                       minimal_complexity_disc, parse_tri, slope_seq, verify_61_1,
                       verify_61_2, verify_claims, verify_curve_bounds)
from coretorus.bundle import cut_along
from coretorus.curves import min_boundary_precore_length
from coretorus.homology import loop_cuts
from coretorus.layered import family
from coretorus.search import minimal_meridian_length

# one tetrahedron with two faces folded together: a ball
FOLDED_BALL_TEXT = "tets 1\n0: - - 0:0132 0:0132\n"
# a solid torus whose boundary torus has two vertices
TWO_VERTEX_TEXT = ("tets 3\n0: - 1:1032 - 2:1230\n1: 0:1032 2:3102 - -\n"
                   "2: 0:3012 1:2130 2:1230 2:3012\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-disc-index", type=int, default=6,
                    help="largest family index for the disc enumeration")
    ap.add_argument("--max-claims-index", type=int, default=5)
    ap.add_argument("--max-arith-index", type=int, default=20)
    args = ap.parse_args()

    rows = []

    def row(name, status, detail):
        rows.append((name, status, detail))
        print(f"{name:34} {status:6} {detail}")

    t0 = time.time()
    for i in range(args.max_disc_index + 1):
        lt = family(i)
        h = first_homology(lt.tri)
        ok = h.h1_rank == 1 and not h.h1_torsion and str(h.boundary_map_kernel_slope) == "(0,1)"
        cuts = sorted(h.boundary_edge_cuts.values())
        row(f"homology T_{i}", "ok" if ok else "FAIL",
            f"H1=Z, meridian cuts {cuts}")

    for i in (20, 50, 99):
        lt = family(i)
        h = first_homology(lt.tri)
        ok = (h.h1_rank == 1 and not h.h1_torsion
              and str(h.boundary_map_kernel_slope) == "(0,1)"
              and all(h.boundary_edge_cuts.get(e) == s.x + s.y
                      for e, s in lt.boundary_slopes.items()))
        row(f"homology T_{i}", "ok" if ok else "FAIL",
            "H1=Z, kernel slope (0,1), cut number x + y for each label")

    for i in (300, 1000):
        h1_ms, cuts_ms = [], []
        for _ in range(3):
            lt = family(i)              # fresh, so no homology is cached on it
            start = time.perf_counter()
            manifold_h1(lt.tri)
            cuts_start = time.perf_counter()
            cuts = loop_cuts(lt.tri)
            cuts_ms.append((time.perf_counter() - cuts_start) * 1000)
            h = first_homology(lt.tri)
            h1_ms.append((time.perf_counter() - start) * 1000)
        row(f"homology T_{i} H1", "ok" if h.h1_rank == 1 and not h.h1_torsion else "FAIL",
            f"H1=Z, computed in {min(h1_ms):.1f} ms (least of 3)")
        row(f"floor weight T_{i}", "ok" if sum(cuts.values()) == fib(i + 6) - 2 else "FAIL",
            f"sum of c(e) over {len(cuts)} edge loops = fib({i + 6})-2, "
            f"loop_cuts in {min(cuts_ms):.2f} ms (least of 3)")
        row(f"homology T_{i} kernel slope",
            "ok" if str(h.boundary_map_kernel_slope) == "(0,1)" else "FAIL", "(0,1)")
        ok = all(h.boundary_edge_cuts.get(e) == s.x + s.y for e, s in lt.boundary_slopes.items())
        row(f"homology T_{i} cut numbers", "ok" if ok else "FAIL", "x + y for each label")

    bc = parse_tri(FOLDED_BALL_TEXT).boundary_complex
    h1b = boundary_h1(bc)
    ok = (len(bc.components) == 1 and bc.euler_characteristic() == 2
          and h1b.rank == 0 and not h1b.torsion)
    row("homology folded 1-tet ball", "ok" if ok else "FAIL",
        "boundary sphere, chi 2, H1(dM)=0")

    tri = parse_tri(TWO_VERTEX_TEXT)
    h, h1b = first_homology(tri), boundary_h1(tri.boundary_complex)
    ok = (h1b.rank == 2 and not h1b.torsion and h.h1_rank == 1 and not h.h1_torsion
          and str(h.boundary_map_kernel_slope) == "(0,1)")
    row("homology two-vertex solid torus", "ok" if ok else "FAIL",
        "H1(dM)=Z^2, H1=Z, kernel slope (0,1)")
    # off the layered family the enumerator scans quad counts and free
    # classes instead of forcing them; time it on every run
    start = time.time()
    vectors = enumerate_admissible(tri, SearchBudget(13))
    row("enumeration two-vertex solid torus", "ok" if len(vectors) == 18 else "FAIL",
        f"{len(vectors)} admissible vectors within 13 pieces, {time.time() - start:.2f}s")

    for i in (300, 1000):
        build_ms = []
        for _ in range(3):
            start = time.perf_counter()
            lt = family(i)
            build_ms.append((time.perf_counter() - start) * 1000)
        bc = lt.tri.boundary_complex
        ok = (lt.tri.tet_count == i + 1
              and bc.is_single_torus and len(bc.vertex_classes) == 1
              and set(lt.boundary_slopes.values())
              == {slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)})
        row(f"family T_{i}", "ok" if ok else "FAIL",
            f"{i + 1} tets, one-vertex torus boundary, labels s_{i}..s_{i + 2}, "
            f"built in {min(build_ms):.1f} ms (least of 3)")

    for i in (*range(args.max_disc_index + 1), 99, 1000):
        rep = verify_61_1(i)
        d = rep.details
        cut = str(d["newest_edge_cut"])
        row(f"theorem 6.1(1) T_{i}", rep.status,
            f"newest edge degree {d['newest_edge_degree']}, "
            f"cut {cut if len(cut) < 7 else f'of {len(cut)} digits'} >= fib({i + 3})")

    worst = None
    for i in range(args.max_arith_index + 1):
        rep = verify_61_2(i)
        if rep.status != "pass":
            worst = i
    row("theorem 6.1(2) i <= %d" % args.max_arith_index,
        "ok" if worst is None else "FAIL", "|n x - y| >= x/3 and >= phi^(i-1)")

    # the homology floor certifies each minimal disc without a search, so
    # T_14 times the bundle at scale
    claims_indices = sorted({*range(args.max_claims_index + 1), 14})
    for i in claims_indices:
        start = time.time()
        rep = verify_claims(i)
        d = rep.details
        row(f"claims 1-2 T_{i}", rep.status,
            f"minimal disc certified={d['minimal_certified']}, "
            f"{d['details']['components']} bundle component(s), {time.time() - start:.2f}s"
            if d else f"no disc within fib({i + 6})-4 pieces")

    # a meridian disc cuts the solid torus into one ball
    for i in claims_indices:
        tri = family(i).tri
        m = minimal_complexity_disc(tri, SearchBudget(fib(i + 6) - 4))
        cut = cut_along(tri, m.disc) if m.certified else None
        ok = cut is not None and (cut.component_count, cut.euler_cut) == (1, 1)
        row(f"cut T_{i}", "ok" if ok else "FAIL",
            f"certified minimal disc cuts M into {cut.component_count} component(s), "
            f"chi {cut.euler_cut}" if cut else "no certified minimal disc")

    for i in range(args.max_disc_index + 1):
        lt = family(i)
        disc = minimal_complexity_disc(lt.tri, SearchBudget(fib(i + 6) - 4)).disc
        cert = make_61_curve(lt, witness_disc=disc)
        # the arc bounds are verify curve-bounds' verdict, on the curve found
        # without a witness; at these indices the witness keeps the first curve
        bounds = verify_curve_bounds(i)
        ok = (cert.one_skeleton_hits == 1 and abs(cert.winding) == 1
              and (disc is None or abs(cert.algebraic_pairing) == 1)
              and bounds.status == "pass")
        detail = (f"kind={cert.kind}, hits={cert.one_skeleton_hits}, "
                  f"winding={cert.winding}, pairing={cert.algebraic_pairing}, "
                  f"faces<= {bounds.details['face_bound']['max_arcs']}")
        if "tet_bound" in bounds.details:
            detail += f", tets<= {bounds.details['tet_bound']['max_arcs']}"
        row(f"core-curve certificate T_{i}", "ok" if ok else "FAIL", detail)
        if disc is not None:
            # the witness's one boundary curve is a meridian of the least
            # length the loop cuts allow, 2 fib(i+4)
            (curve,) = disc.surface.boundary_curves_by_component[0]
            cal = first_homology(lt.tri).calibration
            meridian = cal.is_meridian_class(cal.coords_of_cycle(curve.chain))
            least = minimal_meridian_length(lt.tri)
            ok = meridian and curve.length == least == 2 * fib(i + 4)
            row(f"boundary curve T_{i}", "ok" if ok else "FAIL",
                f"meridian class {meridian}, length {curve.length}, least {least}")

    for i in (0, 5, 10):
        rep = min_boundary_precore_length(i)
        row(f"boundary pre-core length T_{i}",
            "ok" if rep["ok"] else "FAIL",
            f"min {rep['min_length']} at n={rep['minimizing_n']}")

    bad = [r for r in rows if r[1] not in ("ok", "pass")]
    src_lines = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))   # as wc -l
    print(f"\n{len(rows)} checks, {len(rows) - len(bad)} ok, "
          f"{len(bad)} failing, {time.time() - t0:.1f}s, src/ {src_lines} lines")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
