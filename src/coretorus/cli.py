"""Command-line entry point.

Exit codes: 0 all checks pass, 1 a verification failed, 2 invalid input,
3 inconclusive (a budget ran out or a certificate was too weak to settle it).
Reports go to stdout (JSON with --json); diagnostics go to stderr.
Integers that may exceed 64 bits are emitted as strings in JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from .bundle import bundle_prime, cut_along, parallelity_bundle, verify_claims
from .curves import (PLCurve, algebraic_intersection, curve_h1_class, face_bound_check,
                     is_embedded, make_61_curve, verify_curve_bounds)
from .geometry import GeometrizedSurface
from .homology import first_homology, manifold_h1
from .layered import family
from .normal import NormalVector
from .search import (SearchBudget, find_meridian_discs, minimal_complexity_disc,
                     verify_61_1, verify_61_2)
from .slopes import fib
from .triangulation import ParseError, TriangulationError, parse_tri, serialize_tri

EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_INCONCLUSIVE = 0, 1, 2, 3


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _encode(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if -(2 ** 53) < value < 2 ** 53 else str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if hasattr(value, "to_json"):
        return _encode(value.to_json())
    return str(value)


class Report:
    def __init__(self, argv, deterministic):
        self.data = {"command": argv, "inputs": {}, "results": {}}
        self.deterministic = deterministic
        self.start = time.monotonic()

    def add_input(self, path):
        self.data["inputs"][path] = _digest(path)

    def set(self, key, value):
        self.data["results"][key] = _encode(value)

    def emit(self, as_json):
        if not self.deterministic:
            self.data["timing"] = {"seconds": round(time.monotonic() - self.start, 3)}
        if as_json:
            print(json.dumps(self.data, sort_keys=True, indent=2))
        else:
            for k in sorted(self.data["results"]):
                print(f"{k}: {self.data['results'][k]}")


def _load_tri(path, report):
    report.add_input(path)
    with open(path) as fh:
        return parse_tri(fh.read())


def _load_disc(path, report):
    report.add_input(path)
    with open(path) as fh:
        return NormalVector.from_json(json.load(fh))


def cmd_gen(args, report):
    lt = family(args.family)
    labels = None
    if args.labels:
        labels = {e: f"slope {s}" for e, s in lt.boundary_slopes.items()}
    text = serialize_tri(lt.tri, labels)
    with open(args.out, "w") as fh:
        fh.write(text)
    report.set("family", args.family)
    report.set("tet_count", lt.tri.tet_count)
    report.set("boundary_slopes", sorted(str(s) for s in lt.boundary_slopes.values()))
    report.set("written", args.out)
    return EXIT_PASS


def cmd_validate(args, report):
    tri = _load_tri(args.infile, report)
    sk = tri.skeleton()
    report.set("tet_count", tri.tet_count)
    report.set("vertex_classes", sk.vertex_classes)
    report.set("edge_classes", sk.edge_classes)
    report.set("face_classes", sk.face_classes)
    report.set("euler_characteristic", sk.euler_characteristic)
    report.set("boundary_faces", len(tri.boundary_faces))
    report.set("valid", True)
    return EXIT_PASS


def cmd_homology(args, report):
    tri = _load_tri(args.infile, report)
    h = first_homology(tri)
    report.set("h1_rank", h.h1_rank)
    report.set("h1_torsion", list(h.h1_torsion))
    report.set("kernel_slope", str(h.boundary_map_kernel_slope)
               if h.boundary_map_kernel_slope else None)
    report.set("boundary_edge_cuts", {str(k): v for k, v in sorted(h.boundary_edge_cuts.items())})
    report.set("boundary_edge_slopes", {str(k): str(v) for k, v in sorted(h.boundary_edge_slopes.items())})
    report.set("solid_torus_candidate", h.candidate)
    return EXIT_PASS


def cmd_meridian(args, report):
    tri = _load_tri(args.infile, report)
    budget = SearchBudget(max_piece_count=args.max_pieces,
                          max_weight=args.max_weight,
                          time_limit=args.time_limit)
    res = find_meridian_discs(tri, budget)
    report.set("budget_pieces", args.max_pieces)
    report.set("discs_found", len(res.discs))
    report.set("discs", [{
        "vector": d.vector.to_json(),
        "pieces": d.piece_count,
        "boundary_length": d.boundary_length,
        "weight": d.weight,
    } for d in res.discs])
    if res.inconclusive:
        report.set("status", "inconclusive")
        return EXIT_INCONCLUSIVE
    report.set("status", "found")
    if args.out and res.discs:
        with open(args.out, "w") as fh:
            json.dump(res.discs[0].vector.to_json(), fh)
        report.set("written", args.out)
    return EXIT_PASS


def cmd_bundle(args, report):
    tri = _load_tri(args.infile, report)
    vec = _load_disc(args.disc, report)
    cut = cut_along(tri, vec)
    comps = parallelity_bundle(tri, cut.surface)
    report.set("cut_components", cut.component_count)
    report.set("cut_euler", cut.euler_cut)
    report.set("a_patches", cut.a_patch_count)
    report.set("bundle_components", [{
        "cells": len(c.cells),
        "base_euler": c.base_euler,
        "base_orientable": c.base_orientable,
        "is_product": c.is_product,
        "meets_dminus": c.meets_dminus,
        "meets_dplus": c.meets_dplus,
        "meets_a": c.meets_a,
    } for c in comps])
    report.set("bundle_prime_size", len(bundle_prime(comps)))
    return EXIT_PASS


def cmd_curve(args, report):
    if args.curve_cmd == "make-61":
        lt = family(args.i)
        witness = None
        if args.i <= 3:
            budget = SearchBudget(max_piece_count=fib(args.i + 6) - 4)
            witness = minimal_complexity_disc(lt.tri, budget).disc
        cert = make_61_curve(lt, witness_disc=witness)
        report.set("kind", cert.kind)
        report.set("one_skeleton_hits", cert.one_skeleton_hits)
        report.set("winding", cert.winding)
        report.set("pairing", cert.algebraic_pairing)
        report.set("hit_edge_class", cert.hit_edge_class)
        report.set("max_arcs_per_face", cert.max_arcs_per_face)
        report.set("embedded", cert.embedded)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(cert.curve.to_json(), fh)
            report.set("written", args.out)
        return EXIT_PASS
    # "check", the only other choice of the required curve subcommand
    tri = _load_tri(args.tri, report)
    report.add_input(args.infile)
    with open(args.infile) as fh:
        curve = PLCurve.from_json(tri, json.load(fh))
    emb = is_embedded(curve)
    report.set("embedded", emb)
    report.set("one_skeleton_hits", curve.one_skeleton_hits)
    # a winding number needs H1(M) = Z; a finite or trivial H1 has none
    winding = None
    if manifold_h1(tri).is_infinite_cyclic:
        winding = curve_h1_class(curve)[0] if curve.one_skeleton_hits else 0
    report.set("winding", winding)
    ok = emb
    if args.disc:
        vec = _load_disc(args.disc, report)
        from .normal import reconstruct
        geom = GeometrizedSurface(tri, reconstruct(tri, vec))
        pairing = algebraic_intersection(curve, geom)
        report.set("pairing", pairing)
    fb = face_bound_check(curve)
    report.set("face_bound", fb)
    ok = ok and fb["ok"]
    return EXIT_PASS if ok else EXIT_FAIL


VERIFY = {"61-1": verify_61_1, "61-2": verify_61_2,
          "claims": verify_claims, "curve-bounds": verify_curve_bounds}


def cmd_verify(args, report):
    rep = VERIFY[args.check](args.i)
    report.set("check", rep.name)
    report.set("status", rep.status)
    for k, v in rep.details.items():
        report.set(k, v)
    return {"pass": EXIT_PASS, "inconclusive": EXIT_INCONCLUSIVE}.get(rep.status, EXIT_FAIL)


def build_parser():
    p = argparse.ArgumentParser(prog="coretorus")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--deterministic", action="store_true",
                   help="byte-identical reports for identical inputs")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a layered family triangulation")
    g.add_argument("--family", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--labels", action="store_true")

    v = sub.add_parser("validate")
    v.add_argument("--in", dest="infile", required=True)

    h = sub.add_parser("homology")
    h.add_argument("--in", dest="infile", required=True)

    m = sub.add_parser("meridian")
    m.add_argument("--in", dest="infile", required=True)
    m.add_argument("--max-pieces", type=int, required=True)
    m.add_argument("--max-weight", type=int, default=None)
    m.add_argument("--time-limit", type=float, default=None)
    m.add_argument("--out", default=None)

    b = sub.add_parser("bundle")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--disc", required=True)

    c = sub.add_parser("curve")
    csub = c.add_subparsers(dest="curve_cmd", required=True)
    c61 = csub.add_parser("make-61")
    c61.add_argument("--i", type=int, required=True)
    c61.add_argument("--out", default=None)
    cchk = csub.add_parser("check")
    cchk.add_argument("--in", dest="infile", required=True)
    cchk.add_argument("--tri", required=True)
    cchk.add_argument("--disc", default=None)

    w = sub.add_parser("verify")
    w.add_argument("check", choices=list(VERIFY))
    w.add_argument("--i", type=int, required=True)

    return p


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(argv, args.deterministic)
    handlers = {
        "gen": cmd_gen, "validate": cmd_validate, "homology": cmd_homology,
        "meridian": cmd_meridian, "bundle": cmd_bundle, "curve": cmd_curve,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.cmd](args, report)
    except (ParseError, TriangulationError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        report.set("error", str(e))
        report.emit(args.json)
        return EXIT_INVALID
    report.emit(args.json)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
