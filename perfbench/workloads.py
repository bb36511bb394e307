"""The four benchmark workloads: inputs made from a seed, the timed units of
one pass, and the oracle that checks every verdict against recorded values.

A unit is one call chain from triangulation text (or a family index) to
checked verdicts; a pass runs every unit of the workload once.  Units return
one boolean per verdict, True when the verdict matches its recorded value.
Only the stable API is used: names exported from ``coretorus/__init__.py``,
``normal.boundary_curves_from_counts`` and ``layered.label_chain_class``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

WORKLOADS = ("disc-search", "certify", "tower", "curve-census")

# -- recorded regression values ---------------------------------------------
# admissible vectors at piece budget fib(i+6)-4, per family index
ADMISSIBLE_VECTORS = {0: 8, 1: 9, 2: 28, 3: 66}
# certified minimal meridian discs: (boundary length, weight)
CERTIFIED_MINIMA = {0: (6, 6), 1: (10, 11), 2: (16, 19)}
FACE_ARC_BOUND = 10
TET_ARC_BOUND = 18

# -- sizes --------------------------------------------------------------------
# "full" is what the command line runs; "tiny" is for the self-tests
SIZES = {
    "full": {"disc": range(4), "certify": range(3), "decades": 10,
             "census": range(5), "box": 16, "stride": 2},
    "tiny": {"disc": range(2), "certify": range(2), "decades": 2,
             "census": range(2), "box": 3, "stride": 2},
}


@dataclass
class Unit:
    name: str
    verdicts: tuple           # names of the verdicts run() returns, in order
    run: Callable[[], list]   # -> list of bools, one per verdict


@dataclass
class Workload:
    name: str
    units: list
    # admissible vectors one pass enumerates, checked in traced runs
    vectors_per_pass: int | None = None


def piece_budget(ct, i):
    """The recorded search budget fib(i+6)-4, one above the least disc."""
    return ct.SearchBudget(ct.fib(i + 6) - 4)


def family_input(ct, i):
    """Exchange text and boundary slope labels of T_i, as ``coretorus gen``
    writes them: the pass re-parses the text, so derived data starts cold."""
    lt = ct.family(i)
    labels = {e: (s.x, s.y) for e, s in lt.boundary_slopes.items()}
    return ct.serialize_tri(lt.tri), labels


def layered_from(ct, text, labels):
    tri = ct.parse_tri(text)
    slopes = {e: ct.Slope(x, y) for e, (x, y) in labels.items()}
    return ct.LayeredTriangulation(tri, slopes)


def curve_verdicts(ct, lt, i, witness=None):
    """The one-crossing curve certificate and its arc bounds."""
    cert = ct.make_61_curve(lt, witness_disc=witness)
    kind = "pre-core" if i == 0 else "core"
    ok_cert = (cert.embedded and cert.one_skeleton_hits == 1
               and cert.kind == kind and abs(cert.winding) == 1
               and (witness is None or abs(cert.algebraic_pairing) == 1))
    faces = ct.face_bound_check(cert.curve, bound=FACE_ARC_BOUND)
    tets = ct.tet_bound_check(ct.push_off(cert.curve), bound=TET_ARC_BOUND)
    ok_bounds = faces["ok"] and tets["ok"] and tets["endpoints_interior"]
    return [ok_cert, ok_bounds]


# -- disc-search ----------------------------------------------------------------

def disc_unit(ct, i, text, labels):
    def run():
        lt = layered_from(ct, text, labels)
        res = ct.find_meridian_discs(lt.tri, piece_budget(ct, i))
        least = ct.fib(i + 6) - 5
        one_disc = (not res.inconclusive and len(res.discs) == 1
                    and res.discs[0].piece_count == least)
        x = ct.fib(i + 3)
        if res.inconclusive or not res.discs:
            return [one_disc, False]
        newest = lt.class_with_label(ct.slope_seq(i + 2))
        fewest = min(d.piece_count for d in res.discs)
        bound = (fewest >= x and ct.at_least_golden_power(fewest, i + 1)
                 and all(ct.edge_weight(lt.tri, d.vector, newest) >= x
                         for d in res.discs))
        return [one_disc, bound]
    return Unit(f"T_{i}", (f"T_{i} one disc of {ct.fib(i + 6) - 5} pieces",
                           f"T_{i} theorem 6.1(1)"), run)


def build_disc_search(ct, rng, size):
    idx = list(SIZES[size]["disc"])
    units = [disc_unit(ct, i, *family_input(ct, i)) for i in idx]
    rng.shuffle(units)
    return Workload("disc-search", units,
                    sum(ADMISSIBLE_VECTORS[i] for i in idx))


# -- certify --------------------------------------------------------------------

def certify_unit(ct, i, text, labels):
    def run():
        lt = layered_from(ct, text, labels)
        res = ct.minimal_complexity_disc(lt.tri, piece_budget(ct, i))
        disc = res.disc
        if disc is None:
            return [False] * 4
        ok_min = (res.certified and not res.inconclusive
                  and disc.complexity == CERTIFIED_MINIMA[i]
                  and disc.piece_count == ct.fib(i + 6) - 5)
        claims = ct.check_claims(lt.tri, disc, minimal_disc=disc)
        ok_claims = claims.claim1 and claims.claim2 and claims.input_is_minimal is True
        return [ok_min, ok_claims] + curve_verdicts(ct, lt, i, witness=disc)
    return Unit(f"T_{i}", (f"T_{i} certified minimum {CERTIFIED_MINIMA[i]}",
                           f"T_{i} claims 1 and 2",
                           f"T_{i} one-crossing curve with witness",
                           f"T_{i} arc bounds"), run)


def build_certify(ct, rng, size):
    units = [certify_unit(ct, i, *family_input(ct, i))
             for i in SIZES[size]["certify"]]
    rng.shuffle(units)
    return Workload("certify", units)


# -- tower ----------------------------------------------------------------------

def tower_indices(rng, decades):
    """One index per decade.  Decades are paired (0,1), (2,3), ...; a pair
    draws one offset r and takes 10*d + (9 - r) in its lower decade and
    10*(d+1) + r in its upper one, so the total work of a pass hardly
    depends on the seed while every index is still drawn from it."""
    out = []
    for d in range(0, decades, 2):
        r = rng.randrange(10)
        out.append(10 * d + 9 - r)
        if d + 1 < decades:
            out.append(10 * (d + 1) + r)
    return out


def tower_unit(ct, i):
    def run():
        lt = ct.family(i)
        h = ct.first_homology(lt.tri)
        ok_h1 = (h.h1_rank == 1 and h.h1_torsion == ()
                 and h.boundary_map_kernel_slope == ct.Slope(0, 1))
        want = {ct.slope_seq(i), ct.slope_seq(i + 1), ct.slope_seq(i + 2)}
        ok_slopes = (set(lt.boundary_slopes.values()) == want
                     and all(h.boundary_edge_cuts.get(e) == s.x + s.y
                             for e, s in lt.boundary_slopes.items()))
        ok_612 = ct.verify_61_2(i).status == "pass"
        ok_precore = ct.min_boundary_precore_length(i)["ok"] is True
        return [ok_h1, ok_slopes, ok_612, ok_precore] + curve_verdicts(ct, lt, i)
    return Unit(f"T_{i}", (f"T_{i} H1 = Z, kernel slope (0,1)",
                           f"T_{i} slope recursion and cut numbers",
                           f"T_{i} theorem 6.1(2)",
                           f"T_{i} boundary pre-core length",
                           f"T_{i} one-crossing curve",
                           f"T_{i} arc bounds"), run)


def build_tower(ct, rng, size):
    units = [tower_unit(ct, i) for i in tower_indices(rng, SIZES[size]["decades"])]
    rng.shuffle(units)
    return Workload("tower", units)


# -- curve-census -----------------------------------------------------------------

def primitive_slopes(ct, box):
    out = []
    for x in range(box + 1):
        for y in range(-box, box + 1):
            if (x, y) == (0, 0) or gcd(x, y) != 1:
                continue
            s = ct.normalize_slope(x, y)
            if (s.x, s.y) == (x, y):
                out.append(s)
    return out


def corner_counts(bc, side_sums):
    """Per boundary triangle, the corner arc counts whose side sums are the
    given per-boundary-edge crossing numbers (None if not integral)."""
    counts = []
    for i, (t, f) in enumerate(bc.triangles):
        sums = {bc.side_vertices(i, k): side_sums[bc.bedge_of_side[(i, k)]]
                for k in range(3)}
        row = []
        for vtx in sorted({v for pair in sums for v in pair}):
            incident = sum(s for p, s in sums.items() if vtx in p)
            opposite = next(s for p, s in sums.items() if vtx not in p)
            if (incident - opposite) < 0 or (incident - opposite) % 2:
                return None
            row.append((incident - opposite) // 2)
        counts.append(row)
    return counts


def stratified_sample(rng, items, cost, stride):
    """One item from each run of ``stride`` consecutive items in cost order,
    so the sample's total cost hardly depends on the seed."""
    ranked = sorted(items, key=cost)
    return [rng.choice(ranked[k:k + stride]) for k in range(0, len(ranked), stride)]


def census_unit(ct, i, text, labels, sample):
    normal, layered = ct.normal, ct.layered

    def run():
        lt = layered_from(ct, text, labels)
        bc = lt.tri.boundary_complex
        out = []
        for s, counts in sample:
            curves = normal.boundary_curves_from_counts(bc, counts)
            out.append(len(curves) == 1
                       and curves[0]["length"] == ct.min_curve_length(lt.triple, s)
                       and layered.label_chain_class(lt, curves[0]["chain"]) == (1, s))
        return out
    return Unit(f"T_{i}", tuple(f"T_{i} curve of slope {s}" for s, _ in sample), run)


def build_curve_census(ct, rng, size):
    cfg = SIZES[size]
    slopes = primitive_slopes(ct, cfg["box"])
    units = []
    for i in cfg["census"]:
        text, labels = family_input(ct, i)
        lt = layered_from(ct, text, labels)
        bc = lt.tri.boundary_complex
        triple = lt.triple
        chosen = stratified_sample(rng, slopes,
                                   lambda s: (ct.min_curve_length(triple, s), s.x, s.y),
                                   cfg["stride"])
        sample = []
        for s in chosen:
            sums = {be.index: ct.intersection(s, lt.boundary_slopes[be.manifold_edge])
                    for be in bc.bedges}
            counts = corner_counts(bc, sums)
            if counts is None:
                raise ValueError(f"slope {s} on T_{i} has no integral corner counts")
            sample.append((s, counts))
        units.append(census_unit(ct, i, text, labels, sample))
    rng.shuffle(units)
    return Workload("curve-census", units)


BUILDERS = {
    "disc-search": build_disc_search,
    "certify": build_certify,
    "tower": build_tower,
    "curve-census": build_curve_census,
}


def build(name, ct, seed, size="full"):
    """The workload's units, made from the seed; the program sees only the
    generated inputs."""
    return BUILDERS[name](ct, random.Random(f"{name}:{seed}"), size)
