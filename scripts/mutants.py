#!/usr/bin/env python3
"""Mutation checks for the verdict paths: every mutant must be killed.

Each entry of ``MUTANTS`` is (file under src/coretorus, exact old text, new
text, test ids that must fail).  For each entry the harness copies src/ to a
temporary directory, replaces the old text, which must occur exactly once,
and runs only the named tests against the copy.  The run fails when a
mutant survives (its tests pass), when an old text no longer matches (a
refactor must update the list), when pytest ends in anything but test
failures (a missing test id, a collection error), or when a run takes more
than ``TIMEOUT_S`` seconds (a mutant can make a walk loop for ever); such a
run is reported as ``timeout`` and counts as not killed.  Two mutants run
at a time; the list takes about a minute on 2 cores.

    python scripts/mutants.py

This is not part of the Tier-1 suite.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

MUTANTS = (
    # the Smith form: no divisibility sweep; the last least pivot of the
    # scan instead of the first; the pivot loop's tie-break within a row
    # dropped; no negation of a negative pivot
    ("homology.py",
     "        bad = next((i for i in range(t + 1, m) if any(x % d for x in D[i].values())), None)\n",
     "        bad = None\n",
     ("tests/test_homology.py::test_snf_matches_the_dense_oracle",)),
    ("homology.py",
     "                if least is None or a < least or (a == least and r == i and pos[c] < j):\n",
     "                if least is None or a <= least:\n",
     ("tests/test_homology.py::test_snf_matches_the_dense_oracle",)),
    ("homology.py",
     "                if least is None or a < least or (a == least and r == i and pos[c] < j):\n",
     "                if least is None or a < least:\n",
     ("tests/test_homology.py::test_snf_matches_the_dense_oracle",)),
    # the bound on the rows holding a column: not raised by a row add, nor
    # by a row swap
    ("homology.py",
     "                Di[k] = s\n                if last[k] < i:\n                    last[k] = i\n",
     "                Di[k] = s\n",
     ("tests/test_homology.py::test_snf_matches_the_dense_oracle",)),
    ("homology.py",
     "            log.append((t, i))\n            for c in D[i]:\n                if last[c] < i:\n"
     "                    last[c] = i\n",
     "            log.append((t, i))\n",
     ("tests/test_homology.py::test_snf_matches_the_dense_oracle",)),
    ("homology.py",
     "        if row[piv] < 0:\n",
     "        if row[piv] < -1:\n",
     ("tests/test_homology.py::test_snf_matches_the_dense_oracle",)),
    # the closing two-row Euclid: the lower row winning a tie; a negative
    # pivot kept
    ("homology.py",
     "                if abs(b) < abs(a):            # the upper row wins a tie\n",
     "                if abs(b) <= abs(a):\n",
     ("tests/test_homology.py::test_snf_closing_euclid_matches_the_dense_oracle_on_fibonacci_pairs",)),
    ("homology.py",
     "                if a < 0:\n                    log.append((t,))\n                    a = -a\n",
     "",
     ("tests/test_homology.py::test_snf_closing_euclid_matches_the_dense_oracle_on_fibonacci_pairs",)),
    # the d1 d2 = 0 check on d2's rows skipping every edge
    ("homology.py",
     "            if tail != head:                           # a loop's boundary is 0\n",
     "            if False:\n",
     ("tests/test_homology.py::test_h1_group_rejects_a_non_chain_complex",)),
    # the calibration's cocycle: its potential walked leaf first; pulled
    # back without the boundary edges' signs; a tree edge's potential step
    # from its head with psi's sign flipped; no check on every edge
    ("homology.py",
     "    for w, e in h1.forest:                 # root first: e's other end is set\n",
     "    for w, e in reversed(h1.forest):\n",
     ("tests/test_homology.py::test_class_of_cycle_roundtrip_through_a_spanning_tree",)),
    ("homology.py",
     "        h1b, [be.manifold_sign * phi.get(be.manifold_edge, 0) for be in bc.bedges])\n",
     "        h1b, [phi.get(be.manifold_edge, 0) for be in bc.bedges])\n",
     ("tests/test_homology.py::test_solid_torus_homology",)),
    ("homology.py",
     "        h[w] = h[tail] + psi[e] if w == head else h[head] - psi[e]\n",
     "        h[w] = h[tail] + psi[e] if w == head else h[head] + psi[e]\n",
     ("tests/test_homology.py::test_class_of_cycle_roundtrip_through_a_spanning_tree",)),
    ("homology.py",
     "    if any(t[0] * r[0] + t[1] * r[1] != y for r, y in eqs):\n"
     "        raise ValueError(\"not a 1-cocycle\")\n",
     "",
     ("tests/test_homology.py::test_a_psi_that_is_not_a_cocycle_is_rejected",)),
    # the solid-torus verdict read off chi alone
    ("homology.py",
     "    candidate = cal is not None and tri.skeleton().euler_characteristic == 0\n",
     "    candidate = tri.skeleton().euler_characteristic == 0\n",
     ("tests/test_homology.py::test_chi_zero_without_a_calibration_is_no_candidate",)),
    # a face's d2 row read with one side of its cycle reversed
    ("homology.py",
     "_FACE_CYCLES = tuple(((a, b), (b, c), (c, a)) for a, b, c in FACE_VERTICES)\n",
     "_FACE_CYCLES = tuple(((a, b), (b, c), (a, c)) for a, b, c in FACE_VERTICES)\n",
     ("tests/test_homology.py::test_solid_torus_homology",)),
    # loop cuts off by one
    ("homology.py",
     "    return {e: abs(row.get(e, 0)) for e, (tail, head) in enumerate(h1m.ends) if tail == head}\n",
     "    return {e: abs(row.get(e, 0)) + 1 for e, (tail, head) in enumerate(h1m.ends)"
     " if tail == head}\n",
     ("tests/test_homology.py::test_loop_cuts_read_class_of_cycle",)),
    # a boundary class's walk from the greater end of its link
    ("triangulation.py",
     "                walks.append(link_walk(gluings, *min(ends)) if boundary else walk)\n",
     "                walks.append(link_walk(gluings, *max(ends)) if boundary else walk)\n",
     ("tests/test_homology.py::test_edge_classes_match_the_union_find_oracle",)),
    # a slot's reverse filed as the slot itself; a sector's directed edge
    # read reversed off the table of the twelve
    ("triangulation.py",
     "                        rev = (t2, directed[q][p])\n",
     "                        rev = (t2, directed[p][q])\n",
     ("tests/test_triangulation.py::test_edge_classes_match_the_oracle_on_random_tables",)),
    ("triangulation.py",
     "        append((t, directed[u][v], f_in, f_out))\n",
     "        append((t, directed[v][u], f_in, f_out))\n",
     ("tests/test_triangulation.py::test_edge_classes_match_the_oracle_on_random_tables",)),
    # two_colour's one-component shortcut taken for two components too;
    # vertex_classes's one-component shortcut taken for two
    ("triangulation.py",
     "    if len(consistent) == 1:\n",
     "    if len(consistent) in (1, 2):\n",
     ("tests/test_triangulation.py::test_two_colour_matches_its_oracle",)),
    ("triangulation.py",
     "        if len(components) == 1:                                      # all of them, in order\n",
     "        if len(components) in (1, 2):\n",
     ("tests/test_homology.py::test_vertex_classes_match_the_oracle_on_random_tables",)),
    # the one pass over the face slots: a face pair's orientation relation
    # without its minus sign; a corner relation that skips the gluing's
    # permutation; an involution check that asks only that the partner be
    # glued back to the slot, by any permutation (a gluing that does not
    # point back could send a link walk round a cycle that misses its start)
    ("triangulation.py",
     "                    tet_relations.append((t, t2, -sign))\n",
     "                    tet_relations.append((t, t2, sign))\n",
     ("tests/test_triangulation.py::test_one_pass_skeleton_matches_the_separate_loops",)),
    ("triangulation.py",
     "(x + a, y + perm[a], 1)",
     "(x + a, y + a, 1)",
     ("tests/test_triangulation.py::test_one_pass_skeleton_matches_the_separate_loops",)),
    ("triangulation.py",
     "                if gluings[t2][f2] != (t, inverse):\n",
     "                if gluings[t2][f2] is None or (gluings[t2][f2][0], gluings[t2][f2][1][f2])"
     " != (t, f):\n",
     ("tests/test_triangulation.py::test_broken_tables_get_the_first_slot_error",)),
    # T_i's table with the two downward gluings swapped; the slope
    # recursion stepping s_{k+1} = (x + y, y)
    ("layered.py",
     "_DOWN = ((0, 3, 1, 2), (2, 1, 3, 0))\n",
     "_DOWN = ((2, 1, 3, 0), (0, 3, 1, 2))\n",
     ("tests/test_layered.py::test_family_invariants",)),
    ("layered.py",
     "        x, y = x + y, x\n",
     "        x, y = x + y, y\n",
     ("tests/test_layered.py::test_family_carries_the_slope_pair",)),
    # Fibonacci doubling taking a set bit for a clear one
    ("slopes.py",
     "        if bit == \"1\":\n",
     "        if bit == \"0\":\n",
     ("tests/test_slopes.py::test_fib_and_lucas_follow_their_recurrences",)),
    # the arcs cutting off vertex 2 in face 1 read from the wrong quad type
    ("normal.py",
     "              ((0, 4), (), (2, 6), (3, 5)),\n",
     "              ((0, 4), (), (2, 5), (3, 5)),\n",
     ("tests/test_normal.py::test_row_counts_match_the_oracle_on_any_rows",)),
    # an edge's crossings read in a face that does not hold it
    ("normal.py",
     "        a = arcs[f]\n",
     "        a = arcs[3 - f]\n",
     ("tests/test_normal.py::test_row_counts_match_the_oracle_on_any_rows",)),
    # a vector built with two quad types in a row
    ("normal.py",
     "                    if row[4:].count(0) < 2:\n",
     "                    if row[4:].count(0) < 1:\n",
     ("tests/test_normal.py::test_a_vector_is_built_only_from_admissible_rows",)),
    # a corner stack's quad run ascending from the high side
    ("normal.py",
     "        levels = range(nq) if vtx in QUAD_MISSED[q][0] else range(nq - 1, -1, -1)\n",
     "        levels = range(nq) if vtx in QUAD_MISSED[q][1] else range(nq - 1, -1, -1)\n",
     ("tests/test_normal.py::test_crossing_position_is_the_stack_index",)),
    # a quad's coorientation flipped
    ("normal.py",
     "    return 1 if directed_edge[1] in QUAD_MISSED[a][1] else -1\n",
     "    return -1 if directed_edge[1] in QUAD_MISSED[a][1] else 1\n",
     ("tests/test_normal.py::test_coorientation_points_one_way_through_each_piece",)),
    # v*'s row of tet t read off tet t + 1's edges
    ("search.py",
     "        row = row_of_crossings([[cuts[direction[(t, (u, w))][0]] if u != w else 0\n",
     "        row = row_of_crossings([[cuts[direction[((t + 1) % tri.tet_count, (u, w))][0]]"
     " if u != w else 0\n",
     ("tests/test_search.py::test_floor_vector_is_the_closed_form_disc",)),
    # the enumeration leaving fill's closure cell full: a reference cycle
    # left for the collector
    ("search.py",
     "        dfs = fill = None\n",
     "        dfs = None\n",
     ("tests/test_search.py::test_a_disc_search_frees_its_triangulation_by_reference_counting",)),
    # a pinned quad count dropped from the enumeration plan
    ("search.py",
     "                    pins.append((ky, kw, cw - cy))\n",
     "                    pass\n",
     ("tests/test_search.py::test_enumeration_is_exhaustive_and_valid",)),
    # the piece floor counting every piece of a row on each of its faces,
    # for the row being placed and for the rows placed before it
    ("search.py",
     "            if pieces - row[f] > most:\n                most = pieces - row[f]\n",
     "            if pieces > most:\n                most = pieces\n",
     ("tests/test_search.py::test_piece_floor_is_sound_on_the_family",)),
    ("search.py",
     "    return [(max([pieces[tp] - rows[tp][f] for tp, f in placed]) if placed else 0, here)\n",
     "    return [(max([pieces[tp] for tp, f in placed]) if placed else 0, here)\n",
     ("tests/test_search.py::test_enumeration_output_is_unchanged",)),
    # a face read as glued down by label, not by placement: relabelled off
    # the glued-down order, a target is read in a row not yet placed
    ("search.py",
     "            if pos[t2] < pos[t]:\n",
     "            if t2 < t:\n",
     ("tests/test_relabel.py::test_enumeration_places_tetrahedra_glued_down_in_any_order",)),
    # the piece floor reading a face of the tetrahedron being placed
    ("search.py",
     "    return [[(tuple((tp, f) for tp, f in faces if pos[tp] < k),\n",
     "    return [[(tuple((tp, f) for tp, f in faces if pos[tp] <= k),\n",
     ("tests/test_search.py::test_piece_floor_is_sound_on_the_family",)),
    # an unpinned quad scan stopping one short of its piece slope's bound
    ("search.py",
     "                    hi = spare // slope\n",
     "                    hi = spare // slope - 1\n",
     ("tests/test_search.py::test_enumeration_matches_brute_force_on_random_tables",)),
    # 6.1(1) demanding a cut above fib(i+3), or a golden power one too high
    ("search.py",
     "    ok = degree == 1 and cut >= x and at_least_golden_power(cut, i + 1)\n",
     "    ok = degree == 1 and cut > x and at_least_golden_power(cut, i + 1)\n",
     ("tests/test_search.py::test_least_certifying_cut_passes",)),
    ("search.py",
     "    ok = degree == 1 and cut >= x and at_least_golden_power(cut, i + 1)\n",
     "    ok = degree == 1 and cut >= x and at_least_golden_power(cut, i + 2)\n",
     ("tests/test_search.py::test_least_certifying_cut_passes",)),
    # the cut filter demanding one crossing more than a loop's cut
    ("search.py",
     "        if any(edge_weight(tri, v, e) < cut for e, cut in cuts):\n",
     "        if any(edge_weight(tri, v, e) < cut + 1 for e, cut in cuts):\n",
     ("tests/test_search.py::test_cut_filter_drops_no_disc",)),
    # the cut manifold's components listed last first
    ("bundle.py",
     "    return CutComplex(surface, regions, sorted(adjacency), [members for members, _ in comps],\n",
     "    return CutComplex(surface, regions, sorted(adjacency), [m for m, _ in comps][::-1],\n",
     ("tests/test_bundle.py::test_cut_components_match_the_union_find_oracle",)),
    # reconstruct's per-class pass missing each class's last crossing
    ("normal.py",
     "        for k in range(w):\n            v_count[",
     "        for k in range(w - 1):\n            v_count[",
     ("tests/test_normal.py::test_reconstruct_matches_the_surface_oracle_on_admissible_vectors",)),
    # the tracer's arc builder numbering a corner at the bedge's head from 0
    ("normal.py",
     "                    ends.append((be, last, -1))\n",
     "                    ends.append((be, 0, 1))\n",
     ("tests/test_normal.py::test_surface_and_count_tracing_agree",)),
    # the integer orientation test with one determinant term's sign flipped,
    # and a betweenness test that excludes the interval's ends
    ("geometry.py",
     "    v = (c * A - a * C) * (g * B - b * G) * D * E - (d * B - b * D) * (e * A - a * E) * C * G\n",
     "    v = (c * A - a * C) * (g * B - b * G) * D * E + (d * B - b * D) * (e * A - a * E) * C * G\n",
     ("tests/test_geometry.py::test_integer_predicates_match_the_rational_oracle",)),
    ("geometry.py",
     "        if (k * M - m * K) * (k * N - n * K) > 0:\n",
     "        if (k * M - m * K) * (k * N - n * K) >= 0:\n",
     ("tests/test_geometry.py::test_integer_predicates_match_the_rational_oracle",)),
    # the pairing counting a curve endpoint on a surface arc as a crossing;
    # a crossing counted with the wrong sign
    ("curves.py",
     "            if d0 * d1 < 0 and orient2(c0, c1, arc.p0) * orient2(c0, c1, arc.p1) < 0:\n",
     "            if d0 * d1 <= 0 and orient2(c0, c1, arc.p0) * orient2(c0, c1, arc.p1) < 0:\n",
     ("tests/test_curves.py::test_pairing_rejects_a_curve_through_a_surface_arc",)),
    ("curves.py",
     "                into_plus = into_cut_side == arc.plus_side_is_cut\n",
     "                into_plus = into_cut_side != arc.plus_side_is_cut\n",
     ("tests/test_curves.py::test_curve_certificates_keep_their_digests",)),
    # a class point's head and tail weights swapped; a curve point whose
    # weights need not sum to 1
    ("curves.py",
     "    bary[verts.index(tail)] = Fraction((d - n) * (m - k), d * m)\n"
     "    bary[verts.index(head)] = Fraction(n * (m - k), d * m)\n",
     "    bary[verts.index(head)] = Fraction((d - n) * (m - k), d * m)\n"
     "    bary[verts.index(tail)] = Fraction(n * (m - k), d * m)\n",
     ("tests/test_curves.py::test_curve_certificates_keep_their_digests",)),
    ("curves.py",
     "                if a * B * C + b * A * C + c * A * B != A * B * C or min(a, b, c) < 0:\n",
     "                if min(a, b, c) < 0:\n",
     ("tests/test_curves.py::test_curve_validation",)),
    # an edge slab's two sheets both read at the lower crossing
    ("bundle.py",
     "                                    [facing[gap], -facing[gap + 1]])\n",
     "                                    [facing[gap], -facing[gap]])\n",
     ("tests/test_bundle.py::test_doubled_vertex_link_bundle",)),
    # the bundle's per-kind tables: f_prev and f_next swapped in the P
    # cells' cycle steps; the R cells' gap on a reversed class off by one;
    # a Q cell's page side read at the face its sector enters by
    ("bundle.py",
     "        steps.append((d, tuple(sorted(d)), 6 - sum(set(d) | set(prev_d)),\n"
     "                      6 - sum(set(d) | set(next_d)), vq, (vq, sum(d) - vq)))\n",
     "        steps.append((d, tuple(sorted(d)), 6 - sum(set(d) | set(next_d)),\n"
     "                      6 - sum(set(d) | set(prev_d)), vq, (vq, sum(d) - vq)))\n",
     ("tests/test_bundle.py::test_bundle_matches_its_oracle_on_seeded_layerings",)),
    ("bundle.py",
     "else (counts.crossings[vtx][u] - 2, -1) for u in (x, y))\n",
     "else (counts.crossings[vtx][u] - 1, -1) for u in (x, y))\n",
     ("tests/test_bundle.py::test_bundle_matches_its_oracle_on_seeded_layerings",)),
    ("bundle.py",
     "*self._q_page(t, f_out, d))\n",
     "*self._q_page(t, f_in, d))\n",
     ("tests/test_bundle.py::test_bundle_matches_its_oracle_on_seeded_layerings",)),
    # a boundary edge's d2 row with its first end's sign flipped; the
    # calibration's sign key reading the slopes' -y as y
    ("homology.py",
     "        row = {i: _along(triangles[i][1], d)}\n",
     "        row = {i: -_along(triangles[i][1], d)}\n",
     ("tests/test_homology.py::test_boundary_h1_rows_are_read_off_the_boundary_edge_ends",)),
    ("homology.py",
     "                key.append((x // g, -y // g))\n",
     "                key.append((x // g, y // g))\n",
     ("tests/test_homology.py::test_solid_torus_homology",)),
)


def run_mutant(entry):
    """'killed', 'survived', 'stale', 'timeout' or 'error: ...' for one entry."""
    file, old, new, tests = entry
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "coretorus" / file
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
        # run from the copy, so the hypothesis example database starts empty
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
                 *(str(ROOT / t) for t in tests)],
                cwd=tmp, env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main():
    t0 = time.time()
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run_mutant, MUTANTS))
    for (file, old, new, _), outcome in zip(MUTANTS, outcomes):
        label = new.strip() or f"(deleted) {old.strip()}"
        print(f"{outcome:8} {file:17} {label.splitlines()[0][:60]}")
    killed = outcomes.count("killed")
    print(f"\n{len(MUTANTS)} mutants, {killed} killed, {len(MUTANTS) - killed} not killed, "
          f"{time.time() - t0:.1f}s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
