import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from coretorus import layered, search
from coretorus.bundle import cut_along
from coretorus.homology import first_homology
from coretorus.layered import LayeredTriangulation, base_t0, family, layer
from coretorus.slopes import Slope, SlopeTriple, slope_seq
from coretorus.triangulation import Triangulation, parse_tri, serialize_tri
from skeleton_oracle import bedge_of_manifold_edge


def test_base_t0(homology_of, fam):
    lt = fam(0)
    assert lt.tri.tet_count == 1
    assert set(lt.boundary_slopes.values()) == {Slope(1, 0), Slope(1, 1), Slope(2, 1)}
    bc = lt.tri.boundary_complex
    assert bc.is_single_torus and len(bc.vertex_classes) == 1
    h = homology_of(0)
    assert h.boundary_map_kernel_slope == Slope(0, 1)
    assert first_homology(lt.tri).candidate


def test_layer_step_slopes(fam):
    lt1 = layer(fam(0), Slope(1, 0))
    assert set(lt1.boundary_slopes.values()) == {Slope(1, 1), Slope(2, 1), Slope(3, 2)}
    lt2 = layer(lt1, Slope(1, 1))
    assert set(lt2.boundary_slopes.values()) == {Slope(2, 1), Slope(3, 2), Slope(5, 3)}
    assert lt2.tri.tet_count == 3


def test_layer_requires_boundary_label(fam):
    with pytest.raises(KeyError):
        layer(fam(0), Slope(5, 3))


def test_layer_rejects_edges_it_cannot_flip():
    # a folded ball with hand-set labels on its boundary classes 1, 2, 3;
    # class 1's two slots (0,(0,2)) and (0,(0,3)) both end on face 1
    tri = parse_tri("tets 1\n0: - - 0:0132 0:0132\n")
    lt = LayeredTriangulation(tri, {1: Slope(1, 0), 2: Slope(1, 1), 3: Slope(2, 1)})
    with pytest.raises(ValueError, match="not distinct"):
        layer(lt, 1)
    with pytest.raises(ValueError, match="not a labeled boundary edge"):
        layer(lt, 0)
    # a label on the interior class 0 names no boundary edge either
    interior = LayeredTriangulation(tri, {0: Slope(1, 0), 2: Slope(1, 1), 3: Slope(2, 1)})
    with pytest.raises(ValueError, match="not a labeled boundary edge"):
        layer(interior, 0)


def seeded_layerings():
    """200 layered solid tori off the family's Farey path, each 1 to 8
    seeded layering steps from T_0."""
    for seed in range(200):
        rng = random.Random(seed)
        lt = family(0)
        for _ in range(rng.randint(1, 8)):
            lt = layer(lt, sorted(lt.boundary_slopes.values())[rng.randrange(3)])
        yield lt


def test_random_layerings_keep_their_digest():
    # seeded layerings off the family's Farey path: the tables, labels and
    # history are pinned, not only the labels' cut numbers
    records = []
    for lt in seeded_layerings():
        records.append((serialize_tri(lt.tri), list(lt.boundary_slopes.items()), lt.history))
    assert sum(len(history) for _, _, history in records) == 894
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "cdfbc649adf82801"


def test_random_layerings_have_a_floor_disc_that_cuts_a_ball():
    # v*, the vector meeting each edge loop e exactly c(e) times, exists on
    # each seeded layering, is a meridian disc, and cuts the solid torus
    # into one ball
    for lt in seeded_layerings():
        tri = lt.tri
        floor = search.floor_vector(tri)
        assert floor is not None
        disc = search._meridian_disc(tri, first_homology(tri).calibration, floor)
        assert disc is not None
        cut = cut_along(tri, disc)
        assert (cut.component_count, cut.euler_cut) == (1, 1)


def _same(direct, lt):
    assert serialize_tri(direct.tri) == serialize_tri(lt.tri)
    assert list(direct.boundary_slopes.items()) == list(lt.boundary_slopes.items())
    assert direct.history == lt.history


def test_family_matches_iterated_layering(monkeypatch):
    # the chain starts from base_t0, whose labels come from homology, and
    # takes the long way through layer's step to T_100
    iterated = [base_t0()]
    for k in range(100):
        iterated.append(layer(iterated[-1], slope_seq(k)))
    for i, lt in enumerate(iterated):
        _same(family(i), lt)

    # T_i is the same whichever indices were built before it
    shuffled = list(range(len(iterated)))
    random.Random(24).shuffle(shuffled)
    for order in (range(len(iterated) - 1, -1, -1), shuffled):
        for i in order:
            _same(family(i), iterated[i])

    # nothing a call returns or hands to Triangulation is shared with a later call
    handed = []
    init = Triangulation.__init__

    def keeping(self, gluings):
        handed.append(gluings)
        init(self, gluings)

    monkeypatch.setattr(Triangulation, "__init__", keeping)
    for i in (40, 7, 0):
        lt = family(i)
        lt.history.append((i, Slope(0, 1), Slope(1, 0)))
        lt.history[:1] = []
        lt.boundary_slopes.clear()
        for row in handed.pop():
            row[:] = [None] * 4
    for i in (40, 7, 0):
        _same(family(i), iterated[i])


def test_family_builds_only_the_base_and_the_result(monkeypatch):
    # T_i's table is written down: each call constructs T_i alone, with no
    # parse, no homology and no layering step
    built = []
    init = Triangulation.__init__

    def counting(self, gluings):
        built.append(len(gluings))
        init(self, gluings)

    def forbidden(*args, **kwargs):
        raise AssertionError("family(i) took the long way")

    monkeypatch.setattr(Triangulation, "__init__", counting)
    for name in ("parse_tri", "first_homology", "layer"):
        monkeypatch.setattr(layered, name, forbidden)
    for i in (0, 5, 60) * 2:
        built.clear()
        lt = family(i)
        assert built == [i + 1]
        assert lt.tri.tet_count == i + 1


def test_family_carries_the_slope_pair(monkeypatch):
    # the labels s_0..s_{i+2} are stepped on by s_{k+1} = (x + y, x) instead
    # of recomputed, so slope_seq is called a fixed number of times
    calls = []

    def counting(k):
        calls.append(k)
        return slope_seq(k)

    monkeypatch.setattr(layered, "slope_seq", counting)
    for i in (0, 7, 60):
        calls.clear()
        lt = family(i)
        assert len(calls) <= 8
        assert [h[1] for h in lt.history] == [slope_seq(k) for k in range(i)]


def test_dropped_triangulation_is_freed_without_the_cycle_collector():
    # nothing cached on a triangulation (edge classes, boundary complex,
    # the H1 memo and calibration) may refer back to it
    gc.disable()
    try:
        lt = family(6)
        h = first_homology(lt.tri)
        bedge_of = bedge_of_manifold_edge(lt.tri.boundary_complex)
        ref = weakref.ref(lt.tri)
        del lt
        assert ref() is None
    finally:
        gc.enable()
    # the summary keeps what it needs to answer on its own
    cal = h.calibration
    assert h.boundary_edge_cuts.keys() == cal.edge_coords.keys()
    for e in h.boundary_edge_cuts:
        assert cal.slope_of_coords(cal.coords_of_cycle({bedge_of[e]: 1}))[1] == \
            h.boundary_edge_slopes[e]


def test_family_invariants(fam, homology_of):
    for i in range(13):
        lt = fam(i)
        assert lt.tri.tet_count == i + 1
        want = {slope_seq(i), slope_seq(i + 1), slope_seq(i + 2)}
        assert set(lt.boundary_slopes.values()) == want
        bc = lt.tri.boundary_complex
        assert bc.is_single_torus and len(bc.vertex_classes) == 1
        assert first_homology(lt.tri).candidate


def test_cut_numbers_follow_labels(fam, homology_of):
    # the edge labeled (x, y) meets the meridian disc x + y times: the
    # tracked labels sit one Fibonacci step behind the true cut numbers;
    # T_1000's kernel takes Euclid about a thousand steps
    for i in (*range(8), 1000):
        lt = fam(i)
        cuts = homology_of(i).boundary_edge_cuts
        for e, lab in lt.boundary_slopes.items():
            assert cuts[e] == lab.x + lab.y


def test_backtracking_layering_returns_triple(fam):
    lt1 = layer(fam(0), slope_seq(0))
    lt2 = layer(lt1, slope_seq(3))     # flip the just-inserted edge again
    assert set(lt2.boundary_slopes.values()) == \
        {slope_seq(0), slope_seq(1), slope_seq(2)}
    assert lt2.tri.tet_count == 3
    assert first_homology(lt2.tri).candidate


def test_history_records_moves(fam):
    lt = fam(3)
    assert [h[1] for h in lt.history] == [slope_seq(0), slope_seq(1), slope_seq(2)]
    assert [h[2] for h in lt.history] == [slope_seq(3), slope_seq(4), slope_seq(5)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_random_layering_sequences_keep_labels_and_cut_numbers(fam, picks):
    # each layering removes a uniformly drawn boundary label, so sequences
    # leave the family's Farey path and flip the edge just inserted
    lt = fam(0)
    for p in picks:
        lt = layer(lt, sorted(lt.boundary_slopes.values())[p])
        SlopeTriple(lt.boundary_slopes.values())    # raises off a Farey triangle
    h = first_homology(lt.tri)
    assert h.h1_rank == 1 and not h.h1_torsion
    cuts = h.boundary_edge_cuts
    for e, lab in lt.boundary_slopes.items():
        assert cuts[e] == abs(lab.x + lab.y)
