import pytest

from coretorus import (NormalVector, SearchBudget, family, fib, first_homology,
                       minimal_complexity_disc)
from coretorus.triangulation import FACE_VERTICES

_family_cache = {}
_disc_cache = {}
_homology_cache = {}


@pytest.fixture(scope="session")
def fam():
    def get(i):
        if i not in _family_cache:
            _family_cache[i] = family(i)
        return _family_cache[i]
    return get


@pytest.fixture(scope="session")
def homology_of(fam):
    def get(i):
        if i not in _homology_cache:
            _homology_cache[i] = first_homology(fam(i).tri)
        return _homology_cache[i]
    return get


@pytest.fixture(scope="session")
def minimal_disc(fam):
    """Certified minimal-complexity meridian discs, cached per family index.
    Recorded minima: fib(i+6) - 5 pieces.  The homology floor certifies
    them without enumerating; the surface is reconstructed, about 0.1 s at
    i = 14."""
    def get(i):
        if i not in _disc_cache:
            lt = fam(i)
            res = minimal_complexity_disc(lt.tri, SearchBudget(fib(i + 6) - 4))
            assert res.disc is not None and res.certified
            _disc_cache[i] = res.disc
        return _disc_cache[i]
    return get


def vertex_link(tri):
    """The vertex-linking surface: one of each normal triangle per tetrahedron."""
    return NormalVector(tuple((1, 1, 1, 1, 0, 0, 0) for _ in range(tri.tet_count)))


def side_sum_counts(bc, sums_by_bedge):
    """Per-triangle corner arc counts of the normal curve on the boundary
    complex whose arcs cross boundary edge j sums_by_bedge[j] times, in
    FACE_VERTICES order; None when a count would be negative or half an
    integer."""
    counts = []
    for i, (t, f) in enumerate(bc.triangles):
        side_sum = {bc.side_vertices(i, k): sums_by_bedge[bc.bedge_of_side[(i, k)]]
                    for k in range(3)}
        row = []
        for vtx in FACE_VERTICES[f]:
            incident = sum(side_sum[p] for p in side_sum if vtx in p)
            opposite = next(side_sum[p] for p in side_sum if vtx not in p)
            num = incident - opposite
            if num < 0 or num % 2:
                return None
            row.append(num // 2)
        counts.append(row)
    return counts
