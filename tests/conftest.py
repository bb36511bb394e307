import pytest

from coretorus import SearchBudget, family, fib, first_homology, minimal_complexity_disc

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
    Recorded minima: fib(i+6) - 5 pieces.  Certification re-enumerates under
    a weight budget: well under a second for i <= 5, a few seconds at i = 6."""
    def get(i):
        if i not in _disc_cache:
            lt = fam(i)
            res = minimal_complexity_disc(lt.tri, SearchBudget(fib(i + 6) - 4))
            assert res.disc is not None and res.certified
            _disc_cache[i] = res.disc
        return _disc_cache[i]
    return get


_witness_cache = {}


@pytest.fixture(scope="session")
def witness_disc(fam, minimal_disc):
    """A meridian disc usable as a pairing witness: the certified minimal one
    where that is cheap, otherwise the least disc found within the recorded
    piece budget."""
    def get(i):
        if i <= 4:
            return minimal_disc(i)
        if i not in _witness_cache:
            from coretorus import find_meridian_discs
            lt = fam(i)
            res = find_meridian_discs(lt.tri, SearchBudget(fib(i + 6) - 4))
            assert res.discs
            _witness_cache[i] = res.discs[0]
        return _witness_cache[i]
    return get
