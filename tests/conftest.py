import pytest

from kspectra import gf2n
from kspectra.gf2n import xor_combine
from kspectra.linmap import canonical_search, subspace_from_vectors


@pytest.fixture
def fresh_fields():
    """Empty mk_field's cache of shared small fields before and after the test,
    so that the test's mk_field calls build and verify each field from scratch."""
    gf2n._shared_field.cache_clear()
    yield
    gf2n._shared_field.cache_clear()


@pytest.fixture(scope="session")
def isotropic_subspace():
    """search(rec, d): the canonical basis of the first totally isotropic subspace of
    dimension d that canonical_search meets among the zeros of rec; d = None: the largest."""
    def search(rec, d=None):
        got, _, _ = canonical_search(rec.m, rec.eval == 0, bound=d)
        return subspace_from_vectors(rec.n, [xor_combine(rec.basis, c) for c in got])
    return search
