import pytest

from kspectra import gf2n


@pytest.fixture
def fresh_fields():
    """Empty mk_field's cache of shared small fields before and after the test,
    so that the test's mk_field calls build and verify each field from scratch."""
    gf2n._shared_field.cache_clear()
    yield
    gf2n._shared_field.cache_clear()
