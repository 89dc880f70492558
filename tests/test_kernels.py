"""Property tests for the shared GF(2) kernels: xor-combine, echelon, coordinates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspectra.gf2n import mat_inverse_rows, mk_field, nullspace_rows, rref, xor_combine, xor_table
from kspectra.linmap import subspace_from_vectors

PROPS = settings(max_examples=150, deadline=None)


@st.composite
def bit_rows(draw, min_n=1, max_n=12, min_rows=0, max_rows=14):
    """(n, list of n-bit masks)."""
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=min_rows, max_size=max_rows))
    return n, rows


@PROPS
@given(bit_rows(max_rows=10), st.data())
def test_xor_combine_matches_xor_table(nr, data):
    _, imgs = nr
    m = data.draw(st.integers(0, (1 << len(imgs)) - 1))
    assert xor_combine(imgs, m) == int(xor_table(imgs)[m])


@PROPS
@given(st.integers(2, 12), st.data())
def test_dualenc_matches_table(n, data):
    ctx = mk_field(n)
    x = data.draw(st.integers(0, ctx.size - 1))
    assert ctx.dualenc(x) == int(ctx.dualenc_table()[x])


def _matmul(a, b):
    """Row-mask matrix product: row i of A*B combines the rows of B."""
    return tuple(xor_combine(b, r) for r in a)


@PROPS
@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_mat_inverse_round_trip_or_singular(rows):
    n = len(rows)
    identity = tuple(1 << i for i in range(n))
    if len(rref(rows)) < n:
        with pytest.raises(ValueError):
            mat_inverse_rows(rows, n)
        return
    inv = mat_inverse_rows(rows, n)
    assert _matmul(inv, rows) == identity
    assert _matmul(rows, inv) == identity


@PROPS
@given(bit_rows())
def test_nullspace_annihilates_rows_with_complementary_dimension(nr):
    n, rows = nr
    basis = nullspace_rows(rows, n)
    assert len(basis) == n - len(rref(rows))
    assert len(rref(basis)) == len(basis)
    for v in basis:
        assert all((r & v).bit_count() % 2 == 0 for r in rows)


@PROPS
@given(bit_rows(max_rows=8), st.data())
def test_coords_agree_with_contains(nr, data):
    n, vecs = nr
    V = subspace_from_vectors(n, vecs)
    x = data.draw(st.integers(0, (1 << n) - 1))
    if V.contains(x):
        assert xor_combine(V.vectors, V.coords(x)) == x
    else:
        with pytest.raises(ValueError):
            V.coords(x)
