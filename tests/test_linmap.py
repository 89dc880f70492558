"""Linear map and subspace tests."""

import numpy as np
import pytest

from kspectra.gf2n import mk_field
from kspectra.linmap import (
    LinMap,
    adjoint,
    compose,
    from_linearized,
    from_matrix_rows,
    identity_map,
    image_basis,
    kernel,
    kernel_dim,
    kernel_intersection,
    linearized_coeffs,
    map_from_json,
    map_to_json,
    orthogonal_complement,
    random_map,
    random_subspace,
    rank,
    rref,
    scalar_map,
    subspace_from_vectors,
    zero_map,
)


def test_from_linearized_frobenius():
    for n in (4, 6, 8):
        ctx = mk_field(n)
        frob = from_linearized(ctx, [0, 1])
        for a in range(ctx.size):
            assert frob(a) == ctx.sqr(a) == ctx.mul(a, a)


def test_from_linearized_identity_and_artin_schreier():
    ctx = mk_field(6)
    assert from_linearized(ctx, [1]).cols == identity_map(6).cols
    L = from_linearized(ctx, [1, 1])  # x + x^2
    assert kernel(L).vectors == (1,)


def test_apply_basics():
    ctx = mk_field(4)
    I = identity_map(4)
    Z = zero_map(4)
    frob = from_linearized(ctx, [0, 1])
    for x in range(16):
        assert I(x) == x
        assert Z(x) == 0
        assert frob(x) == ctx.mul(x, x)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_adjoint_of_frobenius_is_inverse_frobenius(n):
    ctx = mk_field(n)
    frob = from_linearized(ctx, [0, 1])
    adj = adjoint(ctx, frob)
    back = from_linearized(ctx, [0] * (n - 1) + [1])  # x^(2^(n-1))
    assert adj.cols == back.cols
    for x in range(ctx.size):
        for y in range(0, ctx.size, 5):
            assert ctx.trace(ctx.mul(ctx.sqr(x), y)) == ctx.trace(ctx.mul(x, back(y)))


def test_adjoint_identity_and_involution():
    rng = np.random.default_rng(7)
    for n in range(5, 11):
        ctx = mk_field(n)
        assert adjoint(ctx, identity_map(n)).cols == identity_map(n).cols
        for _ in range(100):
            L = random_map(rng, n)
            assert adjoint(ctx, adjoint(ctx, L)).cols == L.cols


def test_adjoint_trace_pairing_exhaustive_n5():
    ctx = mk_field(5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        L = random_map(rng, 5)
        A = adjoint(ctx, L)
        for x in range(32):
            for y in range(32):
                assert ctx.trace(ctx.mul(L(x), y)) == ctx.trace(ctx.mul(x, A(y)))


def test_kernel_and_image_basics():
    n = 6
    assert kernel(identity_map(n)).dim == 0
    assert kernel(zero_map(n)).dim == n
    assert image_basis(identity_map(n)).dim == n
    assert image_basis(zero_map(n)).dim == 0


def test_rank_nullity_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        L = random_map(rng, n)
        assert rank(L) + kernel(L).dim == n
        assert kernel_dim(L) == kernel(L).dim
        # kernel vectors really die
        for v in kernel(L).vectors:
            assert L(v) == 0


def test_orthogonal_complement():
    rng = np.random.default_rng(5)
    for n in range(5, 11):
        ctx = mk_field(n)
        whole = subspace_from_vectors(n, range(1, 1 << n))
        assert orthogonal_complement(ctx, whole).dim == 0
        zero = subspace_from_vectors(n, [])
        assert orthogonal_complement(ctx, zero).dim == n
        for _ in range(100 // (n - 4) + 5):
            V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
            W = orthogonal_complement(ctx, V)
            assert V.dim + W.dim == n
            assert orthogonal_complement(ctx, W).vectors == V.vectors
            for v in V.vectors:
                for w in W.vectors:
                    assert ctx.trace(ctx.mul(v, w)) == 0


def test_compose_add_and_adjoint_antihomomorphism():
    ctx = mk_field(6)
    rng = np.random.default_rng(13)
    for _ in range(50):
        L1 = random_map(rng, 6)
        L2 = random_map(rng, 6)
        assert compose(L1, identity_map(6)).cols == L1.cols
        total = LinMap(6, tuple(a ^ b for a, b in zip(L1.cols, L2.cols)))
        assert adjoint(ctx, total).cols == \
            tuple(a ^ b for a, b in zip(adjoint(ctx, L1).cols, adjoint(ctx, L2).cols))
        left = adjoint(ctx, compose(L1, L2))
        right = compose(adjoint(ctx, L2), adjoint(ctx, L1))
        assert left.cols == right.cols
        for x in range(64):
            assert compose(L1, L2)(x) == L1(L2(x))


def test_adjoint_dimension_lemma_sample():
    rng = np.random.default_rng(17)
    for n in range(5, 11):
        ctx = mk_field(n)
        for _ in range(100):
            L = random_map(rng, n)
            A = adjoint(ctx, L)
            assert kernel(A).dim == kernel(L).dim
            assert image_basis(A).dim == image_basis(L).dim
            # image of the adjoint is the annihilator of the kernel
            assert image_basis(A).vectors == orthogonal_complement(ctx, kernel(L)).vectors


def test_rref_canonical_unique():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = 8
        V = random_subspace(rng, n, 3)
        # random re-mixes of the basis canonicalize to the same form
        base = list(V.vectors)
        mixed = [base[0] ^ base[1], base[1], base[2] ^ base[0]]
        assert rref(mixed) == V.vectors
        span = V.span()
        assert len(set(span.tolist())) == 8
        for x in span:
            assert V.contains(int(x))
        assert not V.contains(next(v for v in range(1, 256) if int(v) not in set(span.tolist())))


def test_kernel_intersection():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = 7
        L1 = random_map(rng, n)
        L2 = random_map(rng, n)
        inter = kernel_intersection(L1, L2)
        k1 = kernel(L1).span_set()
        k2 = kernel(L2).span_set()
        assert inter.span_set() == (k1 & k2)


def test_linearized_coeffs_round_trip():
    rng = np.random.default_rng(31)
    for n in (*range(2, 13), 17, 24):  # 17 and 24 multiply by shift-and-reduce
        ctx = mk_field(n)
        for _ in range(20):
            L = random_map(rng, n)
            coeffs = linearized_coeffs(ctx, L)
            assert from_linearized(ctx, coeffs).cols == L.cols


def test_invert_map_and_scalar_map():
    ctx = mk_field(6)
    c = 0b10110
    M = scalar_map(ctx, c)
    Minv = scalar_map(ctx, ctx.inv0(c))
    for x in range(64):
        assert Minv(M(x)) == x
        assert M(x) == ctx.mul(c, x)
    assert rank(M) == 6 and rank(scalar_map(ctx, 0)) == 0


def test_json_round_trip():
    ctx = mk_field(5)
    rng = np.random.default_rng(37)
    L = random_map(rng, 5)
    obj = map_to_json(ctx, L)
    back = map_from_json(ctx, obj)
    assert back.cols == L.cols
    obj_bad = dict(obj)
    obj_bad["linearized"] = ["0x1"] + obj["linearized"][1:]
    if from_linearized(ctx, [1] + [int(c, 0) for c in obj["linearized"][1:]]).cols != L.cols:
        with pytest.raises(ValueError):
            map_from_json(ctx, obj_bad)
    with pytest.raises(ValueError):
        map_from_json(ctx, {"n": 6, "matrix_rows": ["0x0"] * 6, "linearized": None})


@pytest.mark.parametrize("obj", [
    {"n": 5},
    [1, 2],
    "0x1",
    {"n": 5, "matrix_rows": 5},
    {"n": 5, "matrix_rows": [[1]] * 5},
    {"n": 5, "matrix_rows": ["0x1"] * 5, "linearized": 5},
    {"n": 5, "matrix_rows": ["0x1"] * 5, "linearized": ["0x20"]},
    {"n": 5, "matrix_rows": ["0x1"] * 5, "linearized": [-1]},
    {"n": 5.9, "matrix_rows": [1.9, 2.2, 4.7, 8.0, 16.5]},
    {"n": 5, "matrix_rows": [1, 2, 4, 8, 16.0]},
    {"n": 5, "matrix_rows": [True, 2, 4, 8, 16]},
    {"n": 5, "matrix_rows": [1, 2, 4, 8, 16], "linearized": [1.0]},
])
def test_map_from_json_rejects_malformed_shapes(obj):
    with pytest.raises(ValueError):
        map_from_json(mk_field(5), obj)


def test_from_matrix_rows_round_trip():
    rng = np.random.default_rng(41)
    L = random_map(rng, 6)
    assert from_matrix_rows(6, L.rows).cols == L.cols
