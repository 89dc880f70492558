"""Bound formulas, membership sets, subspace searches, summation identity."""

import gc
import hashlib
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspectra.gf2n import mk_field, xor_combine, xor_table
from kspectra.linmap import random_subspace, subspace_from_vectors
from kspectra.quadform import max_isotropic_dim, restrict
from kspectra.spectra import kloosterman_spectrum, kloosterman_zeros
from kspectra.zerospace import (
    max_mod16_subspace,
    max_subspace_in_set,
    max_zero_subspace,
    mod16_members,
    mod16_subspace_bound,
    subspace_sum_identity,
    weil_subspace_bound,
    zero_subspace_bound,
)


def test_bound_values():
    assert zero_subspace_bound(10) == 4
    assert zero_subspace_bound(15) == 7
    assert zero_subspace_bound(11) == 4
    assert mod16_subspace_bound(12) == 6
    assert mod16_subspace_bound(8) == 3
    assert mod16_subspace_bound(7) == 3
    assert weil_subspace_bound(10) == 6
    assert weil_subspace_bound(3) == 2
    for n in range(5, 25):
        assert zero_subspace_bound(n) <= weil_subspace_bound(n)
        assert zero_subspace_bound(n) <= mod16_subspace_bound(n)


def test_bound_range_errors():
    with pytest.raises(ValueError):
        zero_subspace_bound(4)
    with pytest.raises(ValueError):
        mod16_subspace_bound(4)
    with pytest.raises(ValueError):
        weil_subspace_bound(2)


def test_mod16_set_n8():
    ctx = mk_field(8)
    s = set(mod16_members(ctx).tolist())
    assert len(s) == 56
    assert 0 in s


@pytest.mark.parametrize("n", range(4, 13))
def test_mod16_set_matches_spectrum(n):
    ctx = mk_field(n)
    spec = kloosterman_spectrum(ctx)
    from_spec = set(int(v) for v in np.flatnonzero(spec.data % 16 == 0))
    assert set(mod16_members(ctx).tolist()) == from_spec


def test_search_trivial_sets():
    ctx = mk_field(3)
    rep = max_subspace_in_set(ctx, range(1, 8))
    assert rep.best_dim == 3 and rep.exhaustive
    rep0 = max_subspace_in_set(ctx, [])
    assert rep0.best_dim == 0 and rep0.best_basis.vectors == ()
    ctx6 = mk_field(6)
    rep6 = max_subspace_in_set(ctx6, range(1, 64), bound=6)
    assert rep6.best_dim == 6 and rep6.exhaustive
    rep4 = max_subspace_in_set(mk_field(4), range(1, 16), bound=0)  # met at the root
    assert (rep4.best_dim, rep4.nodes_visited) == (0, 0)


def test_zero_subspace_known_dims():
    assert max_zero_subspace(mk_field(8)).best_dim == 1
    assert max_zero_subspace(mk_field(6)).best_dim == 2
    assert max_zero_subspace(mk_field(7)).best_dim == 3


def test_zero_search_replay():
    for n in (6, 7, 8, 9, 10):
        ctx = mk_field(n)
        zeros = kloosterman_zeros(ctx)
        rep = max_subspace_in_set(ctx, zeros)
        for x in rep.best_basis.span():
            if int(x):
                assert int(x) in zeros


def test_sums_inside_the_set_are_trace_orthogonal():
    # Zeros have Tr = q = 0 (the mod-16 criterion), where q polarizes to
    # B(x, y) = Tr(xy).  So x, y and x ^ y in the set give
    # Tr(xy) = q(x ^ y) + q(x) + q(y) = 0: the search's children are already
    # trace-orthogonal to every basis vector, and no isotropy test is needed.
    for n in range(5, 17):
        ctx = mk_field(n)
        mod16 = [set(mod16_members(ctx).tolist())] if n <= 10 else []
        for S in [kloosterman_zeros(ctx)] + mod16:
            for x in S:
                for y in S:
                    if x ^ y in S:
                        assert ctx.trace(ctx.mul(x, y)) == 0, (n, x, y)


def test_mod16_sharpness_small():
    for n in (5, 6, 7, 8, 9):
        rep = max_mod16_subspace(mk_field(n))
        assert rep.best_dim == mod16_subspace_bound(n)
        members = set(mod16_members(mk_field(n)).tolist())
        for x in rep.best_basis.span():
            assert int(x) in members  # 0 is always a member


def test_node_budget_truncates():
    ctx = mk_field(10)
    zeros = kloosterman_zeros(ctx)
    rep = max_subspace_in_set(ctx, zeros, node_budget=3)
    assert not rep.exhaustive
    assert rep.nodes_visited == 3


@pytest.mark.parametrize("S", [[-1], [64], [3.7], [True], np.array([-1]), np.array([64]),
                               np.array([3.7]), np.array([True]), [2 ** 70]],
                         ids=["minus-one", "size", "float", "bool", "array-minus-one",
                              "array-size", "array-float", "array-bool", "huge"])
def test_out_of_range_member_is_refused(S):
    # -1 used to wrap round to 63, 64 raised IndexError and 3.7 was read as 3
    with pytest.raises(ValueError, match="integers in"):
        max_subspace_in_set(mk_field(6), S)


def test_nodes_deterministic():
    ctx = mk_field(9)
    zeros = kloosterman_zeros(ctx)
    a = max_subspace_in_set(ctx, zeros)
    b = max_subspace_in_set(ctx, zeros)
    assert a.nodes_visited == b.nodes_visited
    assert a.best_basis.vectors == b.best_basis.vectors


def test_subspace_sum_identity_trivial():
    ctx = mk_field(6)
    lhs, rhs = subspace_sum_identity(ctx, subspace_from_vectors(6, []))
    assert lhs == 0 and rhs == 0


def test_subspace_sum_identity_random():
    rng = np.random.default_rng(99)
    for n in range(5, 10):
        ctx = mk_field(n)
        for _ in range(40):
            dim = int(rng.integers(0, n))
            V = random_subspace(rng, n, dim)
            lhs, rhs = subspace_sum_identity(ctx, V)
            assert lhs == rhs


def test_subspace_sum_identity_single_zero():
    ctx = mk_field(8)
    z = min(kloosterman_zeros(ctx))
    V = subspace_from_vectors(8, [z])
    lhs, rhs = subspace_sum_identity(ctx, V)
    assert lhs == 0
    assert rhs == 0


def test_mod16_members_guard():
    with pytest.raises(ValueError):
        mod16_members(mk_field(3))


# (nodes_visited, best_basis) captured from the array-filter search that the
# bitset search replaced.  mod16: no bound (the paper_repro DFS); zeros:
# max_zero_subspace defaults (bound on).
MOD16_SEARCH = {
    5: (5, (0x2,)),
    6: (30, (0x2, 0x4)),
    7: (170, (0x2, 0x4, 0x10)),
    8: (307, (0x1, 0x2, 0x4)),
    9: (4005, (0x2, 0x4, 0x8, 0x10)),
    10: (19380, (0x2, 0x4, 0x8, 0x100)),
    11: (121110, (0x2, 0x4, 0x8, 0x10)),
}
ZERO_SEARCH = {
    5: (1, (0x2,)),
    6: (2, (0x2, 0x4)),
    7: (3, (0x2, 0x4, 0x10)),
    8: (16, (0x6,)),
    9: (18, (0x12,)),
    10: (120, (0x2, 0x100)),
    11: (77, (0x2, 0x9c)),
    12: (100, (0x2, 0x90)),
    13: (52, (0x2af,)),
    14: (156, (0x59, 0x149e, 0x2816)),
    15: (611, (0x2, 0x4, 0x10, 0x100)),
    16: (320, (0x7, 0x9809)),
}


@pytest.mark.parametrize("n", sorted(MOD16_SEARCH))
def test_mod16_search_pinned(n):
    ctx = mk_field(n)
    rep = max_subspace_in_set(ctx, mod16_members(ctx), label="mod16")
    assert (rep.nodes_visited, rep.best_basis.vectors) == MOD16_SEARCH[n]
    assert rep.best_dim == mod16_subspace_bound(n) and rep.exhaustive


@pytest.mark.parametrize("n", sorted(ZERO_SEARCH))
def test_zero_search_pinned(n):
    rep = max_zero_subspace(mk_field(n))
    assert (rep.nodes_visited, rep.best_basis.vectors) == ZERO_SEARCH[n]
    assert rep.exhaustive


def sweep_digest(ctx, S) -> str:
    """sha256 over (nodes_visited, best basis, exhaustive) for every node
    budget from 0 to the search's node total, then every bound from 1 to its
    maximum dimension."""
    full = max_subspace_in_set(ctx, S)
    runs = [max_subspace_in_set(ctx, S, node_budget=k) for k in range(full.nodes_visited + 1)]
    runs += [max_subspace_in_set(ctx, S, bound=b) for b in range(1, full.best_dim + 1)]
    text = "".join(f"{r.nodes_visited} {[hex(v) for v in r.best_basis.vectors]} {r.exhaustive}\n"
                   for r in runs)
    return hashlib.sha256(text.encode()).hexdigest()


# sweep_digest captured from the per-node search loop that the group-wise
# loop replaced: (set, n) -> digest
SWEEP_DIGEST = {
    ("mod16", 8): "1a1768cd4c46390bece4840edbf813b5531fc6c274793d63d9f3ffb149050f1e",
    ("mod16", 9): "fa3f004d16887e1998385ed4800b2389cc8275d417a8329aff5292ccac1f58e6",
    ("zeros", 10): "afdb505ea08f24bbe19283beb47aad2afb403796dd96803c8cbd44c5de0ca83a",
    ("zeros", 12): "d04fd40d78144086f2ef08acf47c92ff781b5edacab9e5d371b63329629d9c0c",
}


@pytest.mark.parametrize("key", sorted(SWEEP_DIGEST))
def test_budget_and_bound_sweeps_pinned(key):
    name, n = key
    ctx = mk_field(n)
    S = mod16_members(ctx) if name == "mod16" else kloosterman_zeros(ctx)
    assert sweep_digest(ctx, S) == SWEEP_DIGEST[key]


@lru_cache(maxsize=None)
def all_subspaces(n: int) -> tuple[frozenset, ...]:
    """Every subspace of F_2^n of dimension >= 1, by closing under one more vector."""
    out: list[frozenset] = []
    level = {frozenset({0})}
    while level:
        level = {V | {v ^ x for v in V} for V in level for x in range(1, 1 << n) if x not in V}
        out.extend(level)
    return tuple(out)


def dim_of(V: frozenset) -> int:
    return len(V).bit_length() - 1


@st.composite
def field_and_set(draw):
    """(ctx, S): a random subset of F_2^n joined with the span of a few vectors."""
    n = draw(st.integers(2, 6))
    bits = draw(st.integers(0, (1 << (1 << n)) - 1))
    vecs = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=n))
    S = {x for x in range(1, 1 << n) if (bits >> x) & 1}
    S |= {int(x) for x in xor_table(vecs, np.uint32)} - {0}
    return mk_field(n), S


@settings(max_examples=120, deadline=None)
@given(field_and_set(), st.data())
def test_search_matches_brute_force(cs, data):
    ctx, S = cs
    inside = [V for V in all_subspaces(ctx.n) if V - {0} <= S]
    top = max((dim_of(V) for V in inside), default=0)
    rep = max_subspace_in_set(ctx, S)
    assert rep.exhaustive and rep.nodes_visited == len(inside)
    assert rep.best_dim == top
    assert {int(x) for x in rep.best_basis.span()} - {0} <= S
    b = data.draw(st.integers(0, ctx.n))
    assert max_subspace_in_set(ctx, S, bound=b).best_dim == min(b, top)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda m: st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m)))
def test_isotropic_search_on_random_forms(isotropic_subspace, ucols):
    # f(x) = x^T U x on the whole of F_2^m, U given by its columns
    m = len(ucols)
    def f(x):
        return (x & xor_combine(ucols, x)).bit_count() & 1
    qf = restrict(mk_field(m), f, subspace_from_vectors(m, [1 << i for i in range(m)]))
    top = max_isotropic_dim(qf)
    for d in range(top + 1):
        W = isotropic_subspace(qf, d)
        assert W.dim == d and not any(f(int(x)) for x in W.span())
    zeros = {x for x in range(1 << m) if not f(x)}
    assert top == max((dim_of(V) for V in all_subspaces(m) if V <= zeros), default=0)
    assert isotropic_subspace(qf).dim == top


def test_pruned_search_releases_its_field():
    # the search's recursive closure refers to itself and holds the n LOW
    # masks, n * 2^n bits: no reference cycle may keep them or the field
    # past the call; n = 17 is the first degree whose fields mk_field does
    # not share, so the caller's reference is the only one
    ctx = mk_field(17)
    ref = weakref.ref(ctx)
    gc.collect()
    gc.disable()
    try:
        max_zero_subspace(ctx)
        del ctx
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=120, deadline=None)
@given(field_and_set(), st.data())
def test_node_budget_counts_exactly(cs, data):
    ctx, S = cs
    total = max_subspace_in_set(ctx, S).nodes_visited
    k = data.draw(st.integers(0, total + 2))
    rep = max_subspace_in_set(ctx, S, node_budget=k)
    assert rep.nodes_visited == min(k, total)
    assert rep.exhaustive == (k >= total)
