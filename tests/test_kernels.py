"""Property tests for the shared kernels: xor-combine, echelon, rank,
coordinates, constant multiplication, the power walk shared between
workers, the Walsh-Hadamard butterfly on any number of workers, the
permutation kernels (adjoint tables, sentinel-log products, first collision,
the kernel-overlap witness, the rank-and-probe fast check, the direct
route's prefix plan and its table stage) and the CSV block formatter."""

import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kspectra import gf2n, permcheck, spectra
from kspectra.gf2n import (
    elem_dtype,
    mat_inverse_rows,
    mk_field,
    nullspace_rows,
    pmod,
    pmul,
    rref,
    spans,
    xor_apply,
    xor_combine,
    xor_table,
)
from kspectra.linmap import (
    LinMap,
    adjoint,
    identity_map,
    kernel_intersection,
    random_bijective_map,
    zero_map,
)
from kspectra.permcheck import (
    PermReport,
    _adjoint_table,
    _first_collision,
    _prefix_plan,
    compose_truth_table,
    perm_direct,
    perm_spectral,
    sweep_inverse_plus_linear,
)
from kspectra.spectra import CSV_CHUNK, _csv_block, fwht_inplace, kloosterman_spectrum

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
    assert xor_combine(imgs, m) == int(xor_table(imgs, np.uint32)[m])


@PROPS
@given(st.integers(2, 12), st.data())
def test_dualenc_matches_table(n, data):
    ctx = mk_field(n)
    x = data.draw(st.integers(0, ctx.size - 1))
    assert ctx.dualenc(x) == int(ctx.dualenc_table()[x])


def _span_size(vecs):
    """len(set(span_list(vecs))) by closing a set under xor: no 2^len(vecs) list,
    and no code shared with the elimination behind rref and spans."""
    span = {0}
    for v in vecs:
        span |= {s ^ v for s in span}
    return len(span)


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
    assert _span_size(rows) == 2 ** len(rref(rows))
    assert len(basis) == n - len(rref(rows))
    assert _span_size(basis) == 2 ** len(basis) == 2 ** len(rref(basis))
    for v in basis:
        assert all((r & v).bit_count() % 2 == 0 for r in rows)


@PROPS
@given(bit_rows(max_rows=24))
def test_spans_is_full_rank(nr):
    n, vecs = nr
    assert spans(vecs, n) == (len(rref(vecs)) == n) == (_span_size(vecs) == 2 ** n)
    assert _span_size(vecs) == 2 ** len(rref(vecs))


_field = lru_cache(maxsize=None)(mk_field)


@PROPS
@given(st.sampled_from([17, 24, 31, 32]), st.data())
def test_byte_table_constant_multiply_matches_mul(n, data):
    # the byte tables of _mul_images against shift-and-reduce ctx.mul, and mul_vec
    # with the scalar on either side; n = 32 runs on uint64 elements
    ctx = _field(n)
    c = data.draw(st.integers(2, ctx.size - 1))
    xs = data.draw(st.lists(st.integers(0, ctx.size - 1), min_size=1, max_size=16))
    arr = np.array(xs, dtype=elem_dtype(n))
    want = [ctx.mul(c, x) for x in xs]
    for got in (xor_apply(ctx._mul_images(c, False), arr), ctx.mul_vec(c, arr), ctx.mul_vec(arr, c)):
        assert got.dtype == elem_dtype(n)
        assert got.tolist() == want
    # in dual-basis coordinates the same map is G*c*G^-1
    dual = ctx._mul_images(c, True)
    assert [xor_combine(dual, ctx.dualenc(x)) for x in xs] == [ctx.dualenc(ctx.mul(c, x)) for x in xs]


def _textbook_fwht(v):
    """Radix-2 butterfly building a fresh int64 array at every level."""
    w = v.astype(np.int64)
    h = 1
    while h < w.size:
        blocks = w.reshape(-1, 2, h)
        w = np.stack([blocks[:, 0] + blocks[:, 1], blocks[:, 0] - blocks[:, 1]], axis=1).ravel()
        h <<= 1
    return w


# k reaches past the butterfly's 2^18 cache block, so the blocked, transposed
# and whole-array levels all run
_signed_vectors = st.tuples(st.integers(0, 20), st.integers(0, 2**32 - 1)).map(
    lambda ks: np.random.default_rng(ks[1]).integers(-1000, 1001, 1 << ks[0]))


@settings(max_examples=30, deadline=None)
@given(_signed_vectors)
def test_fwht_int32_equals_int64(v):
    a = v.astype(np.int32)
    b = v.astype(np.int64)
    fwht_inplace(a)
    fwht_inplace(b)
    assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(_signed_vectors)
def test_fwht_twice_scales_by_the_length(v):
    w = v.copy()  # int64: the second pass sums reach 1000 * 4^k
    fwht_inplace(w)
    fwht_inplace(w)
    assert np.array_equal(w, v * v.size)


@settings(max_examples=30, deadline=None)
@given(_signed_vectors)
def test_fwht_matches_textbook_butterfly(v):
    w = v.astype(np.int32)
    fwht_inplace(w)
    assert np.array_equal(w, _textbook_fwht(v))


# +-1 int8 sources for the narrow path, k = 1..20
_sign_vectors = st.tuples(st.integers(1, 20), st.integers(0, 2**32 - 1)).map(
    lambda ks: (1 - 2 * np.random.default_rng(ks[1]).integers(0, 2, 1 << ks[0])).astype(np.int8))


@settings(max_examples=30, deadline=None)
@given(_sign_vectors, st.sampled_from([np.int32, np.int64]), st.booleans())
# all +1: after the int16 levels every entry is 2^14, the bound exactly
@example(np.ones(1 << 20, dtype=np.int8), np.int32, True)
@example(np.ones(1 << 15, dtype=np.int8), np.int32, False)
def test_fwht_of_int8_signs_equals_int64(v, dtype, aliased):
    ref = v.astype(np.int64)
    fwht_inplace(ref)
    w = np.zeros(v.size, dtype=dtype)
    if aliased:  # as in the Kloosterman spectrum: the signs in the last bytes of w
        src = w.view(np.int8)[(w.itemsize - 1) * v.size:]
        src[:] = v
    else:
        src = v.copy()
    fwht_inplace(w, src)
    assert np.array_equal(w, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 12), st.integers(1, 3), st.sampled_from(["aliased", "separate", "none"]),
       st.integers(0, 2**32 - 1), st.data())
def test_fwht_on_workers_matches_textbook_butterfly(k, workers, source, seed, data):
    # blocks, and so panels, of 2^3..2^6 entries, so 2^8..2^12 entries span
    # many of each; the transposed rows and the int16 stop shrink with the
    # block, so every group of levels runs; an aliased source checks the claims
    log_blk = data.draw(st.integers(3, 6))
    log_row = data.draw(st.integers(1, log_blk - 1))
    log_stop = data.draw(st.integers(log_row, log_blk))
    rng = np.random.default_rng(seed)
    v = rng.integers(-1000, 1001, 1 << k) if source == "none" else rng.integers(-1, 2, 1 << k)
    w = np.zeros(1 << k, dtype=np.int32)
    src = None
    if source == "aliased":
        src = w.view(np.int8)[3 << k:]
        src[:] = v
    elif source == "separate":
        src = v.astype(np.int8)
    else:
        w[:] = v
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_workers", lambda: workers)
        mp.setattr(spectra, "_FWHT_BLOCK", 1 << log_blk)
        mp.setattr(spectra, "_FWHT_ROW", 1 << log_row)
        mp.setattr(spectra, "_NARROW_STOP", 1 << log_stop)
        fwht_inplace(w, src)
    assert np.array_equal(w, _textbook_fwht(v))


def test_fwht_aliased_claims_hold_under_forced_thread_switches():
    # more workers than cores and a thread switch every microsecond: a block
    # written before every input block below it was copied would corrupt w
    rng = np.random.default_rng(27)
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_workers", lambda: 4)
            mp.setattr(spectra, "_FWHT_BLOCK", 1 << 4)
            mp.setattr(spectra, "_FWHT_ROW", 1 << 2)
            for _ in range(100):
                v = rng.integers(-1, 2, 1 << 12)
                w = np.zeros(v.size, dtype=np.int32)
                src = w.view(np.int8)[3 * v.size:]
                src[:] = v
                fwht_inplace(w, src)
                assert np.array_equal(w, _textbook_fwht(v))
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("n", range(3, 13))
def test_int8_spectrum_models_the_wraparound_of_the_int32_range(n):
    # int32 spectra at n = 31, 32 do not fit a test host, and there the
    # butterfly's partial sums wrap modulo 2^32.  With the result in int8 the
    # same scatter and butterfly wrap modulo 2^8 from n = 7 on: exact wherever
    # |K| < 128 and modulo 256 everywhere (at n = 12, K = 128 reads -128).
    # Small blocks and a low int16 stop run most levels in int8, on 3 workers
    ctx = _field(n)
    signs = np.zeros(ctx.size, dtype=np.int8)
    spectra._scatter_signs(ctx, signs)
    signs[0] = 1
    wide = _textbook_fwht(signs)
    w = signs.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_workers", lambda: 3)
        mp.setattr(spectra, "_FWHT_BLOCK", 1 << 4)
        mp.setattr(spectra, "_FWHT_ROW", 1 << 2)
        mp.setattr(spectra, "_NARROW_STOP", 1 << 3)
        fwht_inplace(w, w)  # w.view(np.int8)[(w.itemsize - 1) * w.size:] is w itself
    assert np.array_equal(wide, kloosterman_spectrum(ctx).data)
    fits = np.abs(wide) < 128
    assert np.array_equal(w[fits], wide[fits])
    assert np.array_equal(w.view(np.uint8), wide & 255)
    assert fits.all() == (n < 12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(1, 8), st.booleans())
def test_power_blocks_parts_share_the_single_walk(n, log_m, parts, dual):
    # blocks of 2^1..2^4 powers: each part gets every parts-th block from its
    # own index, and the parts together give the single walk's blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2n, "POWER_BLOCK", 1 << log_m)
        ctx = _field(n)
        m = min(1 << log_m, ctx.size // 2)
        whole = {a: (f.tolist(), r.tolist()) for a, f, r in ctx.power_blocks(dual)}
        got = {}
        for p in range(parts):
            for a, f, r in ctx.power_blocks(dual, p, parts):
                assert a // m % parts == p and a not in got
                got[a] = (f.tolist(), r.tolist())
    assert got == whole
    assert sorted(whole) == list(range(0, ctx.size // 2, m))


def test_fwht_refuses_a_bad_source():
    w = np.zeros(16, dtype=np.int32)
    with pytest.raises(ValueError, match="int8 source"):
        fwht_inplace(w, np.ones(16, dtype=np.int16))
    with pytest.raises(ValueError, match="int8 source"):
        fwht_inplace(w, np.ones(8, dtype=np.int8))


def test_fwht_refuses_a_strided_view():
    w = np.zeros(16, dtype=np.int32)
    with pytest.raises(ValueError, match="contiguous"):
        fwht_inplace(w[::2])


@st.composite
def map_pairs(draw, min_n=2, max_n=12):
    """(n, L1, L2) with uniformly drawn column masks."""
    n = draw(st.integers(min_n, max_n))
    cols = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return n, LinMap(n, tuple(draw(cols))), LinMap(n, tuple(draw(cols)))


@PROPS
@given(map_pairs())
def test_adjoint_tables_match_linmap_adjoint(nm):
    n, L1, L2 = nm
    ctx = _field(n)
    assert np.array_equal(_adjoint_table(ctx, L1), adjoint(ctx, L1).truth_table())
    assert np.array_equal(_adjoint_table(ctx, L2), adjoint(ctx, L2).truth_table())


@PROPS
@given(map_pairs(), st.data())
def test_kernel_witness_is_the_canonical_basis_head(nm, data):
    # masking both maps' columns keeps their images in a proper subspace
    # whenever bits are cleared, so the adjoint kernels then meet
    n, L1, L2 = nm
    keep = data.draw(st.integers(0, (1 << n) - 1))
    M1 = LinMap(n, tuple(c & keep for c in L1.cols))
    M2 = LinMap(n, tuple(c & keep for c in L2.cols))
    ctx = _field(n)
    inter = kernel_intersection(adjoint(ctx, M1), adjoint(ctx, M2))
    rep = perm_spectral(ctx, M1, M2)
    if inter.dim:
        assert rep.witness == ("kernel_overlap", inter.vectors[0])
    else:
        assert rep.witness is None or rep.witness[0] == "spectral_b"


@st.composite
def low_rank_pairs(draw, min_n=2, max_n=32):
    """(n, L1, L2) with every column in the span of fewer than n drawn
    vectors, so the columns do not span and the adjoint kernels meet."""
    n = draw(st.integers(min_n, max_n))
    basis = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n - 1))
    cols = st.lists(st.integers(0, (1 << len(basis)) - 1), min_size=n, max_size=n)
    return n, *(LinMap(n, tuple(xor_combine(basis, m) for m in draw(cols))) for _ in range(2))


@PROPS
@given(low_rank_pairs())
def test_kernel_overlap_needs_no_table(nm):
    n, L1, L2 = nm
    ctx = _field(n)
    want = kernel_intersection(adjoint(ctx, L1), adjoint(ctx, L2)).vectors[0]
    tracemalloc.start()
    try:
        rep = perm_spectral(ctx, L1, L2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == PermReport(False, ("kernel_overlap", want), "spectral")
    if n >= 17:  # no 2^n array: one of 2^17 single bytes is twice this bound
        assert peak < 1 << 16


def _spectral_oracle(ctx, L1, L2) -> PermReport:
    """perm_spectral from linmap.adjoint truth tables and kernel_intersection."""
    A1, A2 = adjoint(ctx, L1), adjoint(ctx, L2)
    inter = kernel_intersection(A1, A2)
    if inter.dim:
        return PermReport(False, ("kernel_overlap", inter.vectors[0]), "spectral")
    K = kloosterman_spectrum(ctx).data
    bad = K.take(ctx.mul_vec(A1.truth_table(), A2.truth_table())).nonzero()[0]
    if bad.size:
        return PermReport(False, ("spectral_b", int(bad[0])), "spectral")
    return PermReport(True, None, "spectral")


def _dict_scan(values) -> PermReport:
    """The first collision in scan order, from a Python dict of first sightings."""
    seen = {}
    for x, v in enumerate(values.tolist()):
        if v in seen:
            return PermReport(False, ("collision", seen[v], x), "direct")
        seen[v] = x
    return PermReport(True, None, "direct")


def _assert_fast_checks_match_tables(ctx, L1, L2):
    assert perm_direct(ctx, L1, L2) == _dict_scan(compose_truth_table(ctx, L1, L2))
    assert perm_spectral(ctx, L1, L2) == _spectral_oracle(ctx, L1, L2)


@pytest.mark.parametrize("n", range(2, 13))
def test_probe_stage_matches_linmap_adjoint(n):
    # every n, including n = 2 and 3 where the probes stop at b = size - 1;
    # masking every other pair's columns makes the adjoint kernels overlap
    ctx = _field(n)
    rng = np.random.default_rng(2000 + n)
    for i in range(200):
        keep = int(rng.integers(0, ctx.size)) if i % 2 else ctx.size - 1
        L1, L2 = (LinMap(n, tuple(c & keep for c in rng.integers(0, ctx.size, n).tolist()))
                  for _ in range(2))
        assert perm_spectral(ctx, L1, L2) == _spectral_oracle(ctx, L1, L2)


@lru_cache(maxsize=None)
def _sweep4_pairs():
    """The n = 4 permutations x^-1 + L(x): every probe passes on them."""
    found = sweep_inverse_plus_linear(_field(4)).permutations_found
    assert len(found) == 5
    return tuple((identity_map(4), L) for L in found)


@st.composite
def masked_pairs(draw):
    """map_pairs with both maps' columns masked: cleared bits keep the images
    in a proper subspace, so the adjoint kernels then meet."""
    n, L1, L2 = draw(map_pairs())
    keep = draw(st.integers(0, (1 << n) - 1))
    return n, *(LinMap(n, tuple(c & keep for c in L.cols)) for L in (L1, L2))


@st.composite
def structured_pairs(draw):
    """Pairs drawn as adjoints as in search_counterexample's structured mode:
    A2(x^i) = z_i / A1(x^i) for nonzero Kloosterman zeros z_i, so the basis
    probes b = x^i all pass."""
    n = draw(st.integers(2, 12))
    ctx = _field(n)
    zeros = np.flatnonzero(kloosterman_spectrum(ctx).data[1:] == 0) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a1 = rng.integers(1, ctx.size, n).tolist()
    a2 = [ctx.mul(int(rng.choice(zeros)), ctx.inv0(c)) for c in a1]
    return n, adjoint(ctx, LinMap(n, tuple(a1))), adjoint(ctx, LinMap(n, tuple(a2)))


@st.composite
def probe_passing_pairs(draw):
    """Pairs on which every PROBE_BS probe passes, so only the whole-table
    scan can reject them: one adjoint vanishes on x^0..x^3, hence on every
    probe point b < 16, and K(0) = 0."""
    n = draw(st.integers(2, 12))
    ctx = _field(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = [rng.integers(0, ctx.size, n).tolist() for _ in range(2)]
    a[draw(st.integers(0, 1))][:4] = [0] * min(n, 4)
    return n, *(adjoint(ctx, LinMap(n, tuple(c))) for c in a)


@st.composite
def line_kernel_pairs(draw):
    """(n, 0, L2) with ker L2 = {0, z}: x and x ^ z collide, so the first
    collision is at 2^h for the top bit h of z, and often past the prefix."""
    n = draw(st.integers(2, 12))
    cols = list(random_bijective_map(np.random.default_rng(draw(st.integers(0, 2**32))), n).cols)
    z = draw(st.integers(1, (1 << n) - 1))
    h = z.bit_length() - 1
    cols[h] = xor_combine(cols, z ^ (1 << h))  # L2(z) = 0; the other columns stay independent
    return n, zero_map(n), LinMap(n, tuple(cols))


@PROPS
@given(st.one_of(map_pairs(), masked_pairs(), structured_pairs(), probe_passing_pairs(),
                 line_kernel_pairs(),
                 st.sampled_from(range(5)).map(lambda i: (4, *_sweep4_pairs()[i]))))
def test_fast_checks_match_whole_tables(nm):
    n, L1, L2 = nm
    _assert_fast_checks_match_tables(_field(n), L1, L2)


@pytest.mark.parametrize("n", range(2, 21))
def test_prefix_plan_walks_to_the_inverses(n):
    # walked with L1 = L2 = identity, the plan's steps give x^-1 and x
    ctx = _field(n)
    k = min(1 << n, max(64, 1 << (n // 2 + 2)))
    plan = _prefix_plan(ctx)
    assert [x for x, *_ in plan] == list(range(1, k))
    inv, lin = [0] * k, [0] * k
    for x, p, bits, q, j in plan:
        assert p < x and q < x and list(bits) == sorted(set(bits))
        inv[x] = inv[p] ^ sum(1 << i for i in bits)
        lin[x] = lin[q] ^ 1 << j
    assert inv == ctx.inverse_table()[:k].tolist()
    assert lin == list(range(k))


@pytest.mark.parametrize("n", range(8, 15))
def test_table_stage_finds_the_collision_past_the_prefix(n):
    # L1 = 0 and L2 kills only x^(n-1), its other columns independent: the
    # points below 2^(n-1) take distinct values and 2^(n-1) repeats L2(0) = 0
    cols = list(random_bijective_map(np.random.default_rng(n), n).cols)
    cols[-1] = 0
    ctx, L1, L2 = _field(n), zero_map(n), LinMap(n, tuple(cols))
    rep = perm_direct(ctx, L1, L2)
    assert rep == PermReport(False, ("collision", 0, 1 << (n - 1)), "direct")
    assert rep.witness[2] > len(_prefix_plan(ctx))  # past the prefix
    assert rep == _dict_scan(compose_truth_table(ctx, L1, L2))


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_permutations_pass_through_the_table_stage(n, monkeypatch):
    ctx = _field(n)
    found = sweep_inverse_plus_linear(ctx).permutations_found
    tables = []
    monkeypatch.setattr(permcheck, "_first_collision",
                        lambda values: tables.append(values.size) or _first_collision(values))
    assert [perm_direct(ctx, identity_map(n), L).is_perm for L in found] == [True] * len(found)
    assert tables == [ctx.size] * len(found) and found


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32), st.one_of(st.just((1 << 17) - 1), st.integers(0, (1 << 17) - 1)))
def test_fast_checks_match_whole_tables_n17(seed, keep):
    # above TABLE_DEGREE the probes multiply by shift-and-reduce
    cols = np.random.default_rng(seed).integers(0, 1 << 17, 34).tolist()
    L1 = LinMap(17, tuple(c & keep for c in cols[:17]))
    L2 = LinMap(17, tuple(cols[17:]))
    _assert_fast_checks_match_tables(_field(17), L1, L2)


@PROPS
@given(st.sampled_from([2, 5, 10, 16]), st.data())
def test_sentinel_log_products_match_mul(n, data):
    # zeros are drawn often on purpose: they hit the log[0] sentinel
    ctx = _field(n)
    elems = st.one_of(st.just(0), st.integers(0, ctx.size - 1))
    xs = data.draw(st.lists(elems, min_size=1, max_size=40))
    ys = data.draw(st.lists(elems, min_size=len(xs), max_size=len(xs)))
    c = data.draw(elems)
    want = [pmod(pmul(x, y), ctx.poly) for x, y in zip(xs, ys)]
    a, b = np.array(xs, dtype=np.uint32), np.array(ys, dtype=np.uint32)
    assert ctx.mul_vec(a, b).tolist() == want == [ctx.mul(x, y) for x, y in zip(xs, ys)]
    want = [pmod(pmul(c, y), ctx.poly) for y in ys]
    assert ctx.mul_vec(c, b).tolist() == want == ctx.mul_vec(b, c).tolist()


@st.composite
def planted_repeats(draw):
    """Distinct values with 0-3 planted repeats; some repeat sits at the last index often."""
    size = draw(st.integers(1, 5000))
    values = np.random.default_rng(draw(st.integers(0, 2**32))).permutation(8 * size)[:size]
    for _ in range(draw(st.integers(0, 3))):
        if size < 2:
            break
        j = draw(st.one_of(st.just(size - 1), st.integers(1, size - 1)))
        values[j] = values[draw(st.integers(0, j - 1))]
    return values.astype(np.uint32)


@PROPS
@given(planted_repeats())
def test_first_collision_matches_dict_scan(values):
    assert _first_collision(values) == _dict_scan(values)


@st.composite
def csv_blocks(draw):
    """(start, values): a block start at a multiple of CSV_CHUNK below 2^32 and
    1..CSV_CHUNK int32 or int64 values, with 0, -1 and both extremes planted."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    last_start = (1 << 32) - CSV_CHUNK
    start = draw(st.one_of(st.sampled_from([0, CSV_CHUNK, last_start]),
                           st.integers(0, last_start // CSV_CHUNK).map(CSV_CHUNK.__mul__)))
    size = draw(st.one_of(st.integers(1, 300), st.integers(1, CSV_CHUNK), st.just(CSV_CHUNK)))
    bound = draw(st.sampled_from([0, 9, 10, 8192, 10**6, int(info.max)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = rng.integers(-bound, bound, size, dtype=dtype, endpoint=True)
    for v in draw(st.lists(st.sampled_from([0, -1, int(info.min), int(info.max)]), max_size=4)):
        values[draw(st.integers(0, size - 1))] = v
    return start, values


@PROPS
@given(csv_blocks())
def test_csv_block_matches_row_by_row_format(block):
    start, values = block
    rows = [f"{a:#x},{v}\n" for a, v in zip(range(start, start + values.size), values.tolist())]
    got = _csv_block(start, values)
    # assert a bool: pytest would diff two megabyte texts at every shrink step
    same = got == "".join(rows)
    assert same, next((f"row {i}: {g!r} != {w!r}" for i, (g, w)
                       in enumerate(zip(got.splitlines(True) + [""], rows)) if g != w),
                      "extra rows")
