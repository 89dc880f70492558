"""Field arithmetic tests with independent reference oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspectra import gf2n
from kspectra.gf2n import (
    FieldCtx,
    ReduciblePolynomialError,
    mk_field,
    pdeg,
    pmod,
    psquare,
    smallest_irreducible,
    xor_table,
)


def ref_mul(a: int, b: int, poly: int) -> int:
    """Reference multiply-and-reduce, independent of the library paths."""
    prod = 0
    i = 0
    bb = b
    while bb:
        if bb & 1:
            prod ^= a << i
        bb >>= 1
        i += 1
    n = pdeg(poly)
    for pos in range(prod.bit_length() - 1, n - 1, -1):
        if (prod >> pos) & 1:
            prod ^= poly << (pos - n)
    return prod


def ref_trial_division_irreducible(p: int) -> bool:
    n = pdeg(p)
    for m in range(2, 1 << (n // 2 + 1)):
        if pdeg(m) < 1:
            continue
        # long division remainder
        r = p
        while r and pdeg(r) >= pdeg(m):
            r ^= m << (pdeg(r) - pdeg(m))
        if r == 0:
            return False
    return True


def test_default_poly_n5_is_lexicographic_minimum():
    # independent enumeration oracle
    candidates = [(1 << 5) | c for c in range(1 << 5)]
    expected = next(p for p in candidates if ref_trial_division_irreducible(p))
    assert expected == 0x25
    assert mk_field(5).poly == 0x25


def test_reducible_poly_rejected_with_factor():
    with pytest.raises(ReduciblePolynomialError) as exc:
        mk_field(4, 0x15)  # x^4 + x^2 + 1 = (x^2+x+1)^2
    assert exc.value.factor is not None
    # the reported factor really divides the input
    r = 0x15
    while r and pdeg(r) >= pdeg(exc.value.factor):
        r ^= exc.value.factor << (pdeg(r) - pdeg(exc.value.factor))
    assert r == 0


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        mk_field(1)
    with pytest.raises(ValueError):
        mk_field(33)


def test_poly_wrong_degree(monkeypatch):
    with pytest.raises(ValueError):
        mk_field(4, 0x25)
    # a negative mask whose magnitude has degree n is refused as well, and
    # before is_irreducible, whose pmod never terminates on a negative operand
    monkeypatch.setattr(gf2n, "is_irreducible", None)
    for n, poly in [(2, -0x5), (3, -0x9), (4, -0x13), (5, -0x25)]:
        with pytest.raises(ValueError, match="does not have degree"):
            mk_field(n, poly)


def test_mul_examples_f16():
    ctx = mk_field(4, 0x13)  # x^4 + x + 1
    assert ctx.mul(0x2, 0x8) == 0x3  # x * x^3 = x + 1
    for a in range(16):
        assert ctx.mul(a, 0) == 0
        assert ctx.mul(a, 1) == a


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_mul_matches_reference(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(1000 + n)
    for _ in range(300):
        a = int(rng.integers(0, ctx.size))
        b = int(rng.integers(0, ctx.size))
        assert ctx.mul(a, b) == ref_mul(a, b, ctx.poly)


def test_inv0_examples():
    ctx = mk_field(4, 0x13)
    assert ctx.inv0(0) == 0
    assert ctx.inv0(1) == 1
    # exhaust all nonzero elements for the product equal to 1
    want = next(b for b in range(1, 16) if ref_mul(0x2, b, 0x13) == 1)
    assert want == 0x9  # x^3 + 1
    assert ctx.inv0(0x2) == 0x9


@pytest.mark.parametrize("n", [2, 5, 8, 11])
def test_inv0_properties(n):
    ctx = mk_field(n)
    for a in range(1, min(ctx.size, 512)):
        inv = ctx.inv0(a)
        assert ctx.mul(a, inv) == 1
        assert ctx.inv0(inv) == a


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
def test_trace_properties(n):
    ctx = mk_field(n)
    assert ctx.trace(0) == 0
    assert ctx.trace(1) == n % 2
    zeros = 0
    for a in range(ctx.size):
        ta = ctx.trace(a)
        assert ta == ctx.trace(ctx.sqr(a))  # Frobenius invariance
        zeros += ta == 0
        b = (a * 2654435761) % ctx.size
        assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)
    assert zeros == ctx.size // 2


def test_trace_against_power_sum_oracle():
    ctx = mk_field(6)
    for a in range(ctx.size):
        acc = 0
        c = a
        for _ in range(6):
            acc ^= c
            c = ctx.mul(c, c)
        assert acc in (0, 1)
        assert ctx.trace(a) == acc


def binomial_poly_pow(n: int) -> int:
    """(x+1)^n over F_2 via Pascal's rule."""
    p = 1
    for _ in range(n):
        p = (p << 1) ^ p
    return p


@pytest.mark.parametrize("n", [3, 5, 8])
def test_char_poly_trivial_cases(n):
    ctx = mk_field(n)
    assert ctx.char_poly(0) == 1 << n
    assert ctx.char_poly(1) == binomial_poly_pow(n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_char_poly_trace_coefficient(n):
    ctx = mk_field(n)
    for a in range(ctx.size):
        cp = ctx.char_poly(a)
        assert (cp >> n) & 1 == 1  # monic
        assert (cp >> (n - 1)) & 1 == ctx.trace(a)


def test_subfield_elements():
    ctx = mk_field(6)
    assert ctx.subfield_elements(6) == set(range(64))
    assert ctx.subfield_elements(1) == {0, 1}
    sub = ctx.subfield_elements(3)
    assert len(sub) == 8
    for a in sub:
        for b in sub:
            assert ctx.mul(a, b) in sub
    with pytest.raises(ValueError):
        ctx.subfield_elements(4)


def test_dual_basis_pairing():
    for n in (2, 5, 8):
        ctx = mk_field(n)
        for i, d in enumerate(ctx.gram_inv):  # row i of G^-1 is d_i
            for j in range(n):
                assert ctx.trace(ctx.mul(d, 1 << j)) == (1 if i == j else 0)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_dualenc_makes_trace_a_dot_product(n):
    ctx = mk_field(n)
    table = ctx.dualenc_table()
    for x in range(ctx.size):
        assert int(table[x]) == ctx.dualenc(x)
        for y in range(0, ctx.size, 3):
            assert ctx.trace(ctx.mul(x, y)) == (int(table[x]) & y).bit_count() & 1


@pytest.mark.parametrize("n", [4, 8, 12, 17])
def test_bulk_tables_match_scalar_ops(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    xs = rng.integers(0, ctx.size, 200).astype(np.uint32)
    ys = rng.integers(0, ctx.size, 200).astype(np.uint32)
    prod = ctx.mul_vec(xs, ys)
    for x, y, p in zip(xs, ys, prod):
        assert int(p) == ctx.mul(int(x), int(y))
    c = int(rng.integers(1, ctx.size))
    for sp in (ctx.mul_vec(c, xs), ctx.mul_vec(xs, c)):
        assert [int(p) for p in sp] == [ctx.mul(c, int(x)) for x in xs]
    inv = ctx.inverse_table()
    for x in xs:
        assert int(inv[int(x)]) == ctx.inv0(int(x))
    tr = ctx.trace_table()
    for x in xs:
        assert int(tr[int(x)]) == ctx.trace(int(x))


@pytest.mark.parametrize("n", [17, 24])
def test_mul_vec_mixed_dtypes_above_table_degree(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    wide = rng.integers(0, ctx.size, 200)  # int64
    narrow = rng.integers(0, ctx.size, 200).astype(np.uint32)
    for a, b in ((wide, narrow), (narrow, wide)):
        prod = ctx.mul_vec(a, b)
        assert [int(p) for p in prod] == [ctx.mul(int(x), int(y)) for x, y in zip(a, b)]


def test_exp_table_is_group_enumeration():
    ctx = mk_field(10)
    N1 = ctx.size - 1
    ext, log = ctx.exp_log_tables()
    exp = ext[:N1]
    assert len(set(exp.tolist())) == N1
    # sentinel layout: exp twice, then zeros, which log[0] = 2(N - 1) reaches from any log
    assert ext.shape == (4 * N1 + 1,) and log[0] == 2 * N1
    assert np.array_equal(ext[N1:2 * N1], exp) and not ext[2 * N1:].any()
    assert exp[0] == 1
    g = int(exp[1])
    assert ctx.mul(int(exp[500]), g) == int(exp[501])
    for a in (1, 5, 700, 1023):
        assert int(exp[int(log[a])]) == a


@pytest.mark.parametrize("n", [17, 24])
def test_exp_table_is_group_enumeration_sampled(n):
    # ctx.mul is shift-and-reduce above TABLE_DEGREE: it shares no code with the
    # byte-table doubling that builds each block of power_blocks
    ctx = mk_field(n)
    with pytest.raises(ValueError):
        ctx.exp_log_tables()  # 5 * 2^n entries: refused above TABLE_DEGREE
    assert "exp_log_tables" not in ctx._cache
    rng = np.random.default_rng(n)
    g = int(next(ctx.power_blocks())[1][1])
    last_fwd = last_mir = None
    for a, fwd, mir in ctx.power_blocks():
        if a == 0:
            assert fwd[0] == 1 == mir[0]
        else:  # the walk runs on across block boundaries, both ways
            assert ctx.mul(last_fwd, g) == int(fwd[0])
            assert ctx.mul(int(mir[0]), g) == last_mir
        ks = np.concatenate([np.arange(4), rng.integers(0, fwd.size - 1, 16), [fwd.size - 2]])
        for k in ks.tolist():
            assert ctx.mul(int(fwd[k]), g) == int(fwd[k + 1])
            assert ctx.mul(int(mir[k + 1]), g) == int(mir[k])
            assert ctx.mul(int(fwd[k]), int(mir[k])) == 1
        last_fwd, last_mir = int(fwd[-1]), int(mir[-1])
    assert ctx.mul(last_fwd, g) == last_mir  # g^(2^(n-1)): the two halves meet


def test_xor_and_functional_tables():
    cols = [0b001, 0b010, 0b111]
    t = xor_table(cols, np.uint32)
    assert t[0] == 0
    assert t[0b101] == (0b001 ^ 0b111)
    mask = 0b1010
    f = xor_table([(mask >> i) & 1 for i in range(4)], np.uint8)
    for m in range(16):
        assert int(f[m]) == (m & mask).bit_count() & 1


def test_frobenius_table():
    ctx = mk_field(7)
    frob = ctx.frobenius_table()
    for a in range(ctx.size):
        assert int(frob[a]) == ctx.sqr(a)


def test_cached_tables_are_read_only():
    """Every memoized accessor hands out shared objects, so its arrays must be frozen."""
    from kspectra.quadform import q_table

    ctx = mk_field(6)
    calls = [ctx._square_tables, ctx._scalar_tables, ctx._generator,
             lambda: ctx._mul_image_tables(False), lambda: ctx._mul_image_tables(True),
             ctx.exp_log_tables, ctx.inverse_table, ctx.trace_table, ctx.dualenc_table,
             ctx.frobenius_table, lambda: q_table(ctx)]
    arrays = []
    for call in calls:
        out = call()
        assert call() is out  # built once, then served from the cache
        arrays += [a for a in (out if isinstance(out, tuple) else (out,))
                   if isinstance(a, np.ndarray)]
    assert len(arrays) == 7
    assert [a.flags.writeable for a in arrays] == [False] * 7


def test_mk_field_large_n_smoke():
    ctx = mk_field(20)
    a = 0xABCDE % ctx.size
    assert ctx.mul(a, ctx.inv0(a)) == 1
    ctx26 = mk_field(26)
    b = 0x2ABCDE % ctx26.size
    assert ctx26.mul(b, ctx26.inv0(b)) == 1


def test_smallest_irreducible_known_values():
    # independently re-derived by trial division
    for n in (2, 3, 4, 8, 12):
        got = smallest_irreducible(n)
        want = next(p for p in range((1 << n), (2 << n)) if ref_trial_division_irreducible(p))
        assert got == want


# sha256 of repr((poly, trace_mask, gram, gram_inv, gram_inv)), captured from
# the per-entry definitional construction (n + n^2 traces by psquare/pmod);
# the second gram_inv stands where the dual basis, the same tuple, was hashed.
FIELD_SHA256 = {
    2: "57f172571c3c5d3eb931bfc0595f6277312a6415b2d1febd2f4e19101ebe6721",
    3: "acc790e1c1b4c0786f954224ee411a02a47bbb566a14484feec09c6d052d32c2",
    4: "3f7f623fa300617839cfa44be1436cff326f02a87667d7c09fb666ad84becda0",
    5: "9b6dfa0c8cfa89025af38c3cfc790b286f226b9a2fb3aa87736787f4fdeefc42",
    6: "772016977e618daf87c5ffbf97d841a57ab4a4ffbc80f78de79baed620cf57db",
    7: "81e8772a564d172e45944ee2279440d571c3aeb7a9e7cb5eed7be054d6d785b6",
    8: "3e8199cd042837946c3e4fbfff4adb6e3f41ae2fea01232ac6e966bf4adbeda9",
    9: "54b44e00ef288d6303575c6911e9d2b796636b9a673f4f2a91cdb7ac0429ee25",
    10: "0b4806212b5e42485e27e7f618dc9a34830f762ced315f93f90aa0de08850548",
    11: "bc69ead25e075b4b8c5a51f166ec8a899d414c059a594d2bee3100c43a61f75b",
    12: "feb54b2a6fc8ca9143ba474fa80952a1afd516fcde0e30bc871e3deb8b0c5ee0",
    13: "cbacc5826863045c30c4dbe9365e564ffa0a3363a1cb5f899cd8f971bcc92124",
    14: "6e60f5b8c0039194e842e3cc41d34477bacb27a4b13eeaa7cdfea7337f6d89a3",
    15: "c67c31d23e7dcfa283c662e318cc2deddf8db6c56e2fbc5e1220ec0f2cf1fc5a",
    16: "7da65e566e39707feb74fa8631bd394f4f86c3c64d5d426b03bcf65c3c8c8926",
    17: "99e94a257052c4106b7cd141cc26c1413f150cbe3814cfcc8e3c02c8340ee5e5",
    18: "3f50e05e88b988848c18cdb66d9ae27cc6eab5efef93bd86be7afb5d85ca90f9",
    19: "148e21072b39df91982c37421ad4e2624aab0d7892072a9514ccb3329b8adcca",
    20: "acf34060b610f7c58ab868dec3657742272040eb6cf6e4e3b77b050a9ae4d676",
    21: "ae9853b59b855f8d4cd2a722cfd892fc74eba5a499d10cc2b75a5d74b5cc4e74",
    22: "a1a5ae3a14935c82f1af12b69cbef548b2e982aa81abf48ce8c4bc19bef3c57b",
    23: "1383f4190bcd3f43d0acec75ab0c0d4482c73ce137189517a3bdf0525ac2ca24",
    24: "c2eb806fcee14204bd2dfb3c15149575c4ce530f46efcac1f621868111199ee0",
    25: "4bace06fe3f1a09a41d15180e03274f70005732f997418d96012f7647c95547f",
    26: "4d57cb53b5e3e31cf49e35ae4b2e2c048b3e87b88e8b1325580bc4b34b0ef459",
    27: "51800d4ec3ad85508393112c8b9e187e802d8ed16bd0bb6e86c6c512f611431c",
    28: "c6ecae73bff1b82553991a7fcca6ab046f5487024f6d0180212c4be6b168b663",
    29: "a6431251af4ee91054b42347d0ec245bcd1640579834a455b73cc9e04d96227b",
    30: "1613af70c5b7f288ab62dfa6a1a9e63a049c1ef0454241e5f4e59f2ce32b4bf3",
    31: "fd481d67eeca0a3ccf1dcc522ecc08792871e8735fcc6970d28baecafae70e21",
    32: "08736859d5624d06badb3365f8035ab622d72d607f8fa9fe9f07bbfe450dfecd",
}


@pytest.mark.parametrize("n", range(2, 33))
def test_mk_field_pinned(n):
    ctx = mk_field(n)
    key = repr((ctx.poly, ctx.trace_mask, ctx.gram, ctx.gram_inv, ctx.gram_inv))
    assert hashlib.sha256(key.encode()).hexdigest() == FIELD_SHA256[n]


@pytest.mark.parametrize("n", [2, 7, 13, 24, 32])
def test_gram_is_definitional_trace(n):
    ctx = mk_field(n)
    poly = ctx.poly

    def tr(a):
        acc = 0
        for _ in range(n):
            acc ^= a
            a = pmod(psquare(a), poly)
        assert acc in (0, 1)
        return acc

    h = [tr(pmod(1 << k, poly)) for k in range(2 * n - 1)]
    for i in range(n):
        assert (ctx.trace_mask >> i) & 1 == h[i]
        for j in range(n):
            assert (ctx.gram[i] >> j) & 1 == h[i + j]


def test_mk_field_checks_dual_basis(monkeypatch, fresh_fields):
    from kspectra import gf2n

    monkeypatch.setattr(gf2n, "mat_inverse_rows", lambda rows, n: tuple(1 << i for i in range(n)))
    with pytest.raises(AssertionError, match="dual basis"):
        mk_field(8)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 32), st.data())
def test_batched_traces_match_scalar_definition(n, data):
    from kspectra import gf2n

    ctx = mk_field(n)
    elems = data.draw(st.lists(st.integers(0, ctx.size - 1), min_size=1, max_size=40))

    def tr(a):  # n conjugates through ctx.sqr
        acc = 0
        for _ in range(n):
            acc ^= a
            a = ctx.sqr(a)
        return acc

    got = gf2n._traces(gf2n._square_byte_tables(n, ctx.poly), n, elems)
    assert got.tolist() == [tr(a) for a in elems]
    assert got.tolist() == [ctx.trace(a) for a in elems]


def test_mk_field_checks_square_tables(monkeypatch, fresh_fields):
    # a wrong squaring table must trip the trace checks, not yield a wrong field
    from kspectra import gf2n

    real = gf2n._square_byte_tables

    def wrong(n, poly):
        tabs = real(n, poly)
        tabs[0][1] ^= 1 << (n - 1)  # x^0 no longer squares to 1
        return tabs

    monkeypatch.setattr(gf2n, "_square_byte_tables", wrong)
    for n in (2, 8, 13, 24):
        with pytest.raises(AssertionError):
            mk_field(n)


@pytest.mark.parametrize("n", [2, 7, 13, 24, 32])
def test_sqr_matches_psquare_pmod(n):
    # sqr, frobenius_table and subfield_elements square through byte tables;
    # psquare + pmod stay as the oracle
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    for a in [0, 1, ctx.size - 1] + [int(v) for v in rng.integers(0, ctx.size, 200)]:
        assert ctx.sqr(a) == pmod(psquare(a), ctx.poly)
    if n <= 13:
        frob = ctx.frobenius_table()
        assert all(int(frob[a]) == pmod(psquare(a), ctx.poly) for a in range(ctx.size))
    bare = FieldCtx(n=n, poly=ctx.poly, trace_mask=ctx.trace_mask, gram=ctx.gram,
                    gram_inv=ctx.gram_inv)
    assert bare.sqr(ctx.size - 1) == ctx.sqr(ctx.size - 1)
