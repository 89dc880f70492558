"""Pinned permutation verdicts and searches.

The hashes below were captured from the pair-by-pair routes (truth tables
through linmap.adjoint, kernel_intersection and a full argsort scan).  Any
faster route must reproduce every verdict, witness and method exactly.
"""

import hashlib

import numpy as np
import pytest

from kspectra import permcheck
from kspectra.gf2n import FieldCtx, mk_field
from kspectra.linmap import LinMap, adjoint, identity_map, random_map, zero_map
from kspectra.permcheck import (
    perm_direct,
    perm_spectral,
    search_counterexample,
    sweep_inverse_plus_linear,
)

PAIRS_PER_N = 2000

# sha256 of repr([(direct report fields, spectral report fields), ...]) over
# PAIRS_PER_N pairs of random_map(default_rng(1000 + n), n)
REPORT_SHA256 = {
    4: "a7202c2a1ead070f7335d8dcfcbc2347f380cd8811c32bc782a64745806342bd",
    5: "8cc8aacfbad63282c0a0f2ad752e295bccbbc3d01ecfe54e0c6ce9b8cf1ed7c7",
    6: "eebe0251ef85d50c66367361fdd2fe3aaa143f5f1a8e66f1dd034feb8e067ab3",
    7: "146bc3405ce3830639a3aef8513d0f6bf595f4ad48d24fc19673b9912c15cab6",
    8: "4ec717450cf885910d6b34364afbbec8ae78515e04b76550de9305254a19d167",
    9: "098e970276dcdbb3793086722f0dcbf22dc1325f67fa0a9df0c9d2823d3b5f02",
    10: "dbce250dd79b39b5b1869fa4236839fefa1de141bbc3263bb63e468c96e92d86",
}


def _fields(rep):
    return (rep.is_perm, rep.witness, rep.method)


def report_digest(n: int) -> str:
    ctx = mk_field(n)
    rng = np.random.default_rng(1000 + n)
    out = []
    for _ in range(PAIRS_PER_N):
        L1, L2 = random_map(rng, n), random_map(rng, n)
        out.append((_fields(perm_direct(ctx, L1, L2)), _fields(perm_spectral(ctx, L1, L2))))
    return hashlib.sha256(repr(out).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(REPORT_SHA256))
def test_perm_reports_pinned(n):
    assert report_digest(n) == REPORT_SHA256[n]


def test_collision_witness_pinned():
    ctx = mk_field(5)
    assert _fields(perm_direct(ctx, identity_map(5), identity_map(5))) == \
        (False, ("collision", 0, 1), "direct")
    assert _fields(perm_direct(ctx, zero_map(5), zero_map(5))) == \
        (False, ("collision", 0, 1), "direct")


def test_spectral_witness_pinned():
    ctx = mk_field(5)
    assert _fields(perm_spectral(ctx, identity_map(5), identity_map(5))) == \
        (False, ("spectral_b", 1), "spectral")


def _killing(ctx, v: int, rng) -> LinMap:
    """A random map R*P with P(x) = x + parity(x & f)*v and parity(v & f) = 1, so P(v) = 0."""
    n = ctx.n
    f = 1 << (v.bit_length() - 1)
    cols = [(1 << i) ^ (v if (f >> i) & 1 else 0) for i in range(n)]
    R = random_map(rng, n)
    return LinMap(n, tuple(R(c) for c in cols))


@pytest.mark.parametrize("n,v", [(5, 0b10110), (7, 0b1011001), (10, 0b1100000110)])
def test_kernel_overlap_witness_pinned(n, v):
    # adjoint is an involution, so L_i = adjoint(A_i) has L_i* = A_i; both
    # adjoints kill v, and the witness is the smallest nonzero common zero
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    A1, A2 = _killing(ctx, v, rng), _killing(ctx, v, rng)
    L1, L2 = adjoint(ctx, A1), adjoint(ctx, A2)
    common = [b for b in range(1, ctx.size) if A1(b) == 0 and A2(b) == 0]
    rep = perm_spectral(ctx, L1, L2)
    assert _fields(rep) == (False, ("kernel_overlap", min(common)), "spectral")
    assert v in common
    assert not perm_direct(ctx, L1, L2).is_perm
    z = zero_map(n)
    assert perm_spectral(ctx, z, z).witness == ("kernel_overlap", 1)


# the five L with x^-1 + L(x) a permutation at n = 4
MAPS_N4 = [(0, 1, 1, 6), (2, 2, 12, 2), (3, 0, 9, 9), (4, 11, 4, 0), (5, 8, 0, 13)]


def test_true_permutations_pinned():
    ctx5 = mk_field(5)
    for rep in (perm_direct(ctx5, identity_map(5), zero_map(5)),
                perm_spectral(ctx5, identity_map(5), zero_map(5)),
                perm_spectral(ctx5, zero_map(5), identity_map(5))):
        assert rep.is_perm and rep.witness is None
    ctx4 = mk_field(4)
    maps = sweep_inverse_plus_linear(ctx4).permutations_found
    assert [L.cols for L in maps] == MAPS_N4
    for L in maps:
        assert _fields(perm_direct(ctx4, identity_map(4), L)) == (True, None, "direct")
        assert _fields(perm_spectral(ctx4, identity_map(4), L)) == (True, None, "spectral")


# sha256 of repr((report.to_json(), survivors)), survivors = every (L1, L2)
# the search confirmed by perm_direct, in call order.  They follow the
# search's draw order; test_permcheck._eager_search reproduces them.
SEARCH_SHA256 = {
    (6, "random"):
        "d26544ad531126c55d48b4c121b8602788422c6887ebccd4ff32e7f1eaee1a55",
    (6, "structured"):
        "8e4ac9eb3f058ac9875b65c5e3a5b44ab17652aaece4d1e12ea33e1d5b1d2235",
    (10, "random"):
        "265bee76f1608c139b4e7460ab53247cdf570b7c9085a069b6a800bff31b8865",
    (10, "structured"):
        "891ac269cbf82c55d75a89115b48f6240aa321a1eff356cd758128b8af7b72fa",
    # above gf2n.TABLE_DEGREE products are shift-and-reduce on the arrays' dtype
    (17, "random"):
        "68d2d6cd7021bdf8362293fa43752bc1295bfcf0f51178e5924e0cfc2ac6699f",
    (17, "structured"):
        "7e45d37044913808e97dfb25986a6bc8c17c26514a20c9d9bdf404bb8c16839f",
}


# sha256 of repr(sizes), sizes = the length of every FieldCtx.mul_vec result
# in the same searches, in call order: the rows each probe stage still holds
# (and, in structured mode, each column quotient drawn for them, which up to
# TABLE_DEGREE adds logs instead of calling mul_vec).  A stage
# that rejected every pair would change them, even in the searches where no
# pair reaches perm_direct.  (10, random) starts 5000, 270, 15, 2 (probes
# b = 1..4; b = 4 rejects the last two rows) and (17, structured) 5000, 5000,
# 5000, 3, 3 (the quotients in columns 0 and 1, probe b = 3, the quotient in
# column 2 and probe b = 5, which rejects the last three rows).
MUL_VEC_SIZES_SHA256 = {
    (6, "random"):
        "9f53ba934189b5cda8a4a7d15b395e60d1aa0c2246904472737b7a11f9456901",
    (6, "structured"):
        "46a9602a4467e95e2631298bd9777bfb377bf57f670cbcbbb793b182e81ef758",
    (10, "random"):
        "7c00e3bed9609410c7a06dfdcf4a5375d81ca8362e171335bdbd97dfc38fd3de",
    (10, "structured"):
        "11dc3c22d6522391bb7d979d77f44325e9adbf55b34cd3204b5e749d96108302",
    (17, "random"):
        "ec236597ce40b5e6e4e5baec6c2689460845044d2b498663a326e188f490e057",
    (17, "structured"):
        "e2f879221fe309ded9b23b201dd8cfde6863ac11d52d2f76f4be0d6e0742f50c",
}


def search_digest(n: int, mode: str, monkeypatch) -> tuple[str, list[int]]:
    """(sha256 as in SEARCH_SHA256, mul_vec result sizes) of one seeded search."""
    seen, sizes = [], []
    real, real_mul_vec, real_quotients = permcheck.perm_direct, FieldCtx.mul_vec, permcheck._zero_quotients

    def recording(ctx, L1, L2):
        seen.append((L1.cols, L2.cols))
        return real(ctx, L1, L2)

    def recording_mul_vec(ctx, a, b):
        out = real_mul_vec(ctx, a, b)
        sizes.append(len(out))
        return out

    def recording_quotients(ctx, zeros):
        quotient = real_quotients(ctx, zeros)

        def recorded(zi, a):
            k = len(sizes)
            out = quotient(zi, a)
            sizes[k:] = [len(out)]  # one size per quotient, with or without mul_vec
            return out
        return recorded

    monkeypatch.setattr(permcheck, "perm_direct", recording)
    monkeypatch.setattr(FieldCtx, "mul_vec", recording_mul_vec)
    monkeypatch.setattr(permcheck, "_zero_quotients", recording_quotients)
    monkeypatch.setattr(permcheck, "_SEARCH_BATCH", 5000)
    rep = search_counterexample(mk_field(n), mode, budget=40_000, seed=7)
    monkeypatch.undo()
    return hashlib.sha256(repr((rep.to_json(), seen)).encode()).hexdigest(), sizes


@pytest.mark.parametrize("n,mode", sorted(SEARCH_SHA256))
def test_search_reports_pinned(n, mode, monkeypatch):
    assert search_digest(n, mode, monkeypatch)[0] == SEARCH_SHA256[(n, mode)]


@pytest.mark.parametrize("n,mode", sorted(MUL_VEC_SIZES_SHA256))
def test_search_probe_sizes_pinned(n, mode, monkeypatch):
    sizes = search_digest(n, mode, monkeypatch)[1]
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() == MUL_VEC_SIZES_SHA256[(n, mode)]
