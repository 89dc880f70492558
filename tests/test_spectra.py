"""Transform and spectrum tests, fast paths checked against direct sums."""

import hashlib
import json
import math

import numpy as np
import pytest

from kspectra.cli import main
from kspectra.gf2n import mk_field
from kspectra.linmap import random_map, random_subspace
from kspectra.permcheck import perm_spectral
from kspectra.spectra import (
    SPECTRUM_CAP,
    Spectrum,
    TruthTable,
    _validate_kloosterman,
    diff_uniformity,
    fwht_inplace,
    kloosterman,
    kloosterman_spectrum,
    kloosterman_zeros,
    nonlinearity,
    walsh,
    walsh_row,
)
from kspectra.zerospace import subspace_sum_identity

#: sha256 of kloosterman_spectrum(mk_field(24)).data as little-endian int64,
#: captured from the int64 pipeline before the int32 rewrite
SPECTRUM_24_SHA256 = "63809deccb8eb4f19865423e93d4f87fd780e11ea4c8cec0bee42b3eddb4879b"


def test_fwht_matches_definition():
    rng = np.random.default_rng(0)
    v = rng.integers(-5, 6, 16).astype(np.int64)
    w = v.copy()
    fwht_inplace(w)
    for m in range(16):
        ref = sum(int(v[x]) * (1 - 2 * ((m & x).bit_count() & 1)) for x in range(16))
        assert int(w[m]) == ref


def test_walsh_trivial_rows():
    ctx = mk_field(5)
    rng = np.random.default_rng(1)
    F = TruthTable(5, rng.integers(0, 32, 32).astype(np.uint32))
    assert walsh(ctx, F, 0, 0) == 32
    for b in range(1, 32):
        assert walsh(ctx, F, 0, b) == 0


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_walsh_row_matches_direct_sum(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    F = TruthTable(n, rng.integers(0, ctx.size, ctx.size).astype(np.uint32))
    for a in (1, 3, ctx.size - 1):
        row = walsh_row(ctx, F, a)
        for b in range(ctx.size):
            assert int(row.data[b]) == walsh(ctx, F, a, b)


@pytest.mark.parametrize("n", [5, 8, 10, 12])
def test_walsh_row_parseval(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(2 * n)
    F = TruthTable(n, rng.integers(0, ctx.size, ctx.size).astype(np.uint32))
    a = int(rng.integers(1, ctx.size))
    row = walsh_row(ctx, F, a)
    assert int(np.sum(row.data.astype(object) ** 2)) == 1 << (2 * n)


def test_walsh_row_identity_single_spike():
    ctx = mk_field(6)
    row = walsh_row(ctx, TruthTable.identity(6), 1)
    assert int(row.data[1]) == 64
    assert int(np.count_nonzero(row.data)) == 1


def test_kloosterman_basics():
    ctx = mk_field(5)
    assert kloosterman(ctx, 0) == 0
    total = sum(kloosterman(ctx, a) for a in range(32))
    assert total == 32


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_spectrum_matches_pointwise(n):
    ctx = mk_field(n)
    spec = kloosterman_spectrum(ctx)
    for a in range(0, ctx.size, max(1, ctx.size // 64)):
        assert int(spec.data[a]) == kloosterman(ctx, a)


@pytest.mark.parametrize("n", [5, 8, 12, 16])
def test_spectrum_global_invariants(n):
    ctx = mk_field(n)
    spec = kloosterman_spectrum(ctx)
    assert int(spec.data[0]) == 0
    assert int(spec.data.sum()) == 1 << n
    bound = math.isqrt(1 << (n + 2))
    assert int(np.abs(spec.data - 1).max()) <= bound  # x=0 term shifts by +1
    assert not int((spec.data & 3).any())  # multiples of 4 for n >= 3
    # Frobenius invariance via table composition
    frob = ctx.frobenius_table()
    assert np.array_equal(spec.data[frob], spec.data)


def test_n5_attains_the_shifted_weil_extreme():
    # The 0-extended sum exceeds 2^(n/2+1) itself exactly once in 4..20.
    ctx = mk_field(5)
    spec = kloosterman_spectrum(ctx)
    assert int(np.abs(spec.data).max()) == 12
    assert 12 > math.isqrt(1 << 7)


def test_walsh_of_inverse_is_kloosterman():
    for n in (5, 6):
        ctx = mk_field(n)
        F = TruthTable.inverse(ctx)
        spec = kloosterman_spectrum(ctx)
        for a in range(1, ctx.size):
            row = walsh_row(ctx, F, a)
            for b in range(ctx.size):
                assert int(row.data[b]) == int(spec.data[ctx.mul(a, b)])


def test_kloosterman_zeros_n5():
    ctx = mk_field(5)
    zeros = kloosterman_zeros(ctx)
    assert len(zeros) == 5
    # one Frobenius orbit: closed under squaring
    assert {ctx.sqr(z) for z in zeros} == zeros
    assert 0 in kloosterman_zeros(ctx, include_trivial=True)


def test_kloosterman_zeros_n10_count():
    ctx = mk_field(10)
    assert len(kloosterman_zeros(ctx)) == 60


def test_spectrum_cap_error():
    ctx = mk_field(8)
    with pytest.raises(ValueError, match="pointwise"):
        kloosterman_spectrum(ctx, cap=6)


def test_spectrum_above_memory_cap_is_refused_before_any_table():
    assert SPECTRUM_CAP < 32  # 2^32 entries need about 132 GiB
    ctx = mk_field(32)
    with pytest.raises(ValueError, match="memory cap"):
        kloosterman_spectrum(ctx)
    assert ctx._cache == {}  # refused before building a single table


def test_spectrum_above_memory_cap_is_a_usage_error(capsys):
    assert main(["spectrum", "--n", "32"]) == 2
    assert "memory cap" in capsys.readouterr().err


def test_spectrum_n24_is_pinned():
    data = kloosterman_spectrum(mk_field(24)).data
    assert data.dtype == np.int32
    assert hashlib.sha256(data.astype("<i8").tobytes()).hexdigest() == SPECTRUM_24_SHA256


def test_int32_spectrum_consumers_match_int64(capsys):
    n = 12
    ctx = mk_field(n)
    spec = kloosterman_spectrum(ctx)
    assert spec.data.dtype == np.int32
    wide = Spectrum(n, spec.kind, spec.data.astype(np.int64))
    _validate_kloosterman(wide)
    rng = np.random.default_rng(12)
    for dim in (0, 1, 3, 6, 11):
        V = random_subspace(rng, n, dim)
        assert subspace_sum_identity(ctx, V, spec) == subspace_sum_identity(ctx, V, wide)
    for _ in range(20):
        L1, L2 = random_map(rng, n), random_map(rng, n)
        assert perm_spectral(ctx, L1, L2, spec) == perm_spectral(ctx, L1, L2, wide)
    assert list(spec.to_csv_rows()) == list(wide.to_csv_rows())
    assert main(["spectrum", "--n", str(n), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"] == wide.data.tolist()


def test_diff_uniformity():
    ctx5 = mk_field(5)
    assert diff_uniformity(ctx5, TruthTable.inverse(ctx5)) == 2  # APN
    ctx6 = mk_field(6)
    assert diff_uniformity(ctx6, TruthTable.inverse(ctx6)) == 4
    assert diff_uniformity(ctx5, TruthTable.identity(5)) == 32


def test_nonlinearity():
    ctx = mk_field(5)
    spec = kloosterman_spectrum(ctx)
    max_k = int(np.abs(spec.data).max())
    assert nonlinearity(ctx, TruthTable.inverse(ctx)) == 16 - max_k // 2
    # linear map -> nonlinearity 0
    L = random_map(np.random.default_rng(9), 5)
    assert nonlinearity(ctx, TruthTable(5, L.truth_table())) == 0
    F = TruthTable(5, np.random.default_rng(10).integers(0, 32, 32).astype(np.uint32))
    nl = nonlinearity(ctx, F)
    assert 0 <= nl <= (1 << 4) - (1 << 1)  # 2^(n-1) - 2^(n/2-1) rounded down


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(4, np.zeros(15, dtype=np.uint32))
    with pytest.raises(ValueError):
        TruthTable(3, np.full(8, 9, dtype=np.uint32))


def test_spectrum_csv_rows():
    ctx = mk_field(5)
    spec = kloosterman_spectrum(ctx)
    rows = list(spec.to_csv_rows())
    assert rows[0] == "0x0,0"
    assert len(rows) == 32
