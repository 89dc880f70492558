"""Transform and spectrum tests, fast paths checked against direct sums."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kspectra
from kspectra import gf2n, spectra
from kspectra.cli import main
from kspectra.gf2n import (
    FieldCtx,
    ReduciblePolynomialError,
    is_irreducible,
    mk_field,
    smallest_irreducible,
)
from kspectra.linmap import random_map, random_subspace
from kspectra.permcheck import perm_spectral, search_counterexample
from kspectra.spectra import (
    SPECTRUM_CAP,
    Spectrum,
    TruthTable,
    _memory_limit,
    _validate_kloosterman,
    fwht_inplace,
    kloosterman,
    kloosterman_spectrum,
    kloosterman_zeros,
    sign_dtype,
    walsh,
    walsh_row,
)
from kspectra.zerospace import subspace_sum_identity

#: sha256 of kloosterman_spectrum(mk_field(24)).data as little-endian int64,
#: captured from the int64 pipeline before the int32 rewrite
SPECTRUM_24_SHA256 = "63809deccb8eb4f19865423e93d4f87fd780e11ea4c8cec0bee42b3eddb4879b"

#: the same digest for n = 2..23 (default polynomials), captured before the
#: spectrum was built by one scatter in dual-basis coordinates
SPECTRUM_SHA256 = {
    2: "bd7cdcc82d46856db3e580548999dfba0d8bd38e0edbb797188de335d933c8b3",
    3: "c4dd24049a624399063fa7a7c7dba4006af51b9aee1186c134eeae4dd896cb9d",
    4: "ca7a060291536f44aaef43964f1a9db2839f5bd012a8e6ce0dcd9e7a9ea65646",
    5: "556ff06fdcb39928b76201ee90cd6f224ba48bcdeca5f824052030e2d6b5c65d",
    6: "f34ef029493882efd2ac0686ffd1bffa3d7faafcc7c29a86109636d11a3c2da6",
    7: "5390dd71c0c51af09f601216805e61b47024e98812e23e83f8b94ed757315e82",
    8: "93dfc88817984175c70e034a608f132369cdd8903f895028615912ad4f992f7f",
    9: "76f56057139ca174bae00d5b5b4b6bc551116e1e36f20e9a8564c75668943a39",
    10: "2cfd94149777cda58e853f26706626343fb3e28df7b20ff0ae69c63093bf0342",
    11: "a018c8494ae8925c362a4816b0b67da037bb29d0d5115d7188874cced416e81d",
    12: "12b2fc00fa5f4ab57bd89565412379fabcb415932c4e910d708d3d1687d5f069",
    13: "9940321aef56e891ed33d47aac8af05c379496e9fb889fe9794c36ea82215da7",
    14: "a8a212fee51192e2bdcf6e4f74c74ed7b8c73d1944dba706a080e7f01ab14537",
    15: "94dc84f00b24b2a261c0659490c829cfd0c16b5f6c76a7d3f1fcb6148770b0d4",
    16: "ea76ca075ed276b69242fb4420b0621f3ad4f74a4091083278f4ac5985eab9e7",
    17: "0a23866875ba4f418b56268d406bf290590f498dcb0e695226421b75556c29c2",
    18: "fd26bfa10fde324077990df1183bf5fd3ea065f903da9ab10707df0f2ce084ff",
    19: "7eff36d3e9e7669004438afc9be4e8718e8dfc338717ae7bd6a2d6205208b176",
    20: "bef97bc0834144b86616174a4be85c4784b215d6add9ad5f898f7d929f0a5dd6",
    21: "06bf1dcdceb81334bf342e57e2adf78754b6d116071b77fadeef1841bd0bad57",
    22: "ec366c0e3516d23d8117353851f9ad235e7ac6c53bedbf39771d2596f16b76c4",
    23: "c48e012dd41040778e3cefce9a96180cafa8b980252c7c52f5c412c09eb466cc",
}


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


def test_spectrum_cap_error(monkeypatch):
    # n = 17: mk_field shares no field above TABLE_DEGREE, so no spectrum is cached yet
    ctx = mk_field(17)
    monkeypatch.setattr(spectra, "SPECTRUM_CAP", 16)
    with pytest.raises(ValueError, match="pointwise"):
        kloosterman_spectrum(ctx)
    assert "kloosterman_spectrum" not in ctx._cache  # a refused build caches nothing


def test_memory_limit_reads_cgroup_v2_memory_max(tmp_path):
    # the least memory.max of the cgroup and the cgroups above it; "max" sets none
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "a" / "memory.max").write_text("67108864\n")
    (tmp_path / "a" / "b" / "memory.max").write_text("max\n")
    cgroup = tmp_path / "cgroup"
    cgroup.write_text("4:memory:/elsewhere\n0::/a/b\n")
    unlimited = _memory_limit(str(tmp_path / "missing"), str(tmp_path))
    assert unlimited > 64 << 20
    assert _memory_limit(str(cgroup), str(tmp_path)) == 64 << 20
    cgroup.write_text("0::/\n")
    assert _memory_limit(str(cgroup), str(tmp_path)) == unlimited
    (tmp_path / "memory.max").write_text("33554432\n")
    assert _memory_limit(str(cgroup), str(tmp_path)) == 32 << 20


def test_memory_limit_reads_cgroup_v1_memory_limit_in_bytes(tmp_path):
    # v1: the least memory.limit_in_bytes of the memory controller's cgroup and
    # the cgroups above it, in the controller's own tree; no limit reads 2^63 - 4096
    (tmp_path / "memory" / "a" / "b").mkdir(parents=True)
    (tmp_path / "memory" / "memory.limit_in_bytes").write_text("9223372036854771712\n")
    (tmp_path / "memory" / "a" / "memory.limit_in_bytes").write_text("67108864\n")
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "memory.limit_in_bytes").write_text("1048576\n")  # outside the memory tree
    cgroup = tmp_path / "cgroup"
    unlimited = _memory_limit(str(tmp_path / "missing"), str(tmp_path))
    for line in ("4:memory:/a/b", "4:cpu,memory:/a/b", "4:memory:/a"):
        cgroup.write_text(f"5:cpu,cpuacct:/a\n{line}\n0::/\n")
        assert _memory_limit(str(cgroup), str(tmp_path)) == 64 << 20
    cgroup.write_text("5:cpu,cpuacct:/a\n4:memory:/\n0::/\n")
    assert _memory_limit(str(cgroup), str(tmp_path)) == unlimited


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
    assert data.dtype == np.int16
    assert hashlib.sha256(data.astype("<i8").tobytes()).hexdigest() == SPECTRUM_24_SHA256


@pytest.mark.parametrize("n", sorted(SPECTRUM_SHA256))
def test_spectrum_is_pinned(n):
    data = kloosterman_spectrum(mk_field(n)).data
    assert hashlib.sha256(data.astype("<i8").tobytes()).hexdigest() == SPECTRUM_SHA256[n]


def _other_irreducible(n: int, start: int) -> int:
    """First irreducible of degree n at or cyclically after x^n + start, skipping the default."""
    for k in range(1 << n):
        poly = (1 << n) | ((start + k) % (1 << n))
        if poly != smallest_irreducible(n) and is_irreducible(poly):
            return poly
    raise AssertionError(f"degree {n} has a single irreducible")


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(0, 1 << 10), st.data())
def test_spectrum_matches_pointwise_on_other_polynomials(n, start, data):
    # off the default polynomial the Gram matrix G and the generator change,
    # so this exercises the G-conjugated multiply beyond one basis
    ctx = mk_field(n, _other_irreducible(n, start))
    spec = kloosterman_spectrum(ctx)
    for a in data.draw(st.lists(st.integers(0, ctx.size - 1), min_size=1, max_size=6)):
        assert int(spec.data[a]) == kloosterman(ctx, a)


def test_non_primitive_generator_fails_the_coverage_check(monkeypatch, fresh_fields):
    ctx = mk_field(12)
    cube = ctx.pow(ctx._generator(), 3)  # order (2^12 - 1) / 3
    monkeypatch.setattr(FieldCtx, "_generator", lambda self: cube)
    with pytest.raises(AssertionError, match="missed a nonzero element"):
        kloosterman_spectrum(mk_field(12))


def test_coverage_check_holds_on_dirty_allocations(monkeypatch, fresh_fields):
    # the check reads the sign slots the powers left untouched, so the buffer
    # they live in must be zero-filled, not taken from np.empty's leftovers
    empty = np.empty

    def dirty_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if not out.dtype.hasobject:
            out.view(np.uint8).fill(0xA5)
        return out

    ctx = mk_field(12)
    cube = ctx.pow(ctx._generator(), 3)
    monkeypatch.setattr(np, "empty", dirty_empty)
    monkeypatch.setattr(FieldCtx, "_generator", lambda self: cube)
    with pytest.raises(AssertionError, match="missed a nonzero element"):
        kloosterman_spectrum(mk_field(12))


@pytest.mark.parametrize("n", range(17, 21))
def test_spectrum_is_the_same_on_any_number_of_workers(n, monkeypatch):
    # above TABLE_DEGREE each mk_field call is a fresh context, so each build
    # is cold; from n = 18 on, 3 workers get blocks of the walk or the butterfly
    threads = threading.active_count()
    built = []
    for workers in (1, 3):
        monkeypatch.setattr(spectra, "_workers", lambda: workers)
        built.append(kloosterman_spectrum(mk_field(n)).data)
    assert built[0].tobytes() == built[1].tobytes()
    assert threading.active_count() == threads


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    # generator 0 fails the order check on the first block; with the parts
    # handed out in reverse, that block is walked on a worker thread
    threads = threading.active_count()
    monkeypatch.setattr(spectra, "_workers", lambda: 3)
    monkeypatch.setattr(FieldCtx, "_generator", lambda self: 0)
    walk, first = FieldCtx.power_blocks, []

    def reversed_parts(self, dual, part, parts, out):
        if part == parts - 1:
            first.append(threading.current_thread())
        return walk(self, dual, parts - 1 - part, parts, out)

    monkeypatch.setattr(FieldCtx, "power_blocks", reversed_parts)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        kloosterman_spectrum(mk_field(19))  # 4 blocks of powers: 3 workers
    assert first and first[0] is not threading.main_thread()
    assert threading.active_count() == threads


def test_non_primitive_generator_fails_the_coverage_check_on_workers(monkeypatch):
    # the non-primitive generator of the coverage-check test above, with the
    # walk shared between 3 workers at n = 20
    threads = threading.active_count()
    monkeypatch.setattr(spectra, "_workers", lambda: 3)
    ctx = mk_field(20)
    cube = ctx.pow(ctx._generator(), 3)  # order (2^20 - 1) / 3
    monkeypatch.setattr(FieldCtx, "_generator", lambda self: cube)
    with pytest.raises(AssertionError, match="missed a nonzero element"):
        kloosterman_spectrum(mk_field(20))
    assert threading.active_count() == threads


_PEAK_SCRIPT = """
import sys
from kspectra import spectra
from kspectra.gf2n import mk_field

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmHWM:"))

if sys.argv[1:] == ["one worker"]:
    spectra._workers = lambda: 1
ctx = mk_field(22)
before = hwm()
spectra.kloosterman_spectrum(ctx)
print(hwm() - before, spectra.spectrum_bytes(22))
"""


def _spectrum_peak(*args: str) -> list[int]:
    """VmHWM growth of the n = 22 spectrum in a fresh interpreter, and spectrum_bytes(22)."""
    src = os.path.dirname(os.path.dirname(kspectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return list(map(int, out.split()))


def test_spectrum_peak_memory_follows_spectrum_bytes():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM needs /proc/self/status")
    growth, estimate = _spectrum_peak()
    assert growth <= 1.25 * estimate + (16 << 20)
    # on one worker the peak is the 2-byte-per-entry result plus under 2 MiB:
    # a 4-byte result alone would reach this bound
    growth, _ = _spectrum_peak("one worker")
    assert growth < 4 << 22


@pytest.mark.parametrize("n", [12, 16])
def test_narrow_spectrum_consumers_match_int64(n, capsys, monkeypatch):
    # from n = 16 on, sum K = 2^n and the sum of K(u^-1) over V-perp = F_2^n
    # (dim V = 0) overflow int16: every sum must accumulate in a wider type
    ctx = mk_field(n)
    spec = kloosterman_spectrum(ctx)
    assert spec.data.dtype == sign_dtype(n) == np.int16
    assert [sign_dtype(k) for k in (27, 28, 32)] == [np.int16, np.int32, np.int32]
    wide = Spectrum(n, spec.kind, spec.data.astype(np.int64))
    _validate_kloosterman(wide)
    rng = np.random.default_rng(12)
    subspaces = [random_subspace(rng, n, dim) for dim in (0, 1, 3, 6, 11)]
    pairs = [(random_map(rng, n), random_map(rng, n)) for _ in range(20)]

    def consumers():
        K = kloosterman_spectrum(ctx).data
        return ([subspace_sum_identity(ctx, V) for V in subspaces],
                [perm_spectral(ctx, L1, L2) for L1, L2 in pairs],
                search_counterexample(ctx, "structured", budget=2000, seed=n),
                int(K.sum()),  # the weil-bound check of kspectra verify
                np.flatnonzero(K % 16 == 0).tolist(),  # % takes the divisor's sign
                np.flatnonzero(K == 0).tolist())

    narrow = consumers()
    assert narrow[3] == 1 << n
    with monkeypatch.context() as m:
        m.setitem(ctx._cache, "kloosterman_spectrum", wide)
        m.delitem(ctx._cache, "_probe_tables", raising=False)  # it holds the spectrum
        assert kloosterman_spectrum(ctx) is wide
        assert consumers() == narrow
    assert kloosterman_spectrum(ctx) is spec
    assert list(spec.to_csv_rows()) == list(wide.to_csv_rows())
    assert main(["spectrum", "--n", str(n), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"] == wide.data.tolist()


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(4, np.zeros(15, dtype=np.uint32))
    with pytest.raises(ValueError):
        TruthTable(3, np.full(8, 9, dtype=np.uint32))
    with pytest.raises(ValueError, match="out of field range"):
        TruthTable(4, np.array([-1] + list(range(1, 16))))
    with pytest.raises(ValueError, match="integers"):
        TruthTable(4, np.arange(16, dtype=np.float64))


def test_spectrum_csv_rows():
    ctx = mk_field(5)
    spec = kloosterman_spectrum(ctx)
    rows = "".join(spec.to_csv_rows()).splitlines()
    assert rows[0] == "0x0,0"
    assert len(rows) == 32


# -- mk_field shares small fields, and each field memoizes its spectrum ------

def test_small_fields_and_their_spectra_are_shared():
    for n in (2, 6, 16):
        assert mk_field(n) is mk_field(n)
        assert mk_field(n, smallest_irreducible(n)) is mk_field(n)  # keyed by the resolved poly
        assert kloosterman_spectrum(mk_field(n)) is kloosterman_spectrum(mk_field(n))
    big = mk_field(17)
    assert big is not mk_field(17)
    assert big.poly == mk_field(17).poly
    # a reducible polynomial raises on every call: nothing is cached
    shared = gf2n._shared_field.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ReduciblePolynomialError):
            mk_field(6, 0b1000001)  # x^6 + 1 = (x^3 + 1)^2
    assert gf2n._shared_field.cache_info().currsize == shared
