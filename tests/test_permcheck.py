"""Permutation criteria: direct scan, spectral route, sweeps, searches."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kspectra
from kspectra import permcheck, spectra
from kspectra.gf2n import mk_field, xor_combine
from kspectra.linmap import (
    LinMap,
    adjoint,
    compose,
    from_linearized,
    identity_map,
    random_bijective_map,
    random_map,
    scalar_map,
    zero_map,
)
from kspectra.permcheck import (
    PermReport,
    SearchReport,
    compose_truth_table,
    is_permutation,
    kernel_bound_applies,
    perm_direct,
    perm_general_spectral,
    perm_spectral,
    search_counterexample,
    sweep_inverse_plus_linear,
)
from kspectra.quadform import qform_bytes, restrict_q_to_h
from kspectra.spectra import Spectrum, TruthTable, kloosterman_spectrum, spectrum_bytes
from kspectra.zerospace import mod16_bytes, mod16_members, zero_subspace_bound


def test_is_permutation_basics():
    ctx = mk_field(5)
    assert is_permutation(ctx, TruthTable.identity(5)).is_perm
    const = TruthTable(5, np.zeros(32, dtype=np.uint32))
    rep = is_permutation(ctx, const)
    assert not rep.is_perm and rep.witness == ("collision", 0, 1)
    frob = TruthTable(5, from_linearized(ctx, [0, 1]).truth_table())
    assert is_permutation(ctx, frob).is_perm


def test_perm_direct_examples():
    ctx = mk_field(5)
    assert perm_direct(ctx, identity_map(5), zero_map(5)).is_perm  # plain inverse map
    rep = perm_direct(ctx, identity_map(5), identity_map(5))
    assert not rep.is_perm and rep.witness == ("collision", 0, 1)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_inverse_plus_nonzero_linear_never_permutes(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    for _ in range(50):
        L = random_map(rng, n)
        if L.is_zero():
            continue
        assert not perm_direct(ctx, identity_map(n), L).is_perm


def test_perm_spectral_trivial_cases():
    ctx = mk_field(5)
    assert perm_spectral(ctx, zero_map(5), identity_map(5)).is_perm  # F = x
    rep = perm_spectral(ctx, identity_map(5), identity_map(5))
    assert not rep.is_perm
    assert rep.witness is not None and rep.witness[0] in ("spectral_b", "kernel_overlap")
    assert rep.is_perm == perm_direct(ctx, identity_map(5), identity_map(5)).is_perm


def test_kernel_overlap_witness():
    ctx = mk_field(5)
    rep = perm_spectral(ctx, zero_map(5), zero_map(5))
    assert not rep.is_perm
    assert rep.witness[0] == "kernel_overlap" and rep.witness[1] != 0


@pytest.mark.parametrize("n", [5, 6, 7])
def test_spectral_agrees_with_direct(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(1500):
        L1 = random_map(rng, n)
        L2 = random_map(rng, n)
        assert perm_spectral(ctx, L1, L2).is_perm == perm_direct(ctx, L1, L2).is_perm


def test_swap_symmetry():
    rng = np.random.default_rng(55)
    for n in (5, 6):
        ctx = mk_field(n)
        for _ in range(200):
            L1, L2 = random_map(rng, n), random_map(rng, n)
            assert perm_direct(ctx, L1, L2).is_perm == perm_direct(ctx, L2, L1).is_perm


def test_scalar_normalization():
    rng = np.random.default_rng(56)
    for n in (5, 6, 7):
        ctx = mk_field(n)
        for _ in range(60):
            L1, L2 = random_map(rng, n), random_map(rng, n)
            c = int(rng.integers(1, ctx.size))
            M1 = compose(L1, scalar_map(ctx, ctx.inv0(c)))
            M2 = compose(L2, scalar_map(ctx, c))
            assert perm_direct(ctx, L1, L2).is_perm == perm_direct(ctx, M1, M2).is_perm


def test_bijective_factor_never_permutes():
    rng = np.random.default_rng(57)
    for n in (5, 6, 7, 8):
        ctx = mk_field(n)
        for _ in range(40):
            bij = random_bijective_map(rng, n)
            other = random_map(rng, n)
            if other.is_zero():
                continue
            assert not perm_direct(ctx, bij, other).is_perm
            assert not perm_direct(ctx, other, bij).is_perm


def test_perm_general_spectral_agrees():
    rng = np.random.default_rng(58)
    for n in (5, 6):
        ctx = mk_field(n)
        Finv = TruthTable.inverse(ctx)
        for _ in range(60):
            L1, L2 = random_map(rng, n), random_map(rng, n)
            assert perm_general_spectral(ctx, Finv, L1, L2) == \
                perm_spectral(ctx, L1, L2).is_perm
        for _ in range(60):
            F = TruthTable(n, rng.integers(0, ctx.size, ctx.size).astype(np.uint32))
            L1, L2 = random_map(rng, n), random_map(rng, n)
            composed = TruthTable(n, L1.truth_table()[F.values] ^ L2.truth_table())
            assert perm_general_spectral(ctx, F, L1, L2) == \
                is_permutation(ctx, composed).is_perm


def test_perm_general_spectral_passthrough():
    ctx = mk_field(6)
    rng = np.random.default_rng(59)
    P = random_bijective_map(rng, 6)
    F = TruthTable(6, P.truth_table())
    assert perm_general_spectral(ctx, F, identity_map(6), zero_map(6))


def test_sweep_n5_exhaustive():
    rep = sweep_inverse_plus_linear(mk_field(5))
    assert rep.candidates_checked == (1 << 25) - 1
    assert rep.permutations_found == ()


def test_sweep_small_fixtures():
    # out of the theorem's range; counts are regression fixtures, and every
    # find must replay as a permutation under both methods
    rep4 = sweep_inverse_plus_linear(mk_field(4))
    assert rep4.candidates_checked == (1 << 16) - 1
    assert len(rep4.permutations_found) == 5
    ctx4 = mk_field(4)
    for L in rep4.permutations_found:
        assert perm_direct(ctx4, identity_map(4), L).is_perm
        assert perm_spectral(ctx4, identity_map(4), L).is_perm
    rep3 = sweep_inverse_plus_linear(mk_field(3))
    assert rep3.candidates_checked == (1 << 9) - 1
    assert len(rep3.permutations_found) == 7


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_sweep_exhaustive_above_n5(n):
    rep = sweep_inverse_plus_linear(mk_field(n))
    assert rep.candidates_checked == (1 << (n * n)) - 1
    assert rep.permutations_found == ()


def test_sweep_guards():
    with pytest.raises(ValueError, match="randomized search"):
        sweep_inverse_plus_linear(mk_field(17))


@lru_cache(maxsize=None)
def _sweep_maps(n):
    return frozenset(L.cols for L in sweep_inverse_plus_linear(mk_field(n)).permutations_found)


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_equals_direct_oracle_on_every_map(n):
    ctx = mk_field(n)
    ident = identity_map(n)
    perms = {cols for cols in itertools.product(range(1 << n), repeat=n)
             if any(cols) and perm_direct(ctx, ident, LinMap(n, cols)).is_perm}
    assert perms == _sweep_maps(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                                             max_size=n).filter(any))))
def test_sweep_rejects_exactly_the_direct_rejects(nc):
    n, cols = nc
    L = LinMap(n, tuple(cols))
    assert perm_direct(mk_field(n), identity_map(n), L).is_perm == (L.cols in _sweep_maps(n))


def test_sweep_survivor_rejected_by_direct_is_internal_error(monkeypatch):
    # an all-zero spectrum passes every candidate, so survivors that are not
    # permutations reach perm_direct, which must stop the sweep
    from kspectra import permcheck

    def all_zero(ctx):
        return Spectrum(ctx.n, "kloosterman", np.zeros(ctx.size, dtype=np.int32))

    monkeypatch.setattr(permcheck, "kloosterman_spectrum", all_zero)
    with pytest.raises(AssertionError, match="not a permutation"):
        sweep_inverse_plus_linear(mk_field(3))


def test_scalar_maps_never_permute_n5():
    ctx = mk_field(5)
    for c in range(1, 32):
        assert not perm_direct(ctx, identity_map(5), scalar_map(ctx, c)).is_perm


def test_search_counterexample_modes():
    ctx = mk_field(6)
    r0 = search_counterexample(ctx, "random", budget=0, seed=1)
    assert r0.found is None and r0.pairs_examined == 0
    r1 = search_counterexample(ctx, "random", budget=20000, seed=1)
    assert r1.found is None and r1.pairs_examined == 20000
    r2 = search_counterexample(ctx, "structured", budget=20000, seed=2)
    assert r2.found is None and r2.pairs_examined == 20000
    with pytest.raises(ValueError):
        search_counterexample(ctx, "exotic", budget=10)
    with pytest.raises(ValueError):
        search_counterexample(mk_field(4), "random", budget=10)


def _eager_search(ctx, mode, budget, seed, batch):
    """The reference for search_counterexample: the same draws, column by
    column as the probes first read them and A1 before A2 (or the zero
    index) within a column, but every probe decided pair by pair with
    Python ints: xor_combine on the pair's columns, ctx.mul and a lookup
    in the K table."""
    n = ctx.n
    N = ctx.size
    K = kloosterman_spectrum(ctx).data.tolist()
    zeros = [a for a in range(1, N) if K[a] == 0]
    inv = ctx.inverse_table().tolist()  # test_gf2n checks it against ctx.inv0
    rng = np.random.default_rng(seed)
    probes = [b for b in range(1, min(N, 17)) if mode == "random" or b & (b - 1)]

    def draw(alive):
        """Append the next column of A1 and A2 to every alive pair."""
        c1 = rng.integers(0, N, size=len(alive), dtype=np.uint32).tolist()
        if mode == "random":
            c2 = rng.integers(0, N, size=len(alive), dtype=np.uint32).tolist()
        else:
            zi = rng.integers(0, len(zeros), size=len(alive), dtype=np.uint32).tolist()
            c2 = [ctx.mul(zeros[z], inv[c]) for z, c in zip(zi, c1)]
        for (r1, r2), v1, v2 in zip(alive, c1, c2):
            r1.append(v1)
            r2.append(v2)

    examined = 0
    found = None
    while examined < budget and found is None:
        b_sz = min(batch, budget - examined)
        alive = [([], []) for _ in range(b_sz)]
        for b in probes:
            while alive and len(alive[0][0]) < b.bit_length():
                draw(alive)
            alive = [(r1, r2) for r1, r2 in alive
                     if K[ctx.mul(xor_combine(r1, b), xor_combine(r2, b))] == 0]
        while alive and len(alive[0][0]) < n:
            draw(alive)
        for r1, r2 in alive:
            A1, A2 = LinMap(n, tuple(r1)), LinMap(n, tuple(r2))
            if A1.is_zero() or A2.is_zero():
                continue
            L1 = adjoint(ctx, A1)
            L2 = adjoint(ctx, A2)
            if permcheck.perm_direct(ctx, L1, L2).is_perm:
                found = (L1, L2)
                break
        examined += b_sz
    return SearchReport(n=n, mode=mode, budget=budget, seed=seed,
                        pairs_examined=examined, found=found)


@contextmanager
def _recording_perm_direct():
    """Record the (L1, L2) columns of every perm_direct call, in call order."""
    seen = []
    real = permcheck.perm_direct

    def recording(ctx, L1, L2):
        seen.append((L1.cols, L2.cols))
        return real(ctx, L1, L2)

    permcheck.perm_direct = recording
    try:
        yield seen
    finally:
        permcheck.perm_direct = real


def _assert_search_matches_eager(n, mode, seed, batch, budget):
    ctx = mk_field(n)
    # a context, not the monkeypatch fixture: hypothesis rejects function-scoped fixtures
    with pytest.MonkeyPatch.context() as mp, _recording_perm_direct() as lazy_seen:
        mp.setattr(permcheck, "_SEARCH_BATCH", batch)
        lazy = search_counterexample(ctx, mode, budget=budget, seed=seed)
    with _recording_perm_direct() as eager_seen:
        eager = _eager_search(ctx, mode, budget, seed, batch)
    assert lazy == eager
    assert lazy_seen == eager_seen


@st.composite
def search_args(draw):
    """(n, mode, seed, batch, budget), budget mostly not a multiple of batch."""
    batch = draw(st.sampled_from([1, 7, 5000]))
    budget = draw(st.integers(1, {1: 300, 7: 2000, 5000: 12000}[batch]))
    return (draw(st.integers(5, 12)), draw(st.sampled_from(["random", "structured"])),
            draw(st.integers(0, 2**32)), batch, budget)


@settings(max_examples=40, deadline=None)
@given(search_args())
@example((5, "structured", 1, 5000, 12000))  # 15 survivors reach perm_direct
@example((6, "structured", 4, 7, 2000))     # four survivors, in batches of 7
def test_lazy_search_matches_eager_cascade(args):
    _assert_search_matches_eager(*args)


@pytest.mark.parametrize("mode", ["random", "structured"])
def test_lazy_search_matches_eager_cascade_n17(mode):
    # above gf2n.TABLE_DEGREE every product is shift-and-reduce
    _assert_search_matches_eager(17, mode, 11, 5000, 12_345)


def test_kernel_bound():
    ctx = mk_field(10)
    # five zero columns: kernel dimension 5 > bound 4
    L1 = LinMap(10, tuple(1 << i for i in range(5)) + (0,) * 5)
    rng = np.random.default_rng(61)
    L2 = random_bijective_map(rng, 10)
    assert zero_subspace_bound(10) == 4
    assert kernel_bound_applies(ctx, L1, L2)
    assert not perm_direct(ctx, L1, L2).is_perm
    assert not kernel_bound_applies(ctx, identity_map(10), L2)
    with pytest.raises(ValueError):
        kernel_bound_applies(ctx, zero_map(10), L2)
    with pytest.raises(ValueError):
        kernel_bound_applies(mk_field(4), identity_map(4), identity_map(4))


def test_kernel_bound_consistency_sample():
    rng = np.random.default_rng(62)
    for n in (5, 6, 7):
        ctx = mk_field(n)
        for _ in range(300):
            L1, L2 = random_map(rng, n), random_map(rng, n)
            if L1.is_zero() or L2.is_zero():
                continue
            if kernel_bound_applies(ctx, L1, L2):
                assert not perm_direct(ctx, L1, L2).is_perm


def test_compose_truth_table_matches_scalar_eval():
    ctx = mk_field(5)
    rng = np.random.default_rng(63)
    L1, L2 = random_map(rng, 5), random_map(rng, 5)
    table = compose_truth_table(ctx, L1, L2)
    for x in range(32):
        assert int(table[x]) == L1(ctx.inv0(x)) ^ L2(x)


def test_report_json():
    rep = PermReport(False, ("spectral_b", 3), "spectral")
    j = rep.to_json()
    assert j == {"is_perm": False, "witness": {"kind": "spectral_b", "args": ["0x3"]}, "method": "spectral"}


# Each 2^n stage is called with MEMORY_LIMIT set to its estimate at n = 16,
# at n = 17, where mk_field shares no field, so nothing is cached yet: the
# first call of each case must complete under that limit (it needs only
# stages of smaller estimates) and build whatever the second call would find
# cached; the second call must then be refused before allocating one byte per
# field element.  Each case: (allowed call or None, refused call).
_I, _0 = identity_map(17), zero_map(17)
_CAP_CASES = {
    "inverse table": (None, lambda ctx: perm_direct(ctx, _I, _0)),
    "direct table": (lambda ctx: perm_direct(ctx, _I, _I),  # a collision in the prefix
                     lambda ctx: perm_direct(ctx, _I, _0)),
    "spectral tables": (lambda ctx: perm_spectral(ctx, _I, _I),  # decided by a probe
                        lambda ctx: perm_spectral(ctx, _I, _0)),  # every probe passes
    "search": (None, lambda ctx: search_counterexample(ctx, "random", budget=10)),
    "full spectrum": (restrict_q_to_h, kloosterman_spectrum),
    "mod16 set": (restrict_q_to_h, mod16_members),
    "q on H": (None, restrict_q_to_h),
}
_ESTIMATES = {"full spectrum": spectrum_bytes, "mod16 set": mod16_bytes, "q on H": qform_bytes}
_ESTIMATES.update({stage: partial(permcheck.stage_bytes, stage) for stage in permcheck._STAGE_BYTES})


@pytest.mark.parametrize("stage", sorted(_CAP_CASES))
def test_route_stage_over_its_memory_cap_is_refused_before_any_table(stage, monkeypatch):
    assert sorted(_CAP_CASES) == sorted(_ESTIMATES)
    allowed, refused = _CAP_CASES[stage]
    need = _ESTIMATES[stage]
    monkeypatch.setattr(spectra, "MEMORY_LIMIT", need(16))
    ctx = mk_field(17)
    if allowed is not None:
        allowed(ctx)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{stage} for n=17.* needs about {need(17):,} bytes, "
                                             f"over the memory cap of {need(16):,}$"):
            refused(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ctx.size


@pytest.mark.parametrize("stage", sorted(_ESTIMATES))
def test_memory_cap_estimate_never_falls_as_n_grows(stage):
    # so "estimate > MEMORY_LIMIT" refuses exactly the degrees above the largest that fits
    need = [_ESTIMATES[stage](n) for n in range(2, 33)]
    assert need == sorted(need)


def _run_python(*args):
    """python args in a fresh interpreter that imports this kspectra."""
    src = os.path.dirname(os.path.dirname(kspectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


_CLI_UNDER_3_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from kspectra.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _permcheck_n32_under_3_gib(method, l1):
    """kspectra permcheck at n = 32 with L2 = 0 and L1 given by its rows."""
    pytest.importorskip("resource")
    zero = json.dumps({"n": 32, "matrix_rows": ["0x0"] * 32})
    l1 = json.dumps({"n": 32, "matrix_rows": [hex(r) for r in l1]})
    return _run_python("-c", _CLI_UNDER_3_GIB, "permcheck", "--n", "32", "--method", method,
                       "--l1", l1, "--l2", zero)


_I32_ROWS = [1 << i for i in range(32)]


@pytest.mark.parametrize("method,l1", [("direct", _I32_ROWS), ("spectral", _I32_ROWS)])
def test_permcheck_n32_is_a_usage_error_under_3_gib(method, l1):
    # L1 = I: the columns span, so the spectral probes need the n = 32
    # spectrum.  The tables would take 32 GiB; the address-space limit turns
    # a missed check into a quick MemoryError, which the message tells apart
    run = _permcheck_n32_under_3_gib(method, l1)
    assert run.returncode == 2, run.stderr
    assert "memory cap" in run.stderr


def test_permcheck_n32_kernel_overlap_needs_no_table_under_3_gib():
    run = _permcheck_n32_under_3_gib("spectral", [0] * 32)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["spectral"] == {
        "is_perm": False, "witness": {"kind": "kernel_overlap", "args": ["0x1"]},
        "method": "spectral"}


def test_spectrum_n30_is_refused_by_the_cap_under_3_gib():
    # the memory limit reads the soft RLIMIT_AS: 4 GiB of n = 30 is refused before allocating
    pytest.importorskip("resource")
    run = _run_python("-c", _CLI_UNDER_3_GIB, "spectrum", "--n", "30", "--out", os.devnull)
    assert run.returncode == 2, run.stderr
    assert "memory cap" in run.stderr


_COUNT_LIMIT_READS = """
import sys
reads = []
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code.co_name == "_memory_limit"
               and reads.append(frame))
import kspectra.cli
from kspectra import permcheck, quadform, spectra, zerospace
from kspectra.gf2n import mk_field
from kspectra.linmap import identity_map, zero_map
ctx = mk_field(8)
I, Z = identity_map(8), zero_map(8)
spectra.kloosterman_spectrum(ctx), quadform.restrict_q_to_h(ctx), zerospace.mod16_members(ctx)
permcheck.perm_direct(ctx, I, Z), permcheck.perm_spectral(ctx, I, Z)
permcheck.search_counterexample(ctx, "random", budget=10)
sys.setprofile(None)
print(len(reads))
"""


def test_memory_limit_is_read_once_per_process():
    # every stage's refusal compares its estimate with the MEMORY_LIMIT read at import
    run = _run_python("-c", _COUNT_LIMIT_READS)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1"]


_CLI_LIMITED_PAST_THE_MAPPED = """
import resource, sys
import numpy
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + int(sys.argv[1]), hard))
from kspectra.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("extra_mib", [-1, 8, 16])
def test_spectrum_near_the_address_space_left_runs_or_is_refused_by_the_cap(extra_mib):
    # the address-space limit leaves the n = 22 estimate and extra_mib beyond
    # what the interpreter had mapped after import numpy.  The cap counts that
    # mapped space and a stack for each worker thread past the first: the run
    # either ends (exit 0) or is refused by the cap, and 1 MiB short of the
    # estimate it is refused; never a MemoryError, nor a thread that cannot start
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("VmSize needs /proc/self/statm")
    room = spectrum_bytes(22) + (extra_mib << 20)
    run = _run_python("-c", _CLI_LIMITED_PAST_THE_MAPPED, str(room), "spectrum", "--n", "22",
                      "--out", os.devnull)
    assert run.returncode in ((2,) if extra_mib < 0 else (0, 2)), run.stderr
    assert run.returncode == 0 or "over the memory cap" in run.stderr


_CLI_LIMITED_AFTER_IMPORT = """
import resource, sys
from kspectra.cli import main
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
sys.exit(main(sys.argv[1:]))
"""


def test_memory_error_is_a_usage_error_under_3_gib():
    # the memory limit is read at import, before this limit is set, so only the
    # address-space limit stops the 4 GiB array of n = 30
    pytest.importorskip("resource")
    if spectrum_bytes(30) > spectra.MEMORY_LIMIT:
        pytest.skip("the memory cap refuses the n = 30 spectrum on this machine")
    run = _run_python("-c", _CLI_LIMITED_AFTER_IMPORT, "spectrum", "--n", "30", "--out", os.devnull)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: out of memory: ")


_PEAK_SCRIPT = """
import sys
import numpy as np
from kspectra import permcheck
from kspectra.gf2n import mk_field
from kspectra.linmap import LinMap, adjoint, identity_map, random_map, zero_map

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmHWM:"))

stage, n = sys.argv[1], 20
ctx, rng = mk_field(n), np.random.default_rng(20)
I, Z = identity_map(n), zero_map(n)
# adjoint zero at b < 16: every probe passes, and K fails at nearly every other b
A2 = LinMap(n, (0, 0, 0, 0) + tuple(int(v) for v in rng.integers(1, 1 << n, n - 4)))
call = {
    "inverse table": lambda: permcheck.perm_direct(ctx, random_map(rng, n), random_map(rng, n)),
    "direct table": lambda: permcheck.perm_direct(ctx, I, Z),
    "spectral tables": lambda: permcheck.perm_spectral(ctx, I, adjoint(ctx, A2)),
    "search": lambda: permcheck.search_counterexample(ctx, "structured", budget=50000, seed=1),
}[stage]
before = hwm()
call()
print(hwm() - before, permcheck.stage_bytes(stage, n))
"""


@pytest.mark.parametrize("stage", sorted(permcheck._STAGE_BYTES))
def test_route_stage_peak_memory_follows_stage_bytes(stage):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM needs /proc/self/status")
    run = _run_python("-c", _PEAK_SCRIPT, stage)
    assert run.returncode == 0, run.stderr
    growth, estimate = map(int, run.stdout.split())
    assert growth <= estimate
