"""Quadratic form tests: closed forms, restriction, classification, isotropy."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kspectra
from kspectra import spectra
from kspectra.cli import main
from kspectra.gf2n import TABLE_DEGREE, form_table, mk_field, xor_combine
from kspectra.linmap import subspace_from_vectors
from kspectra.quadform import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    InconsistentFormError,
    NotQuadraticFormError,
    _q_by_traces,
    classify,
    count_zeros,
    expected_h_zero_count,
    hyperplane_H,
    max_isotropic_dim,
    q_eval,
    q_evaluator,
    q_table,
    qform_bytes,
    restrict,
    restrict_q_to_h,
)
from kspectra.zerospace import mod16_bytes, mod16_members

#: sha256 of q_table(mk_field(n)).tobytes() for n = 2..24 (default polynomials),
#: captured while the basis values came from the definitional q_eval
Q_TABLE_SHA256 = {
    2: "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae",
    3: "b57c8b5d220a1815034d61d960f92e41fcd7b783ed41202c5c6286ca011336d7",
    4: "6eab970d128ef1acbd38b11cd9ec55b7de3a54bc1087580896532ccb20018373",
    5: "ce9340f8bf0404e0942019ebbe34e7f76078474941778b9292be53e9af2297ac",
    6: "3d709455562491d607c8c098ae332ed386c07ee885ca416f7af981371a30a4de",
    7: "9d4fdc2256313ce35dd306cf6f5f07681dee225aeb61e3d754fd7bd43f8df009",
    8: "08345de2188864f33a4b59a09f3091a503c2633a39634fbed7ca731c0f3c5515",
    9: "c6daf378216467ff715925c737063a00035286e55e78d3c46414e8f4d93198de",
    10: "5bc0723c8d92fd4948f2cb3d377c772b2e0259524ecf573b88d8a588d9d2ea98",
    11: "7a7e1d482d40af6d955419108f93c31ab4bb955702ab8a7b572411a8986d5014",
    12: "a07a6af23d167e344cf94f4eb159c1d43b7b501a0fd451a2ba51f9b23d3de900",
    13: "24b950b60874b39cdadabc5f6f0f86b1772d5bde34e57218c07664cfaccfbe25",
    14: "a3b1943111903add514342ef5beb16769fa654c48b95e3c1b30e6496d2ece7f0",
    15: "8a23a01739119a19b6fc93c14a8b86195b9047ad84d7e12ebc41a80af7a2dd3a",
    16: "1ae63803f05b41d2793425c8a510257350e876ff22006965ce2c311387c10833",
    17: "7131ce22673e206561711a06f453ece31de0166f35e690a7d7a96381972fcbf4",
    18: "dd2de7404dd800887717a37bba5e0cbb15fa3f8abc7409c607005ab2c54170a0",
    19: "cc78af018d960f71a2d2801cd5e50d9c8db6c834f0c619da9f5681d65761e5f0",
    20: "8f8156b98c9339f0babcf764716786e015182b8ec043821e46c8c4ba04ade413",
    21: "c58ab9c195fbbe6fd2e79f2a8240ecc016733b07eed7cdcfd3f35d2bc93d7721",
    22: "39c72b5784af5d39021b6cf05e9d70a87390f8a4745cbdc2b7c3316183869ba7",
    23: "c245fbf645dcc7b025ba13bdec62af4c0e0cc7174e67d058fd4a9e5f2d6c3eae",
    24: "1ac779d8f054338cf3594cca29a4e92381e063dd515f37586213433c333b3f00",
}

#: sha256 of restrict_q_to_h(mk_field(n)).eval.tobytes(), captured while the
#: restriction read q from q_table
RESTRICTED_SHA256 = {
    17: "558de3c8af921d12b31b83f9e34eaf00a537e914aabfe4218520f95f47eef72d",
    20: "991888cf0d0015a07e2d6e46761346e810aac8e8e6c85ba0dc64a84969084234",
    24: "d24c1f81d1ed99db3f01b0a54c846620b5cfae12741698ad87ea53d3a865c6eb",
}


def test_q_eval_basics():
    for n in (4, 5, 6, 7, 8, 9, 10):
        ctx = mk_field(n)
        assert q_eval(ctx, 0) == 0
        assert q_eval(ctx, 1) == (n * (n - 1) // 2) % 2


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_q_matches_char_poly_coefficient(n):
    ctx = mk_field(n)
    for a in range(ctx.size):
        cp = ctx.char_poly(a)
        assert q_eval(ctx, a) == (cp >> (n - 2)) & 1


@pytest.mark.parametrize("n", [4, 6, 8, 11, 14])
def test_q_table_matches_q_eval(n):
    ctx = mk_field(n)
    qt = q_table(ctx)
    step = max(1, ctx.size // 512)
    for a in range(0, ctx.size, step):
        assert int(qt[a]) == q_eval(ctx, a)


@pytest.mark.parametrize("n", range(2, 11))
def test_q_by_traces_matches_q_eval_everywhere(n):
    ctx = mk_field(n)
    assert [_q_by_traces(ctx, a) for a in range(ctx.size)] == [q_eval(ctx, a) for a in range(ctx.size)]


@settings(max_examples=60, deadline=None)
@given(st.integers(11, 32), st.data())
def test_q_by_traces_matches_q_eval(n, data):
    ctx = mk_field(n)
    a = data.draw(st.integers(0, ctx.size - 1))
    assert _q_by_traces(ctx, a) == q_eval(ctx, a)


@pytest.mark.parametrize("n", [2, 5, 10, TABLE_DEGREE])
def test_q_table_builds_no_scalar_tables(n, fresh_fields):
    # about n^2/2 products do not pay for 2^n-entry sentinel-log tables
    ctx = mk_field(n)
    q_table(ctx)
    assert "exp_log_tables" not in ctx._cache and "_scalar_tables" not in ctx._cache


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, 1), min_size=m, max_size=m),
    st.lists(st.integers(0, 1 << 70), min_size=m, max_size=m))))
def test_form_table_matches_pointwise_form(fb):
    # f(c) = sum c_i f_i + sum_{j<i} c_i c_j B_ij: bits of bmat[i] at or above i are ignored
    fvals, bmat = fb
    m = len(fvals)
    fmask = sum(f << i for i, f in enumerate(fvals))
    want = [((c & fmask).bit_count()
             + sum((c & bmat[i] & ((1 << i) - 1)).bit_count() for i in range(m) if c >> i & 1)) & 1
            for c in range(1 << m)]
    assert form_table(m, fvals, bmat).tolist() == want


def test_form_table_allocates_only_its_result():
    rng = np.random.default_rng(20)
    fvals, bmat = rng.integers(0, 2, 20).tolist(), rng.integers(0, 1 << 20, 20).tolist()
    tracemalloc.start()
    try:
        form_table(20, fvals, bmat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 20) + 4096


@pytest.mark.parametrize("n", range(2, 11))
def test_q_evaluator_matches_q_eval_everywhere(n):
    ctx = mk_field(n)
    q_at = q_evaluator(ctx)
    assert [q_at(a) for a in range(ctx.size)] == [q_eval(ctx, a) for a in range(ctx.size)]


@pytest.mark.parametrize("n", range(17, 25))
def test_q_evaluator_matches_q_table(n):
    ctx = mk_field(n)
    q_at, qt = q_evaluator(ctx), q_table(ctx)
    xs = np.random.default_rng(n).integers(0, ctx.size, 4096).tolist()
    assert [q_at(x) for x in xs] == qt[xs].tolist()


@pytest.mark.parametrize("n", range(4, 17))
def test_restriction_matches_the_q_table_route(n):
    ctx = mk_field(n)
    qt = q_table(ctx)
    want = restrict(ctx, lambda x: int(qt[x]), hyperplane_H(ctx))
    got = restrict_q_to_h(ctx)
    assert got.eval.tobytes() == want.eval.tobytes()
    assert (got.basis, got.radical_basis, got.form_type, got.witt_index, got.lam) == \
        (want.basis, want.radical_basis, want.form_type, want.witt_index, want.lam)


@pytest.mark.parametrize("n", sorted(RESTRICTED_SHA256))
def test_restriction_is_pinned(n):
    assert hashlib.sha256(restrict_q_to_h(mk_field(n)).eval.tobytes()).hexdigest() == RESTRICTED_SHA256[n]


def test_restriction_never_holds_a_table_of_the_field():
    ctx = mk_field(20)  # above TABLE_DEGREE: a fresh field, with nothing cached
    tracemalloc.start()
    try:
        rec = restrict_q_to_h(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.eval.nbytes == ctx.size // 2
    assert peak < ctx.size
    assert "q_table" not in ctx._cache


def test_q_table_above_memory_cap_is_refused(monkeypatch, capsys, fresh_fields):
    # the restriction and the mod-16 set are each refused by their own
    # estimate; the mod-16 set needs more than q on H at every n
    monkeypatch.setattr(spectra, "MEMORY_LIMIT", qform_bytes(11))
    assert main(["qform", "--n", "11"]) == 0
    for argv in (["qform", "--n", "12"], ["zerospace", "--n", "11", "--set", "mod16"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert "over the memory cap" in capsys.readouterr().err
    ctx = mk_field(12)
    for refused in (restrict_q_to_h, mod16_members):
        with pytest.raises(ValueError, match="memory cap"):
            refused(ctx)
    assert "q_table" not in ctx._cache and "_q_polar" not in ctx._cache  # a refused call builds nothing
    monkeypatch.setattr(spectra, "MEMORY_LIMIT", mod16_bytes(11))
    assert main(["zerospace", "--n", "11", "--set", "mod16"]) == 0


_PEAK_SCRIPT = """
import sys
from kspectra.gf2n import mk_field
from kspectra.quadform import qform_bytes, restrict_q_to_h
from kspectra.zerospace import mod16_bytes, mod16_members

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmHWM:"))

call, bytes_of = {"qform": (restrict_q_to_h, qform_bytes), "mod16": (mod16_members, mod16_bytes)}[sys.argv[1]]
ctx = mk_field(24)
before = hwm()
call(ctx)
print(hwm() - before, bytes_of(24))
"""


def _run_fresh(script: str, *args: str) -> str:
    """stdout of script, given args, in a fresh interpreter that imports this kspectra."""
    src = os.path.dirname(os.path.dirname(kspectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_qform_peak_memory_follows_qform_bytes():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM needs /proc/self/status")
    growth, estimate = map(int, _run_fresh(_PEAK_SCRIPT, "qform").split())
    assert growth <= estimate + (4 << 20)


def test_mod16_peak_memory_follows_mod16_bytes():
    # mod16_members builds q_table and trace_table, which the restriction does not
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM needs /proc/self/status")
    growth, estimate = map(int, _run_fresh(_PEAK_SCRIPT, "mod16").split())
    assert growth <= estimate + (4 << 20)


@pytest.mark.parametrize("n", sorted(Q_TABLE_SHA256))
def test_q_table_is_pinned(n):
    assert hashlib.sha256(q_table(mk_field(n)).tobytes()).hexdigest() == Q_TABLE_SHA256[n]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_polarization_identity(n):
    ctx = mk_field(n)
    qt = q_table(ctx)
    for x in range(ctx.size):
        for y in range(0, ctx.size, 3):
            lhs = int(qt[x]) ^ int(qt[y]) ^ int(qt[x ^ y])
            assert lhs == ctx.trace(ctx.mul(x, y)) ^ (ctx.trace(x) & ctx.trace(y))
            assert lhs == ctx.trace(ctx.mul(x, ctx.mul(y, 1) ^ (ctx.trace(y))))


def test_bilinear_on_hyperplane_is_trace_form():
    ctx = mk_field(7)
    qt = q_table(ctx)
    span = [int(v) for v in hyperplane_H(ctx).span()]
    for x in span[:40]:
        for y in span[:40]:
            assert int(qt[x]) ^ int(qt[y]) ^ int(qt[x ^ y]) == ctx.trace(ctx.mul(x, y))


def test_hyperplane_basics():
    for n in (5, 6, 8, 9):
        ctx = mk_field(n)
        H = hyperplane_H(ctx)
        assert H.dim == n - 1
        for v in H.vectors:
            assert ctx.trace(v) == 0
        assert H.contains(1) == (n % 2 == 0)


def test_restrict_examples():
    rec7 = restrict_q_to_h(mk_field(7))
    assert rec7.m == 6
    assert rec7.radical_basis.dim == 0
    assert rec7.form_type == HYPERBOLIC
    assert rec7.witt_index == 3

    rec10 = restrict_q_to_h(mk_field(10))
    assert rec10.m == 9
    assert rec10.radical_basis.dim == 0
    assert rec10.form_type == PARABOLIC
    assert rec10.witt_index == 4

    rec8 = restrict_q_to_h(mk_field(8))
    assert rec8.m == 7
    assert rec8.radical_basis.vectors == (1,)
    assert rec8.form_type == ELLIPTIC
    assert max_isotropic_dim(rec8) == 3


@pytest.mark.parametrize("n", range(4, 17))
def test_radical_piecewise(n):
    rec = restrict_q_to_h(mk_field(n))
    want = (1,) if n % 4 == 0 else ()
    assert rec.radical_basis.vectors == want


def test_zero_form_radical_is_whole_space():
    ctx = mk_field(5)
    S = subspace_from_vectors(5, [1, 2, 4])
    rec = restrict(ctx, lambda x: 0, S)
    assert rec.radical_basis.vectors == S.vectors
    assert count_zeros(rec) == 8
    assert rec.form_type == HYPERBOLIC and rec.witt_index == 0


def test_classification_congruences():
    for n in range(5, 17):
        rec = restrict_q_to_h(mk_field(n))
        r = n % 8
        if r in (0, 3, 5):
            assert rec.form_type == ELLIPTIC
        elif r in (1, 4, 7):
            assert rec.form_type == HYPERBOLIC
        else:
            assert rec.form_type == PARABOLIC
        assert classify(rec) == (rec.form_type, rec.witt_index, rec.lam)


def test_tiny_forms_dim2():
    ctx = mk_field(2)
    S = subspace_from_vectors(2, [1, 2])
    hyp = restrict(ctx, lambda x: (x & 1) & ((x >> 1) & 1), S)
    assert hyp.form_type == HYPERBOLIC and hyp.witt_index == 1
    assert count_zeros(hyp) == 3  # 2^1 + 2^0
    ell = restrict(ctx, lambda x: (x & 1) ^ ((x >> 1) & 1) ^ ((x & 1) & ((x >> 1) & 1)), S)
    assert ell.form_type == ELLIPTIC and ell.witt_index == 0
    assert count_zeros(ell) == 1  # 2^1 - 2^0


def test_count_zeros_closed_form_examples():
    assert count_zeros(restrict_q_to_h(mk_field(8))) == 2**6 - 2**3 == 56
    assert count_zeros(restrict_q_to_h(mk_field(10))) == 2**8 == 256
    assert count_zeros(restrict_q_to_h(mk_field(9))) == 2**7 + 2**3 == 136
    for n in range(4, 17):
        assert count_zeros(restrict_q_to_h(mk_field(n))) == expected_h_zero_count(n)


def test_max_isotropic_dim_examples():
    assert max_isotropic_dim(restrict_q_to_h(mk_field(8))) == 3
    assert max_isotropic_dim(restrict_q_to_h(mk_field(12))) == 6
    assert max_isotropic_dim(restrict_q_to_h(mk_field(11))) == 4


def test_find_isotropic_subspace(isotropic_subspace):
    rec = restrict_q_to_h(mk_field(8))
    ctx = mk_field(8)
    assert isotropic_subspace(rec, 0).dim == 0
    W = isotropic_subspace(rec, 3)
    assert W.dim == 3
    qt = q_table(ctx)
    for x in W.span():
        assert ctx.trace(int(x)) == 0
        assert int(qt[int(x)]) == 0
    # the unbounded search is exhaustive: none larger than max_isotropic_dim
    assert isotropic_subspace(rec).dim == max_isotropic_dim(rec) == 3


#: the max_isotropic_dim-dimensional isotropic basis of restrict_q_to_h(mk_field(n)),
#: captured from the numpy DFS over coordinate masks; at capture every lower
#: target d returned the first d of these vectors
ISOTROPIC_BASES = {
    3: (),
    4: (0x1, 0x2),
    5: (0x2,),
    6: (0x2, 0x4),
    7: (0x2, 0x4, 0x10),
    8: (0x1, 0x2, 0x4),
    9: (0x2, 0x4, 0x8, 0x10),
    10: (0x2, 0x4, 0x8, 0x100),
    11: (0x2, 0x4, 0x8, 0x10),
    12: (0x1, 0x2, 0x4, 0x8, 0x10, 0x400),
    13: (0x2, 0x4, 0x8, 0x10, 0xaa1),
    14: (0x2, 0x4, 0x8, 0x10, 0x400, 0x800),
    15: (0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x100),
    16: (0x1, 0x2, 0x4, 0x8, 0x10, 0x20, 0x5140),
}


@pytest.mark.parametrize("n", sorted(ISOTROPIC_BASES))
def test_find_isotropic_subspace_pinned(n, isotropic_subspace):
    rec = restrict_q_to_h(mk_field(n))
    full = ISOTROPIC_BASES[n]
    assert max_isotropic_dim(rec) == len(full)
    for d in range(len(full) + 1):
        assert isotropic_subspace(rec, d).vectors == full[:d]


@pytest.mark.parametrize("n", [5, 6, 7, 9, 12])
def test_find_isotropic_at_max_dim(n, isotropic_subspace):
    rec = restrict_q_to_h(mk_field(n))
    d = max_isotropic_dim(rec)
    W = isotropic_subspace(rec, d)
    assert W.dim == d
    ctx = mk_field(n)
    qt = q_table(ctx)
    for x in W.span():
        assert ctx.trace(int(x)) == 0 and int(qt[int(x)]) == 0


def test_not_quadratic_form_rejected():
    ctx = mk_field(5)
    S = hyperplane_H(ctx)
    inv_tab = ctx.inverse_table()
    with pytest.raises(NotQuadraticFormError):
        restrict(ctx, lambda x: int(inv_tab[x]) & 1, S)
    with pytest.raises(NotQuadraticFormError):
        restrict(ctx, lambda x: 1 if x == 0 else 0, S)


@pytest.mark.parametrize("n", [6, 16])
def test_every_coordinate_triple_is_checked_up_to_m15(n):
    # H has dimension m = n - 1 <= 15, so its C(m, 3) <= 512 coordinate
    # triples are all checked: flipping q at any one of them must be caught
    ctx = mk_field(n)
    S = hyperplane_H(ctx)
    qt = q_table(ctx)
    m = S.dim
    for i, j, k in [(0, 1, 2), (1, m // 2, m - 1), (m - 3, m - 2, m - 1)]:
        bad = xor_combine(S.vectors, (1 << i) | (1 << j) | (1 << k))
        with pytest.raises(NotQuadraticFormError, match="polarization"):
            restrict(ctx, lambda x: int(qt[x]) ^ (x == bad), S)


_NO_NUMPY_RANDOM_SCRIPT = """
import sys
import kspectra.cli
from kspectra.gf2n import mk_field
from kspectra.quadform import restrict_q_to_h

restrict_q_to_h(mk_field(12))
print("numpy.random" in sys.modules)
"""


def test_restriction_does_not_load_numpy_random():
    # numpy.random's first import costs 10+ ms and about 5 MiB of peak RSS
    assert _run_fresh(_NO_NUMPY_RANDOM_SCRIPT).split() == ["False"]


def test_inconsistent_count_raises():
    with pytest.raises(InconsistentFormError):
        from kspectra.quadform import _classify_counts
        _classify_counts(4, 0, 9)


def test_expected_h_zero_count_range_error():
    with pytest.raises(ValueError):
        expected_h_zero_count(2)
