"""Acceptance gate: one test per criterion, each printing a pass line.

Expected values marked by exhaustive enumeration elsewhere in the suite are
frozen here at their stated exact tolerances; randomized criteria use fixed
seeds and the sample sizes the criteria demand.
"""

import math
from functools import lru_cache

import numpy as np

from kspectra.gf2n import mk_field
from kspectra.linmap import (
    adjoint,
    image_basis,
    kernel,
    orthogonal_complement,
    random_bijective_map,
    random_map,
    random_subspace,
)
from kspectra.permcheck import (
    perm_direct,
    perm_spectral,
    search_counterexample,
    sweep_inverse_plus_linear,
)
from kspectra.quadform import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    count_zeros,
    expected_h_zero_count,
    max_isotropic_dim,
    q_eval,
    q_table,
    restrict_q_to_h,
)
from kspectra.spectra import (
    TruthTable,
    kloosterman_spectrum,
    kloosterman_zeros,
    walsh,
    walsh_row,
)
from kspectra.zerospace import (
    max_mod16_subspace,
    max_subspace_in_set,
    max_zero_subspace,
    mod16_members,
    mod16_subspace_bound,
    subspace_sum_identity,
    zero_subspace_bound,
)


@lru_cache(maxsize=None)
def ctx(n):
    return mk_field(n)


@lru_cache(maxsize=None)
def spec(n):
    return kloosterman_spectrum(ctx(n))


@lru_cache(maxsize=None)
def qrec(n):
    return restrict_q_to_h(ctx(n))


@lru_cache(maxsize=None)
def zero_report(n):
    return max_zero_subspace(ctx(n))


def _ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


# -- 1 -----------------------------------------------------------------------

TABLE_RIGHT = {5: 1, 6: 2, 7: 3, 8: 1, 9: 1, 10: 2, 11: 2, 12: 2, 13: 1, 14: 3,
               15: 4, 16: 2}


def test_criterion_01_max_zero_subspace_dims_exact():
    for n, want in TABLE_RIGHT.items():
        rep = zero_report(n)
        assert rep.best_dim == want, f"n={n}: got {rep.best_dim}, want {want}"
        assert rep.exhaustive
    _ok(1, "max zero-subspace dimensions exact for n=5..16")


# -- 2 -----------------------------------------------------------------------

TABLE_LEFT = {5: 0.88, 10: 1.87, 15: 1.57, 20: 0.86}


def test_criterion_02_zero_count_ratios():
    for n, want in TABLE_LEFT.items():
        count = len(kloosterman_zeros(ctx(n)))
        ratio = count / 2 ** (n / 2)
        assert abs(ratio - want) <= 0.011, f"n={n}: ratio {ratio:.4f} vs {want}"
    _ok(2, "zero-count ratios match to +/-0.011 for n=5,10,15,20")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_mod16_characterization_exhaustive():
    for n in range(4, 17):
        from_spec = np.flatnonzero(spec(n).data % 16 == 0).astype(np.uint32)
        assert np.array_equal(from_spec, mod16_members(ctx(n))), f"n={n}"
    _ok(3, "K = 0 mod 16 iff Tr = 0 and q = 0, exhaustive for n=4..16")


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_hyperplane_zero_counts():
    for n in range(4, 25):
        assert count_zeros(qrec(n)) == expected_h_zero_count(n), f"n={n}"
    _ok(4, "zero counts of q|H equal the five-case closed form for n=4..24")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_radicals():
    for n in range(4, 25):
        want = (1,) if n % 4 == 0 else ()
        assert qrec(n).radical_basis.vectors == want, f"n={n}"
    _ok(5, "radical of q|H is {0,1} iff 4 | n, else {0}, for n=4..24")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_mod16_sharpness():
    for n in range(5, 13):
        rep = max_mod16_subspace(ctx(n))
        assert rep.best_dim == mod16_subspace_bound(n), f"n={n}: {rep.best_dim}"
        members = set(int(v) for v in mod16_members(ctx(n)))
        for x in rep.best_basis.span():
            assert int(x) in members
    _ok(6, "mod16 searches attain the bound exactly for n=5..12")


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_zero_subspace_bound_and_subfield():
    for n in range(5, 17):
        rep = zero_report(n)
        assert rep.best_dim <= zero_subspace_bound(n), f"n={n}"
        zs = kloosterman_zeros(ctx(n))
        for x in rep.best_basis.span():
            if int(x):
                assert int(x) in zs
        if n % 2 == 0:
            sub = ctx(n).subfield_elements(n // 2)
            for x in rep.best_basis.span():
                assert int(x) == 0 or int(x) not in sub, f"n={n}"
    _ok(7, "zero-subspace dims within bound, even-n bases avoid the half subfield")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_exhaustive_sweep_n5():
    rep = sweep_inverse_plus_linear(ctx(5))
    assert rep.candidates_checked == (1 << 25) - 1
    assert rep.permutations_found == ()
    _ok(8, f"no permutation x^-1 + L(x) among 2^25-1 maps at n=5 "
           f"({rep.wall_time_s:.2f}s)")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_spectral_equals_direct_10k_per_n():
    rng = np.random.default_rng(0xC0FFEE)
    for n in range(5, 11):
        c = ctx(n)
        disagreements = 0
        for _ in range(10_000):
            L1 = random_map(rng, n)
            L2 = random_map(rng, n)
            if perm_spectral(c, L1, L2).is_perm != perm_direct(c, L1, L2).is_perm:
                disagreements += 1
        assert disagreements == 0, f"n={n}: {disagreements} disagreements"
    _ok(9, "spectral and direct verdicts agree on 10^4 random pairs per n=5..10")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_subspace_sum_identity():
    rng = np.random.default_rng(0xABCD)
    for n in range(5, 13):
        c = ctx(n)
        dims = list(range(n)) * (100 // n + 2)  # >= 100, covers every dim 0..n-1
        for dim in dims:
            V = random_subspace(rng, n, dim)
            lhs, rhs = subspace_sum_identity(c, V)
            assert lhs == rhs, f"n={n} dim={dim}: {lhs} != {rhs}"
    _ok(10, "subspace summation identity exact on 100+ subspaces per n=5..12")


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_weil_bound_and_global_sum():
    for n in range(4, 21):
        data = spec(n).data
        bound = math.isqrt(1 << (n + 2))  # floor(2^(n/2+1))
        # exact Weil statement for 0-extended sums
        assert int(np.abs(data - 1).max()) <= bound, f"n={n}"
        assert int(data.sum()) == 1 << n, f"n={n}"
        # the unshifted shorthand holds everywhere except the pinned n=5 case
        if n != 5:
            assert int(np.abs(data).max()) <= bound, f"n={n}"
    assert int(np.abs(spec(5).data).max()) == 12  # exceeds floor(2^3.5) = 11 by the +1 slack
    _ok(11, "Weil bound (exact, shifted form) and sum K = 2^n for n=4..20; "
            "single unshifted exception pinned at n=5")


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_counterexample_search_finds_nothing():
    for n in range(5, 11):
        for mode, seed in (("random", 101), ("structured", 202)):
            rep = search_counterexample(ctx(n), mode, budget=1_000_000, seed=seed)
            assert rep.pairs_examined == 1_000_000
            assert rep.found is None, f"n={n} {mode}: counterexample {rep.found}"
    _ok(12, "10^6-pair random and structured searches find no permutation, n=5..10")


# -- 13: property suites -------------------------------------------------------

def test_criterion_13a_field_and_char_poly_properties():
    for n in range(2, 13):
        c = ctx(n)
        qt = q_table(c)
        tr = c.trace_table()
        assert int(tr.sum()) == c.size // 2
        for a in range(c.size):
            cp = c.char_poly(a)
            assert (cp >> (n - 1)) & 1 == c.trace(a)
            if n >= 2:
                assert (cp >> (n - 2)) & 1 == int(qt[a])
        sample = range(1, c.size, max(1, c.size // 128))
        for a in sample:
            assert c.mul(a, c.inv0(a)) == 1
            assert c.inv0(c.inv0(a)) == a
    _ok(13, "13a: char-poly coefficients = trace and q exhaustively, n<=12")


def test_criterion_13b_adjoint_identities():
    rng = np.random.default_rng(31337)
    for n in range(5, 11):
        c = ctx(n)
        for _ in range(1000):
            L = random_map(rng, n)
            A = adjoint(c, L)
            assert kernel(A).dim == kernel(L).dim
            assert image_basis(A).dim == image_basis(L).dim
            assert image_basis(A).vectors == orthogonal_complement(c, kernel(L)).vectors
    # trace pairing: exhaustive for n <= 6, sampled 10^4 pairs for 7 <= n <= 12
    for n in (5, 6):
        c = ctx(n)
        for _ in range(5):
            L = random_map(rng, n)
            A = adjoint(c, L)
            for x in range(c.size):
                for y in range(c.size):
                    assert c.trace(c.mul(L(x), y)) == c.trace(c.mul(x, A(y)))
    for n in range(7, 13):
        c = ctx(n)
        L = random_map(rng, n)
        A = adjoint(c, L)
        xs = rng.integers(0, c.size, 10_000)
        ys = rng.integers(0, c.size, 10_000)
        for x, y in zip(xs, ys):
            assert c.trace(c.mul(L(int(x)), int(y))) == c.trace(c.mul(int(x), A(int(y))))
    _ok(13, "13b: adjoint dimension/annihilator identities and trace pairing")


def test_criterion_13c_transform_properties():
    rng = np.random.default_rng(777)
    # fast rows match the direct sum, exhaustively over b
    for n in range(5, 9):
        c = ctx(n)
        F = TruthTable(n, rng.integers(0, c.size, c.size).astype(np.uint32))
        a = int(rng.integers(1, c.size))
        row = walsh_row(c, F, a)
        for b in range(c.size):
            assert int(row.data[b]) == walsh(c, F, a, b)
        data = row.data.astype(object)
        assert int(np.sum(data * data)) == 1 << (2 * n)
    # Frobenius invariance, exhaustive n <= 16
    for n in range(3, 17):
        frob = ctx(n).frobenius_table()
        assert np.array_equal(spec(n).data[frob], spec(n).data)
        assert not int((spec(n).data & 3).any())  # multiples of 4 for n >= 3
    # no zero in a proper subfield, n = 5..20
    for n in range(5, 21):
        c = ctx(n)
        zs = kloosterman_zeros(c)
        for d in range(1, n):
            if n % d == 0:
                assert not (zs & c.subfield_elements(d)), f"n={n}, d={d}"
    _ok(13, "13c: oracle-equal rows, Parseval, Frobenius orbits, subfield-free zeros")


def test_criterion_13d_quadform_properties():
    # classification congruences for n = 5..24
    for n in range(5, 25):
        r = n % 8
        want = ELLIPTIC if r in (0, 3, 5) else HYPERBOLIC if r in (1, 4, 7) else PARABOLIC
        assert qrec(n).form_type == want, f"n={n}"
    # polarization identity, exhaustive n <= 10
    for n in range(4, 11):
        c = ctx(n)
        qt = q_table(c)
        idx = np.arange(c.size, dtype=np.uint32)
        tr = c.trace_table()
        for y in range(c.size):
            t = y ^ c.trace(y)
            closed = tr[c.mul_vec(t, idx)]
            assert np.array_equal(qt ^ qt[y] ^ qt[idx ^ y], closed), f"n={n}, y={y}"
    # q agrees with the definitional sum on every element, n <= 10
    for n in range(4, 11):
        c = ctx(n)
        qt = q_table(c)
        for a in range(c.size):
            assert int(qt[a]) == q_eval(c, a)
    # no isotropic subspace beats witt + radical: full enumeration, n <= 10
    for n in range(5, 11):
        c = ctx(n)
        rep = max_subspace_in_set(c, mod16_members(c), label="isotropic-full")
        assert rep.exhaustive
        assert rep.best_dim == max_isotropic_dim(qrec(n)), f"n={n}"
    _ok(13, "13d: congruence classes, polarization, definitional q, isotropic maxima")


def test_criterion_13e_search_and_perm_properties():
    rng = np.random.default_rng(4242)
    # swap symmetry and scalar normalization
    for n in (5, 6, 7):
        c = ctx(n)
        for _ in range(200):
            L1, L2 = random_map(rng, n), random_map(rng, n)
            assert perm_direct(c, L1, L2).is_perm == perm_direct(c, L2, L1).is_perm
    # bijective-factor consequence for n = 5..10
    for n in range(5, 11):
        c = ctx(n)
        for _ in range(50):
            bij = random_bijective_map(rng, n)
            other = random_map(rng, n)
            if not other.is_zero():
                assert not perm_direct(c, bij, other).is_perm
                assert not perm_direct(c, other, bij).is_perm
    _ok(13, "13e: swap symmetry, bijective-factor exclusion")
