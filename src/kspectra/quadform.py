"""The trace-zero-hyperplane quadratic form: restriction, radical, classification.

The form q(x) = sum_{0<=i<j<n} x^(2^i+2^j) takes values in F_2 (it is the
x^(n-2) coefficient of the characteristic polynomial) and polarizes to
B(x,y) = Tr(xy) + Tr(x)Tr(y).  q and its restrictions to subspaces are
tabulated in place by one xor-doubling pass (_form_table) driven by basis
values and the polarization; restrictions are classified by zero counting.
The restriction to the trace-zero hyperplane reads q pointwise (q_evaluator),
so it builds no table of q on the whole field.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from kspectra.gf2n import FieldCtx, memo, nullspace_rows, rref, xor_combine
from kspectra.linmap import SubspaceBasis, orthogonal_complement, subspace_from_vectors
from kspectra.spectra import memory_cap

HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"
ELLIPTIC = "elliptic"


class NotQuadraticFormError(ValueError):
    """The supplied evaluator does not polarize to a bilinear form."""


class InconsistentFormError(AssertionError):
    """Zero count matches no quadratic-form type for the given radical.

    The count of a genuine quadratic form always matches one type, so this
    signals an internal inconsistency, not bad input.
    """


def q_eval(ctx: FieldCtx, a: int) -> int:
    """Definitional sum over all conjugate pairs; lands in {0, 1}."""
    conj = [a]
    for _ in range(ctx.n - 1):
        conj.append(ctx.sqr(conj[-1]))
    acc = 0
    for i in range(ctx.n):
        for j in range(i + 1, ctx.n):
            acc ^= ctx.mul(conj[i], conj[j])
    if acc not in (0, 1):
        raise AssertionError("quadratic form left F_2")
    return acc


def _q_by_traces(ctx: FieldCtx, a: int) -> int:
    """q(a) from about n/2 products instead of q_eval's n(n-1)/2.

    The term of the pair i < j is (a^(1+2^d))^(2^i) with d = j - i, and since
    (a^(1+2^(n-d)))^(2^d) = a^(1+2^d), the pairs at distances d and n - d
    together hold every conjugate of a^(1+2^d) once: q(a) is the sum of
    Tr(a^(1+2^d)) over 1 <= d < n/2, plus, for even n, the trace of
    a^(1+2^(n/2)) from F_2^(n/2), the sum of its first n/2 conjugates.
    Products are shift-and-reduce: no 2^n table; q_eval keeps ctx.mul.
    """
    n = ctx.n
    conj = [a]
    for _ in range(n // 2):
        conj.append(ctx.sqr(conj[-1]))
    acc = 0
    for d in range(1, (n + 1) // 2):
        acc ^= ctx.trace(ctx._mul_raw(a, conj[d]))
    if n % 2 == 0:
        b = ctx._mul_raw(a, conj[n // 2])
        for _ in range(n // 2):
            acc ^= b
            b = ctx.sqr(b)
    if acc not in (0, 1):
        raise AssertionError("quadratic form left F_2")
    return acc


def qform_bytes(n: int) -> int:
    """Peak bytes of restrict_q_to_h beyond its field: the hyperplane's table (2^(n-1))
    and 1 MiB; VmHWM grew 2^(n-1) + 0.01-0.07 MiB at n = 24..28, also with
    MALLOC_MMAP_THRESHOLD_=131072 (no table of q on the whole field is built)."""
    return (1 << (n - 1)) + (1 << 20)


#: restrict_q_to_h refuses degrees above this one, whose table would not fit in memory_cap's limit
QFORM_CAP = memory_cap(qform_bytes)


@memo
def _q_polar(ctx: FieldCtx) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """q's basis values _q_by_traces(x^i), about n^2/2 table-free products, and
    the rows of its polarization B: bit j of row i is B(x^i, x^j)."""
    tr = ctx.trace_mask
    return (tuple(_q_by_traces(ctx, 1 << i) for i in range(ctx.n)),
            tuple(g ^ (tr if (tr >> i) & 1 else 0) for i, g in enumerate(ctx.gram)))


@memo
def q_table(ctx: FieldCtx) -> np.ndarray:
    """q on the whole field as uint8, by the polarization doubling pass from _q_polar."""
    return _form_table(ctx.n, *_q_polar(ctx))


def hyperplane_H(ctx: FieldCtx) -> SubspaceBasis:
    """Canonical basis of the trace-zero hyperplane {x : Tr(x) = 0}."""
    return orthogonal_complement(ctx, subspace_from_vectors(ctx.n, [1]))


@dataclass(frozen=True)
class QuadFormRec:
    """A quadratic form on a subspace with radical, type and Witt index."""

    n: int                       # ambient field degree
    basis: tuple[int, ...]       # subspace basis inside F_2^n
    eval: np.ndarray             # uint8 truth table over coordinate masks
    radical_basis: SubspaceBasis
    form_type: str
    witt_index: int
    lam: int

    @property
    def m(self) -> int:
        return len(self.basis)


def _form_table(m: int, fvals, bmat) -> np.ndarray:
    """Truth table of a form over coordinate masks, in place, by polarization doubling:
    f(c + e_i) = f(c) + f(e_i) + B(c, e_i) for c below bit i; bmat[i] is read below bit i."""
    ev = np.zeros(1 << m, dtype=np.uint8)
    for i in range(m):
        h = 1 << i
        ev[h] = fvals[i]
        for j in range(i):  # the linear part f(e_i) + B(., e_i), doubled over bits j < i
            np.bitwise_xor(ev[h:h + (1 << j)], (bmat[i] >> j) & 1, out=ev[h + (1 << j):h + (2 << j)])
        ev[h:2 * h] ^= ev[:h]
    return ev


def _radical_coords(m: int, bmat, ev) -> tuple[int, ...]:
    """{y in rad(B) : f(y) = 0} as canonical coordinate masks."""
    rad_b = nullspace_rows(list(bmat), m)
    # f is linear on rad(B), so filter by combining f=1 vectors pairwise
    ones = [v for v in rad_b if ev[v]]
    zeros = [v for v in rad_b if not ev[v]]
    if ones:
        zeros.extend(ones[0] ^ v for v in ones[1:])
    return rref(zeros)


def _classify_counts(m: int, w: int, nzeros: int) -> tuple[str, int, int]:
    """Invert N = 2^(m-1) + lam * 2^((m+w-2)/2) for lam in {-1, 0, +1}."""
    if m == 0:
        return HYPERBOLIC, 0, 1
    half = 1 << (m - 1)
    if (m + w) % 2 == 1:
        if nzeros != half:
            raise InconsistentFormError(
                f"count {nzeros} incompatible with parabolic type (m={m}, w={w})"
            )
        lam = 0
        form_type = PARABOLIC
    else:
        step = 1 << ((m + w - 2) // 2)
        if nzeros == half + step:
            lam, form_type = 1, HYPERBOLIC
        elif nzeros == half - step:
            lam, form_type = -1, ELLIPTIC
        else:
            raise InconsistentFormError(
                f"count {nzeros} matches no type (m={m}, w={w})"
            )
    v = (m - w) // 2
    witt = v - 1 if lam < 0 else v
    return form_type, witt, lam


def restrict(ctx: FieldCtx, f, S: SubspaceBasis) -> QuadFormRec:
    """Tabulate the form f on the subspace S and classify it.

    f is any evaluator over ambient elements; it must be a quadratic form
    (f(0) = 0, bilinear polarization), which is spot-checked on coordinate
    triples and random points.
    """
    basis = S.vectors
    m = len(basis)
    if f(0) != 0:
        raise NotQuadraticFormError("f(0) != 0")
    fvals = tuple(int(f(s)) & 1 for s in basis)
    bmat = [0] * m
    for i in range(m):
        for j in range(i):
            b = (fvals[i] ^ fvals[j] ^ int(f(basis[i] ^ basis[j]))) & 1
            bmat[i] |= b << j
            bmat[j] |= b << i
    ev = _form_table(m, fvals, bmat)
    _validate_form(f, basis, ev, m)
    rad = _radical_coords(m, bmat, ev)
    nzeros = (1 << m) - int(np.count_nonzero(ev))
    form_type, witt, lam = _classify_counts(m, len(rad), nzeros)
    rad_ambient = subspace_from_vectors(ctx.n, [xor_combine(basis, c) for c in rad])
    ev.flags.writeable = False
    return QuadFormRec(
        n=ctx.n, basis=basis, eval=ev, radical_basis=rad_ambient,
        form_type=form_type, witt_index=witt, lam=lam,
    )


def _validate_form(f, basis, ev, m: int):
    """Check ev against f on up to 512 coordinate triples and 64 random points."""
    rng = random.Random(0xF0F0)  # the stdlib one: numpy.random costs 10+ ms to import
    idx = list(itertools.combinations(range(m), 3))
    for i, j, k in rng.sample(idx, min(512, len(idx))):
        c = (1 << i) | (1 << j) | (1 << k)
        if int(ev[c]) != int(f(xor_combine(basis, c))) & 1:
            raise NotQuadraticFormError("polarization is not bilinear")
    for c in rng.choices(range(1 << m), k=min(64, 1 << m)):
        if int(ev[c]) != int(f(xor_combine(basis, c))) & 1:
            raise NotQuadraticFormError("evaluator disagrees with quadratic table")


def q_evaluator(ctx: FieldCtx):
    """q as a scalar evaluator with no 2^n table, from _q_polar: q(x) is the sum
    of q(x^i) + B(x^i, x mod x^i) over the set bits i of x."""
    qb, rows = _q_polar(ctx)

    def q_at(x: int) -> int:
        acc = 0
        while x:
            i = x.bit_length() - 1
            x ^= 1 << i
            acc ^= qb[i] ^ (rows[i] & x).bit_count()
        return acc & 1
    return q_at


def restrict_q_to_h(ctx: FieldCtx) -> QuadFormRec:
    """The canonical object of study: q restricted to the trace-zero hyperplane,
    read from q_evaluator, so its table of 2^(n-1) entries is the only large one."""
    if ctx.n > QFORM_CAP:
        raise ValueError(f"q on H for n={ctx.n} is over the memory cap (n <= {QFORM_CAP})")
    return restrict(ctx, q_evaluator(ctx), hyperplane_H(ctx))


def classify(qf: QuadFormRec) -> tuple[str, int, int]:
    """(type, Witt index, lambda) from the zero count; raises if inconsistent."""
    return _classify_counts(qf.m, qf.radical_basis.dim, count_zeros(qf))


def count_zeros(qf: QuadFormRec) -> int:
    return (1 << qf.m) - int(np.count_nonzero(qf.eval))


def max_isotropic_dim(qf: QuadFormRec) -> int:
    """Largest dimension of a totally isotropic subspace: Witt index + radical."""
    return qf.witt_index + qf.radical_basis.dim


def expected_h_zero_count(n: int) -> int:
    """Closed-form count of {x : Tr(x) = 0, q(x) = 0}: 2^(n-2) + e."""
    if n < 3:
        raise ValueError("count formula needs n >= 3")
    r = n % 8
    if r == 0:
        e = -(1 << ((n - 2) // 2))
    elif r in (1, 7):
        e = 1 << ((n - 3) // 2)
    elif r in (2, 6):
        e = 0
    elif r in (3, 5):
        e = -(1 << ((n - 3) // 2))
    else:  # r == 4
        e = 1 << ((n - 2) // 2)
    return (1 << (n - 2)) + e
