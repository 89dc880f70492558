"""F_2-linear self-maps of F_2^n and canonical subspace bases.

Maps are stored as tuples of column masks (column i = image of basis
element x^i); subspaces as reduced-echelon bases with strictly increasing
leading-bit positions, which makes the representation unique per subspace.
canonical_search is the one subspace DFS: the largest subspace inside a set,
for zerospace's searches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kspectra.gf2n import (
    FieldCtx,
    elem_dtype,
    nullspace_rows,
    rref,
    transpose_bits,
    xor_combine,
    xor_table,
)


@dataclass(frozen=True)
class LinMap:
    """An F_2-linear map of F_2^n given by its column masks."""

    n: int
    cols: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return xor_combine(self.cols, x)

    @property
    def rows(self) -> tuple[int, ...]:
        return transpose_bits(self.cols, self.n)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def truth_table(self) -> np.ndarray:
        """Images of all 2^n points, indexed by element encoding."""
        return xor_table(self.cols, elem_dtype(self.n))


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (reduced echelon, ascending leading bits) subspace basis."""

    n: int
    vectors: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def span(self) -> np.ndarray:
        return xor_table(self.vectors, elem_dtype(self.n))

    def span_set(self) -> set[int]:
        return set(int(v) for v in self.span())

    def contains(self, x: int) -> bool:
        return len(rref(self.vectors + (x,))) == self.dim


def subspace_from_vectors(n: int, vectors) -> SubspaceBasis:
    return SubspaceBasis(n, rref(vectors))


def identity_map(n: int) -> LinMap:
    return LinMap(n, tuple(1 << i for i in range(n)))


def zero_map(n: int) -> LinMap:
    return LinMap(n, (0,) * n)


def from_matrix_rows(n: int, rows) -> LinMap:
    return LinMap(n, transpose_bits(tuple(rows), n))


def scalar_map(ctx: FieldCtx, c: int) -> LinMap:
    """The multiplication-by-c map."""
    return LinMap(ctx.n, tuple(ctx.mul(c, 1 << i) for i in range(ctx.n)))


def from_linearized(ctx: FieldCtx, coeffs) -> LinMap:
    """Map x -> sum_i coeffs[i] * x^(2^i) as a matrix."""
    coeffs = list(coeffs)
    if len(coeffs) > ctx.n:
        raise ValueError("too many linearized coefficients")
    cols = []
    for j in range(ctx.n):
        img = 0
        b = 1 << j
        for c in coeffs:
            img ^= ctx.mul(c, b)
            b = ctx.sqr(b)
        cols.append(img)
    return LinMap(ctx.n, tuple(cols))


def compose(L1: LinMap, L2: LinMap) -> LinMap:
    """L1 after L2 (matrix product L1*L2)."""
    if L1.n != L2.n:
        raise ValueError("degree mismatch")
    return LinMap(L1.n, tuple(L1(c) for c in L2.cols))


def adjoint(ctx: FieldCtx, L: LinMap) -> LinMap:
    """The unique L* with Tr(L(x)*y) = Tr(x*L*(y)), i.e. G^-1 * M^T * G."""
    mt = transpose_bits(L.cols, ctx.n)  # columns of M^T
    ginv = LinMap(ctx.n, tuple(ctx.gram_inv))  # symmetric: rows = columns
    g = LinMap(ctx.n, tuple(ctx.gram))
    return compose(ginv, compose(LinMap(ctx.n, mt), g))


def _annihilator(n: int, rows) -> SubspaceBasis:
    """Canonical basis of {x : parity(r & x) = 0 for every r in rows}."""
    return subspace_from_vectors(n, nullspace_rows(list(rows), n))


def kernel(L: LinMap) -> SubspaceBasis:
    """Canonical basis of {x : L(x) = 0}."""
    return _annihilator(L.n, L.rows)


def image_basis(L: LinMap) -> SubspaceBasis:
    """Canonical basis of the column space."""
    return subspace_from_vectors(L.n, L.cols)


def rank(L: LinMap) -> int:
    return len(rref(L.cols))


def kernel_dim(L: LinMap) -> int:
    return L.n - rank(L)


def orthogonal_complement(ctx: FieldCtx, V: SubspaceBasis) -> SubspaceBasis:
    """V-perp under the trace form Tr(xy)."""
    return _annihilator(ctx.n, [ctx.dualenc(v) for v in V.vectors])


def kernel_intersection(L1: LinMap, L2: LinMap) -> SubspaceBasis:
    return _annihilator(L1.n, L1.rows + L2.rows)


def linearized_coeffs(ctx: FieldCtx, L: LinMap) -> tuple[int, ...]:
    """The unique c_0..c_{n-1} with L(x) = sum c_i x^(2^i).

    With d_j the dual basis, x = sum_j Tr(x d_j) x^j, so
    L(x) = sum_i x^(2^i) sum_j L(x^j) d_j^(2^i): c_i = sum_j L(x^j) d_j^(2^i).
    """
    d = ctx.gram_inv  # row j is d_j
    coeffs = []
    for _ in range(ctx.n):
        c = 0
        for img, dj in zip(L.cols, d):
            c ^= ctx.mul(img, dj)
        coeffs.append(c)
        d = [ctx.sqr(v) for v in d]
    return tuple(coeffs)


def _low_masks(n: int) -> list[int]:
    """LOW[i]: the bitset over F_2^n of the elements with bit i clear."""
    size = 1 << n
    out = []
    for i in range(n):
        m, width = (1 << (1 << i)) - 1, 2 << i  # 2^i ones, then 2^i zeros
        while width < size:
            m |= m << width
            width <<= 1
        out.append(m)
    return out


def _translate(B: int, v: int, low: list[int]) -> int:
    """The bitset B xor v = {x ^ v : x in B}: one block swap per set bit of v."""
    while v:
        s = v & -v  # flipping bit i of every x swaps blocks of s = 2^i elements
        m = low[s.bit_length() - 1]
        B = ((B & m) << s) | ((B >> s) & m)
        v ^= s
    return B


def canonical_search(n: int, members: np.ndarray, *, bound: int | None = None,
                     node_budget: int | None = None) -> tuple[list[int], int, bool]:
    """(basis, nodes visited, truncated): a deepest basis whose nonzero span
    lies in members, a boolean array over F_2^n (entry 0 is ignored).

    Depth-first canonical extension: a basis is extended only by larger
    vectors with its last vector's leading bit clear, so each subspace is
    visited once, in increasing order.  It stops once the basis reaches
    bound or the node budget runs out.  Sets are Python-int bitsets (bit x
    set iff x is in the set).  G = {x : x + span in members} is kept with
    the candidate pool, a subset of G; both are the members minus 0 at the
    root.  The pool is taken one leading-bit group at a time, whose members
    share their candidates before translation, R = the pool above the group
    with that bit clear.  If R is empty the group is all leaves, counted at
    once.  Otherwise adding v gives G' = G & (G xor v), with G xor v made
    from the previous member u's G xor u by a block swap per set bit of
    u xor v through LOW[i]; v's children are R meet G xor v.  Memory: the
    n LOW masks plus a pool, G, G xor v and R per level, each 2^n bits
    (8 KiB at n = 16).
    """
    root = int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little") & ~1
    low = _low_masks(n)
    budget = math.inf if node_budget is None else node_budget

    best: list[int] = []
    nodes = 0
    truncated = False

    def dfs(basis: list[int], G: int, pool: int) -> bool:
        """Search below basis; True once the search must stop."""
        nonlocal best, nodes, truncated
        depth = len(basis) + 1
        while pool:
            if nodes >= budget:
                truncated = True
                return True
            v = (pool & -pool).bit_length() - 1
            lead = v.bit_length() - 1
            group = pool & ((1 << (2 << lead)) - 1)  # the pool elements with v's leading bit
            pool ^= group  # now only elements with a higher leading bit
            if depth > len(best):  # only the first node at a new depth grows best
                best = basis + [v]
                if bound is not None and depth >= bound:
                    nodes += 1
                    return True
            R = pool & low[lead]  # every member's candidates before translation
            if not R:  # every member is a leaf
                nodes += group.bit_count()
                if nodes > budget:
                    nodes, truncated = budget, True
                    return True
                continue
            u, Gu = 0, G  # Gu = G xor u for the last member u
            while group:
                if nodes >= budget:
                    truncated = True
                    return True
                nodes += 1
                bit = group & -group
                group ^= bit
                v = bit.bit_length() - 1
                Gu = _translate(Gu, u ^ v, low)
                u = v
                kids = R & Gu
                if kids and dfs(basis + [v], G & Gu, kids):  # no kids: a leaf, settled here
                    return True
        return False

    if bound is None or bound > 0:
        dfs([], root, root)
    del dfs  # dfs refers to itself: break the cycle, or it pins the LOW masks, n * 2^n bits
    return best, nodes, truncated


def random_map(rng: np.random.Generator, n: int) -> LinMap:
    """Uniform over all n x n bit matrices (not conditioned on invertibility)."""
    return LinMap(n, tuple(int(v) for v in rng.integers(0, 1 << n, n)))


def random_bijective_map(rng: np.random.Generator, n: int) -> LinMap:
    while True:
        L = random_map(rng, n)
        if rank(L) == n:
            return L


def random_subspace(rng: np.random.Generator, n: int, dim: int) -> SubspaceBasis:
    """Uniform-ish random subspace of the requested dimension."""
    if not 0 <= dim <= n:
        raise ValueError("dimension out of range")
    vecs: tuple[int, ...] = ()
    while len(vecs) < dim:
        vecs = rref(vecs + (int(rng.integers(1, 1 << n)),))
    return SubspaceBasis(n, vecs)


def map_to_json(ctx: FieldCtx, L: LinMap) -> dict:
    return {
        "n": L.n,
        "matrix_rows": [hex(r) for r in L.rows],
        "linearized": [hex(c) for c in linearized_coeffs(ctx, L)],
    }


def map_from_json(ctx: FieldCtx, obj: dict) -> LinMap:
    """The map of a {n, matrix_rows, linearized} object; ValueError on any other shape."""
    def as_int(v):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ValueError(f"map entries must be ints or integer strings, not {v!r}")
        return int(v, 0) if isinstance(v, str) else v
    try:
        n = as_int(obj["n"])
        rows = [as_int(r) for r in obj["matrix_rows"]]
        lin = obj.get("linearized")
        coeffs = None if lin is None else [as_int(c) for c in lin]
    except (KeyError, TypeError):
        raise ValueError("a map must be a JSON object {n, matrix_rows, linearized}") from None
    if n != ctx.n:
        raise ValueError(f"map degree {n} does not match field degree {ctx.n}")
    if len(rows) != n or any(r >> n for r in rows):
        raise ValueError("matrix_rows must be n masks of n bits")
    L = from_matrix_rows(n, rows)
    if coeffs is not None:
        if any(not 0 <= c < ctx.size for c in coeffs):
            raise ValueError("linearized coefficients must be field elements")
        if from_linearized(ctx, coeffs).cols != L.cols:  # checked on a basis by construction
            raise ValueError("matrix and linearized coefficients disagree")
    return L
