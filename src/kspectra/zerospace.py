"""Subspaces inside the Kloosterman-zero and mod-16 sets: bounds and searches.

The searches run linmap.canonical_search, the one subspace DFS.  It
enumerates subspaces by their unique reduced-echelon basis in increasing
leading-bit order, so each subspace is visited exactly once and node counts
are reproducible, on Python-int bitsets over F_2^n: the n LOW masks plus a
few sets per level, 2^n bits each.  Candidates sharing a leading bit are
taken as one group: a group with no candidates above it is all leaves,
counted at once, and in the others each translate comes from the previous
member's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kspectra.gf2n import POWER_BLOCK, FieldCtx
from kspectra.linmap import SubspaceBasis, canonical_search, orthogonal_complement, subspace_from_vectors
from kspectra.quadform import q_table
from kspectra.spectra import kloosterman_spectrum, kloosterman_zeros, memory_cap


def zero_subspace_bound(n: int) -> int:
    """Dimension bound for subspaces of Kloosterman zeros (n >= 5)."""
    if n < 5:
        raise ValueError("zero-subspace bound needs n >= 5")
    r = n % 8
    if r in (0, 2, 4, 6):
        return (n - 2) // 2
    if r in (1, 7):
        return (n - 1) // 2
    return (n - 3) // 2


def mod16_subspace_bound(n: int) -> int:
    """Dimension bound for subspaces with all sums divisible by 16 (n >= 5)."""
    if n < 5:
        raise ValueError("mod16-subspace bound needs n >= 5")
    r = n % 8
    if r in (0, 2, 6):
        return (n - 2) // 2
    if r in (1, 7):
        return (n - 1) // 2
    if r in (3, 5):
        return (n - 3) // 2
    return n // 2  # r == 4


def weil_subspace_bound(n: int) -> int:
    """Weaker comparison bound floor(n/2) + 1 from the exponential-sum estimate."""
    if n < 3:
        raise ValueError("comparison bound needs n >= 3")
    return n // 2 + 1


def mod16_bytes(n: int) -> int:
    """Peak bytes of mod16_members beyond its field: q_table and trace_table (2^n
    each, both kept), the uint32 result (about 2^(n-2) members, 2^n bytes) and
    block temporaries.  VmHWM grew 3.01-3.03 * 2^n at n = 24..26 and 0.3-0.8 MiB
    past 3 * 2^n at n = 20..26, also with MALLOC_MMAP_THRESHOLD_=131072."""
    return (3 << n) + (1 << 20)


#: mod16_members refuses degrees above this one, whose tables would not fit in memory_cap's limit
MOD16_CAP = memory_cap(mod16_bytes)


def mod16_members(ctx: FieldCtx) -> np.ndarray:
    """The elements with Tr = 0 and q = 0 in increasing order, as uint32: the
    members are counted, then written, one POWER_BLOCK of the tables at a time."""
    if ctx.n < 4:
        raise ValueError("mod16 characterization needs n >= 4")
    if ctx.n > MOD16_CAP:
        raise ValueError(f"mod16 set for n={ctx.n} is over the memory cap (n <= {MOD16_CAP})")
    qt = q_table(ctx)
    tr = ctx.trace_table()
    starts = range(0, ctx.size, POWER_BLOCK)

    def hits(s):  # the members in [s, s + POWER_BLOCK), as block offsets
        return np.flatnonzero((tr[s:s + POWER_BLOCK] | qt[s:s + POWER_BLOCK]) == 0)

    out = np.empty(sum(hits(s).size for s in starts), dtype=np.uint32)
    k = 0
    for s in starts:
        idx = hits(s)
        out[k:k + idx.size] = idx + s
        k += idx.size
    return out


@dataclass(frozen=True)
class ZeroSpaceReport:
    n: int
    target_set: str
    best_basis: SubspaceBasis
    best_dim: int
    bound: int | None
    nodes_visited: int
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "target_set": self.target_set,
            "best_dim": self.best_dim,
            "best_basis": [hex(v) for v in self.best_basis.vectors],
            "bound": self.bound,
            "nodes_visited": self.nodes_visited,
            "exhaustive": self.exhaustive,
        }


def max_subspace_in_set(
    ctx: FieldCtx,
    S,
    *,
    bound: int | None = None,
    node_budget: int | None = None,
    label: str = "custom",
) -> ZeroSpaceReport:
    """Maximum-dimension subspace whose nonzero elements all lie in S.

    Runs linmap.canonical_search.  Stops early once the supplied bound is
    attained (it cannot be beaten); a node budget yields a non-exhaustive
    report instead.  ValueError for a member that is not an integer in [0, 2^n).
    """
    if isinstance(S, np.ndarray):
        ok = S.dtype.kind in "iu" and not (S.size and (S.min() < 0 or S.max() >= ctx.size))
    else:
        S = list(S)
        ok = all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                 and 0 <= s < ctx.size for s in S)
    if not ok:
        raise ValueError(f"set members must be integers in [0, 2^{ctx.n})")
    mask = np.zeros(ctx.size, dtype=bool)
    mask[np.asarray(S, dtype=np.intp)] = True
    best, nodes, truncated = canonical_search(ctx.n, mask, bound=bound, node_budget=node_budget)
    best_basis = subspace_from_vectors(ctx.n, best)
    return ZeroSpaceReport(
        n=ctx.n,
        target_set=label,
        best_basis=best_basis,
        best_dim=best_basis.dim,
        bound=bound,
        nodes_visited=nodes,
        exhaustive=not truncated,
    )


def max_zero_subspace(
    ctx: FieldCtx,
    *,
    node_budget: int | None = None,
    stop_at_bound: bool = True,
) -> ZeroSpaceReport:
    """Search the Kloosterman-zero set; dimension is capped by the proven bound."""
    zeros = kloosterman_zeros(ctx)
    bound = zero_subspace_bound(ctx.n) if stop_at_bound else None
    return max_subspace_in_set(ctx, zeros, bound=bound, node_budget=node_budget, label="zeros")


def max_mod16_subspace(ctx: FieldCtx, *, node_budget: int | None = None) -> ZeroSpaceReport:
    """Search {Tr = 0, q = 0}, stopping at the proven bound, which is attained (sharp)."""
    return max_subspace_in_set(ctx, mod16_members(ctx), bound=mod16_subspace_bound(ctx.n),
                               node_budget=node_budget, label="mod16")


def subspace_sum_identity(ctx: FieldCtx, V: SubspaceBasis) -> tuple[int, int]:
    """Both sides of the subspace summation identity, exactly.

    lhs = sum_{a in V} ((K(a) - 1)^2 - 1) = sum (K(a)^2 - 2K(a));
    rhs = 2^(n+k) - 2^(n+1) + 2^k * sum_{u in V-perp} K(u^-1), with 0^-1 = 0.

    The -1 shift inside the square is forced by the x = 0 term of the
    0-extended sums; on subspaces of Kloosterman zeros both sides are 0.
    Verified exhaustively over every subspace of F_2^5.
    """
    K = kloosterman_spectrum(ctx).data
    k = V.dim
    span = V.span()
    # Spectra are int16 or int32 (sign_dtype), too narrow for K^2 - 2K:
    # widen the 2^k values of the subspace first.  np.sum of K below
    # accumulates in numpy's default integer, int64.
    kv = K[span].astype(np.int64)
    lhs = int(np.sum(kv * kv - 2 * kv))
    W = orthogonal_complement(ctx, V)
    inv = ctx.inverse_table()
    rhs_sum = int(np.sum(K[inv[W.span()]]))
    rhs = (1 << (ctx.n + k)) - (1 << (ctx.n + 1)) + (1 << k) * rhs_sum
    return lhs, rhs
