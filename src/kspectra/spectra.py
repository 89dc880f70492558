"""Walsh rows, Kloosterman sums and spectra, nonlinearity, differential uniformity.

The fast paths run a Walsh-Hadamard butterfly over sign vectors and re-index
the result through dual-basis coordinates so that Tr(a*x) becomes a plain dot
product of coordinate masks.  Direct summation variants are kept as slow,
independent oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kspectra.gf2n import FieldCtx, elem_dtype

#: full spectra above this degree would not fit comfortably in memory
SPECTRUM_CAP = 28

#: spectra this small are kept in a process-wide cache (at most a few MiB)
_CACHE_DEGREE = 20
_spectrum_cache: dict[tuple[int, int], "Spectrum"] = {}


@dataclass(frozen=True)
class TruthTable:
    """A function F_2^n -> F_2^n tabulated over all element encodings."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (1 << self.n,):
            raise ValueError("truth table must have exactly 2^n entries")
        if self.values.size and int(self.values.max()) >= (1 << self.n):
            raise ValueError("truth table entry out of field range")

    @classmethod
    def inverse(cls, ctx: FieldCtx) -> "TruthTable":
        """x -> x^-1 with the convention 0^-1 = 0."""
        return cls(ctx.n, ctx.inverse_table())

    @classmethod
    def identity(cls, n: int) -> "TruthTable":
        return cls(n, np.arange(1 << n, dtype=elem_dtype(n)))


@dataclass(frozen=True)
class Spectrum:
    """2^n signed transform values indexed by element encoding."""

    n: int
    kind: str  # walsh_row | kloosterman
    data: np.ndarray

    def weil_bound(self) -> int:
        """Integer part of 2^(n/2+1).

        The multiplicative-group Weil bound constrains the sum over x != 0;
        the 0-extended sums stored here satisfy |value - 1| <= weil_bound()
        for a != 0 (the +1 slack is attained, e.g. max K = 12 at n = 5).
        """
        return math.isqrt(1 << (self.n + 2))

    def to_csv_rows(self):
        for a in range(1 << self.n):
            yield f"{a:#x},{int(self.data[a])}"


def fwht_inplace(w: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of a length-2^k int64 array."""
    m = w.shape[0]
    h = 1
    while h < m:
        blocks = w.reshape(-1, 2, h)
        a = blocks[:, 0, :].copy()
        b = blocks[:, 1, :]
        blocks[:, 0, :] = a + b
        blocks[:, 1, :] = a - b
        h <<= 1


def walsh(ctx: FieldCtx, F: TruthTable, a: int, b: int) -> int:
    """Direct O(2^n) evaluation of sum_x (-1)^(Tr(a*F(x) + b*x)); oracle path."""
    total = 0
    vals = F.values
    for x in range(ctx.size):
        bit = ctx.trace(ctx.mul(a, int(vals[x]))) ^ ctx.trace(ctx.mul(b, x))
        total += 1 - 2 * bit
    return total


def _trace_transform(ctx: FieldCtx, values: np.ndarray) -> np.ndarray:
    """sum_x (-1)^(Tr(values[x]) + Tr(b*x)) for every b, read-only, entry enc(b).

    The butterfly sums over parity(m & x); indexing by the dual-basis
    coordinates m = G*b turns that into Tr(b*x).
    """
    signs = 1 - 2 * ctx.trace_table()[values].astype(np.int64)
    fwht_inplace(signs)
    data = signs[ctx.dualenc_table()]
    data.flags.writeable = False
    return data


def walsh_row(ctx: FieldCtx, F: TruthTable, a: int) -> Spectrum:
    """All walsh(F, a, b) at once via the fast transform; entry enc(b)."""
    if F.n != ctx.n:
        raise ValueError("truth table degree mismatch")
    data = _trace_transform(ctx, ctx.mul_scalar_vec(a, F.values))
    return Spectrum(ctx.n, "walsh_row", data)


def kloosterman(ctx: FieldCtx, a: int) -> int:
    """Direct O(2^n) Kloosterman sum sum_x (-1)^(Tr(x^-1 + a*x))."""
    total = 0
    for x in range(ctx.size):
        bit = ctx.trace(ctx.inv0(x) ^ ctx.mul(a, x))
        total += 1 - 2 * bit
    return total


def kloosterman_spectrum(ctx: FieldCtx, cap: int = SPECTRUM_CAP) -> Spectrum:
    """All Kloosterman sums, O(n*2^n) time and O(2^n) space."""
    if ctx.n > cap:
        raise ValueError(
            f"full spectrum for n={ctx.n} exceeds the memory cap ({cap}); "
            "evaluate kloosterman() pointwise instead"
        )
    key = (ctx.n, ctx.poly)
    hit = _spectrum_cache.get(key)
    if hit is not None:
        return hit
    spec = Spectrum(ctx.n, "kloosterman", _trace_transform(ctx, ctx.inverse_table()))
    _validate_kloosterman(spec)
    if ctx.n <= _CACHE_DEGREE:
        _spectrum_cache[key] = spec
    return spec


def _validate_kloosterman(spec: Spectrum) -> None:
    data = spec.data
    if int(data[0]) != 0:
        raise AssertionError("K(0) must vanish")
    if int((data & 1).any()):
        raise AssertionError("Kloosterman sums must be even")
    # Weil bound for the x != 0 part; the x = 0 term shifts everything by +1.
    if int(np.abs(data - 1).max()) > spec.weil_bound():
        raise AssertionError("spectrum violates the Weil bound")


def kloosterman_zeros(ctx: FieldCtx, include_trivial: bool = False) -> set[int]:
    """Elements a != 0 with K(a) = 0 (a = 0 only when include_trivial)."""
    spec = kloosterman_spectrum(ctx)
    zeros = set(int(v) for v in np.flatnonzero(spec.data == 0))
    if not include_trivial:
        zeros.discard(0)
    return zeros


def diff_uniformity(ctx: FieldCtx, F: TruthTable) -> int:
    """Max row count of the difference table over nonzero input differences."""
    vals = F.values
    idx = np.arange(ctx.size, dtype=vals.dtype)
    best = 0
    for a in range(1, ctx.size):
        d = vals ^ vals[idx ^ vals.dtype.type(a)]
        best = max(best, int(np.bincount(d, minlength=ctx.size).max()))
    return best


def nonlinearity(ctx: FieldCtx, F: TruthTable) -> int:
    """2^(n-1) - max|W(a,b)|/2 over a != 0 and all b."""
    worst = 0
    for a in range(1, ctx.size):
        row = walsh_row(ctx, F, a)
        worst = max(worst, int(np.abs(row.data).max()))
    return (1 << (ctx.n - 1)) - worst // 2
