"""Arithmetic in binary fields F_2^n.

Field elements are plain ints: bit i of an element is the coefficient of
x^i in the polynomial basis modulo the reduction polynomial.  Zero and one
are therefore represented by 0 and 1.  A FieldCtx carries the degree, the
reduction polynomial and precomputed trace/Gram/dual-basis data; elements
are passed around as bare ints alongside the context.  mk_field(n) reduces
modulo smallest_irreducible(n); only mk_field(n, poly) chooses another.

Bulk helpers (xor_table; exp/log, inverse and trace tables) return
numpy arrays indexed by element encoding; xor_apply maps whole element
arrays through lookup tables, and FieldCtx.power_blocks walks the powers of a
generator block by block for the spectrum, which needs no 2^n-entry table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

MIN_DEGREE = 2
MAX_DEGREE = 32

#: exp/log multiplication tables are built only up to this degree; above it
#: scalar products fall back to carry-less shift-and-reduce.  Up to it, too,
#: mk_field shares one context per polynomial for the life of the process.
TABLE_DEGREE = 16

#: FieldCtx.power_blocks walks the powers of the generator in blocks of this
#: many exponents, so a full enumeration needs O(POWER_BLOCK) memory
POWER_BLOCK = 1 << 16


class ReduciblePolynomialError(ValueError):
    """Raised when a reduction polynomial factors over F_2."""

    def __init__(self, poly: int, factor: int):
        self.poly = poly
        self.factor = factor
        super().__init__(
            f"polynomial {poly:#x} is reducible over F_2 (factor {factor:#x})"
        )


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on coefficient bitmasks
# ---------------------------------------------------------------------------

def pdeg(p: int) -> int:
    """Degree of the polynomial with coefficient mask p (deg 0 = -1 for p=0)."""
    return p.bit_length() - 1


def pmul(a: int, b: int) -> int:
    """Carry-less product of two coefficient masks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def pmod(a: int, m: int) -> int:
    """Remainder of a modulo m over F_2."""
    dm = pdeg(m)
    while a and pdeg(a) >= dm:
        a ^= m << (pdeg(a) - dm)
    return a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def psquare(a: int) -> int:
    """Square of a polynomial: bit i moves to bit 2i."""
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (2 * i)
        a >>= 1
        i += 1
    return r


def _x_pow_2k_mod(k: int, m: int) -> int:
    """x^(2^k) mod m."""
    s = pmod(2, m)
    for _ in range(k):
        s = pmod(psquare(s), m)
    return s


def _prime_factors(v: int) -> list[int]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def is_irreducible(poly: int) -> bool:
    """Irreducibility test over F_2 (Frobenius fixed-point criterion)."""
    n = pdeg(poly)
    if n < 1:
        return False
    if n == 1:
        return True
    if _x_pow_2k_mod(n, poly) != 2:
        return False
    for q in _prime_factors(n):
        if pgcd(_x_pow_2k_mod(n // q, poly) ^ 2, poly) != 1:
            return False
    return True


def find_factor(poly: int) -> int | None:
    """Smallest nontrivial factor of poly over F_2, or None if irreducible."""
    n = pdeg(poly)
    for m in range(2, 1 << (n // 2 + 1)):
        if pdeg(m) >= 1 and pmod(poly, m) == 0:
            return m
    return None


@lru_cache(maxsize=None)
def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree n."""
    top = 1 << n
    for c in range(top):
        p = top | c
        if is_irreducible(p):
            return p
    raise AssertionError(f"no irreducible of degree {n}")  # unreachable


# ---------------------------------------------------------------------------
# Small GF(2) matrix helpers (rows/columns as int bitmasks)
# ---------------------------------------------------------------------------

def transpose_bits(vecs: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """Transpose a square bit matrix given as a list of n column (or row) masks."""
    out = [0] * n
    for j, v in enumerate(vecs):
        for i in range(n):
            if (v >> i) & 1:
                out[i] |= 1 << j
    return tuple(out)


def _forward(vectors, piv: list[int]) -> int:
    """Forward elimination of int vectors into piv, a list of zeros indexed by
    leading bit: piv[p] becomes the row leading at p.  Returns how many slots
    are still empty, and stops reading vectors once none is."""
    left = len(piv)
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if not piv[p]:
                piv[p] = v
                left -= 1
                if not left:
                    return 0
                break
            v ^= piv[p]
    return left


def _echelon(vectors, n: int) -> list[int]:
    """Reduced echelon form of n-bit int vectors as _forward's pivot list,
    back-substituted so that every pivot bit is set in exactly one row."""
    piv = [0] * n
    _forward(vectors, piv)
    for p in range(n - 1, -1, -1):
        if piv[p]:
            for q in range(p + 1, n):
                if (piv[q] >> p) & 1:
                    piv[q] ^= piv[p]
    return piv


def rref(vectors) -> tuple[int, ...]:
    """Reduced echelon form with leading (highest) bits as pivots, in ascending order."""
    vectors = [int(v) for v in vectors]
    piv = _echelon(vectors, max((v.bit_length() for v in vectors), default=0))
    return tuple(v for v in piv if v)


def spans(vectors, n: int) -> bool:
    """True when the n-bit int vectors span F_2^n, i.e. len(rref(vectors)) == n:
    _forward alone, as a rank test needs no back-substitution."""
    return not _forward(vectors, [0] * n)


def mat_inverse_rows(rows: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """Invert an n x n bit matrix given by row masks; raises on singular input.

    Each row is tagged with its index in the low n bits; once the high n
    bits are reduced to unit rows, the tags spell out the inverse.
    """
    piv = _echelon(((rows[i] << n) | (1 << i) for i in range(n)), 2 * n)
    if not all(piv[n:]):
        raise ValueError("matrix is singular over F_2")
    mask = (1 << n) - 1
    return tuple(v & mask for v in piv[n:])


def nullspace_rows(rows: list[int], n: int) -> list[int]:
    """Basis of {x : parity(row & x) = 0 for all rows} inside F_2^n."""
    piv = _echelon(rows, n)
    basis = []
    for f in range(n):
        if piv[f]:
            continue
        v = 1 << f
        for p, row in enumerate(piv):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Bulk table primitives
# ---------------------------------------------------------------------------

def elem_dtype(n: int):
    return np.uint32 if n <= 31 else np.uint64


def xor_combine(images, mask):
    """XOR of images[i] over the set bits i of mask.

    With images = the columns of a bit matrix this applies the map to mask;
    with images = a subspace basis it embeds a coordinate mask.  images may
    hold numpy arrays, which combines a whole batch of maps at once.
    """
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out ^= images[i]
        mask >>= 1
        i += 1
    return out


def span_list(images) -> list[int]:
    """xor_combine(images, m) for every m in [0, 2^len(images)), as a Python list."""
    t = [0]
    for img in images:
        t += [v ^ img for v in t]
    return t


def xor_table(images, dtype) -> np.ndarray:
    """Table T of length 2^k with T[m] = XOR of images[i] over the set bits of m.

    With images = columns of a bit matrix this is the full truth table of the
    linear map; with images = a subspace basis it enumerates the span.
    """
    t = np.empty(1 << len(images), dtype=dtype)
    head = span_list(images[:4])  # in Python: a numpy call costs more below 16 entries
    h = len(head)
    t[:h] = head
    for img in images[4:]:
        np.bitwise_xor(t[:h], img, out=t[h:2 * h])
        h <<= 1
    return t


def xor_apply(images, arr: np.ndarray, out=None) -> np.ndarray:
    """xor_combine(images, m) for every entry m of an unsigned array, same dtype.

    The map is GF(2)-linear, so it is the XOR over the 12-bit chunks k of m
    of T_k[chunk k], with T_k = xor_table(images[12k:12k+12]): one lookup
    into a 4096-entry table per 12 images.  At 2^16 entries and 24 images
    this measured 0.58 ms against 0.86 ms for three 256-entry byte tables,
    and gathering with take instead of fancy indexing cut it to 0.35 ms.
    out, three arrays shaped like arr, takes the result and two temporaries.
    """
    dt = arr.dtype.type
    res, idx, got = np.empty((3, *arr.shape), dtype=dt) if out is None else out
    for k in range(0, len(images), 12):
        np.right_shift(arr, dt(k), out=idx)
        idx &= dt(4095)
        xor_table(images[k:k + 12], dt).take(idx, out=got if k else res, mode="clip")
        if k:
            res ^= got
    return res


def form_table(m: int, fvals, bmat, width: int = 1) -> np.ndarray:
    """Truth table of a form over coordinate masks, in place, by polarization doubling:
    f(c + e_i) = f(c) + f(e_i) + B(c, e_i) for c below bit i.  Values are width bits
    wide (the narrowest unsigned dtype); B(e_j, e_i) is bits width*j.. of bmat[i],
    read for j < i only."""
    mask = (1 << width) - 1
    ev = np.zeros(1 << m, dtype=np.min_scalar_type(mask))
    for i in range(m):
        h = 1 << i
        ev[h] = fvals[i]
        for j in range(i):  # the linear part f(e_i) + B(., e_i), doubled over bits j < i
            np.bitwise_xor(ev[h:h + (1 << j)], (bmat[i] >> width * j) & mask, out=ev[h + (1 << j):h + (2 << j)])
        ev[h:2 * h] ^= ev[:h]
    return ev


def _byte_tables(images) -> list[list[int]]:
    """ceil(k/8) lists of 256 entries for the F_2-linear map with these k
    basis images: table j holds xor_combine(images[8j:8j + 8], m) for every m."""
    return [span_list(images[k:k + 8]) for k in range(0, len(images), 8)]


def _byte_apply(tables: list[list[int]], a: int) -> int:
    """xor_combine(images, a) through _byte_tables(images): one lookup per byte of a."""
    out = 0
    for k, t in enumerate(tables):
        out ^= t[(a >> (8 * k)) & 255]
    return out


def _square_byte_tables(n: int, poly: int) -> list[list[int]]:
    """The _byte_tables of squaring, which is F_2-linear: a^2 is the XOR of
    (x^i)^2 mod poly over the set bits i of a, so _byte_apply does the work
    of psquare + pmod in ceil(n/8) lookups (0.8 us against 6.3 us at n = 24).
    """
    return _byte_tables([pmod(psquare(1 << i), poly) for i in range(n)])


def _traces(tables: list[list[int]], n: int, elems) -> np.ndarray:
    """Definitional traces sum_k a^(2^k) of an array of elements, squared
    through the _square_byte_tables of the field: one gather per byte and
    one XOR per conjugate.  Raises if any leaves F_2."""
    dt = elem_dtype(n)
    tabs = [np.array(t, dtype=dt) for t in tables]
    a = np.array(elems, dtype=dt)
    acc = np.zeros_like(a)
    for _ in range(n):
        acc ^= a
        a = np.bitwise_xor.reduce([t.take((a >> dt(8 * k)) & dt(255)) for k, t in enumerate(tabs)])
    if (acc > 1).any():
        raise AssertionError("trace left F_2")
    return acc


def memo(build):
    """Cache build(ctx, *args) in ctx._cache, keyed by its name (and args).

    Cached ndarrays, alone or in a tuple, are made read-only, since every
    caller shares them.  A build that raises stores nothing.  Without args
    a hit is one dict lookup under a string key: ctx.mul pays it on every call.
    """
    name = build.__name__

    @wraps(build)
    def cached(ctx, *args):
        key = (name, *args) if args else name
        hit = ctx._cache.get(key)
        if hit is None:
            hit = ctx._cache[key] = build(ctx, *args)
            for a in hit if isinstance(hit, tuple) else (hit,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        return hit
    return cached


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldCtx:
    """Immutable description of F_2^n.

    mk_field shares one context per (n, poly) for n <= TABLE_DEGREE and builds
    a fresh one above.  _cache holds its read-only memo tables, which live as
    long as the context: for a shared context, the process.
    """

    n: int
    poly: int
    trace_mask: int
    gram: tuple[int, ...]        # row i: bit j = Tr(basis_i * basis_j)
    gram_inv: tuple[int, ...]    # row i: dual basis element d_i, Tr(d_i * basis_j) = delta_ij
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return 1 << self.n

    # -- scalar arithmetic --------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        return pmod(pmul(a, b), self.poly)

    def mul(self, a: int, b: int) -> int:
        """Field product; exp/log tables for small n, shift-and-reduce above."""
        if self.n <= TABLE_DEGREE:
            ext, log = self._scalar_tables()
            return ext[log[a] + log[b]]
        return self._mul_raw(a, b)

    def sqr(self, a: int) -> int:
        return _byte_apply(self._square_tables(), a)

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; table-free, so the table builders can use it."""
        r = 1
        a = pmod(a, self.poly)
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def inv0(self, a: int) -> int:
        """Multiplicative inverse extended by inv0(0) = 0."""
        if a == 0:
            return 0
        if self.n <= TABLE_DEGREE:
            ext, log = self._scalar_tables()
            return ext[(self.size - 1) - log[a]]
        return self.pow(a, self.size - 2)

    def trace(self, a: int) -> int:
        """Absolute trace to F_2."""
        return (a & self.trace_mask).bit_count() & 1

    def char_poly(self, a: int) -> int:
        """Coefficient mask of prod_{i<n} (x + a^(2^i)); always lands in F_2[x]."""
        coeffs = [1]
        c = a
        for _ in range(self.n):
            nxt = [self.mul(coeffs[0], c)]
            for k in range(1, len(coeffs)):
                nxt.append(coeffs[k - 1] ^ self.mul(coeffs[k], c))
            nxt.append(coeffs[-1])
            coeffs = nxt
            c = self.sqr(c)
        mask = 0
        for i, v in enumerate(coeffs):
            if v not in (0, 1):
                raise AssertionError("characteristic polynomial left F_2[x]")
            mask |= v << i
        return mask

    def subfield_elements(self, d: int) -> set[int]:
        """The 2^d solutions of a^(2^d) = a, i.e. the subfield F_2^d."""
        if d <= 0 or self.n % d != 0:
            raise ValueError(f"subfield degree {d} does not divide {self.n}")
        tabs = self._square_tables()
        cols = []
        for i in range(self.n):
            v = 1 << i
            for _ in range(d):
                v = _byte_apply(tabs, v)
            cols.append(v ^ (1 << i))
        basis = nullspace_rows(list(transpose_bits(cols, self.n)), self.n)
        span = set(xor_table(basis, elem_dtype(self.n)).tolist())
        if len(span) != 1 << d:
            raise AssertionError("subfield has wrong size")
        return span

    # -- cached tables --------------------------------------------------------

    @memo
    def _square_tables(self) -> list[list[int]]:
        """The _square_byte_tables of this field, for sqr and subfield_elements."""
        return _square_byte_tables(self.n, self.poly)

    @memo
    def _scalar_tables(self) -> tuple[list[int], list[int]]:
        """exp_log_tables as Python lists, for scalar products."""
        ext, log = self.exp_log_tables()
        return ext.tolist(), log.tolist()

    @memo
    def _generator(self) -> int:
        N1 = self.size - 1
        qs = _prime_factors(N1)
        g = 2
        while any(self.pow(g, N1 // q) == 1 for q in qs):
            g += 1
        return g

    def mulx_vec(self, arr: np.ndarray) -> np.ndarray:
        """Multiply a whole element array by x, reducing modulo poly."""
        dt = arr.dtype.type
        wrap = (arr >> dt(self.n - 1)) & dt(1)
        return (arr << dt(1)) ^ wrap * dt(self.poly)

    def _mul_images(self, c: int, dual: bool) -> list[int]:
        """Column images of y -> C*c*C^-1*y, with C = G (dual coordinates) or C = I.

        The images depend F_2-linearly on c, so, packed n bits apiece into
        one int, they are _byte_apply of c through _mul_image_tables: 5 us
        against 110-180 us for n products at n = 24.
        """
        packed = _byte_apply(self._mul_image_tables(dual), c)
        mask = (1 << self.n) - 1
        return [(packed >> (self.n * i)) & mask for i in range(self.n)]

    @memo
    def _mul_image_tables(self, dual: bool) -> list[list[int]]:
        """The _byte_tables of c -> packed _mul_images(c), from its images at c = x^j.

        For c = x^j the polynomial images are x^(i+j).  Column i of C^-1 is
        row i of gram_inv (G is symmetric), so the dual images are
        G*(c*gram_inv[i]), combined from the polynomial ones.
        """
        n = self.n
        packed = []
        for j in range(n):
            imgs = [pmod(1 << (i + j), self.poly) for i in range(n)]
            if dual:
                imgs = [self.dualenc(xor_combine(imgs, col)) for col in self.gram_inv]
            packed.append(sum(v << (n * i) for i, v in enumerate(imgs)))
        return _byte_tables(packed)

    def power_blocks(self, dual: bool = False, part: int = 0, parts: int = 1, out=None):
        """Yield (a, fwd, mir) with fwd[k] = C*g^(a+k) and mir[k] = C*g^-(a+k).

        g is the cached generator and C = G (dual-basis coordinates) when
        dual, else the identity.  a runs over 0, m, 2m, .. < 2^(n-1) with
        m = min(POWER_BLOCK, 2^(n-1)) entries per block, so the exponents
        0..2^n - 1 are each met once, except that g^0 = g^(2^n - 1) is both
        fwd[0] and mir[0] of the first block; with parts > 1, only every
        parts-th block from block part, so part = 0..parts - 1 share the walk.
        Each block is the base block C*g^k (k < m, built by doubling) times a
        running constant, through the lookup tables of xor_apply; the mirrored
        one reads the base block reversed, its constant g^(2^n - a - m) stepping
        by g^-(parts*m).  Each block overwrites the one before in out, a (5, m)
        array of elem_dtype(n), allocated when None.
        """
        N1 = self.size - 1
        m = min(POWER_BLOCK, self.size // 2)
        g = self._generator()
        if out is None:
            out = np.empty((5, m), dtype=elem_dtype(self.n))
        base, fbuf, mir, idx, got = out
        base[0] = self.dualenc(1) if dual else 1
        f = 1
        while f < m:
            imgs = self._mul_images(self.pow(g, f), dual)
            xor_apply(imgs, base[:f], (base[f:2 * f], idx[:f], got[:f]))
            f <<= 1
        c_fwd, c_mir = self.pow(g, part * m), self.pow(g, (N1 - part * m - m + 1) % N1)
        step_fwd, step_mir = self.pow(g, parts * m), self.pow(g, -parts * m % N1)
        for a in range(part * m, self.size // 2, parts * m):
            fwd = xor_apply(self._mul_images(c_fwd, dual), base, (fbuf, idx, got)) if a else base
            xor_apply(self._mul_images(c_mir, dual), base[::-1], (mir, idx, got))
            if a == 0 and fwd[0] != mir[0]:
                raise AssertionError("generator order mismatch")
            yield a, fwd, mir
            c_fwd = self._mul_raw(c_fwd, step_fwd)
            c_mir = self._mul_raw(c_mir, step_mir)

    @memo
    def exp_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Sentinel-log tables (ext, log) with a*b = ext[log[a] + log[b]], zeros included.

        ext[j] = g^j for the cached generator g and j < 2(N - 1), N = 2^n,
        filled from power_blocks in polynomial coordinates, then zeros up to
        index 4(N - 1); log is the uint32 discrete log with log[0] = 2(N - 1).
        So a sum of two logs needs no modulo and any sum with a zero factor
        lands on a 0 entry.  The array products gather with take, which costs
        11.5 against 19 us for fancy indexing on 2^10 uint32 indices (1.0
        against 1.9 ms on 163840).  Built only on first use: the spectrum and
        inverse_table walk power_blocks instead.  Refused above TABLE_DEGREE,
        where the pair would take 5 * 2^n entries.
        """
        if self.n > TABLE_DEGREE:
            raise ValueError(f"exp/log tables cover n <= {TABLE_DEGREE}, not {self.n}")
        N1 = self.size - 1
        ext = np.zeros(4 * N1 + 1, dtype=elem_dtype(self.n))
        for a, fwd, mir in self.power_blocks():
            ext[a:a + fwd.size] = fwd
            ext[N1 - a - mir.size + 1:N1 - a + 1] = mir[::-1]  # ext[N1] = g^N1 = 1
        ext[N1:2 * N1] = ext[:N1]
        log = np.empty(self.size, dtype=np.uint32)
        log[ext[:N1]] = np.arange(N1, dtype=np.uint32)
        log[0] = 2 * N1
        return ext, log

    @memo
    def inverse_table(self) -> np.ndarray:
        """Table of inv0(x) for every x: inv[g^j] = g^-j, block by block from
        power_blocks, so no exp table is built."""
        inv = np.zeros(self.size, dtype=elem_dtype(self.n))
        for _, fwd, mir in self.power_blocks():
            inv[fwd] = mir
            inv[mir] = fwd
        return inv

    @memo
    def trace_table(self) -> np.ndarray:
        return xor_table([(self.trace_mask >> i) & 1 for i in range(self.n)], np.uint8)

    @memo
    def dualenc_table(self) -> np.ndarray:
        """Table of G*x: coordinates of x in the dual basis, so that
        Tr(x*y) = parity(dualenc(x) & y)."""
        return xor_table(self.gram, elem_dtype(self.n))  # G is symmetric

    @memo
    def frobenius_table(self) -> np.ndarray:
        return xor_table([self.sqr(1 << i) for i in range(self.n)], elem_dtype(self.n))

    def dualenc(self, x: int) -> int:
        """G*x as a scalar: Tr(x*y) = parity(dualenc(x) & y)."""
        return xor_combine(self.gram, x)  # G is symmetric: rows are columns

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise field product of element arrays; either may be a Python int."""
        if self.n <= TABLE_DEGREE:
            ext, log = self.exp_log_tables()
            return ext.take(log.take(a) + log.take(b))
        dt = elem_dtype(self.n)
        a = np.asarray(a).astype(dt, copy=False)  # one dtype for both, as the table branch allows
        t = np.asarray(b).astype(dt)
        res = np.zeros(np.broadcast_shapes(a.shape, t.shape), dtype=dt)
        for j in range(self.n):
            res ^= (((a >> dt(j)) & dt(1)) * t)
            if j + 1 < self.n:
                t = self.mulx_vec(t)
        return res


def mk_field(n: int, poly: int | None = None) -> FieldCtx:
    """The FieldCtx of F_2^n modulo poly, smallest_irreducible(n) when None.

    For n <= TABLE_DEGREE all calls with the same resolved polynomial share
    one context, built and verified once per process; above it each call
    builds a fresh one.  A poly that is negative or not of degree n, or is
    reducible, raises ValueError on every call.
    """
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range {MIN_DEGREE}..{MAX_DEGREE}")
    if poly is None:
        poly = smallest_irreducible(n)
    if poly >> n != 1:
        raise ValueError(f"polynomial {poly:#x} does not have degree {n}")
    if n <= TABLE_DEGREE:
        return _shared_field(n, poly)
    return _build_field(n, poly)


def _build_field(n: int, poly: int) -> FieldCtx:
    """A fresh FieldCtx, verifying the reduction polynomial and, through
    _traces, all 2n - 1 Gram and n^2 dual-basis traces Tr(d_i * x^j) = delta_ij."""
    if not is_irreducible(poly):
        raise ReduciblePolynomialError(poly, find_factor(poly))

    sq_tabs = _square_byte_tables(n, poly)
    # Tr(x^i * x^j) depends on i + j only: the Gram matrix is a Hankel matrix,
    # read off the 2n - 1 traces h[k] = Tr(x^k mod poly) like trace_mask.
    h = _traces(sq_tabs, n, [pmod(1 << k, poly) for k in range(2 * n - 1)]).tolist()
    trace_mask = sum(h[i] << i for i in range(n))
    gram = tuple(sum(h[i + j] << j for j in range(n)) for i in range(n))
    gram_inv = mat_inverse_rows(gram, n)  # trace form is non-degenerate
    ctx = FieldCtx(n=n, poly=poly, trace_mask=trace_mask, gram=gram, gram_inv=gram_inv)
    prods = [np.array(gram_inv, dtype=elem_dtype(n))]  # prods[j][i] = d_i * x^j
    for _ in range(n - 1):
        prods.append(ctx.mulx_vec(prods[-1]))
    if not np.array_equal(_traces(sq_tabs, n, prods), np.eye(n)):
        raise AssertionError("dual basis construction failed")
    return ctx


#: the shared contexts of mk_field, one per (n, poly); a build that raises is not kept
_shared_field = lru_cache(maxsize=None)(_build_field)
