"""Walsh rows, Kloosterman sums and spectra.

The fast paths place each sign (-1)^Tr(f(x)) at the dual-basis coordinates
G*x of x and run a Walsh-Hadamard butterfly.  Since Tr(b*x) = parity(b & G*x),
the output is already indexed by the encoding of b: no gather follows.  The
Kloosterman signs (-1)^Tr(x^-1) come from a walk of the powers of a generator
for odd n and n = 2, and for even n >= 4 from one pass through the dual-basis
coordinates in order, through tables of the half field F_2^(n/2).
Direct summation variants are kept as slow, independent oracles.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from kspectra.gf2n import (POWER_BLOCK, FieldCtx, elem_dtype, form_table, is_irreducible, mat_inverse_rows, memo,
                           mk_field, xor_combine, xor_table)


def sign_dtype(n: int):
    """Narrowest signed type that holds every Kloosterman sum K over F_2^n.

    |K - 1| <= 2^(n/2+1) (Weil), which int16 holds for n <= 27 (n = 28 reaches
    K = 2^15) and int32 for n <= 32.  The butterfly's partial sums reach +-2^n
    and wrap, but numpy's integer adds and multiplies are exact modulo 2^bits,
    so the result is exact wherever it fits (see fwht_inplace).
    """
    return np.int16 if n <= 27 else np.int32


def _workers() -> int:
    """The CPUs this process may run on: the spectrum runs a thread on each."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def spectrum_bytes(n: int) -> int:
    """Peak bytes of kloosterman_spectrum beyond the interpreter, estimated.

    The result array is the only 2^n allocation: 2 bytes per entry for
    n <= 27 and 4 above (see sign_dtype); the int8 signs live in its last
    bytes and, for odd n, the scatter's keys in the others.  Next to it live
    O(POWER_BLOCK) arrays per worker (_workers()), counted as eight of 8-byte
    entries, 4 MiB: in the walk of the powers the blocks of power_blocks
    (1.25 MiB), _FLUSH intp slots and, where the keys do not fit in the
    result, a stage of 2 * POWER_BLOCK keys (0.5 MiB); in the half-field route
    three uint16 chunks of POWER_BLOCK entries (0.375 MiB) and the intp copy
    numpy makes of a take's indices (0.5 MiB), beside the n - 16 rows of
    flips the workers share (2 MiB at n = 32); in the butterfly, two int16
    blocks of _FWHT_BLOCK entries (1 MiB), then a share of _FWHT_BLOCK panel
    entries.  Beyond the result, VmHWM grew 2.2-2.4 MiB at n = 18..24 on one
    worker and 2.9-4.9 MiB on two, field set-up included.
    """
    return (np.dtype(sign_dtype(n)).itemsize << n) + 8 * 8 * POWER_BLOCK * _workers()


def _memory_limit(cgroup: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> int:
    """Bytes this process may use: the least of physical RAM (4 GiB where sysconf
    cannot tell), the soft RLIMIT_AS less the address space already mapped
    (VmSize, where /proc/self/statm tells) and the stacks of _workers() - 1
    threads, and the memory limit of the process's cgroup and of each cgroup
    above it: memory.max under cgroup v2, memory.limit_in_bytes in the memory/
    tree under v1."""
    try:
        limits = [os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")]
    except (AttributeError, ValueError, OSError):
        limits = [4 << 30]
    if resource is not None and (soft := resource.getrlimit(resource.RLIMIT_AS)[0]) != resource.RLIM_INFINITY:
        # a thread's stack is RLIMIT_STACK, or 2 MiB when that is unlimited (glibc,
        # x86-64); a worker's malloc arena needs no room: glibc falls back on one it has
        stack = threading.stack_size() or resource.getrlimit(resource.RLIMIT_STACK)[0]
        stack = 2 << 20 if stack == resource.RLIM_INFINITY else stack
        try:  # about 140 MiB after import kspectra.cli
            with open("/proc/self/statm") as fh:
                mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        except (OSError, ValueError):
            mapped = 0
        limits.append(soft - mapped - (_workers() - 1) * stack)
    try:
        with open(cgroup) as fh:  # lines id:controllers:/path; the v2 line is 0::/path
            lines = [line.rstrip("\n").split(":", 2) for line in fh if line.count(":") >= 2]
    except OSError:
        lines = []
    for _, ctrls, path in lines:
        if ctrls and "memory" not in ctrls.split(","):
            continue
        tree, name = (["memory"], "memory.limit_in_bytes") if ctrls else ([], "memory.max")
        parts = tree + [p for p in path.split("/") if p]
        for k in range(len(tree), len(parts) + 1):
            try:
                with open(os.path.join(root, *parts[:k], name)) as fh:
                    limits.append(int(fh.read()))
            except (OSError, ValueError):  # no such file, or "max"
                pass
    return min(limits)


#: the bytes every 2^n stage may use, read once at import (about 140 MiB is
#: mapped by then, whichever of the modules is imported first)
MEMORY_LIMIT = _memory_limit()


def refuse_over_cap(what: str, need: int) -> None:
    """Raise ValueError when a stage's estimated peak need exceeds MEMORY_LIMIT."""
    if need > MEMORY_LIMIT:
        raise ValueError(f"{what} needs about {need:,} bytes, over the memory cap of {MEMORY_LIMIT:,}")


#: CSV export converts and writes this many rows at a time
CSV_CHUNK = 1 << 16


@dataclass(frozen=True)
class TruthTable:
    """A function F_2^n -> F_2^n tabulated over all element encodings."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (1 << self.n,):
            raise ValueError("truth table must have exactly 2^n entries")
        if self.values.dtype.kind not in "iu":
            raise ValueError("truth table entries must be integers")
        if self.values.size and (int(self.values.min()) < 0 or int(self.values.max()) >= (1 << self.n)):
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
        """Rows "<hex a>,<value>\\n" in key order, one string per CSV_CHUNK rows."""
        for s in range(0, 1 << self.n, CSV_CHUNK):
            yield _csv_block(s, self.data[s:s + CSV_CHUNK])


def _csv_block(start: int, values: np.ndarray) -> str:
    """The rows f"{a:#x},{v}\\n", joined, for a = start, start + 1, .. and the
    signed integers v of a non-empty values, formatted as one byte matrix.

    Each row is "0x", the hex digits, ",", a sign column, the decimal digits
    and "\\n", right-aligned in columns as wide as the block's last key and
    largest |v| need; the 0 bytes padding shorter numbers are dropped at the end.
    """
    m = values.size
    last = start + m - 1
    hw = max(1, (last.bit_length() + 3) // 4)
    top = max(int(values.max()), -int(values.min()))
    dw = len(str(top))
    # abs wraps the most negative value onto itself; read unsigned, it is |v|
    mag = np.abs(values).astype(np.min_scalar_type(top))
    out = np.zeros((m, hw + dw + 5), dtype=np.uint8)
    out[:, 0] = ord("0")
    out[:, 1] = ord("x")
    keys = np.arange(start, last + 1, dtype=np.min_scalar_type(last))
    for j in range(hw):
        lo = max((1 << 4 * j) - start, 0) if j else 0  # keys below 16^j have no digit j
        d = ((keys[lo:] >> 4 * j) & 15).astype(np.uint8)
        d += ord("0")
        d += (d > ord("9")) * np.uint8(ord("a") - ord("9") - 1)
        out[lo:, 1 + hw - j] = d
    comma = hw + 2
    out[:, comma] = ord(",")
    out[:, comma + 1] = (values < 0) * np.uint8(ord("-"))
    ten = mag.dtype.type(10)
    for k in range(dw):
        q = mag // ten
        d = (mag - q * ten).astype(np.uint8)
        d += ord("0")
        if k:
            d *= mag != 0  # |v| < 10^k: no digit k
        out[:, comma + 1 + dw - k] = d
        mag = q
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes().decode("ascii")


def _butterfly_levels(w: np.ndarray, h: int, stop: int) -> None:
    """Radix-2 levels h, 2h, .. < stop of the transform of w, in place."""
    while h < stop:
        blocks = w.reshape(-1, 2, h)
        a = blocks[:, 0, :]
        b = blocks[:, 1, :]
        a += b    # a + b
        b *= -2
        b += a    # (a + b) - 2b = a - b
        h <<= 1


#: the butterfly runs the levels below this block size block by block, in cache,
#: in numpy calls long enough (10 us and up) for the workers' calls to overlap
_FWHT_BLOCK = 1 << 18
#: inside a block, levels below this stride run on the transposed block, so
#: that numpy's inner loops are long
_FWHT_ROW = 128
#: with a +-1 int8 source, the levels below this stride run in int16: after
#: the 14 levels of strides 1..2^13 every |v| <= 2^14, inside int16's 2^15 - 1.
#: An int32 w (n >= 28) then widens each block: with every level of a block in
#: int32, the n = 28 transform ran about a fifth slower
_NARROW_STOP = 1 << 14


def _run_all(task, parts: int) -> None:
    """task(p) for p < parts, p = 0 on this thread and the others on threads of
    their own; a part whose thread cannot start (RuntimeError, as when the
    address space is short) runs on this thread after part 0.  Joins every
    started thread, then re-raises the first exception raised."""
    errors, here, threads = [], [0], []

    def guarded(p):
        try:
            task(p)
        except BaseException as exc:
            errors.append(exc)

    for p in range(1, parts):
        t = threading.Thread(target=guarded, args=(p,))
        try:
            t.start()
        except RuntimeError:
            here.append(p)
        else:
            threads.append(t)
    for p in here:
        guarded(p)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def fwht_inplace(w: np.ndarray, src: np.ndarray | None = None) -> None:
    """In-place Walsh-Hadamard transform of a contiguous length-2^k signed array.

    Signed integer dtypes of any width work.  numpy's integer adds and
    multiplies wrap modulo 2^bits, so each level (a + b, then (a + b) - 2b)
    is exact modulo 2^bits, and so is the result: it is exact as a signed
    value wherever the transform's values fit the dtype, whatever the partial
    sums did on the way (sign_dtype relies on this).  With src, an int8 array
    as long as w with entries in {-1, 0, 1}, w receives the transform of src
    instead of its own, and the levels below _NARROW_STOP run in int16.  src
    may be the last bytes of w itself, w.view(np.int8)[(w.itemsize - 1) * w.size:],
    for any itemsize (see the claims below).  Both stages run
    on _workers() threads, at most one per block or panel, each with two
    blocks of _FWHT_BLOCK entries, then a panel of <= _FWHT_BLOCK // _workers().
    The levels from stride _FWHT_BLOCK up run on contiguous copies of column
    panels of w.reshape(-1, _FWHT_BLOCK), so that each panel's levels run in cache.
    """
    if w.ndim != 1 or not w.flags.c_contiguous:
        raise ValueError("fwht_inplace needs a contiguous 1-d array")  # reshape would copy
    narrow = src is not None
    if not narrow:
        src = w
    elif src.shape != w.shape or src.dtype != np.int8:
        raise ValueError("fwht_inplace needs an int8 source as long as w")
    m = w.shape[0]
    blk = min(_FWHT_BLOCK, m)
    row = min(_FWHT_ROW, blk)
    stop = min(_NARROW_STOP, blk) if narrow else row
    workers = _workers()
    # When src is the last bytes of w, input block b begins at byte
    # (itemsize - 1) * m + b * blk, and output block b ends at byte
    # itemsize * (b + 1) * blk <= (itemsize - 1) * m + (b + 1) * blk, where
    # input block b + 1 begins, as (b + 1) * blk <= m.  So writing output
    # block b overwrites only input blocks <= b, all read by then: workers
    # claim blocks in ascending order and copy each before the next claim.
    starts, claim = iter(range(0, m, blk)), threading.Lock()
    parts = min(workers, m // blk)
    block_tmp = np.empty((parts, 2, blk), dtype=np.int16 if narrow else w.dtype)

    def blocks(p):
        tr, low = block_tmp[p]
        while True:
            with claim:
                s = next(starts, None)
                if s is None:
                    return
                np.copyto(low, src[s:s + blk])
            np.copyto(tr.reshape(row, -1), low.reshape(-1, row).T)
            _butterfly_levels(tr, blk // row, blk)
            np.copyto(low.reshape(-1, row), tr.reshape(row, -1).T)
            _butterfly_levels(low, row, stop)
            np.copyto(w[s:s + blk], low)  # widens an int32 w; a plain copy for int16
            _butterfly_levels(w[s:s + blk], stop, blk)

    _run_all(blocks, parts)
    if m > blk:
        grid = w.reshape(-1, blk)
        share = blk >> (workers - 1).bit_length()  # a power of two <= _FWHT_BLOCK / workers
        cols = max(1, share // grid.shape[0])
        parts = min(workers, blk // cols)
        panel_tmp = np.empty((parts, grid.shape[0], cols), dtype=w.dtype)

        def panels(p):
            panel = panel_tmp[p]
            for c in range(p * cols, blk, parts * cols):
                np.copyto(panel, grid[:, c:c + cols])
                _butterfly_levels(panel.reshape(-1), cols, panel.size)
                np.copyto(grid[:, c:c + cols], panel)

        _run_all(panels, parts)


def walsh(ctx: FieldCtx, F: TruthTable, a: int, b: int) -> int:
    """Direct O(2^n) evaluation of sum_x (-1)^(Tr(a*F(x) + b*x)); oracle path."""
    total = 0
    vals = F.values
    for x in range(ctx.size):
        bit = ctx.trace(ctx.mul(a, int(vals[x]))) ^ ctx.trace(ctx.mul(b, x))
        total += 1 - 2 * bit
    return total


#: (-1)^bit, looked up at bit = 0 and 1
_PLUS_MINUS = np.array([1, -1], dtype=np.int8)


def walsh_row(ctx: FieldCtx, F: TruthTable, a: int) -> Spectrum:
    """All walsh(F, a, b) at once via the fast transform; entry enc(b)."""
    if F.n != ctx.n:
        raise ValueError("truth table degree mismatch")
    # sign_dtype would not do: an arbitrary F reaches +-2^n (F = 0 at b = 0)
    w = np.empty(ctx.size, dtype=np.min_scalar_type(-(2 << ctx.n)))
    w[ctx.dualenc_table()] = _PLUS_MINUS.take(ctx.trace_table()[ctx.mul_vec(a, F.values)])
    fwht_inplace(w)
    w.flags.writeable = False
    return Spectrum(ctx.n, "walsh_row", w)


def kloosterman(ctx: FieldCtx, a: int) -> int:
    """Direct O(2^n) Kloosterman sum sum_x (-1)^(Tr(x^-1 + a*x))."""
    total = 0
    for x in range(ctx.size):
        bit = ctx.trace(ctx.inv0(x) ^ ctx.mul(a, x))
        total += 1 - 2 * bit
    return total


@memo
def kloosterman_spectrum(ctx: FieldCtx) -> Spectrum:
    """All Kloosterman sums, O(n*2^n) time and O(2^n) space, one memo table of ctx.

    Like every memo table it lives as long as ctx: for the contexts that
    mk_field shares (n <= TABLE_DEGREE) that is the process.  Where
    spectrum_bytes(n) exceeds MEMORY_LIMIT the build raises ValueError and
    nothing is cached.
    """
    refuse_over_cap(f"the full spectrum for n={ctx.n} (evaluate kloosterman() pointwise instead)",
                    spectrum_bytes(ctx.n))
    spec = Spectrum(ctx.n, "kloosterman", _kloosterman_transform(ctx))
    _validate_kloosterman(spec)
    return spec


def _kloosterman_transform(ctx: FieldCtx) -> np.ndarray:
    """K(b) for every b, entry enc(b), from the signs in dual-basis coordinates.

    The sign (-1)^Tr(x^-1) of x goes to slot G*x, so the butterfly output at b
    is sum_x (-1)^(Tr(x^-1) + Tr(b*x)).  Even n >= 4 take _half_field_signs,
    which writes every slot in order; odd n and n = 2, which have no half
    field, take _scatter_signs, the walk of the powers of a generator.  There,
    with y_j = G*g^j (power_blocks), x = g^j has sign 1 - 2*(y_-j & 1),
    because Tr(z) = Tr(z*1) is bit 0 of G*z; each block pair writes both x =
    g^j and x = g^-j.  The walk's 2^n - 1 writes cover every nonzero slot
    exactly when j -> g^j is onto, which the signs.all() check enforces before
    the transform.  The signs are int8 in the last bytes of the result w,
    which starts zero-filled: a slot the walk did not reach then reads 0 and
    fails that check.  The rest of w is scratch for the walk's keys until the
    butterfly overwrites it.  Workers write disjoint slots, so the result
    does not depend on how many ran.
    """
    w = np.zeros(ctx.size, dtype=sign_dtype(ctx.n))
    signs = (_half_field_signs if ctx.n % 2 == 0 and ctx.n >= 4 else _scatter_signs)(ctx, w)
    signs[0] = 1  # x = 0 contributes (-1)^Tr(0)
    if not signs.all():
        raise AssertionError("the powers of the generator missed a nonzero element")
    fwht_inplace(w, signs)
    w.flags.writeable = False
    return w


#: sorted keys reach the signs this many at a time, through an intp buffer
#: per worker (numpy scatters faster by intp).  At n = 24 on two workers VmHWM
#: grew 4.3 MiB beyond the result with 2^13, 5.1-5.2 MiB with 2^16, 4.2 with 2^11
_FLUSH = 1 << 13


def _scatter_signs(ctx: FieldCtx, w: np.ndarray) -> np.ndarray:
    """Write signs[G*x] = (-1)^Tr(x^-1) for x != 0 into the int8 signs in the
    last bytes of w, signs = w.view(np.int8)[(w.itemsize - 1) * 2^n:], and
    return them: the route of odd n and n = 2.  Runs on _workers() threads, at
    most one per block of power_blocks.

    A random write per element into a 2^n array misses the cache from about
    n = 21 on (one thread, 2^24 int8 writes: 22-26 ns each into 16 MiB, 3-4 ns
    into 256 KiB).  So each worker packs the key Tr(x^-1) << n | G*x of each x
    into its share of w's first (itemsize - 1) * 2^n bytes, which nothing reads
    before the butterfly overwrites them.  When the share is full, and at the
    end, it sorts the keys in place and writes the +1 run, then the -1 run, in
    ascending slot order (3.4 ns a write).  Where a share cannot hold one
    block pair of power_blocks (an int8 w, small n) each worker stages 2m keys
    in a buffer of its own instead.  Every buffer comes from this thread (a
    worker thread's allocations stay in its malloc arena) and goes on return.
    """
    ctx._generator(), ctx._mul_image_tables(True)  # memo tables: built here, read by the workers
    n, size = ctx.n, ctx.size
    m = min(POWER_BLOCK, size // 2)
    parts = min(_workers(), size // 2 // m)
    key = np.dtype(elem_dtype(n))  # holds 2^(n+1) - 1 for every n <= 32
    share = (w.itemsize - 1) * size // key.itemsize // parts // (2 * m) * (2 * m)
    if share:
        stage = w.view(np.uint8)[:parts * share * key.itemsize].view(key).reshape(parts, share)
    else:
        stage = np.empty((parts, 2 * m), dtype=key)
    blocks = np.empty((parts, 5, m), dtype=key)
    slots = np.empty((parts, _FLUSH), dtype=np.intp)  # numpy scatters faster by intp
    signs = w.view(np.int8)[(w.itemsize - 1) * size:]

    def flush(p, keys):
        keys.sort()
        neg = int(keys.searchsorted(key.type(size)))  # first Tr(x^-1) = 1; a Python int would copy keys
        for lo, hi, sign in ((0, neg, 1), (neg, keys.size, -1)):
            for s in range(lo, hi, _FLUSH):
                idx = slots[p, :min(_FLUSH, hi - s)]
                np.bitwise_and(keys[s:s + idx.size], size - 1, out=idx)
                signs[idx] = sign

    def scatter(p):
        fill = 0
        for _, fwd, mir in ctx.power_blocks(True, p, parts, blocks[p]):
            if fill == stage.shape[1]:
                flush(p, stage[p])
                fill = 0
            for slot, sign in ((fwd, mir), (mir, fwd)):  # a = 0 writes G*1 twice, alike
                keys = stage[p, fill:fill + m]
                np.bitwise_and(sign, 1, out=keys)
                keys <<= n
                keys |= slot
                fill += m
        flush(p, stage[p, :fill])

    _run_all(scatter, parts)
    return signs


def _half_field_signs(ctx: FieldCtx, w: np.ndarray) -> np.ndarray:
    """Write signs[G*x] = (-1)^Tr(x^-1) for every x into the int8 signs in the
    last bytes of w, as _scatter_signs does, for even n = 2d >= 4; return them.

    With q = 2^d, the half field K = {z : z^q = z}, T(x) = x + x^q and N(x) =
    x^(q+1) in K, x^-1 = x^q / N(x) gives Tr(x^-1) = Tr_K(T(x) / N(x)).  K is
    identified with sub = mk_field(d) through psi, which maps a root in sub of
    the minimal polynomial of some beta = T(mu) onto beta.  With t = psi^-1 T(x)
    and s = psi^-1 N(x) in sub's polynomial coordinates the sign is P[D[s] & t],
    D[s] = G_sub * s^-1 and P the +-1 parity table.  For u = G*x, x is the sum
    of d_k = G^-1 e_k over the bits k of u, and Tr(d_k * z) is bit k of z.  So,
    with eps_i = psi of sub's dual basis element i, bit i of t is Tr_K(T(x) eps_i)
    = Tr(x eps_i) = parity(u & eps_i), and s is a quadratic form in u: bit i of
    B(e_j, e_k) is bit j of d_k^q eps_i, and bit i of Q(e_k) is bit k of
    d_k^q eps_i lam, where T(lam) = 1.  u runs in chunks of m = min(POWER_BLOCK,
    2^n) entries, u = hi*m + lo, so that t = TL[lo] ^ t(hi) and s = QL[lo] ^
    QH[hi] ^ B(lo, hi), with L = log2(m).  Each of the _workers() threads takes
    a run of chunks in Gray-code order, where one bit k of hi changes per
    chunk: B(., hi) then changes by the row flips[k] = B(., e_(L+k)) and t(hi)
    by t(e_(L+k)).  No generator of the field, no walk and no table of 2^n
    entries but w.
    """
    n, d = ctx.n, ctx.n // 2
    sub, u16 = mk_field(d), np.uint16

    def frob(z):  # z^q
        for _ in range(d):
            z = ctx.sqr(z)
        return z

    for mu in range(2, ctx.size):  # beta = T(mu) is in K: stop at the first that generates K
        beta = conj = mu ^ frob(mu)
        poly = [1]
        for _ in range(d):  # prod_{i<d} (Y + beta^(2^i)), coefficients in F_2
            poly = [a ^ ctx._mul_raw(b, conj) for a, b in zip([0] + poly, poly + [0])]
            conj = ctx.sqr(conj)
        if is_irreducible(poly := sum(c << i for i, c in enumerate(poly))):
            break
    ys, vals = np.arange(sub.size, dtype=elem_dtype(d)), 0
    for i in range(d, -1, -1):  # poly at every element of sub, by Horner
        vals = sub.mul_vec(vals, ys) ^ ((poly >> i) & 1)
    gamma = int(np.flatnonzero(vals == 0)[0])
    # psi(gamma^j) = beta^j: column r of the inverse of [gamma^j] gives psi(X^r)
    powers = [ctx.pow(beta, j) for j in range(d)]
    psi = [xor_combine(powers, col) for col in mat_inverse_rows([sub.pow(gamma, j) for j in range(d)], d)]
    eps = [xor_combine(psi, delta) for delta in sub.gram_inv]
    lam = ctx._mul_raw(mu, ctx.pow(beta, (1 << d) - 2))
    dq_bits = ((np.array([frob(dk) for dk in ctx.gram_inv])[:, None] >> np.arange(n)) & 1)[:, :, None]

    def times_dq(cs):  # [k, i]: d_k^q * cs[i], summed from the cs[i] * x^j over the bits j of d_k^q
        imgs = [np.array(cs)]
        for _ in range(n - 1):
            imgs.append(ctx.mulx_vec(imgs[-1]))
        return np.bitwise_xor.reduce(dq_bits * np.array(imgs), 1)

    def coords(a):  # [..., j]: bit j of a[..., i] at bit i, for every i < d
        return (((a[..., :, None] >> np.arange(n)) & 1) << np.arange(d)[:, None]).sum(-2).astype(u16)

    timg, bmat = coords(np.array(eps)), coords(times_dq(eps))  # t(e_j); B(e_j, e_k) at [k, j]
    qvals = np.diagonal(coords(times_dq([ctx._mul_raw(e, lam) for e in eps])))
    m = min(POWER_BLOCK, ctx.size)
    L = m.bit_length() - 1

    def form(ks):  # Q on the span of the e_k, k in ks
        return form_table(len(ks), qvals[ks], [sum(int(v) << d * j for j, v in enumerate(bmat[k, ks])) for k in ks], d)

    QL, QH, TL = form(range(L)), form(range(L, n)), xor_table(timg[:L], u16)
    flips = [xor_table(row, u16) for row in bmat[L:, :L]]  # flips[k][lo] = B(lo, e_(L+k))
    D = sub.dualenc_table().take(sub.inverse_table()).astype(u16)
    P = _PLUS_MINUS.take(xor_table([1] * d, np.uint8))
    chunks = ctx.size // m
    parts = min(_workers(), chunks)
    signs = w.view(np.int8)[(w.itemsize - 1) * ctx.size:]
    bufs = np.empty((parts, 3, m), dtype=u16)

    def fill(p):
        acc, t, s = bufs[p]  # acc = QL ^ B(., hi), t = TL ^ t(hi)
        acc[:], t[:], prev = QL, TL, 0
        for i in range(p * chunks // parts, (p + 1) * chunks // parts):
            hi = i ^ i >> 1
            for k in range(n - L):
                if (hi ^ prev) >> k & 1:
                    acc ^= flips[k]
                    t ^= timg[L + k]
            prev = hi
            np.bitwise_xor(acc, QH[hi], out=s)
            D.take(s, out=s, mode="clip")
            s &= t
            P.take(s, out=signs[hi * m:(hi + 1) * m], mode="clip")

    _run_all(fill, parts)
    return signs


def _validate_kloosterman(spec: Spectrum) -> None:
    """K(0) = 0, every K even and |K - 1| within the Weil bound, from the OR, max
    and min of each block of _FWHT_BLOCK entries, read in cache, with the blocks
    shared by _workers() threads."""
    data = spec.data
    if int(data[0]) != 0:
        raise AssertionError("K(0) must vanish")
    blk = min(_FWHT_BLOCK, data.size)
    parts, found = min(_workers(), data.size // blk), []

    def reduce(p):
        for s in range(p * blk, data.size, parts * blk):
            block = data[s:s + blk]
            found.append((int(np.bitwise_or.reduce(block)), int(block.max()), int(block.min())))

    _run_all(reduce, parts)
    ors, highs, lows = zip(*found)
    if any(v & 1 for v in ors):
        raise AssertionError("Kloosterman sums must be even")
    # Weil bound for the x != 0 part; the x = 0 term shifts everything by +1.
    # max |K - 1| from the extremes in Python ints: no 2^n temporary.
    if max(max(highs) - 1, 1 - min(lows)) > spec.weil_bound():
        raise AssertionError("spectrum violates the Weil bound")


def kloosterman_zeros(ctx: FieldCtx, include_trivial: bool = False) -> set[int]:
    """Elements a != 0 with K(a) = 0 (a = 0 only when include_trivial)."""
    spec = kloosterman_spectrum(ctx)
    zeros = set(int(v) for v in np.flatnonzero(spec.data == 0))
    if not include_trivial:
        zeros.discard(0)
    return zeros
