"""Walsh rows, Kloosterman sums and spectra.

The fast paths place each sign (-1)^Tr(f(x)) at the dual-basis coordinates
G*x of x and run a Walsh-Hadamard butterfly.  Since Tr(b*x) = parity(b & G*x),
the output is already indexed by the encoding of b: no gather follows.
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

from kspectra.gf2n import MAX_DEGREE, POWER_BLOCK, FieldCtx, elem_dtype, memo


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
    bytes.  Next to it live O(POWER_BLOCK) arrays per worker (_workers()),
    counted as eight of 8-byte entries, 4 MiB: in the walk of the powers the blocks of
    power_blocks, intp scatter indices and int8 signs (1.8 MiB); in the
    butterfly, two int16 blocks of _FWHT_BLOCK entries (1 MiB), then a share
    of _FWHT_BLOCK panel entries.  Beyond the result, the peak measured
    1.5-1.9 MiB at n = 18..24 on one worker and 2.8-3.8 MiB on two.
    """
    return (np.dtype(sign_dtype(n)).itemsize << n) + 8 * 8 * POWER_BLOCK * _workers()


def _memory_limit(cgroup: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> int:
    """Bytes this process may use: the least of physical RAM (4 GiB where sysconf
    cannot tell), the soft RLIMIT_AS and the memory limit of the process's cgroup
    and of each cgroup above it: memory.max under cgroup v2, memory.limit_in_bytes
    in the memory/ tree under v1."""
    try:
        limits = [os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")]
    except (AttributeError, ValueError, OSError):
        limits = [4 << 30]
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        limits += [] if soft == resource.RLIM_INFINITY else [soft]
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


def memory_cap(bytes_of) -> int:
    """Largest degree n <= MAX_DEGREE whose estimated peak bytes_of(n) fits in
    _memory_limit(), read once per cap; 0 when none does."""
    limit = _memory_limit()
    return max((n for n in range(1, MAX_DEGREE + 1) if bytes_of(n) <= limit), default=0)


#: full spectra above this degree would not fit in memory_cap's limit
SPECTRUM_CAP = memory_cap(spectrum_bytes)

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
    their own; joins them all, then re-raises the first exception raised."""
    errors = []

    def guarded(p):
        try:
            task(p)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(p,)) for p in range(1, parts)]
    for t in threads:
        t.start()
    guarded(0)
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
    mk_field shares (n <= TABLE_DEGREE) that is the process.  Above
    SPECTRUM_CAP the build raises ValueError and nothing is cached.
    """
    if ctx.n > SPECTRUM_CAP:
        raise ValueError(
            f"full spectrum for n={ctx.n} is over the memory cap (n <= {SPECTRUM_CAP}; it needs "
            f"about {spectrum_bytes(ctx.n):,} bytes); evaluate kloosterman() pointwise instead"
        )
    spec = Spectrum(ctx.n, "kloosterman", _kloosterman_transform(ctx))
    _validate_kloosterman(spec)
    return spec


def _kloosterman_transform(ctx: FieldCtx) -> np.ndarray:
    """K(b) for every b, entry enc(b), from one scatter in dual-basis coordinates.

    With y_j = G*g^j (power_blocks), x = g^j has sign (-1)^Tr(x^-1) =
    1 - 2*(y_-j & 1), because Tr(z) = Tr(z*1) is bit 0 of G*z; it goes to
    slot y_j, so the butterfly output at b is sum_x (-1)^(Tr(x^-1) + Tr(b*x)).
    Each block pair writes both x = g^j and x = g^-j.  The 2^n - 1 writes
    cover every nonzero slot exactly when j -> g^j is onto, which the
    signs.all() check enforces before the transform.  The signs are int8 in
    the last bytes of the result w, which must start zero-filled: a slot no
    write reached then reads 0 and fails that check.  Workers write disjoint
    slots, so the result does not depend on how many ran.
    """
    w = np.zeros(ctx.size, dtype=sign_dtype(ctx.n))
    signs = w.view(np.int8)[(w.itemsize - 1) * ctx.size:]
    _scatter_signs(ctx, signs)
    signs[0] = 1  # x = 0 contributes (-1)^Tr(0)
    if not signs.all():
        raise AssertionError("the powers of the generator missed a nonzero element")
    fwht_inplace(w, signs)
    w.flags.writeable = False
    return w


def _scatter_signs(ctx: FieldCtx, signs: np.ndarray) -> None:
    """signs[G*x] = (-1)^Tr(x^-1) for x != 0 on _workers() threads, at most one
    per block of power_blocks.  Their buffers come from this thread (a worker
    thread's allocations stay in its malloc arena) and go on return."""
    ctx._generator(), ctx._mul_image_tables(True)  # memo tables: built here, read by the workers
    m = min(POWER_BLOCK, ctx.size // 2)
    parts = min(_workers(), ctx.size // 2 // m)
    blocks = np.empty((parts, 5, m), dtype=elem_dtype(ctx.n))
    slots = np.empty((parts, m), dtype=np.intp)  # numpy scatters faster by intp
    vals = np.empty((parts, m), dtype=np.int8)

    def scatter(p):
        for _, fwd, mir in ctx.power_blocks(True, p, parts, blocks[p]):
            for slot, sign in ((fwd, mir), (mir, fwd)):  # a = 0 writes G*1 twice, alike
                _PLUS_MINUS.take(np.bitwise_and(sign, 1, out=slots[p]), out=vals[p], mode="clip")
                np.copyto(slots[p], slot)
                signs[slots[p]] = vals[p]

    _run_all(scatter, parts)


def _validate_kloosterman(spec: Spectrum) -> None:
    data = spec.data
    if int(data[0]) != 0:
        raise AssertionError("K(0) must vanish")
    if int(np.bitwise_or.reduce(data)) & 1:
        raise AssertionError("Kloosterman sums must be even")
    # Weil bound for the x != 0 part; the x = 0 term shifts everything by +1.
    # max |K - 1| from the extremes in Python ints: no 2^n temporary.
    if max(int(data.max()) - 1, 1 - int(data.min())) > spec.weil_bound():
        raise AssertionError("spectrum violates the Weil bound")


def kloosterman_zeros(ctx: FieldCtx, include_trivial: bool = False) -> set[int]:
    """Elements a != 0 with K(a) = 0 (a = 0 only when include_trivial)."""
    spec = kloosterman_spectrum(ctx)
    zeros = set(int(v) for v in np.flatnonzero(spec.data == 0))
    if not include_trivial:
        zeros.discard(0)
    return zeros
