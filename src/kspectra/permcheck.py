"""Bijectivity of L1(x^-1) + L2(x): direct evaluation vs. the spectral criterion.

The spectral route decides bijectivity from the adjoint maps alone: the
composite is a permutation iff ker(L1*) and ker(L2*) meet trivially and every
product L1*(b)*L2*(b) is a Kloosterman zero.  The kernel condition is linear
algebra on the columns of L1 and L2 and needs no table.  Both routes then try
to settle a pair with Python ints: the spectral route at the PROBE_BS points,
the direct route by the values at x < 2^(n/2 + 2), walked from a per-field
plan.  Otherwise they work on whole truth tables, one xor_table per map: an
adjoint's from its n columns L*(x^i), computed as at the probes, and products
go through the sentinel-log tables of gf2n; the direct route's table goes
through _first_collision, one linear pass.  Both ways give the same witness.
linmap.adjoint and kernel_intersection stay as the matrix-level oracles.
The exhaustive sweep over x^-1 + L(x) applies the spectral criterion at every
b, the randomized search at a few probes; both confirm every survivor by
direct evaluation, so the two routes stay independent.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from kspectra.gf2n import (TABLE_DEGREE, FieldCtx, elem_dtype, memo, spans, xor_combine,
                           xor_table)
from kspectra.linmap import (LinMap, adjoint, identity_map, kernel_dim, orthogonal_complement,
                             subspace_from_vectors)
from kspectra.spectra import TruthTable, kloosterman_spectrum, refuse_over_cap, spectrum_bytes
from kspectra.zerospace import zero_subspace_bound

#: fast-reject probe points: the first 8 nonzero field elements
PROBE_BS = (1, 2, 3, 4, 5, 6, 7, 8)

#: search_counterexample draws and probes this many pairs at a time
_SEARCH_BATCH = 1 << 14

#: each 2^n stage of the routes: its peak bytes per field element at 4-byte
#: elements (twice that at n = 32) beyond the spectrum, and whether it holds
#: the spectrum too.  The VmHWM growth of a cold call at n = 18..24, rounded
#: up; 8 MiB more covers worker buffers and the plan.  perm_spectral's probes
#: read the spectrum alone, under spectrum_bytes.
_STAGE_BYTES = {
    "inverse table": (4.5, False),     # _prefix_plan
    "direct table": (29, False),       # compose_truth_table and _first_collision
    "spectral tables": (28, True),     # A1, A2, their products and their K
    "search": (5.5, True),             # the zero mask and the inverse table
}


def stage_bytes(stage: str, n: int) -> int:
    """Estimated peak bytes of stage at degree n, beyond the interpreter."""
    per_entry, holds_spectrum = _STAGE_BYTES[stage]
    tables = int(per_entry * np.dtype(elem_dtype(n)).itemsize / 4 * (1 << n))
    return tables + (spectrum_bytes(n) if holds_spectrum else 0) + (8 << 20)


def _refuse_over_cap(ctx: FieldCtx, stage: str) -> None:
    refuse_over_cap(f"the {stage} for n={ctx.n}", stage_bytes(stage, ctx.n))


@dataclass(frozen=True)
class PermReport:
    is_perm: bool
    witness: tuple | None  # ("collision", x1, x2) | ("spectral_b", b) | ("kernel_overlap", v)
    method: str            # direct | spectral

    def to_json(self) -> dict:
        w = None
        if self.witness is not None:
            w = {"kind": self.witness[0],
                 "args": [hex(v) for v in self.witness[1:]]}
        return {"is_perm": self.is_perm, "witness": w, "method": self.method}


def _first_collision(values: np.ndarray) -> PermReport:
    """Direct verdict with the first collision in scan order as the witness, in
    one O(2^n) pass: first[v] is the first x with values[x] = v (ufunc.at is
    defined for repeated indices), x2 the first x whose value was seen before
    and x1 = first[values[x2]], that value's only earlier x."""
    dt = elem_dtype(values.size.bit_length())  # holds the size; int64 made take 5x slower at 2^16
    idx = np.arange(values.size, dtype=dt)
    first = np.full(int(values.max()) + 1, values.size, dtype=dt)
    np.minimum.at(first, values, idx)
    x2 = int((first.take(values) != idx).argmax())
    x1 = int(first[values[x2]])
    if x1 == x2:
        return PermReport(True, None, "direct")
    return PermReport(False, ("collision", x1, x2), "direct")


def is_permutation(ctx: FieldCtx, F: TruthTable) -> PermReport:
    """Surjectivity check with a first-found collision witness."""
    if F.n != ctx.n:
        raise ValueError("truth table degree mismatch")
    return _first_collision(F.values)


def compose_truth_table(ctx: FieldCtx, L1: LinMap, L2: LinMap) -> np.ndarray:
    """Values of x -> L1(x^-1) + L2(x) over the whole field."""
    return L1.truth_table().take(ctx.inverse_table()) ^ L2.truth_table()


def _adjoint_table(ctx: FieldCtx, L: LinMap) -> np.ndarray:
    """Truth table of L*, indexed by the encoding of b: the xor_table of the
    columns L*(x^i) = _adjoint_at(G*x^i), and G*x^i is row i of G (G is
    symmetric).  linmap.adjoint is the matrix-level oracle."""
    return xor_table([_adjoint_at(ctx, L.cols, g) for g in ctx.gram], elem_dtype(ctx.n))


@memo
def _prefix_plan(ctx: FieldCtx) -> list[tuple[int, int, tuple[int, ...], int, int]]:
    """perm_direct's steps (x, p, bits, q, j) for 0 < x < k = 2^(n/2 + 2),
    four times the birthday bound (at least 64, at most 2^n), where a random
    map has repeated a value but with probability about e^-8.

    L1(x^-1) = L1(p^-1) xor the columns of L1 at bits, the set bits of
    x^-1 xor p^-1, and L2(x) = L2(q) xor column j of L2 (q = x & (x - 1), j
    the lowest bit of x).  p is the one of the 64 points before x (0 stands
    in below 0) whose inverse is nearest to x^-1 in Hamming distance: one
    bitwise_count over a sliding window, O(64 k) rather than O(k^2).
    """
    _refuse_over_cap(ctx, "inverse table")
    n, w = ctx.n, 64
    k = min(1 << n, max(64, 1 << (n // 2 + 2)))
    inv = ctx.inverse_table()[:k]
    x = np.arange(1, k)
    near = sliding_window_view(np.concatenate([np.zeros(w, inv.dtype), inv]), w)[1:k]
    p = np.maximum(x - w + np.bitwise_count(near ^ inv[1:, None]).argmin(axis=1), 0)
    steps = [tuple(i for i in range(n) if d >> i & 1) for d in (inv[1:] ^ inv[p]).tolist()]
    low = np.bitwise_count((x & -x) - 1)
    return list(zip(x.tolist(), p.tolist(), steps, (x & (x - 1)).tolist(), low.tolist()))


def perm_direct(ctx: FieldCtx, L1: LinMap, L2: LinMap) -> PermReport:
    """Test bijectivity of L1(x^-1) + L2(x), with the first collision as witness.

    The values at x < k are scanned in Python first, each from an earlier
    one by the steps of _prefix_plan.  The first repeat, by first sighting,
    is the first collision of the whole scan; only when the prefix holds
    none (a permutation, or about e^-8 of random pairs) is the full truth
    table built and scanned once by _first_collision.
    """
    plan = _prefix_plan(ctx)
    cols1, cols2 = L1.cols, L2.cols
    t1 = [0] * (len(plan) + 1)
    t2 = t1[:]
    seen = {0: 0}  # x = 0 maps to 0
    for x, p, bits, q, j in plan:
        u = t1[p]
        for i in bits:
            u ^= cols1[i]
        t1[x] = u
        t = t2[x] = t2[q] ^ cols2[j]
        v = u ^ t
        if v in seen:
            return PermReport(False, ("collision", seen[v], x), "direct")
        seen[v] = x
    _refuse_over_cap(ctx, "direct table")
    return _first_collision(compose_truth_table(ctx, L1, L2))


@memo
def _probe_tables(ctx: FieldCtx) -> tuple[list[int], np.ndarray]:
    """G*b for each PROBE_BS point b, and the spectrum's K array itself."""
    return [ctx.dualenc(b) for b in PROBE_BS[:ctx.size - 1]], kloosterman_spectrum(ctx).data


def _adjoint_at(ctx: FieldCtx, cols, d: int) -> int:
    """L*(b) = G^-1 * M^T * G*b for the map with columns cols, given d = G*b:
    bit j of M^T*d is parity(d & cols[j]), and it adds column j of G^-1."""
    a = 0
    for c, g in zip(cols, ctx.gram_inv):  # G^-1 is symmetric: rows are columns
        if (d & c).bit_count() & 1:
            a ^= g
    return a


def perm_spectral(ctx: FieldCtx, L1: LinMap, L2: LinMap) -> PermReport:
    """Decide bijectivity from adjoint kernels and Kloosterman values only.

    Kernel witness takes priority; then b scans in increasing encoded value.
    L*(b) = 0 means G*b is orthogonal to every column of L, so ker L1* &
    ker L2* is the trace-orthogonal complement of the columns of L1 and L2:
    it is {0} exactly when they span F_2^n, and otherwise the witness is the
    first vector of its canonical basis, the smallest nonzero b in it (no
    other element has that vector's leading bit), found with no table.
    Then the PROBE_BS points, their G*b and K read from one memo per field,
    settle most pairs before the adjoint tables are built.
    linmap.kernel_intersection is the matrix-level oracle.
    """
    cols = L1.cols + L2.cols
    if not spans(cols, ctx.n):
        overlap = orthogonal_complement(ctx, subspace_from_vectors(ctx.n, cols))
        return PermReport(False, ("kernel_overlap", overlap.vectors[0]), "spectral")
    ds, K = _probe_tables(ctx)
    for b, d in zip(PROBE_BS, ds):
        if K[ctx.mul(_adjoint_at(ctx, L1.cols, d), _adjoint_at(ctx, L2.cols, d))]:
            return PermReport(False, ("spectral_b", b), "spectral")
    _refuse_over_cap(ctx, "spectral tables")
    bad = K.take(ctx.mul_vec(_adjoint_table(ctx, L1), _adjoint_table(ctx, L2))).nonzero()[0]
    if bad.size:
        return PermReport(False, ("spectral_b", int(bad[0])), "spectral")
    return PermReport(True, None, "spectral")


def perm_general_spectral(ctx: FieldCtx, F: TruthTable, L1: LinMap, L2: LinMap) -> bool:
    """Walsh criterion for L1(F(x)) + L2(x): all rows at (L1*(b), L2*(b)) vanish."""
    A1 = adjoint(ctx, L1)
    A2 = adjoint(ctx, L2)
    tr = ctx.trace_table()
    idx = np.arange(ctx.size, dtype=F.values.dtype)
    for b in range(1, ctx.size):
        s = tr[ctx.mul_vec(A1(b), F.values)] ^ tr[ctx.mul_vec(A2(b), idx)]
        if ctx.size - 2 * int(s.sum()) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive sweep over x^-1 + L(x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    n: int
    candidates_checked: int
    permutations_found: tuple[LinMap, ...]
    wall_time_s: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "candidates_checked": self.candidates_checked,
            "permutations_found": [
                {"matrix_cols": [hex(c) for c in L.cols]} for L in self.permutations_found
            ],
            "wall_time": self.wall_time_s,
        }


def _sweep(ctx: FieldCtx) -> tuple[int, list[tuple[int, ...]]]:
    """Scan all matrices A = L* column by column, each b at the column that decides it.

    x^-1 + L(x) is a permutation iff K(b * A(b)) = 0 for all b != 0 (the
    spectral criterion with L1 = I; K(0) = 0).  Column l = c fixes A(b) =
    c xor A(b xor 2^l) for every b with leading bit l, so each level keeps
    the c passing all those b and the surviving leaves are exactly the
    permutations.  A rejected c fails that b for every completion, so the
    count advances by its subtree's size.  perm_direct confirms each survivor.
    """
    n = ctx.n
    N = ctx.size
    kz = kloosterman_spectrum(ctx).data == 0
    elems = np.arange(N, dtype=elem_dtype(n))
    checked = 0
    found: list[tuple[int, ...]] = []

    def rec(prefix: list[int]) -> None:
        nonlocal checked
        level = len(prefix)
        top = 1 << level
        P = xor_table(prefix, elems.dtype)  # A(b) for b < 2^level
        alive = elems
        for b in range(top, 2 * top):
            alive = alive[kz.take(ctx.mul_vec(b, alive ^ P[b ^ top]))]
        checked += (N - alive.size) * N ** (n - 1 - level)  # every completion fails
        for c in alive.tolist():
            acols = prefix + [c]
            if level < n - 1:
                rec(acols)
            elif any(acols):
                checked += 1
                L = adjoint(ctx, LinMap(n, tuple(acols)))  # involution: acols are exactly L*
                if not perm_direct(ctx, identity_map(n), L).is_perm:
                    raise AssertionError(f"sweep survivor {L.cols} is not a permutation")
                found.append(L.cols)

    rec([])
    return checked, found


def sweep_inverse_plus_linear(ctx: FieldCtx) -> SweepReport:
    """Check every nonzero linear L: is x^-1 + L(x) ever a permutation?

    Exhaustive over all 2^(n^2) - 1 candidates up to TABLE_DEGREE, where the
    products leave the exp/log tables: the cost, not the method, stops it.
    """
    n = ctx.n
    if n > TABLE_DEGREE:
        raise ValueError(f"exhaustive sweep covers n <= {TABLE_DEGREE}; "
                         "use the randomized search above")
    start = time.perf_counter()
    checked, found = _sweep(ctx)
    if checked != (1 << (n * n)) - 1:
        raise AssertionError("sweep accounting lost candidates")
    elapsed = time.perf_counter() - start
    perms = tuple(LinMap(n, cols) for cols in sorted(found))
    return SweepReport(n=n, candidates_checked=checked,
                       permutations_found=perms, wall_time_s=elapsed)


# ---------------------------------------------------------------------------
# Randomized / structured counterexample search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchReport:
    n: int
    mode: str
    budget: int
    seed: int
    pairs_examined: int
    found: tuple[LinMap, LinMap] | None

    def to_json(self) -> dict:
        f = None
        if self.found is not None:
            f = [{"matrix_cols": [hex(c) for c in L.cols]} for L in self.found]
        return {
            "n": self.n, "mode": self.mode, "budget": self.budget,
            "seed": self.seed, "pairs_examined": self.pairs_examined,
            "found": f,
        }


def _zero_quotients(ctx: FieldCtx, zeros: np.ndarray):
    """quotient(zi, a) = zeros[zi] / a elementwise, 0 where a = 0.  Up to TABLE_DEGREE
    it adds logs, ext[log z + log a^-1]: three takes per column, where mul_vec of
    the gathered zeros and inverses takes five (the sentinel log of a = 0 lands on
    a 0 entry); above it, mul_vec by the inverses."""
    inv = ctx.inverse_table()
    if ctx.n > TABLE_DEGREE:
        return lambda zi, a: ctx.mul_vec(zeros.take(zi), inv.take(a))
    ext, log = ctx.exp_log_tables()
    logz, nlog = log.take(zeros), log.take(inv)
    return lambda zi, a: ext.take(logz.take(zi) + nlog.take(a))


def search_counterexample(ctx: FieldCtx, mode: str = "random", budget: int = 10**6,
                          seed: int = 0) -> SearchReport:
    """Sample (L1, L2) pairs hunting a permutation L1(x^-1) + L2(x).

    Pairs are drawn as adjoint matrices (a bijective reparametrization),
    _SEARCH_BATCH pairs at a time, one column at a time: column i of A1 is drawn
    when a probe b first reads it (the probes b < 17 read columns 0..4),
    for the rows still alive, by one rng.integers call; then column i of A2
    (random mode) or of the zero indices (structured mode).  After the last
    probe the columns no probe read are drawn the same way for the
    survivors only.  Every entry is still independent and uniform, so
    random mode stays uniform.  structured mode divides fresh Kloosterman
    zeros by the first-map columns so all basis-point probes pass by
    construction, forcing the deeper probes and direct confirmation to do
    the rejecting.  Any survivor is re-checked with perm_direct.
    """
    if ctx.n < 5:
        raise ValueError("search mirrors statements that need n >= 5")
    if mode not in ("random", "structured"):
        raise ValueError(f"unknown mode {mode!r}")
    _refuse_over_cap(ctx, "search")
    n = ctx.n
    N = ctx.size
    kz_mask = kloosterman_spectrum(ctx).data == 0
    zeros = np.flatnonzero(kz_mask[1:]).astype(np.uint32) + 1  # the nonzero zeros
    quotient = _zero_quotients(ctx, zeros) if mode == "structured" else None
    rng = np.random.default_rng(seed)
    # in structured mode the basis points b = x^i pass by construction:
    # A1(x^i) * A2(x^i) is a zero z, or 0 when column i of A1 is 0
    probes = [b for b in range(1, min(N, 17)) if mode == "random" or b & (b - 1)]
    examined = 0
    found: tuple[LinMap, LinMap] | None = None

    def draw(k: int, rows: int) -> None:  # columns len(s1)..k-1 of A1 and A2, `rows` each
        for _ in range(len(s1), k):
            s1.append(rng.integers(0, N, size=rows, dtype=np.uint32))
            if mode == "random":
                s2.append(rng.integers(0, N, size=rows, dtype=np.uint32))
            else:  # A2 = zeros[zi] / A1
                s2.append(quotient(rng.integers(0, zeros.size, size=rows, dtype=np.uint32), s1[-1]))

    while examined < budget and found is None:
        b_sz = min(_SEARCH_BATCH, budget - examined)
        rows = b_sz             # rows that passed every probe so far
        s1, s2 = [], []         # s[i]: column i on those rows, drawn when a probe first reads it
        for b in probes:
            if not rows:
                break
            draw(b.bit_length(), rows)
            keep = kz_mask.take(ctx.mul_vec(xor_combine(s1, b), xor_combine(s2, b))).nonzero()[0]
            rows = keep.size
            s1, s2 = [v[keep] for v in s1], [v[keep] for v in s2]
        if rows:
            draw(n, rows)       # the columns no probe reads, for the survivors only
        for r1, r2 in zip(np.array(s1).T.tolist(), np.array(s2).T.tolist()):
            A1, A2 = LinMap(n, tuple(r1)), LinMap(n, tuple(r2))
            if A1.is_zero() or A2.is_zero():
                continue  # the statement under test requires nonzero maps
            L1 = adjoint(ctx, A1)
            L2 = adjoint(ctx, A2)
            if perm_direct(ctx, L1, L2).is_perm:
                found = (L1, L2)
                break
        examined += b_sz
    return SearchReport(n=n, mode=mode, budget=budget, seed=seed,
                        pairs_examined=examined, found=found)


def kernel_bound_applies(ctx: FieldCtx, L1: LinMap, L2: LinMap) -> bool:
    """True when a kernel is provably too large for bijectivity (n >= 5)."""
    if ctx.n < 5:
        raise ValueError("kernel bound needs n >= 5")
    if L1.is_zero() or L2.is_zero():
        raise ValueError("kernel bound applies to nonzero maps only")
    d = zero_subspace_bound(ctx.n)
    return max(kernel_dim(L1), kernel_dim(L2)) > d
