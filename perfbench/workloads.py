"""The four benchmark workloads: inputs from a seed, a timed body, and a checker.

Every workload is a closed-loop batch job with one client.  The body calls
kspectra through module attributes (``spectra.kloosterman_spectrum``, not a
name imported here), so that a tracer which rebinds those attributes sees
every call.  Checkers run after the timed region, untraced, and each uses an
oracle that does not share the fast path being timed.

A body marks the end of each of its fixed phases with ``lap(label)``; the
run reports, per phase, the fastest time over its iterations (see run.py).
"""
from __future__ import annotations

import os
import time
from collections import namedtuple

import numpy as np

from kspectra import cli, gf2n, linmap, permcheck, quadform, spectra, zerospace

# The paper's Table 1, held here so the checks do not read the values from the
# code under test.  Max zero-subspace dimensions for n = 5..16:
TABLE1_MAX_DIM = {5: 1, 6: 2, 7: 3, 8: 1, 9: 1, 10: 2, 11: 2, 12: 2, 13: 1, 14: 3,
                  15: 4, 16: 2}
# Kloosterman zero counts (a != 0, K(a) = 0) for n = 5..20.  They give the
# paper's ratios count / 2^(n/2) (0.88, 1.87, 1.57, 0.86 at n = 5, 10, 15, 20)
# and match pointwise summation kloosterman(ctx, a) for every n <= 11.
TABLE1_ZERO_COUNTS = {5: 5, 6: 12, 7: 14, 8: 16, 9: 18, 10: 60, 11: 55, 12: 72, 13: 52,
                      14: 112, 15: 285, 16: 256, 17: 255, 18: 1008, 19: 1026, 20: 880}

SPECTRUM_N = 24
EXPORT_N = 20
QFORM_NS = range(4, 25)
MOD16_NS = range(4, 17)
DFS_NS = (10, 11)
PERM_NS = (6, 8, 10)
PERM_PAIRS = 3000
#: pairs per timed phase of perm_verdicts
PERM_CHUNK = 250
SEARCH_N = 10
SEARCH_BUDGET = 10**6
SWEEP_N = 5


_LAPS: list = []


def lap(label: str) -> None:
    """Mark the end of the running body's phase ``label``."""
    _LAPS.append((label, time.perf_counter()))


def start_laps() -> None:
    _LAPS.clear()


def phase_times(t0: float, t1: float) -> list:
    """[label, seconds] per phase of a body timed from t0 to t1; they sum to t1 - t0.

    The stretch after the last lap (all of it, for a body without laps) is
    the phase "rest".
    """
    phases, prev = [], t0
    for label, t in _LAPS:
        phases.append([label, t - prev])
        prev = t
    phases.append(["rest", t1 - prev])
    return phases


def quadric_count(n: int) -> int:
    """Zeros of q on the trace-zero hyperplane, 2^(n-2) + e, by n mod 8."""
    r = n % 8
    e = {0: -(1 << ((n - 2) // 2)), 4: 1 << ((n - 2) // 2),
         2: 0, 6: 0,
         1: 1 << ((n - 3) // 2), 7: 1 << ((n - 3) // 2),
         3: -(1 << ((n - 3) // 2)), 5: -(1 << ((n - 3) // 2))}[r]
    return (1 << (n - 2)) + e


def mod16_bound(n: int) -> int:
    """Largest subspace inside {Tr = 0, q = 0}, by n mod 8 (attained)."""
    r = n % 8
    if r in (0, 2, 6):
        return (n - 2) // 2
    if r in (1, 7):
        return (n - 1) // 2
    if r in (3, 5):
        return (n - 3) // 2
    return n // 2


# ---------------------------------------------------------------------------
# spectrum_n24: one cold full spectrum
# ---------------------------------------------------------------------------

def spectrum_inputs(seed: int) -> dict:
    return {"n": SPECTRUM_N}


def spectrum_body(inp: dict, workdir: str) -> dict:
    ctx = gf2n.mk_field(inp["n"])
    lap("mk_field")
    spec = spectra.kloosterman_spectrum(ctx)
    return {"n": inp["n"], "K": spec.data, "ops": spec.data.size,
            "array_bytes": spec.data.nbytes}


def spectrum_check(out: dict):
    n, K = out["n"], out["K"]
    # the quadform route: trace and q tables, no butterfly, no dual basis
    members = zerospace.mod16_members(gf2n.mk_field(n))
    yield "mod16 set equals {Tr = 0, q = 0}", np.array_equal(np.flatnonzero(K % 16 == 0), members)
    yield "sum of K is 2^n", int(K.sum()) == 1 << n
    yield "K(0) = 0", int(K[0]) == 0


# ---------------------------------------------------------------------------
# paper_repro: the paper's reproductions over many small fields
# ---------------------------------------------------------------------------

def paper_inputs(seed: int) -> dict:
    return {}


def paper_body(inp: dict, workdir: str) -> dict:
    out: dict = {"zero_counts": {}, "max_dim": {}, "quadric": {}, "mod16": {}, "dfs": {}}
    for n in TABLE1_ZERO_COUNTS:
        out["zero_counts"][n] = len(spectra.kloosterman_zeros(gf2n.mk_field(n)))
        lap(f"zero_counts/{n}")
    for n in TABLE1_MAX_DIM:
        rep = zerospace.max_zero_subspace(gf2n.mk_field(n))
        out["max_dim"][n] = (rep.best_dim, rep.exhaustive)
        lap(f"max_dim/{n}")
    for n in QFORM_NS:
        rec = quadform.restrict_q_to_h(gf2n.mk_field(n))
        out["quadric"][n] = (quadform.count_zeros(rec), rec.radical_basis.vectors)
        lap(f"quadric/{n}")
    for n in MOD16_NS:
        ctx = gf2n.mk_field(n)
        K = spectra.kloosterman_spectrum(ctx).data
        out["mod16"][n] = np.array_equal(np.flatnonzero(K % 16 == 0),
                                         zerospace.mod16_members(ctx))
        lap(f"mod16/{n}")
    for n in DFS_NS:
        ctx = gf2n.mk_field(n)
        rep = zerospace.max_subspace_in_set(ctx, zerospace.mod16_members(ctx), label="mod16")
        out["dfs"][n] = (rep.best_dim, rep.exhaustive, rep.nodes_visited)
        lap(f"dfs/{n}")
    out["ops"] = sum(len(v) for v in out.values())
    return out


def paper_check(out: dict):
    for n, want in TABLE1_ZERO_COUNTS.items():
        yield f"zero count n={n}", out["zero_counts"].get(n) == want
    for n, want in TABLE1_MAX_DIM.items():
        yield f"max zero-subspace dim n={n}", out["max_dim"].get(n) == (want, True)
    for n in QFORM_NS:
        got = out["quadric"].get(n)
        yield f"quadric count n={n}", got is not None and got[0] == quadric_count(n)
        radical = (1,) if n % 4 == 0 else ()
        yield f"radical n={n}", got is not None and got[1] == radical
    for n in MOD16_NS:
        yield f"mod16 criterion n={n}", out["mod16"].get(n) is True
    for n in DFS_NS:
        got = out["dfs"].get(n)
        yield (f"exhaustive mod16 search n={n}",
               got is not None and got[0] == mod16_bound(n) and got[1] and got[2] > 0)


# ---------------------------------------------------------------------------
# perm_verdicts: seeded (L1, L2) pairs decided by both routes, plus searches
# ---------------------------------------------------------------------------

def perm_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pairs = {}
    for n in PERM_NS:
        cols = rng.integers(0, 1 << n, size=(PERM_PAIRS, 2, n))
        pairs[n] = [(linmap.LinMap(n, tuple(int(v) for v in c[0])),
                     linmap.LinMap(n, tuple(int(v) for v in c[1]))) for c in cols]
    return {"pairs": pairs, "seed": seed}


def perm_body(inp: dict, workdir: str) -> dict:
    verdicts = {}
    for n, pairs in inp["pairs"].items():
        ctx = gf2n.mk_field(n)
        verdicts[n] = []
        for i in range(0, len(pairs), PERM_CHUNK):
            verdicts[n] += [(permcheck.perm_direct(ctx, L1, L2).is_perm,
                             permcheck.perm_spectral(ctx, L1, L2).is_perm)
                            for L1, L2 in pairs[i:i + PERM_CHUNK]]
            lap(f"pairs/{n}/{i}")
    ctx = gf2n.mk_field(SEARCH_N)
    searches = []
    for mode in ("random", "structured"):
        searches.append(permcheck.search_counterexample(ctx, mode, budget=SEARCH_BUDGET,
                                                        seed=inp["seed"]))
        lap(f"search/{mode}")
    sweep = permcheck.sweep_inverse_plus_linear(gf2n.mk_field(SWEEP_N))
    return {"verdicts": verdicts, "searches": searches, "sweep": sweep,
            "ops": sum(len(v) for v in verdicts.values())}


def perm_check(out: dict):
    for n, pairs in out["verdicts"].items():
        yield f"routes agree on every pair n={n}", all(d == s for d, s in pairs)
    for rep in out["searches"]:
        yield (f"{rep.mode} search finds nothing",
               rep.found is None and rep.pairs_examined == SEARCH_BUDGET)
    sweep = out["sweep"]
    yield ("sweep checks 2^25 - 1 candidates without a hit",
           sweep.candidates_checked == (1 << 25) - 1 and not sweep.permutations_found)


# ---------------------------------------------------------------------------
# spectrum_export: the CLI writing a spectrum as CSV
# ---------------------------------------------------------------------------

def export_inputs(seed: int) -> dict:
    return {"n": EXPORT_N}


def export_body(inp: dict, workdir: str) -> dict:
    path = os.path.join(workdir, f"spectrum_n{inp['n']}.csv")
    rc = cli.main(["spectrum", "--n", str(inp["n"]), "--out", path])
    return {"n": inp["n"], "path": path, "rc": rc, "ops": 1 << inp["n"],
            "bytes_written": os.path.getsize(path)}


def export_check(out: dict):
    n = out["n"]
    yield "exit code 0", out["rc"] == 0
    with open(out["path"], "rb") as fh:
        lines = fh.read().split(b"\n")
    os.remove(out["path"])
    yield "header line", lines[0] == b"elem_hex,value"
    rows = lines[1:-1] if lines[-1] == b"" else lines[1:]
    yield "one row per element", len(rows) == 1 << n
    if len(rows) != 1 << n:
        return
    fields = b",".join(rows).split(b",")
    if len(fields) != 2 << n:
        yield "two fields per row", False
        return
    yield "rows keyed 0x0 .. in order", fields[0::2] == [b"%#x" % a for a in range(1 << n)]
    K = spectra.kloosterman_spectrum(gf2n.mk_field(n)).data
    try:
        values = np.array(fields[1::2]).astype(np.int64)
    except ValueError:
        yield "values are integers", False
        return
    yield "values equal the in-memory spectrum", np.array_equal(values, K)


Workload = namedtuple("Workload", "inputs body check")


WORKLOADS = {
    "spectrum_n24": Workload(spectrum_inputs, spectrum_body, spectrum_check),
    "paper_repro": Workload(paper_inputs, paper_body, paper_check),
    "perm_verdicts": Workload(perm_inputs, perm_body, perm_check),
    "spectrum_export": Workload(export_inputs, export_body, export_check),
}
