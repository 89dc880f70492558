"""Timing wrappers around the public entry points of each kspectra layer.

A Tracer rebinds module functions in every kspectra module that holds them
(``cli``, ``zerospace`` and ``permcheck`` import ``kloosterman_spectrum`` by
name) and replaces a few class methods (the FieldCtx table builders,
``FieldCtx.mul_vec`` and ``Spectrum.to_csv_rows``).  Scalar hot paths such as
``ctx.mul`` or ``LinMap.__call__`` are never wrapped: a wrapper there would
cost more than the call.

Spans are kept in memory as ``[name, start, end, parent]`` lists and turned
into per-layer metrics after the traced body has finished.  Self time is a
span's duration minus the durations of its direct children; the children of
one span never overlap because calls nest.
"""
from __future__ import annotations

import functools
import math
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("gf2n", "linmap", "spectra", "quadform", "zerospace", "permcheck", "cli")

#: attribute set on every wrapper, so a run can prove none is installed
MARK = "__perfbench_wrapped__"

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._tables: dict[int, weakref.ref] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self.stack.remove(idx)

    def wrap(self, name: str, fn, after=None):
        """Time every call of fn as a span; after(tracer, args, result) counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def wrap_generator(self, name: str, fn):
        """Time a generator over its whole iteration, first item to exhaustion."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, kind, after in targets():
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "generator":
                w = self.wrap_generator(name, orig)
            else:
                w = self.wrap(name, orig, after)
            if isinstance(owner, type):
                self._rebind(owner, attr, w)
            else:
                for mod in kspectra_modules():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, key, w)

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- counters fed from return values -----------------------------------------

    def add_table_bytes(self, out) -> None:
        """Count each distinct table array once, however often it is fetched."""
        for arr in out if isinstance(out, tuple) else (out,):
            ref = self._tables.get(id(arr))
            if ref is None or ref() is not arr:
                self._tables[id(arr)] = weakref.ref(arr)
                self.counts["gf2n.table_bytes"] += arr.nbytes


def kspectra_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "kspectra" or k.startswith("kspectra."))]


def _tables(tr, args, out):
    tr.add_table_bytes(out)


def _fwht(tr, args, out):
    # computed, not measured: a radix-2 butterfly reads and writes every
    # element once per stage, so k stages move k * 2^k * itemsize * (1 + 1)
    w = args[0]
    k = int(math.log2(w.shape[0]))
    tr.counts["spectra.fwht_bytes_computed"] += k * w.shape[0] * w.itemsize * 2


def _search(tr, args, out):
    tr.counts["zerospace.dfs_nodes"] += out.nodes_visited
    tr.counts["zerospace.exhaustive"] += int(out.exhaustive)


def _verdict(tr, args, out):
    tr.counts["permcheck.verdicts"] += 1
    if out.witness is not None:
        tr.counts["permcheck.reject_" + out.witness[0]] += 1


def _counterexample(tr, args, out):
    tr.counts["permcheck.search_pairs"] += out.pairs_examined


def _sweep(tr, args, out):
    tr.counts["permcheck.sweep_candidates"] += out.candidates_checked


def targets():
    """(span name, owner, attribute, kind, counter hook) for every wrapped entry."""
    from kspectra import cli, gf2n, linmap, permcheck, quadform, spectra, zerospace

    F = gf2n.FieldCtx
    return [
        ("gf2n.mk_field", gf2n, "mk_field", "call", None),
        ("gf2n.exp_log_tables", F, "exp_log_tables", "call", _tables),
        ("gf2n.inverse_table", F, "inverse_table", "call", _tables),
        ("gf2n.trace_table", F, "trace_table", "call", _tables),
        ("gf2n.dualenc_table", F, "dualenc_table", "call", _tables),
        ("gf2n.mul_vec", F, "mul_vec", "call", None),
        ("linmap.adjoint", linmap, "adjoint", "call", None),
        ("linmap.kernel_intersection", linmap, "kernel_intersection", "call", None),
        ("spectra.kloosterman_spectrum", spectra, "kloosterman_spectrum", "call", None),
        ("spectra.fwht_inplace", spectra, "fwht_inplace", "call", _fwht),
        ("spectra.to_csv_rows", spectra.Spectrum, "to_csv_rows", "generator", None),
        ("quadform.q_table", quadform, "q_table", "call", None),
        ("quadform.restrict", quadform, "restrict", "call", None),
        ("zerospace.mod16_members", zerospace, "mod16_members", "call", None),
        ("zerospace.max_subspace_in_set", zerospace, "max_subspace_in_set", "call", _search),
        ("permcheck.perm_direct", permcheck, "perm_direct", "call", _verdict),
        ("permcheck.perm_spectral", permcheck, "perm_spectral", "call", _verdict),
        ("permcheck.search_counterexample", permcheck, "search_counterexample", "call",
         _counterexample),
        ("permcheck.sweep_inverse_plus_linear", permcheck, "sweep_inverse_plus_linear", "call",
         _sweep),
        ("cli.main", cli, "main", "call", None),
    ]


def installed_wrappers() -> list[str]:
    """Names of kspectra attributes that currently hold a tracing wrapper."""
    found = []
    for mod in kspectra_modules():
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod.__name__]
        for owner in owners:
            for key, val in vars(owner).items():
                if getattr(val, MARK, False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def span_times(spans):
    """Per span name: (calls, inclusive seconds, self seconds); plus top-level total."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_t: defaultdict = defaultdict(float)
    top = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        incl[s[NAME]] += dur
        self_t[s[NAME]] += dur - child_time[i]
        if s[PARENT] < 0:
            top += dur
    return calls, incl, self_t, top


def spectrum_builds(spans) -> tuple[int, int]:
    """(kloosterman_spectrum calls, calls that ran a butterfly); the rest were cache hits."""
    calls = [i for i, s in enumerate(spans) if s[NAME] == "spectra.kloosterman_spectrum"]
    built = {s[PARENT] for s in spans if s[NAME] == "spectra.fwht_inplace"}
    return len(calls), sum(1 for i in calls if i in built)


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Every per-layer metric of one traced iteration.

    Times (``_s``) are self times; the two rates divide by inclusive time.
    """
    calls, incl, self_t, top = span_times(spans)
    c = counts
    sp_calls, sp_built = spectrum_builds(spans)
    searches = calls["zerospace.max_subspace_in_set"]
    search_incl = incl["zerospace.max_subspace_in_set"]
    verdict_incl = incl["permcheck.perm_direct"] + incl["permcheck.perm_spectral"]
    m = {
        "gf2n.exp_log_s": self_t["gf2n.exp_log_tables"],
        "gf2n.inverse_s": self_t["gf2n.inverse_table"],
        "gf2n.trace_dualenc_s": self_t["gf2n.trace_table"] + self_t["gf2n.dualenc_table"],
        "gf2n.table_bytes": c["gf2n.table_bytes"],
        "gf2n.mk_field_s": self_t["gf2n.mk_field"],
        "gf2n.fields_built": calls["gf2n.mk_field"],
        "gf2n.mul_vec_s": self_t["gf2n.mul_vec"],
        "gf2n.mul_vec_calls": calls["gf2n.mul_vec"],
        "linmap.adjoint_s": self_t["linmap.adjoint"],
        "linmap.adjoint_calls": calls["linmap.adjoint"],
        "linmap.kernel_s": self_t["linmap.kernel_intersection"],
        "spectra.fwht_s": self_t["spectra.fwht_inplace"],
        "spectra.spectrum_self_s": self_t["spectra.kloosterman_spectrum"],
        "spectra.fwht_bytes_computed": c["spectra.fwht_bytes_computed"],
        "spectra.spectra_built": sp_built,
        "spectra.cache_hit_ratio": (sp_calls - sp_built) / sp_calls if sp_calls else 0.0,
        "spectra.csv_rows_s": self_t["spectra.to_csv_rows"],
        "quadform.q_table_s": self_t["quadform.q_table"],
        "quadform.restrict_s": self_t["quadform.restrict"],
        "quadform.forms_classified": calls["quadform.restrict"],
        "zerospace.search_s": self_t["zerospace.max_subspace_in_set"],
        "zerospace.dfs_nodes": c["zerospace.dfs_nodes"],
        "zerospace.nodes_per_s": c["zerospace.dfs_nodes"] / search_incl if search_incl else 0.0,
        "zerospace.exhaustive_ratio": c["zerospace.exhaustive"] / searches if searches else 0.0,
        "zerospace.member_set_s": self_t["zerospace.mod16_members"],
        "permcheck.direct_s": self_t["permcheck.perm_direct"],
        "permcheck.spectral_s": self_t["permcheck.perm_spectral"],
        "permcheck.verdicts": c["permcheck.verdicts"],
        "permcheck.verdicts_per_s": c["permcheck.verdicts"] / verdict_incl if verdict_incl else 0.0,
        "permcheck.reject_kernel_overlap": c["permcheck.reject_kernel_overlap"],
        "permcheck.reject_spectral_b": c["permcheck.reject_spectral_b"],
        "permcheck.reject_collision": c["permcheck.reject_collision"],
        "permcheck.search_pairs": c["permcheck.search_pairs"],
        "permcheck.search_s": self_t["permcheck.search_counterexample"],
        "permcheck.sweep_candidates": c["permcheck.sweep_candidates"],
        "permcheck.sweep_s": self_t["permcheck.sweep_inverse_plus_linear"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_t.items() if k.split(".", 1)[0] == layer)
    m["trace.unattributed_s"] = wall_s - top
    return m


#: counts that must repeat exactly for one seed and must not move with the seed
SEED_FREE_COUNTS = ("zerospace.dfs_nodes", "permcheck.search_pairs",
                    "permcheck.sweep_candidates", "spectra.spectra_built",
                    "gf2n.fields_built")
#: counts that must repeat exactly for one seed but follow the seeded pairs
SEEDED_COUNTS = ("permcheck.reject_kernel_overlap", "permcheck.reject_spectral_b",
                 "permcheck.reject_collision")


def determinism_failures(same_seed: list[dict], other_seed: dict | None) -> list[str]:
    """Exact-count determinism: names of counts that broke the rules above."""
    bad = []
    first = same_seed[0]
    for rec in same_seed[1:]:
        bad += [f"{k} differs between runs of one seed" for k in SEED_FREE_COUNTS + SEEDED_COUNTS
                if rec[k] != first[k]]
    if other_seed is not None:
        bad += [f"{k} moved with the seed" for k in SEED_FREE_COUNTS
                if other_seed[k] != first[k]]
    return bad
