"""Self-tests of the benchmark's tracer: installation, removal, span arithmetic."""
import time

import numpy as np
import pytest

import child
import tracing
from kspectra import cli, gf2n, linmap, permcheck, spectra, zerospace


def _snapshot():
    snap = {}
    for mod in tracing.kspectra_modules():
        snap[mod.__name__] = dict(vars(mod))
    snap["FieldCtx"] = dict(vars(gf2n.FieldCtx))
    snap["Spectrum"] = dict(vars(spectra.Spectrum))
    return snap


def test_wrappers_are_installed_everywhere_then_removed():
    before = _snapshot()
    assert tracing.installed_wrappers() == []
    tr = tracing.Tracer()
    tr.install()
    try:
        found = set(tracing.installed_wrappers())
        # the by-name imports are rebound too, not only the defining module
        for name in ("kspectra.spectra.kloosterman_spectrum", "kspectra.cli.kloosterman_spectrum",
                     "kspectra.zerospace.kloosterman_spectrum",
                     "kspectra.permcheck.kloosterman_spectrum", "kspectra.mk_field",
                     "kspectra.permcheck.adjoint", "FieldCtx.inverse_table",
                     "Spectrum.to_csv_rows", "kspectra.cli.main"):
            assert name in found, name
        # scalar hot paths stay untouched
        assert not hasattr(gf2n.FieldCtx.mul, tracing.MARK)
        assert not hasattr(linmap.LinMap.__call__, tracing.MARK)
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    assert tracing.installed_wrappers() == []
    after = _snapshot()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr, val in before[key].items():
            assert after[key][attr] is val, f"{key}.{attr} not restored"


def test_self_times_follow_nesting():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    outer = tr.open("spectra.kloosterman_spectrum")   # t=0
    inner = tr.open("gf2n.inverse_table")             # t=1
    leaf = tr.open("gf2n.exp_log_tables")             # t=2
    tr.close(leaf)                                    # t=3
    tr.close(inner)                                   # t=4
    fw = tr.open("spectra.fwht_inplace")              # t=5
    tr.close(fw)                                      # t=9
    tr.close(outer)                                   # t=10
    with pytest.raises(StopIteration):
        tr.clock()
    calls, incl, self_t, top = tracing.span_times(tr.spans)
    assert top == 10
    assert incl["spectra.kloosterman_spectrum"] == 10
    assert self_t["spectra.kloosterman_spectrum"] == 10 - 3 - 4
    assert self_t["gf2n.inverse_table"] == 2
    assert self_t["gf2n.exp_log_tables"] == 1
    assert tracing.spectrum_builds(tr.spans) == (1, 1)
    m = tracing.layer_metrics(tr.spans, tr.counts, wall_s=12.0)
    assert m["trace.unattributed_s"] == 2
    assert m["spectra.cache_hit_ratio"] == 0


def test_layer_self_times_and_remainder_sum_to_traced_wall(tmp_path):
    tr = tracing.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        ctx = gf2n.mk_field(12)
        spectra.kloosterman_spectrum(ctx)
        spectra.kloosterman_spectrum(ctx)  # cache hit
        assert cli.main(["spectrum", "--n", "9", "--out", str(tmp_path / "s.csv")]) == 0
        L = linmap.identity_map(8)
        permcheck.perm_spectral(gf2n.mk_field(8), L, L)
        permcheck.perm_direct(gf2n.mk_field(8), L, L)
        zerospace.max_mod16_subspace(gf2n.mk_field(8))
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr.spans, tr.counts, wall)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum + m["trace.unattributed_s"] == pytest.approx(wall, abs=1e-9)
    assert m["trace.unattributed_s"] >= 0
    assert all(m[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)
    assert m["gf2n.fields_built"] == 5  # 12, 9 (cli), 8 three times
    assert m["permcheck.verdicts"] == 2
    assert m["zerospace.dfs_nodes"] > 0
    assert m["spectra.csv_rows_s"] > 0 and m["cli.self_s"] > 0
    assert m["gf2n.table_bytes"] > 0 and m["spectra.fwht_bytes_computed"] > 0


def test_fwht_bytes_are_computed_from_the_array():
    tr = tracing.Tracer()
    tr.install()
    try:
        spectra.fwht_inplace(np.zeros(1 << 10, dtype=np.int64))
    finally:
        tr.uninstall()
    assert tr.counts["spectra.fwht_bytes_computed"] == 10 * (1 << 10) * 8 * 2


def test_determinism_rules():
    base = {k: 7 for k in tracing.SEED_FREE_COUNTS + tracing.SEEDED_COUNTS}
    assert tracing.determinism_failures([base, dict(base)], dict(base)) == []
    moved = dict(base, **{"zerospace.dfs_nodes": 8})
    assert tracing.determinism_failures([base, moved], None)
    reseeded = dict(base, **{"permcheck.reject_spectral_b": 3})
    assert tracing.determinism_failures([base], reseeded) == []
    assert tracing.determinism_failures([base, reseeded], None)
    assert tracing.determinism_failures([base], dict(base, **{"gf2n.fields_built": 1}))


def _tiny_body(inp, workdir):
    ctx = gf2n.mk_field(inp["n"])
    K = spectra.kloosterman_spectrum(ctx).data
    L = linmap.identity_map(inp["n"])
    permcheck.perm_spectral(ctx, L, L)
    return {"ops": K.size}


@pytest.fixture
def tiny(monkeypatch):
    import workloads
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload(
        lambda seed: {"n": 9}, _tiny_body, lambda out: iter([("ops", out["ops"] == 512)])))
    now = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    return lambda trace, tmp: child.main(["tiny", "1", trace, now, str(tmp)])


def test_timed_run_proves_no_wrapper_is_installed(tiny, tmp_path):
    rec = tiny("0", tmp_path)
    assert rec["attempted"] == 2 and rec["failed"] == []
    assert "layer" not in rec
    tr = tracing.Tracer()
    tr.install()  # a leftover tracer must fail the untraced run's check
    try:
        rec = tiny("0", tmp_path)
    finally:
        tr.uninstall()
    assert rec["failed"] == ["no tracing wrappers in the timed run"]


def test_traced_run_removes_wrappers_and_accounts_for_wall(tiny, tmp_path):
    rec = tiny("1", tmp_path)
    assert tracing.installed_wrappers() == []
    assert rec["failed"] == [] and rec["attempted"] == 2
    layer = rec["layer"]
    total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    assert total + layer["trace.unattributed_s"] == pytest.approx(rec["wall_s"], abs=1e-9)
    assert layer["gf2n.fields_built"] == 1 and layer["permcheck.verdicts"] == 1
    assert rec["spans"] and all(s[tracing.END] >= s[tracing.START] for s in rec["spans"])
