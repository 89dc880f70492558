"""Self-tests of the workload checkers: good outputs pass, corrupted ones count as failures."""
import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import run
import workloads as W
from kspectra import cli, gf2n, quadform, spectra, zerospace


def failures(checks):
    return [name for name, ok in checks if not ok]


def test_closed_forms_match_the_library():
    for n in range(4, 25):
        assert W.quadric_count(n) == quadform.expected_h_zero_count(n)
    for n in range(5, 25):
        assert W.mod16_bound(n) == zerospace.mod16_subspace_bound(n)


def test_spectrum_checker_catches_a_corrupted_entry():
    K = spectra.kloosterman_spectrum(gf2n.mk_field(10)).data.copy()
    assert failures(W.spectrum_check({"n": 10, "K": K})) == []
    K[5] += 8  # keeps K(0) and parity, moves K(5) across a multiple of 16, breaks the sum
    assert len(failures(W.spectrum_check({"n": 10, "K": K}))) == 2
    K[5] -= 8
    K[0] = 4
    assert failures(W.spectrum_check({"n": 10, "K": K})) != []


def _paper_out():
    return {
        "zero_counts": dict(W.TABLE1_ZERO_COUNTS),
        "max_dim": {n: (d, True) for n, d in W.TABLE1_MAX_DIM.items()},
        "quadric": {n: (W.quadric_count(n), (1,) if n % 4 == 0 else ()) for n in W.QFORM_NS},
        "mod16": {n: True for n in W.MOD16_NS},
        "dfs": {n: (W.mod16_bound(n), True, 100) for n in W.DFS_NS},
    }


def test_paper_checker_catches_each_kind_of_corruption():
    assert failures(W.paper_check(_paper_out())) == []
    for key, n, bad in [("zero_counts", 17, 254), ("max_dim", 15, (3, True)),
                        ("max_dim", 14, (3, False)), ("quadric", 24, (4192256, ())),
                        ("quadric", 9, (135, ())), ("mod16", 16, False),
                        ("dfs", 11, (4, False, 9))]:
        out = _paper_out()
        out[key][n] = bad
        assert len(failures(W.paper_check(out))) == 1, (key, n)
    out = _paper_out()
    del out["quadric"][20]
    assert len(failures(W.paper_check(out))) == 2


def _perm_out():
    search = [SimpleNamespace(mode=m, found=None, pairs_examined=W.SEARCH_BUDGET)
              for m in ("random", "structured")]
    sweep = SimpleNamespace(candidates_checked=(1 << 25) - 1, permutations_found=())
    return {"verdicts": {6: [(False, False), (True, True)], 8: [(False, False)]},
            "searches": search, "sweep": sweep}


def test_perm_checker_catches_disagreement_and_hits():
    assert failures(W.perm_check(_perm_out())) == []
    out = _perm_out()
    out["verdicts"][8][0] = (False, True)
    assert failures(W.perm_check(out)) == ["routes agree on every pair n=8"]
    out = _perm_out()
    out["searches"][1].found = ("L1", "L2")
    assert len(failures(W.perm_check(out))) == 1
    out = _perm_out()
    out["sweep"].candidates_checked -= 1
    assert len(failures(W.perm_check(out))) == 1


def _export(tmp_path, n, edit=None):
    path = str(tmp_path / "s.csv")
    rc = cli.main(["spectrum", "--n", str(n), "--out", path])
    if edit is not None:
        with open(path) as fh:
            lines = fh.read().split("\n")
        edit(lines)
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
    return failures(W.export_check({"n": n, "path": path, "rc": rc}))


def test_export_checker_catches_corrupted_csv(tmp_path):
    assert _export(tmp_path, 8) == []

    def bump(lines):
        key, val = lines[7].split(",")
        lines[7] = f"{key},{int(val) + 4}"

    assert _export(tmp_path, 8, bump) == ["values equal the in-memory spectrum"]
    assert _export(tmp_path, 8, lambda lines: lines.pop(3)) == ["one row per element"]

    def swap(lines):
        lines[2], lines[3] = lines[3], lines[2]

    assert len(_export(tmp_path, 8, swap)) == 2  # keys out of order, values moved
    assert _export(tmp_path, 8, lambda lines: lines.__setitem__(0, "a,b")) == ["header line"]


def test_kernel_sizes_forbid_bandwidth_claims_below_four_llc():
    rec = run.kernel_sizes(128 << 20, 105 << 20)
    assert rec["computed"] and not rec["bandwidth_claim_allowed"] and "note" in rec
    assert run.kernel_sizes(512 << 20, 105 << 20)["bandwidth_claim_allowed"]
    assert not run.kernel_sizes(None, 105 << 20)["bandwidth_claim_allowed"]


def test_metric_names_match_the_benchmark_file():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(W.WORKLOADS)
    import tracing
    produced = set(tracing.layer_metrics([], tracing.Tracer().counts, 0.0))
    produced |= {"cli.bytes_written", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_repro",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_phases_sum_to_the_body_and_wall_takes_each_phase_fastest():
    W.start_laps()
    t0 = time.perf_counter()
    W.lap("a")
    W.lap("b")
    t1 = time.perf_counter()
    phases = W.phase_times(t0, t1)
    assert [label for label, _ in phases] == ["a", "b", "rest"]
    assert sum(t for _, t in phases) == pytest.approx(t1 - t0, abs=1e-12)
    recs = [{"phases": [["a", 1.0], ["b", 5.0], ["rest", 0.5]]},
            {"phases": [["a", 3.0], ["b", 2.0], ["rest", 0.25]]}]
    assert run.fastest_phases(recs) == 3.25
    recs[1]["phases"][0][0] = "c"
    with pytest.raises(SystemExit):
        run.fastest_phases(recs)
