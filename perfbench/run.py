"""kspectra benchmark: four closed-loop batch workloads, checked, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (kspectra is imported from ./src).
Each iteration is a fresh interpreter (perfbench/child.py), started one at a
time with single-threaded BLAS, so the process-wide spectrum cache and the
per-field table caches start cold, as they do for a CLI user.  Iterations
repeat until S seconds have passed and at least MIN_ITER have run (two
when a third would end after OVERRUN * S).  wall_s is the sum over the
body's phases of each phase's fastest time over the iterations, ops_per_s
follows from it, and peak_rss_mib and setup_s are medians.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced iterations, plus one traced iteration at
seed + 1 for the exact-count determinism check, and prints the per-layer
metrics of the median traced iteration; trace.overhead_s is its wall_s minus
the median untraced wall_s.

The last stdout line is the JSON result; the lines before it give every
metric with its unit and sample count, the error rate, the environment and
the computed kernel sizes.  A full record (and, when traced, the spans of one
traced iteration) goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (stdlib only at import time)

WORKLOADS = ("spectrum_n24", "paper_repro", "perm_verdicts", "spectrum_export")
MIN_ITER = 3
#: an untraced run stops at two iterations rather than let a third end after
#: this multiple of --seconds, which bounds the total time on a slow host
OVERRUN = 1.5
#: set-up-only interpreters started after each iteration
SETUP_PROBES = 2
#: no iteration starts if it could end after this many seconds of the run
DEADLINE_S = 165.0
#: a run over this many bytes of array per LLC byte may quote a bandwidth
BANDWIDTH_LLC_FACTOR = 4
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return dict(line.split(":", 1) for line in text.splitlines() if ":" in line)


def _size_bytes(text: str) -> int | None:
    m = re.match(r"\s*([\d.]+)\s*([KMG])", text)
    if not m:
        return None
    return int(float(m.group(1)) * {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)])


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "kspectra")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    cpu = _lscpu()
    llc = cpu.get("L3 cache") or cpu.get("L2 cache") or ""
    mem_kib = None
    try:
        with open("/proc/meminfo") as fh:
            mem_kib = int(next(l for l in fh if l.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", "").strip() or None,
        "llc": llc.strip() or None,
        "llc_bytes": _size_bytes(llc),
        "mem_total_mib": mem_kib // 1024 if mem_kib else None,
        "python": sys.version.split()[0],
        "numpy": None,  # filled from the first child
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def kernel_sizes(array_bytes: int | None, llc_bytes: int | None) -> dict:
    """Largest array of the run against the LLC; computed, not measured."""
    rec = {"computed": True, "largest_array_bytes": array_bytes, "llc_bytes": llc_bytes,
           "array_over_llc": None, "bandwidth_claim_allowed": False}
    if array_bytes and llc_bytes:
        rec["array_over_llc"] = array_bytes / llc_bytes
        rec["bandwidth_claim_allowed"] = array_bytes >= BANDWIDTH_LLC_FACTOR * llc_bytes
    if not rec["bandwidth_claim_allowed"]:
        rec["note"] = (f"working set below {BANDWIDTH_LLC_FACTOR}x LLC (or unknown): "
                       "no memory-bandwidth figure may be claimed from this workload")
    return rec


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.start = time.monotonic()
        self.iteration_s: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, seed: int, trace: bool, workload: str | None = None) -> dict:
        """One fresh-interpreter iteration; a crash comes back as {"error": ...}."""
        launch = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        argv = [sys.executable, os.path.join(HERE, "child.py"), workload or self.workload,
                str(seed), "1" if trace else "0", str(launch), self.workdir]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE_S + 10 - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timed out"}
        finally:
            if workload is None:
                self.iteration_s.append(time.monotonic() - t0)
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"error": f"no result line: {err.strip()[-2000:]}"}


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> tuple[dict, list]:
    """Run the iterations; returns the warm-up record and the iteration records.

    Kinds: U untraced, T traced, T2 traced at seed + 1, S set-up only (an
    interpreter that imports numpy and kspectra and exits, SETUP_PROBES after
    each iteration, so set-up time gets enough samples).  Only the first
    traced record keeps its spans, so this process stays small.
    """
    r = Runner(workload, workdir)
    warm = r.child(seed, False, "setup")  # writes pyc files, fills the page cache
    if "error" in warm:
        fail(f"cannot start a child: {warm['error']}")
    plan = ["U", "T", "U", "T", "T2"] if trace else ["U"] * MIN_ITER
    records = []
    i = 0
    while True:
        expected_end = r.elapsed() + (statistics.median(r.iteration_s) if r.iteration_s else 0)
        if i < len(plan):
            if not trace and i >= 2 and expected_end > OVERRUN * seconds:
                break
            kind = plan[i]
        elif expected_end <= seconds:
            kind = ("U", "T")[i % 2] if trace else "U"
        else:
            break
        if r.iteration_s and r.elapsed() + 1.5 * max(r.iteration_s) > DEADLINE_S:
            break
        rec = r.child(seed + 1 if kind == "T2" else seed, kind != "U")
        setups = [r.child(seed, False, "setup") for _ in range(SETUP_PROBES)]
        if any("spans" in old for old in records):
            rec.pop("spans", None)
        for k, one in [(kind, rec)] + [("S", s) for s in setups]:
            one["kind"] = k
            records.append(one)
        i += 1
    return warm, records


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def fastest_phases(recs: list) -> float:
    """A run's wall_s: the sum over the body's phases of each phase's fastest time.

    Shared hosts can alternate between fast and slow stretches that last
    seconds, so a median over a few iterations flips between the two.  The
    fastest time of every short phase over the run's iterations is steady,
    and a change to the code a phase runs still moves it.
    """
    if len({tuple(label for label, _ in rec["phases"]) for rec in recs}) != 1:
        fail("iterations of one run timed different phases")
    return sum(min(times) for times in zip(*([t for _, t in rec["phases"]] for rec in recs)))


def summarize(spec: dict, records: list, by_kind: dict, trace: bool):
    attempted = sum(1 if "error" in rec else rec.get("attempted", 0) for rec in records)
    failed = sum(1 if "error" in rec else len(rec.get("failed", ())) for rec in records)
    untraced = by_kind["U"]
    if not untraced or (trace and not by_kind["T"]):
        return None, attempted, failed, []
    notes = []
    if not trace:
        wall = fastest_phases(untraced)
        raw = [rec["wall_s"] for rec in untraced]
        setups = [rec["setup_s"] for rec in untraced + by_kind["S"]]
        rss = [rec["peak_rss_mib"] for rec in untraced]
        ops = statistics.median(rec["ops"] for rec in untraced)
        values = {
            "wall_s": (wall, f"sum over {len(untraced[0]['phases'])} phases of each one's "
                             f"fastest of {len(raw)} iterations; iteration wall_s median "
                             f"{statistics.median(raw):.6g}, min {min(raw):.6g}, "
                             f"max {max(raw):.6g}"),
            "ops_per_s": (ops / wall, f"{ops:g} ops per wall_s"),
            "peak_rss_mib": (statistics.median(rss), f"median of {len(rss)}; min {min(rss):.6g}, "
                                                     f"max {max(rss):.6g}"),
            "setup_s": (statistics.median(setups), f"median of {len(setups)}; min "
                                                   f"{min(setups):.6g}, max {max(setups):.6g}"),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in values:
                fail(f"end-to-end metric {m['name']} is not produced")
            value, how = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            notes.append(f"{m['name']} = {value:.6g} {m['unit']} ({how})")
        return metrics, attempted, failed, notes
    # per-layer figures come from one iteration, the traced one with the median
    # wall_s (the lower one of an even count), so that its layer self times and
    # remainder add up to its wall_s exactly
    traced = by_kind["T"]
    mid = sorted(traced, key=lambda rec: rec["wall_s"])[(len(traced) - 1) // 2]
    layer = dict(mid["layer"], **{"trace.wall_s": mid["wall_s"]})
    layer["trace.overhead_s"] = mid["wall_s"] - statistics.median(r["wall_s"] for r in untraced)
    counts = [rec["layer"] for rec in traced]
    other = by_kind["T2"][0]["layer"] if by_kind["T2"] else None
    bad = tracing.determinism_failures(counts, other)
    attempted += 1
    failed += 1 if bad else 0
    notes += [f"determinism: {b}" for b in bad]
    notes.append(f"determinism: {len(counts)} traced runs at the seed"
                 f"{' and 1 at seed + 1' if other else ''}: "
                 f"{'counts repeat exactly' if not bad else 'FAILED'}")
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in layer:
            fail(f"per-layer metric {m['name']} is not produced")
        metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        notes.append(f"{m['name']} = {layer[m['name']]:.6g} {m['unit']}")
    self_sum = sum(layer[f"{l}.self_s"] for l in tracing.LAYERS)
    notes.append(f"trace: layer self times {self_sum:.4f} s + unattributed "
                 f"{layer['trace.unattributed_s']:.4f} s = traced wall_s "
                 f"{layer['trace.wall_s']:.4f} s (median of {len(traced)} traced runs)")
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kspectra", "__init__.py")):
        fail(f"no kspectra sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a kspectra checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = environment(args.seed)
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        warm, records = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["numpy"] = warm["numpy"]
    by_kind = {k: [rec for rec in records if rec["kind"] == k and "error" not in rec]
               for k in ("U", "T", "T2", "S")}
    metrics, attempted, failed, notes = summarize(spec, records, by_kind, bool(args.trace))
    sizes = [rec.get("array_bytes") for rec in by_kind["U"] if rec.get("array_bytes")]
    kernel = kernel_sizes(max(sizes) if sizes else None, env["llc_bytes"])
    errors = [f"{rec['kind']}: {rec['error']}" for rec in records if "error" in rec]
    errors += [f"{rec['kind']}: check failed: {c}" for rec in records for c in rec.get("failed", ())]

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stem = os.path.join(HERE, "results", f"{args.workload}_seed{args.seed}_trace{args.trace}")
    spans = [rec.pop("spans") for rec in records if "spans" in rec]  # at most one
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "env": env,
                   "kernel_sizes": kernel, "iterations": records, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "notes": notes}, fh, indent=1)
    if spans:
        with open(stem + "_spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans[0]}, fh)

    for line in errors:
        print(f"error: {line}")
    print(f"env: {json.dumps(env)}")
    print(f"kernel sizes: {json.dumps(kernel)}")
    for line in notes:
        print(line)
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} checks)")
    if metrics is None:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
