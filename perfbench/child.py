"""One iteration of one workload in a fresh interpreter; prints one JSON line.

Started by run.py as
    python3 perfbench/child.py WORKLOAD SEED TRACE LAUNCH_NS WORKDIR
where LAUNCH_NS is the parent's CLOCK_MONOTONIC reading just before the
launch, so set-up time covers interpreter start-up and the imports of numpy
and kspectra.  WORKLOAD "setup" only imports and exits.

Order: imports (set-up), inputs from the seed, timed body (with the tracer
installed when TRACE is 1), peak RSS, tracer removal, then the checks.
"""
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import kspectra  # noqa: E402
import kspectra.cli  # noqa: E402,F401  (imports every kspectra module)

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def peak_rss_mib() -> float:
    """Peak RSS of this process image (VmHWM).

    ru_maxrss is not used: Linux carries the pre-exec high-water mark into it,
    so it would report at least the parent's size at spawn.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv) -> dict:
    name, seed, trace, launch_ns, workdir = argv
    seed, trace = int(seed), trace == "1"
    src = os.path.join(ROOT, "src") + os.sep
    if not kspectra.__file__.startswith(src):
        raise SystemExit(f"kspectra imported from {kspectra.__file__}, not from {src}")
    rec = {"setup_s": (IMPORTED_NS - int(launch_ns)) / 1e9, "numpy": numpy.__version__}
    if name == "setup":
        return rec

    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    checks = []
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        checks.append(("no tracing wrappers in the timed run", not tracing.installed_wrappers()))
    try:
        workloads.start_laps()
        t0 = time.perf_counter()
        out = wl.body(inputs, workdir)
        t1 = time.perf_counter()
        wall_s = t1 - t0
        rss_mib = peak_rss_mib()
    finally:
        if trace:
            tracer.uninstall()
    if trace:
        checks.append(("tracing wrappers removed", not tracing.installed_wrappers()))
    checks.extend(wl.check(out))
    rec.update(wall_s=wall_s, phases=workloads.phase_times(t0, t1), peak_rss_mib=rss_mib,
               ops=out["ops"], ops_per_s=out["ops"] / wall_s,
               attempted=len(checks), failed=[c for c, ok in checks if not ok],
               array_bytes=out.get("array_bytes"))
    if trace:
        layer = tracing.layer_metrics(tracer.spans, tracer.counts, wall_s)
        layer["cli.bytes_written"] = out.get("bytes_written", 0)
        rec["layer"] = layer
        rec["spans"] = tracer.spans
    return rec


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
