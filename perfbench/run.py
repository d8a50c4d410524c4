#!/usr/bin/env python3
"""NEPTUNE perf ledger: builds perfbench/ from source and runs its workloads.

One run of one workload (the form BENCHMARK.json's "command" takes):

    python3 perfbench/run.py --workload etl_taxi --seed 42 --seconds 10 --trace 0

prints the run's table on stderr and, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"} with exactly the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) of BENCHMARK.json.

Other modes:

    --suite            every workload untraced and traced; prints every
                       end-to-end metric (latency_p99_ms and failed_frac
                       included) and the per-layer tables, and writes
                       BENCHMARK.json
    --steady           each workload BENCHMARK.json lists (or --workloads
                       a,b) --runs times on consecutive seeds, in --sets
                       sets; prints every end-to-end metric's median,
                       quartiles and spread against its bound, and whether
                       the sets' medians agree within the bound
    --selftest         the benchmark's own arithmetic tests

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; scratch files to .../work.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = [
    ("etl_taxi",
     "golden etl_taxi on 2 resources: the heaviest per-hop path, every hop re-serializes and CRCs"),
    ("relay_tcp",
     "saturated Fig-1 relay over supervised loopback TCP: zero-copy views, cost in framing/CRC/syscalls"),
    ("relay_paced",
     "relay over inproc edges, open loop at 100k ev/s: latency set by the flush timer and wakeups"),
    ("etl_taxi_proc",
     "etl_taxi as 2 neptuned processes under ResourceSupervisor: process boundary and checkpoints"),
]
# Workloads BENCHMARK.json lists, so later changes are gated on them.
# relay_tcp runs (--workload, --suite, --steady --workloads) but is not
# listed: over 10-run sets its latency spread reached 0.17 (p50), 0.26 (p90)
# and 0.30 (p99) on a shared 4-vCPU machine, and a listed workload must keep
# every listed metric within its bound. Its TCP layer is still gated through
# etl_taxi_proc's cross-process supervised TCP edge, and its zero-copy
# on_batch relay path through relay_paced.
GATED = ["etl_taxi", "relay_paced", "etl_taxi_proc"]

# name, unit, better, bound (share of the parent's median it may worsen by).
# throughput_eps, cpu_ns_per_event and peak_rss_mb have the largest bound:
# on a shared 4-vCPU machine the etl workloads' CPU cost per event moved by
# 0.17 between two sets of 10 runs made minutes apart on the same build, as
# the neighbours' load changed, and relay_paced's peak RSS (about 10 MB, of
# which queues that build up during a stall are the part that moves) spread
# by 0.17 over one set of 10 runs.
END_TO_END = [
    ("throughput_eps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ns_per_event", "ns", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]
# Printed by --suite and --steady but not listed in BENCHMARK.json.
# latency_p99_ms is set by the few scheduler stalls a repetition happens to
# take: across sets of 10 runs on a shared 4-vCPU host its spread reached
# 0.26 (etl_taxi, etl_taxi_proc) and 0.34 (relay_paced), past the
# largest bound a listed metric may have. latency_p90_ms is the listed
# tail. failed_frac is 0 on a correct build, a listed metric must never
# read 0, and every result line carries it as failed/attempted.
UNGATED = [("latency_p99_ms", "ms"), ("failed_frac", "share")]

# name, unit, better. Only metrics every workload measures; per-operator,
# per-resource and per-link detail rows, and the workload-specific ones
# (proc.*, scenarios.src_gen_lag_p99_ms, etl_taxi.single_thread_eps,
# neptune.timer_flush_share, net.tcp_*), are printed in the traced table.
# So are neptune.frame_copies (only partial or chunked TCP frames are
# copied: 0 on every listed workload), neptune.blocked_share (0 below
# saturation and on the listed saturating workloads) and the signed
# trace.unattributed_share, whose magnitude is listed instead: it is
# negative when layers are counted twice, so "lower" only holds for
# its absolute value. neptune.serde_alloc_bytes_per_pkt is listed though
# it reads 0 on relay_paced, whose on_batch views skip serde: it is the
# figure a serde change moves on the etl workloads.
PER_LAYER = [
    ("scenarios.src_gen_ns_per_event", "ns", "lower"),
    ("scenarios.op_self_ns_per_event", "ns", "lower"),
    ("neptune.emit_ns_per_event", "ns", "lower"),
    ("neptune.dispatch_ns_per_event", "ns", "lower"),
    ("neptune.serialize_ns_per_pkt", "ns", "lower"),
    ("neptune.deserialize_ns_per_pkt", "ns", "lower"),
    ("neptune.serde_alloc_bytes_per_pkt", "B", "lower"),
    ("neptune.pkts_per_flush", "count", "higher"),
    ("neptune.hop_buffer_wait_ms", "ms", "lower"),
    ("neptune.hop_wire_ms", "ms", "lower"),
    ("neptune.hop_queue_wait_ms", "ms", "lower"),
    ("neptune.hop_execute_ms", "ms", "lower"),
    ("net.frame_encode_ns_per_kb", "ns", "lower"),
    ("net.frame_decode_ns_per_kb", "ns", "lower"),
    ("common.crc32_ns_per_kb", "ns", "lower"),
    ("net.frames_per_kpkt", "count", "lower"),
    ("net.frame_ns_per_event", "ns", "lower"),
    ("net.io_cpu_ns_per_event", "ns", "lower"),
    ("granules.executions_per_kpkt", "count", "lower"),
    ("granules.wakeups_per_kpkt", "count", "lower"),
    ("granules.ctx_switches_per_kpkt", "count", "lower"),
    ("granules.worker_busy_share", "share", "lower"),
    ("trace.unattributed_abs_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

# |trace.unattributed_share| above this means the layers do not add up to
# the process CPU and the traced table should not be trusted.
UNATTRIBUTED_TOLERANCE = 0.10

RUN_SECONDS = 25
DEFAULT_SEED = 42

REQUIRED_SOURCES = ["src/CMakeLists.txt", "tools/neptuned.cpp",
                    "tests/scenarios/data/etl_taxi.json", "perfbench/CMakeLists.txt"]


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS if n in GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def check_sources():
    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(p)]
    if missing:
        log("perfbench: run from the repository root; missing: " + ", ".join(missing))
        sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    check_sources()
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench", "neptuned_probed", "perfbench_selftest"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(3)
    return out


def run_once(out, workload, seed, seconds, trace):
    """One perfbench run; returns the binary's full result object."""
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--root", ".", "--bin-dir", out, "--work-dir", work]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=175)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"perfbench: {workload} seed {seed} exited {r.returncode} without a result")
        sys.exit(4)
    return json.loads(lines[-1])


def contract_line(res, trace):
    """Narrow the binary's result to exactly the listed metrics."""
    names = [(n, u) for n, u, *_ in (PER_LAYER if trace else END_TO_END)]
    metrics = {}
    for name, unit in names:
        m = res["metrics"].get(name)
        if m is None or m["unit"] != unit:
            log(f"perfbench: metric {name} ({unit}) missing from the result")
            sys.exit(5)
        metrics[name] = {"value": m["value"], "unit": unit}
    if trace:
        u = res["metrics"]["trace.unattributed_share"]["value"]
        if abs(u) > UNATTRIBUTED_TOLERANCE:
            log(f"perfbench: WARNING: trace.unattributed_share {u:.3f} is outside "
                f"±{UNATTRIBUTED_TOLERANCE}; the per-layer table does not add up")
    for e in res.get("errors", []):
        log("perfbench: CHECK FAILED: " + e)
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"


def suite(args):
    out = build()
    selftest(out)
    seeds = args.seed if args.seed is not None else DEFAULT_SEED
    results = {}
    for name, _ in WORKLOADS:
        results[name] = (run_once(out, name, seeds, args.seconds, False),
                         run_once(out, name, seeds, args.seconds, True))
    print(f"\nEnd-to-end metrics (seed {seeds}, {args.seconds} s per workload, untraced)")
    cols = [n for n, _ in WORKLOADS]
    print(f"{'metric':<22}{'unit':<7}" + "".join(f"{c:>16}" for c in cols))
    for name, unit in [(n, u) for n, u, *_ in END_TO_END] + UNGATED:
        print(f"{name:<22}{unit:<7}" +
              "".join(f"{fmt(results[c][0]['metrics'][name]['value']):>16}" for c in cols))
    print(f"{'correct':<29}" + "".join(f"{str(results[c][0]['correct']):>16}" for c in cols))
    print("\nPer-layer metrics (traced run)")
    layer_names = sorted({k for c in cols for k in results[c][1]["metrics"]})
    print(f"{'metric':<52}" + "".join(f"{c:>16}" for c in cols))
    for k in layer_names:
        cells = []
        for c in cols:
            m = results[c][1]["metrics"].get(k)
            cells.append(f"{fmt(m['value']):>16}" if m else f"{'-':>16}")
        print(f"{k:<52}" + "".join(cells))
    print(f"(trace.unattributed_share tolerance: ±{UNATTRIBUTED_TOLERANCE})")
    write_spec()
    ok = all(r[0]["correct"] and r[1]["correct"] for r in results.values())
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steady(args):
    out = build()
    names = args.workloads.split(",") if args.workloads else GATED
    ok = True
    for w in names:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            runs = [run_once(out, w, seed, args.seconds, False)
                    for seed in range(first, first + args.runs)]
            if not all(r["correct"] and r["failed"] == 0 for r in runs):
                ok = False
                print(f"{w}: set {s + 1} has failed checks or failed events")
            sets.append(runs)
        print(f"\n{w}: {args.sets} set(s) x {args.runs} runs, {args.seconds} s each")
        print(f"{'metric':<18}{'set':>4}{'q1':>14}{'median':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name, unit, better, bound in END_TO_END:
            medians = []
            for i, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "ok" if spread <= bound / 3 else \
                    ("within bound" if spread <= bound else "TOO NOISY")
                if spread > bound:
                    ok = False
                print(f"{name:<18}{i + 1:>4}{q1:>14.5g}{med:>14.5g}{q3:>14.5g}"
                      f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
            for i in range(1, len(medians)):
                base = medians[0]
                worse = (medians[i] - base) / base if better == "lower" else (base - medians[i]) / base
                agree = worse <= bound
                ok = ok and agree
                print(f"{name:<18} set {i + 1} vs set 1: {worse:+.3f} worse "
                      f"({'agrees' if agree else 'DISAGREES'})")
        for name, unit in UNGATED:
            for i, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                print(f"{name:<18}{i + 1:>4}{q1:>14.5g}{med:>14.5g}{q3:>14.5g}"
                      f"{spread:>9.3f}{'-':>7}  not listed")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


def selftest(out=None):
    out = out or build()
    r = subprocess.run([os.path.join(out, "perfbench_selftest")], stdout=sys.stderr)
    if r.returncode != 0:
        log("perfbench: self-tests failed")
        sys.exit(6)
    return 0


def write_spec():
    with open("BENCHMARK.json", "w") as f:
        json.dump(spec(), f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if args.suite:
        return suite(args)
    if args.steady:
        return steady(args)
    if not args.workload or args.workload not in [n for n, _ in WORKLOADS]:
        log("perfbench: --workload must be one of " + ", ".join(n for n, _ in WORKLOADS))
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    out = build()
    res = run_once(out, args.workload, seed, args.seconds, args.trace == 1)
    print(json.dumps(contract_line(res, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
