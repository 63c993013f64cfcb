#!/usr/bin/env python3
"""Benchmark of the NVMe-oAF simulator: what each simulated I/O costs the
Go program (host time, CPU, allocations, memory) and what the modelled
fabric achieves (simulated IOPS, GB/s, latency), on four workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload tcp-ring-4k --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
and prints the per-layer metrics. Either way the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it are a readable report. See perfbench/README.md.

The Go program (perfbench/*.go) is built into .bench_build/perfbench and
started once per repetition, so no repetition inherits another's heap or
leaked goroutines. Everything the benchmark writes stays under
.bench_build.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(OUT, "perfbench")

# Host seconds one timed repetition takes on a 2-core machine (process
# start included). The number of repetitions a run makes is --seconds
# divided by this, so it depends only on the arguments, and equal
# arguments give equal inputs.
REP_SECONDS = {
    "tcp-ring-4k": 0.65,
    "oaf-cache-zipf-rw": 1.15,
    "tcp-cluster-rw": 1.9,
    "rdma-tenants-mix": 1.15,
}
MIN_REPS = 3
SETUP_RUNS = 21
# One child may take this many times its nominal time before it counts
# as overrun and is killed.
CHILD_SLACK = 15
# The whole invocation stops starting children after this many seconds.
RUN_BUDGET_S = 165
BUILD_TIMEOUT_S = 850
# Heap allocation counts include the Go runtime's own (goroutine
# descriptors, channel wait entries, the profiler), which vary by about
# 0.01% between runs of one seed; simulated metrics must match exactly.
ALLOC_TOLERANCE = 1e-3

END_TO_END = [
    ("host_ns_per_io", "ns"),
    ("host_cpu_ns_per_io", "ns"),
    ("allocs_per_io", "count"),
    ("alloc_bytes_per_io", "B"),
    ("peak_rss_mb", "MiB"),
    ("heap_retained_mb", "MiB"),
    ("setup_s", "s"),
    ("sim_iops", "IO/s"),
    ("sim_gbps", "GB/s"),
    ("sim_p50_us", "us"),
    ("sim_p999_us", "us"),
    ("completed_frac", "ratio"),
]

CPU_LAYERS = ["sim", "session", "pdu", "nvme", "tcp", "core", "rdma", "ring", "netsim",
              "ssd", "bdev", "target", "cache", "shm", "mempool", "transport",
              "cluster", "qos", "perf", "telemetry", "stats", "exp", "other"]

PER_LAYER = (
    [(f"{layer}.cpu_share", "ratio") for layer in CPU_LAYERS]
    + [
        ("runtime.sched_share", "ratio"),
        ("runtime.alloc_gc_share", "ratio"),
        ("runtime.stack_growth_share", "ratio"),
        ("trace.cpu_samples", "count"),
        ("trace.overhead_frac", "ratio"),
        ("sim.handoff_ns", "ns"),
        ("sim.handoff_allocs", "count"),
        ("pdu.cmdbatch_encode_ns", "ns"),
        ("pdu.cmdbatch_decode_ns", "ns"),
        ("pdu.cmdbatch_decode_allocs", "count"),
        ("tcp.pdus_per_io", "count"),
        ("session.submit_batch_mean", "count"),
        ("session.reap_depth_mean", "count"),
        ("session.retries_per_io", "count"),
        ("session.timeouts_per_io", "count"),
        ("ring.submit_depth_mean", "count"),
        ("ring.reap_depth_mean", "count"),
        ("ring.sq_full_stalls", "count"),
        ("ring.cycle_ns", "ns"),
        ("ring.cycle_allocs", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.fills_per_io", "count"),
        ("cache.evictions_per_io", "count"),
        ("cache.writebacks_per_io", "count"),
        ("cache.bypass_frac", "ratio"),
        ("cache.wb_throttled", "count"),
        ("cache.dirty_mib", "MiB"),
        ("cache.hit_ns", "ns"),
        ("cache.miss_ns", "ns"),
        ("shm.claims_per_io", "count"),
        ("shm.claim_stalls_per_io", "count"),
        ("mempool.peak_in_use_frac", "ratio"),
        ("server.buffer_waits_per_io", "count"),
        ("transport.member_skew", "ratio"),
        ("netsim.wire_bytes_per_io", "B"),
        ("cluster.quorum_failures", "count"),
        ("cluster.replica_downs", "count"),
        ("cluster.read_failovers", "count"),
        ("cluster.degraded_ios", "count"),
        ("cluster.replica_writes_per_write", "ratio"),
        ("qos.admits_per_attempt", "ratio"),
        ("qos.token_wait_p99_us", "us"),
        ("qos.trytake_ns", "ns"),
        ("qos.polite_p999_us", "us"),
        ("qos.borrowed_bytes", "B"),
        ("qos.lent_bytes", "B"),
        ("rdma.reg_misses_per_io", "count"),
        ("ssd.utilization", "ratio"),
        ("perf.read_p999_us", "us"),
        ("perf.write_p999_us", "us"),
        ("perf.zipf_setup_ms", "ms"),
        ("telemetry.record_ns", "ns"),
    ]
)


def log(msg):
    print(msg, flush=True)


def sub_seed(seed, i):
    """Seed of repetition i, derived from the run's seed alone."""
    digest = hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
    return int(digest[:15], 16)


def build():
    """Builds the Go program; returns an error text or None."""
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    try:
        p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"build failed: {e}"
    if p.returncode != 0:
        return "build failed:\n" + p.stdout + p.stderr
    return None


class Runner:
    """Starts one child process per repetition, each with a host-time
    limit, and counts the attempts and the failures."""

    def __init__(self, workload, deadline):
        self.workload = workload
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, GOMAXPROCS=str(min(2, os.cpu_count() or 1)))

    def child(self, mode, seed, spans=""):
        self.attempted += 1
        limit = CHILD_SLACK * REP_SECONDS[self.workload] + 5
        limit = min(limit, self.deadline - time.monotonic())
        what = f"workload={self.workload} mode={mode} seed={seed}"
        if limit <= 0:
            self.failed += 1
            log(f"FAILED RUN {what}: out of time before it started")
            return None
        cmd = [BIN, "-workload", self.workload, "-seed", str(seed), "-mode", mode]
        if spans:
            cmd += ["-spans", spans]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=limit, env=self.env)
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it.
            self.failed += 1
            log(f"FAILED RUN {what}: overran its {limit:.0f} s host-time limit and was killed")
            return None
        if p.returncode != 0:
            self.failed += 1
            log(f"FAILED RUN {what}: exit {p.returncode}: {p.stderr.strip()[-2000:]}")
            return None
        try:
            return json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.failed += 1
            log(f"FAILED RUN {what}: no result line")
            return None


# A run with no I/O fails its window_has_ios check; max(..., 1) only
# keeps the arithmetic going so the failure is reported.
def per_io(rec, key):
    return rec[key] / max(rec["sim"]["ops"], 1)


def steal_share(recs):
    """The share of the machine's CPU time the hypervisor stole while
    recs ran."""
    avail = sum(r["wall_ns"] * r["cpus"] for r in recs)
    return min(sum(r["steal_ns"] for r in recs) / avail, 1) if avail > 0 else 0


def run_ns(rec):
    """Wall time of a run less the share of it the hypervisor stole from
    the machine's CPUs. On a shared VM, steal varies from nothing to a
    third of the machine within minutes, and it, not the program, moves
    raw wall time between runs."""
    return rec["wall_ns"] * (1 - steal_share([rec]))


def completed_frac(sims):
    done = sum(s["completed"] for s in sims)
    return done / max(done + sum(s["failed"] for s in sims), 1)


def same_run(a, b):
    """Differences between two records of one seed: simulated metrics
    must be identical, allocation counts equal within ALLOC_TOLERANCE."""
    diffs = [f"sim.{k}: {a['sim'][k]} != {b['sim'][k]}" for k in a["sim"] if a["sim"][k] != b["sim"][k]]
    if abs(a["mallocs"] - b["mallocs"]) > ALLOC_TOLERANCE * a["mallocs"]:
        diffs.append(f"mallocs: {a['mallocs']} vs {b['mallocs']}")
    return diffs


class Checks:
    def __init__(self):
        self.failures = []

    def record(self, rec):
        for c in rec["checks"]:
            if not c["ok"]:
                self.failures.append(f"seed {rec['seed']} {rec['mode']}: {c['name']}: {c['detail']}")

    def compare(self, what, a, b):
        for d in same_run(a, b):
            self.failures.append(f"{what} (seed {a['seed']}): {d}")


def end_to_end(args, runner, checks):
    reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    seeds = [sub_seed(args.seed, i) for i in range(reps)]
    setups = [runner.child("setup", seeds[i % reps]) for i in range(SETUP_RUNS)]
    timed = [runner.child("timed", s) for s in seeds]
    again = runner.child("timed", seeds[0])
    setups = [r for r in setups if r]
    for r in setups + [r for r in timed if r] + ([again] if again else []):
        checks.record(r)
    if timed[0] and again:
        checks.compare("repeated seed differs", timed[0], again)
    timed = [r for r in timed if r]
    if not timed or not setups:
        return None, timed
    sims = [r["sim"] for r in timed]
    med, mean = statistics.median, statistics.fmean
    metrics = {
        "host_ns_per_io": med([run_ns(r) / max(r["sim"]["ops"], 1) for r in timed]),
        "host_cpu_ns_per_io": med([per_io(r, "cpu_ns") for r in timed]),
        "allocs_per_io": med([per_io(r, "mallocs") for r in timed]),
        "alloc_bytes_per_io": med([per_io(r, "alloc_bytes") for r in timed]),
        "peak_rss_mb": med([r["peak_rss_mib"] for r in timed]),
        "heap_retained_mb": med([r["heap_retained_mib"] for r in timed]),
        # A set-up run is shorter than the 10 ms tick steal is counted
        # in, so the set-up runs share one steal share.
        "setup_s": med([r["wall_ns"] / 1e9 for r in setups]) * (1 - steal_share(setups)),
        "sim_iops": mean([s["iops"] for s in sims]),
        "sim_gbps": mean([s["gbps"] for s in sims]),
        "sim_p50_us": mean([s["p50_us"] for s in sims]),
        "sim_p999_us": mean([s["p999_us"] for s in sims]),
        "completed_frac": completed_frac(sims),
    }
    return metrics, timed


def report_end_to_end(args, metrics, timed):
    sims = [r["sim"] for r in timed]
    samples = [s["samples"] for s in sims]
    failed, done = sum(s["failed"] for s in sims), sum(s["completed"] for s in sims)
    log(f"workload {args.workload}, seed {args.seed}: {len(timed)} repetitions, each in a fresh process")
    log("host metrics: median over repetitions; wall/CPU time on this machine")
    log(f"  (raw wall {statistics.median(per_io(r, 'wall_ns') for r in timed):.6g} ns per I/O; "
        f"the hypervisor stole {steal_share(timed):.3f} of the machine's CPU time)")
    log("simulated metrics: mean over repetitions of model outputs (virtual time, unvalidated model)")
    for name, unit in END_TO_END:
        note = ""
        if name in ("sim_p50_us", "sim_p999_us"):
            note = f"  (n = {min(samples)}..{max(samples)} samples per repetition, {sum(samples)} in all)"
        log(f"  {name:<20} {metrics[name]:>16.6g} {unit}{note}")
    log(f"  failed_frac = {failed} failed / {failed + done} attempted I/Os = {1 - metrics['completed_frac']:.6g}")


def per_layer(args, runner, checks):
    pairs = max(1, round(args.seconds / (4 * REP_SECONDS[args.workload])))
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    untraced, traced = [], []
    for i in range(pairs):
        s = sub_seed(args.seed, i)
        u = runner.child("timed", s)
        t = runner.child("traced", s, os.path.join(spans_dir, f"{args.workload}-{args.seed}-{i}.json"))
        for r in (u, t):
            if r:
                checks.record(r)
        if u and t:
            checks.compare("traced run differs from untraced run", u, t)
            untraced.append(u)
            traced.append(t)
    layers = runner.child("layers", args.seed, os.path.join(spans_dir, f"layers-{args.workload}-{args.seed}.json"))
    if not traced or not layers:
        return None
    metrics = {}
    samples = [t["layers"]["trace.cpu_samples"] for t in traced]
    for name, _ in PER_LAYER:
        if name.endswith("_share"):
            # Pool the profiles: weight each run's share by its samples.
            metrics[name] = sum(t["layers"][name] * n for t, n in zip(traced, samples)) / sum(samples)
        elif name == "trace.cpu_samples":
            metrics[name] = sum(samples)
        elif name in layers["layers"]:
            metrics[name] = layers["layers"][name]
        elif name in traced[0]["layers"]:
            metrics[name] = statistics.fmean(t["layers"][name] for t in traced)
    wall = lambda rs: statistics.median(run_ns(r) for r in rs)
    metrics["trace.overhead_frac"] = wall(traced) / wall(untraced) - 1
    missing = [n for n, _ in PER_LAYER if n not in metrics]
    if missing:
        checks.failures.append(f"per-layer metrics missing: {missing}")
        return None
    log(f"workload {args.workload}, seed {args.seed}: {len(traced)} traced runs "
        f"({sum(samples):.0f} CPU-profile samples), layer drivers in their own process")
    for name, unit in PER_LAYER:
        log(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    err = build()
    if err:
        print(err, file=sys.stderr)
        return 1
    runner = Runner(args.workload, start + RUN_BUDGET_S)
    checks = Checks()
    if args.trace == 0:
        metrics, timed = end_to_end(args, runner, checks)
        if metrics:
            report_end_to_end(args, metrics, timed)
        table = END_TO_END
    else:
        metrics = per_layer(args, runner, checks)
        table = PER_LAYER
    if metrics is None:
        print(f"perfbench: {args.workload}: no complete measurement", file=sys.stderr)
        for f in checks.failures:
            print("CHECK FAILED " + f, file=sys.stderr)
        return 1
    for f in checks.failures:
        log("CHECK FAILED " + f)
    correct = not checks.failures and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
