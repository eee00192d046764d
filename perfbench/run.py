#!/usr/bin/env python3
"""The eFactory benchmark: both clocks, four workloads, one ledger per layer.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds `perfbench/` (a Cargo package of its own) from source, then runs the
named workload from BENCHMARK.json through `efactory_harness::run`, one
child process per run so each run gets its own peak-RSS figure and a
panicking run is counted instead of aborting the benchmark.

`--trace 0` measures the end-to-end metrics for `--seconds`: it alternates
a setup-only run (the spec with `ops_per_client = 0`) with a full run and
reports medians of the host metrics (setup_s, peak_rss_mb) next to the
virtual-time ones (mops, latencies), which must repeat exactly. `--trace 1`
measures the per-layer metrics: counter deltas (full run minus setup-only
run), the critical-path fold of a traced run, the host time of whole runs
and the host-time layer probes. The last stdout line is the JSON result;
the benchmark's own host-time spans go to `perfbench/out/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_REPEATS = 3
# Stop starting repeats after this many seconds whatever --seconds says,
# so a run ends well inside its 180 s allowance.
HARD_STOP_S = 150.0


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def counter_total(counters, name):
    """Sum of counter `name` over every node/shard prefix (`n0.g1.<name>`)."""
    suffix = "." + name
    return sum(v for k, v in counters.items() if k == name or k.endswith(suffix))


def window_counters(full, setup):
    """Counter deltas of the measured window: full run minus setup-only run."""
    return {k: v - setup.get(k, 0) for k, v in full.items()}


def per(num, den):
    return num / den if den else 0.0


class Ledger:
    """Op accounting, named errors and the benchmark's own host-time spans."""

    def __init__(self):
        self.origin = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.spans = []

    def error(self, name, detail=""):
        self.errors.append(name)
        print(f"error: {name} {detail}".rstrip(), file=sys.stderr)

    def span(self, name, start, end, tid=1):
        """Record a host-time span as a Chrome trace event (µs)."""
        self.spans.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": round((start - self.origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3)})

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": self.spans}, f)
            f.write("\n")


class Runner:
    """Invokes the perfbench binary for one workload and seed."""

    def __init__(self, binary, workload, seed, ledger, tiny=False):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.tiny = tiny

    def call(self, *args):
        """Run the binary; its JSON output, or None if it failed."""
        cmd = [self.binary, *args, "--workload", self.workload, "--seed", str(self.seed)]
        if self.tiny:
            cmd.append("--tiny")
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        end = time.monotonic()
        label = " ".join(args)
        self.ledger.span(label, start, end)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            at = next((i for i, l in enumerate(lines) if "panicked" in l), max(len(lines) - 1, 0))
            self.ledger.error(f"run-crashed[{label}]",
                              f"exit {proc.returncode}: {' '.join(lines[at:at + 2])}")
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        for s in out.get("spans", []):
            self.ledger.span(s["name"], start + s["start_s"],
                             start + s["start_s"] + s["dur_s"], tid=2)
        return out

    def run(self, mode):
        return self.call("run", "--mode", mode)


def check_run(out, ledger):
    """Named errors for one run's outputs (an empty list when correct)."""
    errors = []
    get, put = out["get"]["count"], out["put"]["count"]
    if get != out["expected_get"] or put != out["expected_put"]:
        errors.append("sample-counts-mismatch-mix")
    if out["total_ops"] != get + put:
        errors.append("total-ops-mismatch")
    if out["mode"] in ("setup", "traced-setup") and out["total_ops"] != 0:
        errors.append("setup-run-measured-ops")
    if counter_total(out["counters"], "server.put_failures") != 0:
        errors.append("put-failures")
    trace = out.get("trace")
    if trace is not None:
        if trace["dropped"] != 0:
            errors.append("trace-dropped")
        b = trace["breakdown"]
        if out["total_ops"] and (b is None or b["conservation_max_err_ns"] != 0):
            errors.append("trace-conservation")
    for e in errors:
        ledger.error(e, f"({out['mode']} run)")
    return errors


def virtual_fingerprint(out):
    """Everything a run computes in virtual time; equal across repeats."""
    return (out["elapsed_ns"], out["total_ops"], out["get"], out["put"],
            sorted(out["counters"].items()))


def measured(runner, mode, attempted=0):
    """One run, its ops counted: its output if it completed and checked out."""
    ledger = runner.ledger
    ledger.attempted += attempted
    out = runner.run(mode)
    if out is None or check_run(out, ledger):
        ledger.failed += attempted
        return None
    return out


def measure_end_to_end(runner, seconds):
    """Alternate setup-only and full runs for `seconds`; e2e metrics."""
    ledger = runner.ledger
    spec = runner.call("spec")
    if spec is None:
        return {}, {}
    start = time.monotonic()
    deadline = start + seconds
    setups, fulls, rep_s = [], [], []
    while True:
        t0 = time.monotonic()
        setup = measured(runner, "setup")
        if setup is not None:
            setups.append(setup)
        full = measured(runner, "full", spec["attempted"])
        if full is not None:
            if fulls and virtual_fingerprint(full) != virtual_fingerprint(fulls[0]):
                ledger.error("virtual-metrics-differ-across-repeats")
                ledger.failed += spec["attempted"]
            else:
                fulls.append(full)
        now = time.monotonic()
        rep_s.append(now - t0)
        if now - start > HARD_STOP_S:
            break
        if len(rep_s) >= MIN_REPEATS and now + statistics.median(rep_s) > deadline:
            break
    metrics, counts = {}, {}
    if fulls:
        f = fulls[0]
        metrics["mops"] = f["total_ops"] / f["elapsed_ns"] * 1e3
        counts["mops"] = f["total_ops"]
        for kind in ("get", "put"):
            lat = f[kind]
            if lat["count"]:
                metrics[f"{kind}_mean_us"] = lat["mean_ns"] / 1e3
                metrics[f"{kind}_p999_us"] = lat["p999_ns"] / 1e3
                counts[f"{kind}_mean_us"] = counts[f"{kind}_p999_us"] = lat["count"]
                print(f"  ({kind}_p50_us {lat['p50_ns'] / 1e3} us, n={lat['count']}, "
                      "virtual; not a metric: it is quantized to the cost model)")
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in fulls)
        counts["peak_rss_mb"] = len(fulls)
        print(f"  (run_wall_s {statistics.median(r['wall_s'] for r in fulls)} s, "
              f"n={len(fulls)}; a per-layer metric, see --trace 1)")
    if setups:
        metrics["setup_s"] = statistics.median(r["wall_s"] for r in setups)
        counts["setup_s"] = len(setups)
    return metrics, counts


def layer_metrics(setup, fulls, traced_setup, traced):
    """Per-layer metrics from counter deltas, full-run wall times and the
    traced run's fold. The full runs are repeats, equal in virtual time."""
    full = fulls[0]
    run_wall_s = statistics.median(r["wall_s"] for r in fulls)
    d = window_counters(full["counters"], setup["counters"])

    def c(name):
        return counter_total(d, name)

    ops, gets, puts = full["total_ops"], full["get"]["count"], full["put"]["count"]
    m = {
        "sim.events_per_op": per(c("sim.events_dispatched"), ops),
        "sim.ctx_switches_per_op": per(c("sim.ctx_switches"), ops),
        "sim.allocs_per_op": per(c("sim.allocs"), ops),
        "run_wall_s": run_wall_s,
        "sim.ns_per_event": per(run_wall_s * 1e9,
                                counter_total(full["counters"], "sim.events_dispatched")),
        "setup.events": counter_total(setup["counters"], "sim.events_dispatched"),
        "obs.trace_dropped": c("obs.trace_dropped"),
        "obs.trace_records_per_op": per(
            traced["trace"]["records"] - traced_setup["trace"]["records"],
            traced["total_ops"]),
        "obs.traced_wall_s": traced["wall_s"],
        "obs.untraced_wall_s": traced["untraced_wall_s"],
        "obs.trace_overhead_pct": 100 * per(traced["wall_s"] - traced["untraced_wall_s"],
                                            traced["untraced_wall_s"]),
        "fabric.rdma_reads_per_get": per(c("fabric.rdma_reads"), gets),
        "fabric.sends_per_op": per(c("fabric.sends"), ops),
        "fabric.wire_bytes_per_op": per(c("fabric.bytes_on_wire"), ops),
        "client.loc_cache.hit_ratio": per(
            c("client.loc_cache.hits"),
            c("client.loc_cache.hits") + c("client.loc_cache.misses")),
        "client.pure_hit_ratio": per(c("client.pure_hits"), gets),
        "client.fallbacks_per_get": per(c("client.fallbacks"), gets),
        "client.pipeline.hazard_waits_per_op": per(c("client.pipeline.hazard_waits"), ops),
        "client.pipeline.window_waits_per_op": per(c("client.pipeline.window_waits"), ops),
        "server.gets_per_get": per(c("server.gets"), gets),
        "server.dup_hits": c("server.dup_hits"),
        "verifier.verified_per_put": per(c("server.bg_verified"), puts),
        "server.bg_timeouts": c("server.bg_timeouts"),
        "server.cleanings": c("server.cleanings"),
        "cleaner.relocated_per_put": per(c("server.relocated"), puts),
        "server.cleaner.stalls": c("server.cleaner.stalls"),
        "server.cleaner.park_ns": c("server.cleaner.park_ns"),
        "server.reclaimed_versions": c("server.reclaimed_versions"),
        "pmem.flushes_per_put": per(c("pmem.flushes"), puts),
        "pmem.drains_per_put": per(c("pmem.drains"), puts),
        "pmem.bytes_written_per_user_byte": per(c("pmem.bytes_written"),
                                                puts * full["value_len"]),
        "repl.applied_objects_per_put": per(c("repl.applied_objects"), puts),
        "repl.mirror_batches_per_object": per(c("repl.mirror_batches"),
                                              c("repl.mirror_objects")),
        "txn.abort_ratio": per(c("client.txn.conflicts"),
                               c("client.txn.commits") + c("client.txn.conflicts")),
        "txn.conflicts_per_commit": per(c("client.txn.conflicts"), c("client.txn.commits")),
        "txn.snap_retries": c("client.txn.snap_retries"),
        "meta.elections": c("meta.elections"),
        "meta.heartbeats_per_op": per(c("meta.heartbeats"), ops),
        "server.wrong_epoch": c("server.wrong_epoch"),
    }
    m["setup.events_per_record"] = per(m["setup.events"], setup["records"])
    m.update(critical_path_metrics(traced["trace"]["breakdown"]))
    return m


SUBSYSTEMS = ("server", "client", "verifier", "cleaner", "pmem", "nic", "repl", "cluster")
QUEUE_PHASES = (("server", "req_queue"), ("client", "client_gap"),
                ("client", "window_wait"), ("client", "backoff"))
OFFPATH_PHASES = (("verifier", "crc_verify"), ("verifier", "flush"), ("repl", "repl_mirror"))


def critical_path_metrics(b):
    """Tail shares, self time and queue time per op, off-path ns per object."""
    m = {}
    rows = {row["label"]: row["shares"] for row in b["percentiles"]}
    for sub in SUBSYSTEMS:
        for label in ("p50", "p999"):
            m[f"cp.{sub}.share_{label}_pct"] = rows.get(label, {}).get(sub, 0.0)
        m[f"cp.{sub}.self_ns_per_op"] = per(
            sum(p["total_ns"] for p in b["phases"]
                if p["sub"] == sub and p["kind"] == "service"), b["ops"])
    for sub, phase in QUEUE_PHASES:
        m[f"cp.{sub}.{phase}_ns_per_op"] = per(
            sum(p["total_ns"] for p in b["phases"]
                if p["sub"] == sub and p["phase"] == phase), b["ops"])
    for sub, phase in OFFPATH_PHASES:
        rows = [p for p in b["offpath"] if p["sub"] == sub and p["phase"] == phase]
        m[f"cp.{sub}.{phase}_ns_per_object"] = per(
            sum(p["total_ns"] for p in rows), sum(p["count"] for p in rows))
    return m


def measure_layers(runner, seconds):
    """Counter deltas, traced run and layer probes; per-layer metrics.

    After one setup-only, full, traced-setup and traced run, probes and
    further full runs alternate until `seconds` have passed; host-time
    metrics are medians over them.
    """
    spec = runner.call("spec")
    if spec is None:
        return {}, {}
    start = time.monotonic()
    setup = measured(runner, "setup")
    traced_setup = measured(runner, "traced-setup")
    traced = measured(runner, "traced", spec["traced_attempted"])
    fulls, probes = [], []
    while not probes or time.monotonic() - start < seconds:
        full = measured(runner, "full", spec["attempted"])
        probe = runner.call("probe")
        if full is None or probe is None:
            break
        if fulls and virtual_fingerprint(full) != virtual_fingerprint(fulls[0]):
            runner.ledger.error("virtual-metrics-differ-across-repeats")
            runner.ledger.failed += spec["attempted"]
            break
        fulls.append(full)
        probes.append(probe["probes"])
    metrics = {}
    if None not in (setup, traced_setup, traced) and fulls:
        metrics.update(layer_metrics(setup, fulls, traced_setup, traced))
    if probes:
        for name in probes[0]:
            metrics[name] = statistics.median(p[name] for p in probes)
    return metrics, {name: len(fulls) for name in metrics}


def build():
    """Build the perfbench binary; its path, or exit 1 if the build fails."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=False,
                              env={**os.environ, "CARGO_TARGET_DIR": target})
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        sys.exit(1)
    if proc.returncode != 0:
        print("error: building perfbench failed", file=sys.stderr)
        sys.exit(1)
    return os.path.join(target, "release", "perfbench")


def parse_args(argv, workloads, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(argv, [w["name"] for w in bench["workloads"]], bench["run_seconds"])
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    binary = build()

    ledger = Ledger()
    runner = Runner(binary, args.workload, args.seed, ledger)
    measure = measure_layers if args.trace else measure_end_to_end
    values, counts = measure(runner, args.seconds)

    metrics = {}
    for d in declared:
        if d["name"] not in values:
            ledger.error(f"metric-missing[{d['name']}]")
            continue
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
        print(f"{d['name']:<40} {values[d['name']]!r:>24} {d['unit']:<6} "
              f"(n={counts[d['name']]})")
    ledger.write_spans(os.path.join(
        HERE, "out", f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"))
    if ledger.attempted == 0:
        # Nothing got as far as a measured run: report one failed op.
        ledger.attempted = ledger.failed = 1
    print(f"attempted {ledger.attempted} ops, failed {ledger.failed} "
          f"(ops_failed_pct {100 * per(ledger.failed, ledger.attempted):.3f}%)")
    print(json.dumps({"correct": not ledger.errors,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
