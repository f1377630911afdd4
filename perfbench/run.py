#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the simulator library and the awbench program from the checkout
this file sits in (into .bench_build/perfbench), then runs a closed
loop with one client: one awbench operation per fresh process, the
next starting when the previous ends, for about S seconds (at least
three operations untraced, one traced). An untraced run also spawns
set-up-only processes, for a steady setup_s. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

from stats import Moments, median, quantile, quartiles  # noqa: E402

WORKLOADS = ("sweep_policy_grid", "fleet_day_pack", "fleet_day_spread")

# name, unit, better: mirrored by BENCHMARK.json (the self-test checks).
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
PER_LAYER = [
    ("exp.expand_s", "s", "lower"),
    ("exp.run_s", "s", "lower"),
    ("exp.emit_s", "s", "lower"),
    ("exp.artifact_bytes", "bytes", "lower"),
    ("exp.point_ms_p50", "ms", "lower"),
    ("exp.point_ms_p90", "ms", "lower"),
    ("exp.pool_busy_share", "ratio", "higher"),
    ("cluster.run_s", "s", "lower"),
    ("cluster.serial_cpu_s", "s", "lower"),
    ("cluster.serial_share", "ratio", "lower"),
    ("cluster.parallel_cpu_s", "s", "lower"),
    ("cluster.fleet_speedup", "ratio", "higher"),
    ("cluster.routed", "count", "lower"),
    ("cluster.servers_simulated", "count", "lower"),
    ("cluster.servers_idle_copied", "count", "higher"),
    ("cluster.events_executed", "count", "lower"),
    ("cluster.events_accounted", "count", "lower"),
    ("cluster.critical_server_events", "count", "lower"),
    ("server.events", "count", "lower"),
    ("server.events_per_request", "events/req", "lower"),
    ("server.requests", "count", "lower"),
    ("server.ns_per_event", "ns", "lower"),
    ("server.wakes", "count", "lower"),
    ("cstate.idle_periods", "count", "lower"),
    ("cstate.entries.C0", "count", "lower"),
    ("cstate.entries.C1", "count", "lower"),
    ("cstate.entries.C1E", "count", "lower"),
    ("cstate.entries.C6A", "count", "lower"),
    ("cstate.entries.C6AE", "count", "lower"),
    ("cstate.entries.C6", "count", "lower"),
    ("cstate.mispredicted_entries", "count", "lower"),
    ("cstate.select_ns", "ns", "lower"),
    ("freq.transitions", "count", "lower"),
    ("freq.changes", "count", "lower"),
    ("cap.naps", "count", "lower"),
    ("cap.throttle_changes", "count", "lower"),
    ("cap.control_ticks", "count", "lower"),
    ("workload.draw_ns", "ns", "lower"),
    ("sim.percentile_s", "s", "lower"),
    ("analysis.observer_s", "s", "lower"),
    ("analysis.timeline_intervals", "count", "lower"),
    ("analysis.trace_spans", "count", "lower"),
    ("analysis.dropped", "count", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.parallelism", "ratio", "higher"),
    ("host.rss_after_setup_mb", "MiB", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

OP_TIMEOUT_S = 160
MIN_UNTRACED_OPS = 3
# Set-up-only processes per untraced run: setup_s is the median over
# them and the operations, steadier than the operations alone.
SETUP_SAMPLES = 20


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build(targets):
    """Configure once, then bring targets up to date; False on failure."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        log("no simulator sources next to perfbench/; run it from a "
            "checkout of the repository")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc()),
                  "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr.fileno()).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def provenance(args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*cmd):
        try:
            r = subprocess.run(["git", "-C", ROOT] + list(cmd), env=env,
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(workload, seed, flag=None):
    """One operation in a fresh process (flag: --traced or
    --setup-only): its JSON report, wall time from spawn to exit,
    spawn time and peak resident set."""
    out_dir = os.path.join(BUILD, "out", workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "awbench"), workload, "--seed", str(seed),
           "--out", out_dir]
    if flag:
        cmd.append(flag)
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    report = None
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    else:
        log("%s exited with %d" % (workload, proc.returncode))
    return {
        "report": report,
        "spawn": spawn,
        "elapsed": time.monotonic() - spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def closed_loop(args, traced):
    """Operations back to back while the next one is expected to end
    within the budget; at least the minimum count."""
    min_ops = 1 if traced else MIN_UNTRACED_OPS
    start = time.monotonic()
    ops = []
    while True:
        ops.append(run_op(args.workload, args.seed,
                          "--traced" if traced else None))
        if ops[-1]["report"] is None:
            break
        spent = time.monotonic() - start
        typical = median([op["elapsed"] for op in ops])
        if len(ops) >= min_ops and spent + typical > args.seconds:
            break
    return ops


def untraced_result(ops, setup_ops):
    attempted = len(ops)
    failed = 0
    walls, rss = [], []
    setups = [op["report"]["ready_mono"] - op["spawn"]
              for op in setup_ops if op["report"]]
    for op in ops:
        r = op["report"]
        if r is None or r["errors"]:
            failed += 1
            for e in (r or {}).get("errors", []):
                log("check failed: " + e)
        if r is None:
            continue
        walls.append(r["wall_s"])
        setups.append(r["ready_mono"] - op["spawn"])
        rss.append(op["peak_rss_mb"])
    metrics = {}
    if walls:
        q1, mid, q3 = quartiles(walls)
        m = Moments()
        for w in walls:
            m.add(w)
        print("wall_s: n=%d median=%.4f q1=%.4f q3=%.4f mean=%.4f sd=%.4f"
              % (len(walls), mid, q1, q3, m.mean(), m.stddev()))
        values = {"wall_s": mid, "setup_s": median(setups),
                  "peak_rss_mb": median(rss)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    return attempted, failed, metrics


def traced_result(ops):
    attempted = failed = 0
    per_metric = {}
    point_ms = []
    known = {name for name, _, _ in PER_LAYER}
    for op in ops:
        r = op["report"]
        if r is None:
            attempted += 1
            failed += 1
            continue
        for sub in r["ops"]:
            attempted += 1
            if sub["errors"]:
                failed += 1
                for e in sub["errors"]:
                    log("check failed in %s: %s" % (sub["name"], e))
        for name, value in r["metrics"].items():
            if name not in known:
                raise SystemExit("perfbench: awbench reported unknown "
                                 "metric %r" % name)
            per_metric.setdefault(name, []).append(value)
        point_ms.extend(r["point_ms"])
    if not per_metric:
        return attempted, failed, {}
    # A layer the workload does not exercise reports 0.
    values = {name: median(v) for name, v in per_metric.items()}
    if point_ms:
        values["exp.point_ms_p50"] = median(point_ms)
        values["exp.point_ms_p90"] = quantile(point_ms, 0.9)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit, _ in PER_LAYER}
    return attempted, failed, metrics


def selftest():
    """C++ self-tests, the stats tests, and BENCHMARK.json vs the tables."""
    ok = build(["awbench_selftest"])
    ok = ok and subprocess.run([os.path.join(BUILD, "awbench_selftest")],
                               stdout=sys.stderr.fileno()).returncode == 0
    suite = unittest.defaultTestLoader.discover(HERE)
    result = unittest.TextTestRunner(stream=sys.stderr).run(suite)
    ok = ok and result.wasSuccessful()
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            log("BENCHMARK.json workloads differ from run.py")
            ok = False
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            if listed != table:
                log("BENCHMARK.json %s differs from run.py" % key)
                ok = False
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not build(["awbench"]):
        return 1

    prov = provenance(args)
    ops = closed_loop(args, bool(args.trace))
    if args.trace:
        attempted, failed, metrics = traced_result(ops)
    else:
        setup_ops = [run_op(args.workload, args.seed, "--setup-only")
                     for _ in range(SETUP_SAMPLES)]
        attempted, failed, metrics = untraced_result(ops, setup_ops)
    reports = [op["report"] for op in ops if op["report"]]
    if reports:
        prov["compiler"] = reports[0]["compiler"]
        prov["build_type"] = reports[0]["build_type"]
        prov["worker_threads"] = reports[0]["threads"]
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(record), exist_ok=True)
    with open(record, "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    print("provenance: " + json.dumps(prov))
    print(json.dumps(result))
    if not metrics:
        log("no operation produced a result")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
