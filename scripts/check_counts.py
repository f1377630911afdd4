#!/usr/bin/env python3
"""Exact-count gate: perfbench's work counters against the committed counts.

Usage:
    check_counts.py COUNTS.json RESULT.json...

COUNTS.json (scripts/perf_counts.json) lists the perfbench workloads
under "workloads", then, per metric whose unit is `count` or `bytes`,
one value per workload, as a seed-42 traced run reports it:

    python3 perfbench/run.py --workload W --seed 42 --seconds 1 --trace 1

Each RESULT.json is the record such a run writes to
.bench_build/perfbench/results/W-seed42-trace1.json. The counts are
simulation results, so they repeat exactly on any machine and at any
thread count; timing metrics (`s`, `ns`, `ms`, ratios) are ignored.
Exits 1, naming the workload and metric, on any difference, on a
missing workload, or on a run whose own checks failed. A change that
means to move counts commits the file printed on failure and says so
in CHANGES.md.
"""

import json
import sys


def counts_of(record):
    """The workload name, its count metrics and any errors."""
    prov, result = record["provenance"], record["result"]
    name = prov["workload"]
    errors = []
    if prov.get("seed") != 42 or prov.get("trace") != 1:
        errors.append("%s: not a seed-42 traced run" % name)
    if not result.get("correct"):
        errors.append("%s: the run failed its own checks" % name)
    counts = {metric: m["value"] for metric, m in result["metrics"].items()
              if m["unit"] in ("count", "bytes")}
    return name, counts, errors


def main(argv):
    if len(argv) < 3:
        print("usage: check_counts.py COUNTS.json RESULT.json...",
              file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        table = json.load(f)
    workloads = table.pop("workloads")
    observed, errors = {}, []
    for path in argv[2:]:
        with open(path) as f:
            name, counts, errs = counts_of(json.load(f))
        observed[name] = counts
        errors += errs
    for i, workload in enumerate(workloads):
        got = observed.get(workload)
        if got is None:
            errors.append("%s: no result given" % workload)
            continue
        for metric in sorted(set(table) | set(got)):
            want = table[metric][i] if metric in table else "nothing"
            if got.get(metric, "nothing") != want:
                errors.append("%s %s: expected %s, got %s" % (
                    workload, metric, want, got.get(metric, "nothing")))
    errors += ["%s: not in %s" % (w, argv[1])
               for w in sorted(set(observed) - set(workloads))]
    if errors:
        print("\n".join("FAIL " + e for e in errors))
        names = workloads + sorted(set(observed) - set(workloads))
        metrics = sorted({m for c in observed.values() for m in c})
        print("observed counts:\n{\n \"workloads\": %s,\n%s\n}" % (
            json.dumps(names), ",\n".join(
                " %s: %s" % (json.dumps(m), json.dumps(
                    [int(observed[w][m]) if m in observed.get(w, {})
                     else None for w in names]))
                for m in metrics)))
        return 1
    print("PASS %d counts on %d workloads"
          % (len(table) * len(workloads), len(workloads)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
