#!/usr/bin/env bash
#
# Same-machine A/B of the simulator's speed against another commit.
#
# Builds both sides as fresh trees under one mktemp -d (removed on
# exit), each with its own new .bench_build: the change is a copy of
# this checkout's files (tracked and untracked-but-not-ignored,
# uncommitted edits included), the parent a git worktree of <rev>.
# Neither side reuses a build this checkout already has. For each
# perfbench workload it runs 10 pairs of
#
#   python3 perfbench/run.py --workload W --seconds 1 --trace 0
#
# one in each tree, alternating which side runs first.
# For every end-to-end metric it prints each side's median and
# quartiles, the median of the per-pair ratios change/parent with
# their quartiles, and the pairs the change won. It exits 1 when a run fails or when, on any
# workload, the change's median wall_s is worse than the parent's by
# more than the wall_s bound in BENCHMARK.json.
#
# Usage:
#   scripts/perf_ab.sh <rev>       # e.g. HEAD (an A/A run) or HEAD^
set -euo pipefail

if [ "$#" -ne 1 ] || [ "${1#-}" != "$1" ]; then
    echo "usage: scripts/perf_ab.sh <rev>" >&2
    exit 2
fi

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"

tmp="$(mktemp -d)"
cleanup() {
    git -C "$ROOT" worktree remove --force "$tmp/parent" 2>/dev/null || true
    rm -rf "$tmp"
    git -C "$ROOT" worktree prune
}
trap cleanup EXIT
git -C "$ROOT" worktree add --quiet --detach "$tmp/parent" "$rev"

python3 - "$ROOT" "$tmp/change" "$tmp/parent" "$rev" <<'EOF'
import json
import os
import shutil
import statistics
import subprocess
import sys

root, change, parent, rev = sys.argv[1:]
sys.stdout.reconfigure(line_buffering=True)
files = subprocess.run(
    ["git", "-C", root, "ls-files", "-z", "--cached", "--others",
     "--exclude-standard"], capture_output=True, check=True).stdout
for name in filter(None, os.fsdecode(files).split("\0")):
    src = os.path.join(root, name)
    if os.path.lexists(src):  # a tracked file deleted here stays gone
        dst = os.path.join(change, name)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)
PAIRS = 10
with open(os.path.join(change, "BENCHMARK.json")) as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
bound = next(m["bound"] for m in bench["end_to_end"]
             if m["name"] == "wall_s")


def run(root, workload):
    """One perfbench run in @root: its metric values, or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    """(median, q1, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return mid, q1, q3


print("perf_ab: change %s vs parent %s, %d pairs per workload, "
      "wall_s bound %.2f" % (root, rev[:12], PAIRS, bound))
failed = False
worst = (0.0, None)
for workload in workloads:
    sides = {"change": [], "parent": []}
    for i in range(PAIRS):
        print("perf_ab: %s pair %d/%d" % (workload, i + 1, PAIRS),
              file=sys.stderr, flush=True)
        order = [("change", change), ("parent", parent)]
        if i % 2:
            order.reverse()
        for side, root in order:
            values = run(root, workload)
            if values is None:
                print("FAIL %s: a %s run failed" % (workload, side))
                failed = True
            else:
                sides[side].append(values)
    n = min(len(sides["change"]), len(sides["parent"]))
    if n == 0:
        continue
    print("\n%s (%d pairs)" % (workload, n))
    row = "  %-12s %28s %28s %24s %5s"
    print(row % ("metric", "parent median [q1 q3]", "change median [q1 q3]",
                 "ratio median [q1 q3]", "wins"))
    for metric, better in metrics:
        p = [v[metric] for v in sides["parent"][:n]]
        c = [v[metric] for v in sides["change"][:n]]
        r = [b / a for a, b in zip(p, c) if a > 0]
        wins = sum(b < a if better == "lower" else b > a
                   for a, b in zip(p, c))
        cells = ["%.4g [%.4g %.4g]" % spread(vals) for vals in (p, c, r)]
        print(row % (metric, *cells, "%d/%d" % (wins, n)))
    ratio = statistics.median(v["wall_s"] for v in sides["change"][:n]) / \
        statistics.median(v["wall_s"] for v in sides["parent"][:n])
    worst = max(worst, (ratio, workload))
    verdict = "ok" if ratio <= 1 + bound else "FAIL"
    failed = failed or verdict == "FAIL"
    print("  %s: median wall_s change/parent %.3f (bound %.2f)"
          % (verdict, ratio, 1 + bound))
if worst[1]:
    print("\nworst median wall_s change/parent: %.3f (%s)" % worst)
print("perf_ab: " + ("FAIL" if failed else "PASS"))
sys.exit(1 if failed else 0)
EOF
