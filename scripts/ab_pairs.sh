#!/bin/sh
# Alternating benchmark pairs of two checkouts of this repository.
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS
#
# Runs `python3 perfbench/run.py --workload WORKLOAD --seed SEED --trace 0`
# in PARENT_DIR and in CHANGE_DIR, PAIRS times each, for the `run_seconds`
# of PARENT_DIR's BENCHMARK.json.  The parent goes first in odd pairs and
# the change in even ones.  For every end-to-end metric of BENCHMARK.json it
# prints each pair's two values, each side's median and quartiles, the
# number of pairs the change wins (ties count for neither side), and whether
# the medians differ by more than the parent's interquartile range.  Any run
# that is not `correct` is named.  It only reads what perfbench prints.
#
# Given the same checkout twice (PARENT_DIR and CHANGE_DIR resolve to one
# directory), it makes an A/A run and says so on its first output line: the
# wins and median gap it then prints are this machine's noise, against which
# an A/B claim on the same workload can be read.
set -eu
if [ $# -ne 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
if [ "$parent" = "$change" ]; then
    echo "A/A run: both sides are $parent"
fi
workload=$3
seed=$4
pairs=$5
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$parent/BENCHMARK.json")
results=$(mktemp)
trap 'rm -f "$results"' EXIT

run() {  # side dir pair
    line=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\n' "$1" "$3" "$line" >> "$results"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    i=$((i + 1))
done

python3 - "$results" "$parent/BENCHMARK.json" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

results, bench, workload, seed = sys.argv[1:]
runs = {"parent": {}, "change": {}}
for line in open(results):
    side, pair, out = line.rstrip("\n").split("\t", 2)
    runs[side][int(pair)] = json.loads(out)
pairs = sorted(runs["parent"])
print(f"{workload}, seed {seed}, {len(pairs)} pairs")
for side in runs:
    bad = [p for p in pairs if not runs[side][p]["correct"]]
    if bad:
        print(f"{side}: not correct in pairs {bad}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


for metric in json.load(open(bench))["end_to_end"]:
    name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
    vals = {side: [runs[side][p]["metrics"][name]["value"] for p in pairs] for side in runs}
    print(f"\n{name} ({unit}, {metric['better']} is better)")
    print("pair   parent     change")
    for p, a, b in zip(pairs, vals["parent"], vals["change"]):
        print(f"{p:4d}  {a:9.4g}  {b:9.4g}")
    wins = sum((b < a) if lower else (b > a) for a, b in zip(vals["parent"], vals["change"]))
    (pq1, pq3), (cq1, cq3) = quartiles(vals["parent"]), quartiles(vals["change"])
    print(f"parent median {statistics.median(vals['parent']):.4g} (quartiles {pq1:.4g}, {pq3:.4g})")
    print(f"change median {statistics.median(vals['change']):.4g} (quartiles {cq1:.4g}, {cq3:.4g})")
    gap = statistics.median(vals["parent"]) - statistics.median(vals["change"])
    print(f"change wins {wins}/{len(pairs)}; median gap {gap if lower else -gap:+.4g} against parent IQR {pq3 - pq1:.4g}")
EOF
