#!/usr/bin/env bash
# Paired benchmark comparison of two checkouts on one workload.
#
#   ci/pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS] [SECONDS]
#
# Builds each checkout's benchmark (benchmark/, see BENCHMARK.json) in that
# checkout's benchmark/target, then runs PAIRS pairs (default 10) of
# SECONDS-long runs (default 30): pair k runs seed k on both sides, the parent
# first on odd seeds and the change first on even ones. Each binary runs from
# its own checkout root. It prints every pair and, for each end-to-end timing
# metric BENCHMARK.json names, both sides' median and quartiles, the pairs each
# side won and the ratio of the medians. Quartiles are Python's
# statistics.quantiles(n=4), as in benchmark/repeat.sh. A gap between the
# medians inside the parent's interquartile range is reported as
# "unresolved"; a change is reported "worse" only when its median is also
# behind the parent's by more than the metric's bound in BENCHMARK.json, and
# "behind, within the bound" otherwise.
#
# It exits non-zero when a run fails, reads incorrect or has failed
# operations, or when msgs_per_obs or wire_bytes_per_obs differ within a pair
# (both sides must do the same work on the same seed). Timing never fails it.
# Nothing runs it in CI (ci/check.sh only parses it): it is the tool for the
# parent-versus-change evidence a performance change reports.
set -euo pipefail

if (($# < 3 || $# > 5)); then
    echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS] [SECONDS]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-30}

runs=$(mktemp)
# A build prunes stale entries from the tracked benchmark/Cargo.lock: keep
# each checkout's own lock file and put it back on every exit, a failed
# build included.
cp "$parent/benchmark/Cargo.lock" "$runs.parent.lock"
cp "$change/benchmark/Cargo.lock" "$runs.change.lock"
restore() {
    cp "$runs.parent.lock" "$parent/benchmark/Cargo.lock"
    cp "$runs.change.lock" "$change/benchmark/Cargo.lock"
    rm -f "$runs" "$runs.parent.lock" "$runs.change.lock"
}
trap restore EXIT

for side in "$parent" "$change"; do
    echo "==> building $side/benchmark" >&2
    CARGO_TARGET_DIR="$side/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

run() {
    local side=$1 name=$2 seed=$3 line
    line=$(cd "$side" &&
        ./benchmark/target/release/kalstream-benchmark \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$name $seed $line" >>"$runs"
}

for ((seed = 1; seed <= pairs; seed++)); do
    echo "==> pair $seed of $pairs ($workload, ${seconds} s)" >&2
    if ((seed % 2 == 1)); then
        run "$parent" parent "$seed"
        run "$change" change "$seed"
    else
        run "$change" change "$seed"
        run "$parent" parent "$seed"
    fi
done

python3 - "$runs" "$change/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

runs_path, spec_path, workload = sys.argv[1:4]
spec = json.load(open(spec_path))
runs = {"parent": {}, "change": {}}
for line in open(runs_path):
    side, seed, doc = line.split(" ", 2)
    runs[side][int(seed)] = json.loads(doc)
seeds = sorted(runs["parent"])
ok = True

def value(side, seed, name):
    return runs[side][seed]["metrics"][name]["value"]

identity = ["msgs_per_obs", "wire_bytes_per_obs"]
timings = [m for m in spec["end_to_end"] if m["name"] not in identity]

for seed in seeds:
    first = "parent" if seed % 2 == 1 else "change"
    for side in ("parent", "change"):
        run = runs[side][seed]
        if not run["correct"] or run["failed"] != 0:
            print(f"FAIL pair {seed}: {side} correct={run['correct']} failed={run['failed']}")
            ok = False
    for name in identity:
        p, c = value("parent", seed, name), value("change", seed, name)
        if p != c:
            print(f"FAIL pair {seed}: {name} parent {p!r} != change {c!r}")
            ok = False
    cells = []
    for m in timings:
        p, c = value("parent", seed, m["name"]), value("change", seed, m["name"])
        cells.append(f"{m['name']} {p:.6g} -> {c:.6g} (x{c / p:.3f})")
    print(f"pair {seed:2d} ({first} first): " + "; ".join(cells))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


print(f"\n{workload}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
for m in timings:
    name, higher = m["name"], m["better"] == "higher"
    p = [value("parent", s, name) for s in seeds]
    c = [value("change", s, name) for s in seeds]
    pq, cq = quartiles(p), quartiles(c)
    better = lambda a, b: a > b if higher else a < b
    won = sum(better(y, x) for x, y in zip(p, c))
    lost = sum(better(x, y) for x, y in zip(p, c))
    iqr = pq[2] - pq[0]
    behind = (cq[1] - pq[1]) / pq[1] if not higher else (pq[1] - cq[1]) / pq[1]
    if abs(cq[1] - pq[1]) <= iqr:
        verdict = "unresolved"
    elif better(cq[1], pq[1]):
        verdict = "change better"
    elif behind > m["bound"]:
        verdict = f"change worse by more than the bound {m['bound']}"
    else:
        verdict = f"change behind, within the bound {m['bound']}"
    print(f"  {name} ({m['unit']}, {m['better']} is better):")
    print(f"    parent median {pq[1]:.6g}  quartiles [{pq[0]:.6g}, {pq[2]:.6g}]  IQR {iqr:.6g}")
    print(f"    change median {cq[1]:.6g}  quartiles [{cq[0]:.6g}, {cq[2]:.6g}]")
    print(f"    pairs won: change {won}, parent {lost}, ties {len(seeds) - won - lost}; "
          f"ratio change/parent {cq[1] / pq[1]:.3f}; {verdict}")
for name in identity:
    same = all(value("parent", s, name) == value("change", s, name) for s in seeds)
    print(f"  {name}: {'identical in every pair' if same else 'DIFFERS'}")
sys.exit(0 if ok else 1)
EOF
