#!/usr/bin/env bash
# Repeatability check: runs every workload as two back-to-back sets of runs
# (same binary, same seeds) and compares them the way a later change will be
# compared with its parent.
#
#   benchmark/repeat.sh [RUNS [SECONDS [WORKLOAD...]]]
#
# RUNS     runs per set, seeds 1..RUNS          (default 10)
# SECONDS  --seconds of each run                (default: BENCHMARK.json's)
#
# For every workload and end-to-end metric it prints the two sets' medians,
# how much worse the second is than the first, each set's spread (distance
# between the quartiles of its runs as a share of their median, the
# quartiles as Python's statistics.quantiles(n=4) gives them) and the bound
# from BENCHMARK.json. It exits non-zero when a second median is worse than
# the first by more than the bound, when a spread other than setup_s's
# exceeds the bound, or when a run is incorrect or has failures.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
seconds="${2:-$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c "
import json
for w in json.load(open('$root/BENCHMARK.json'))['workloads']: print(w['name'])")
fi

cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/kalstream-benchmark"
mkdir -p "$here/out"
results="$(mktemp -d "$here/out/repeat.XXXXXX")"
echo "per-run results and stderr logs: $results" >&2

for workload in "${workloads[@]}"; do
  for set in 1 2; do
    for seed in $(seq 1 "$runs"); do
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>>"$results/$workload.$set.log" | tail -n 1 >>"$results/$workload.$set.jsonl"
    done
    echo "$workload set $set: $(grep -o 'pass_spread=[0-9.]*' "$results/$workload.$set.log" | sort -t= -k2 -n | tail -n 1) (largest of $runs runs)" >&2
  done
done

python3 - "$root/BENCHMARK.json" "$results" "${workloads[@]}" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
results, workloads = sys.argv[2], sys.argv[3:]
breaches = 0

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':<14}{'metric':<20}{'median 1':>14}{'median 2':>14}{'worse by':>10}"
      f"{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
for workload in workloads:
    sets = [[json.loads(line) for line in open(f"{results}/{workload}.{s}.jsonl")] for s in (1, 2)]
    for s, runs in enumerate(sets, 1):
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload} set {s}: {len(bad)} run(s) incorrect or with failures")
            breaches += 1
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        m1, m2 = (statistics.median(v) for v in values)
        worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
        s1, s2 = (spread(v) for v in values)
        flags = ""
        if worse > bound:
            flags += "  BREACH: second set worse than the first by more than the bound"
        if name != "setup_s" and max(s1, s2) > bound:
            flags += "  BREACH: spread above the bound"
        breaches += bool(flags)
        print(f"{workload:<14}{name:<20}{m1:>14.6g}{m2:>14.6g}{worse:>+10.4f}"
              f"{s1:>10.4f}{s2:>10.4f}{bound:>8}{flags}")
sys.exit(1 if breaches else 0)
PY
