#!/usr/bin/env bash
# The ledger entry point: builds mrbench once (release), runs the named
# workloads RUNS times each at one seed, and prints every metric's median,
# min and max with the run's provenance (git SHA, core count, rustc).
#
# usage: mrbench/bench.sh [-n RUNS] [-s SEED] [-t SECONDS] [--trace] [WORKLOAD...]
#   defaults: 5 runs, seed 7, 30 s, untraced, both workloads
#
# Raw result lines go to target/mrbench/ledger.tsv (workload, JSON).
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5 seed=7 seconds=30 trace=0
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        -n) runs="$2"; shift 2 ;;
        -s) seed="$2"; shift 2 ;;
        -t) seconds="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        -h|--help) sed -n '2,9p' "$0"; exit 0 ;;
        -*) echo "bench.sh: unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(paper_day metro_storm)

cargo build --release --offline --quiet --manifest-path mrbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-mrbench/target}/release/mrbench"

mkdir -p target/mrbench
ledger=target/mrbench/ledger.tsv
: > "$ledger"
echo "provenance: git $(git rev-parse --short HEAD 2>/dev/null || echo unknown)," \
    "nproc $(nproc), $(rustc -V)"
echo "runs $runs, seed $seed, $seconds s, trace $trace"
for w in "${workloads[@]}"; do
    for _ in $(seq "$runs"); do
        # A failed check still prints its result line (and exits 1).
        line=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            | tail -n 1) || true
        printf '%s\t%s\n' "$w" "$line" >> "$ledger"
    done
done

python3 - "$ledger" <<'EOF'
import json, statistics, sys
rows = [l.rstrip("\n").split("\t", 1) for l in open(sys.argv[1])]
for w in dict.fromkeys(w for w, _ in rows):
    lines = [line for name, line in rows if name == w]
    results = []
    for line in lines:
        try:
            results.append(json.loads(line))
        except ValueError:
            pass
    ok = sum(r["correct"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{w}: {ok}/{len(lines)} runs correct, {failed} failed operations")
    for name, m in (results[0]["metrics"] if results else {}).items():
        v = [r["metrics"][name]["value"] for r in results]
        print(f"  {name:24} median {statistics.median(v):14.4f}  "
              f"min {min(v):14.4f}  max {max(v):14.4f}  {m['unit']}")
EOF
