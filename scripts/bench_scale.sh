#!/usr/bin/env bash
# Metro-scale world benchmark driver (`BENCH_scale.json`).
#
#   scripts/bench_scale.sh                  # run medium+metro, print JSON
#   scripts/bench_scale.sh --bless          # rewrite the committed baseline
#   scripts/bench_scale.sh --bless medium metro
#   SCALE_PRESETS="medium" scripts/bench_scale.sh
#
# The benchmark reports per-preset dispatch-epoch latency, request
# throughput, and a deterministic snapshot checksum; see
# crates/bench/src/bin/bench_scale.rs for the exact workload. The timing
# fields are machine-dependent — the checksums are not, which is why
# scripts/check_bench.sh gates the checksum exactly but the timing only
# against a slack ceiling.
#
# Re-bless (and commit the new BENCH_scale.json with a rationale) after
# any intentional engine-behavior change; a checksum change means the
# simulation produced different outcomes at scale, never "just timing".

set -euo pipefail
cd "$(dirname "$0")/.."

bless=0
presets=()
for arg in "$@"; do
    case "$arg" in
        --bless) bless=1 ;;
        --*) echo "bench_scale.sh: unknown flag $arg" >&2; exit 2 ;;
        *) presets+=("$arg") ;;
    esac
done
if [[ ${#presets[@]} -eq 0 ]]; then
    read -r -a presets <<< "${SCALE_PRESETS:-medium metro}"
fi

echo "==> cargo build --release -p mobirescue-bench --bin bench_scale" >&2
cargo build --release -q -p mobirescue-bench --bin bench_scale

echo "==> running scale benchmark (${presets[*]})" >&2
if [[ "$bless" -eq 1 ]]; then
    ./target/release/bench_scale "${presets[@]}" | tee BENCH_scale.json
    echo "bench_scale: blessed BENCH_scale.json" >&2
else
    ./target/release/bench_scale "${presets[@]}"
fi
