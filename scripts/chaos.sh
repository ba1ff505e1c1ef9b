#!/usr/bin/env bash
# Chaos seed sweep: run the dispatch service under N seeded fault plans
# and record one line of invariant results per seed, then check that
# shard crashes replay bit-identically, then sweep WAL faults (kill -9 at
# arbitrary journal bytes, torn appends, bit flips, fsync stalls) through
# the durable ingest journal over the pinned CHAOS_SEEDS.
#
#   scripts/chaos.sh [SEEDS] [BASE_SEED]
#
# Defaults: 20 seeds starting at 1. Every run has the harness's one
# configuration (6 epochs x 2 shards for the sweep), so a seed is the
# whole input. Output goes to robustness_serve.txt (and stdout); the
# script exits non-zero if any seed breaks an invariant, and with 2,
# leaving robustness_serve.txt untouched, on a non-numeric SEEDS or
# BASE_SEED.

set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-20}"
BASE_SEED="${2:-1}"
OUT="robustness_serve.txt"
sweep="$(mktemp)"
trap 'rm -f "$sweep"' EXIT

cargo build --release -q -p mobirescue-bench --bin chaos
status=0
cargo run --release -q -p mobirescue-bench --bin chaos -- \
    --seeds "$SEEDS" --base-seed "$BASE_SEED" | tee "$sweep" || status=$?

# A refused argument prints nothing to stdout; keep the committed sweep.
if [[ -s "$sweep" ]]; then
    cat "$sweep" > "$OUT"
    echo "wrote $OUT"
fi
exit "$status"
