#!/usr/bin/env bash
# Re-blesses the serving baseline: boots `serve --listen` on an ephemeral
# port, replays the open-loop load shape that scripts/check_bench.sh
# gates against, and rewrites BENCH_serve.json from loadgen's report plus
# bench_wal's fsync-policy cost rows. Commit the new baseline with a
# rationale.
#
#   scripts/bless_serve.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p mobirescue-net --bin serve -p mobirescue-bench --bin loadgen --bin bench_wal"
cargo build --release -q -p mobirescue-net --bin serve \
    -p mobirescue-bench --bin loadgen --bin bench_wal

serve_log="$(mktemp)"
report="$(mktemp)"
wal_rows="$(mktemp)"
trap 'rm -f "$serve_log" "$report" "$wal_rows" "${wal_rows}.merged"' EXIT

echo "==> serve --listen 127.0.0.1:0 (small scenario)"
./target/release/serve --listen 127.0.0.1:0 --epochs 250 --period-ms 100 --quiet \
    > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "bless_serve: serve never printed its listen address" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi

echo "==> loadgen (open profile, blessing BENCH_serve.json)"
./target/release/loadgen --addr "$addr" --profile open --rate 200 \
    --duration-ms 5000 --slo-ms 250 --p999-slo-ms 1000 --max-shed-pct 5 \
    --out BENCH_serve.json --quiet > "$report"
wait "$serve_pid" || {
    echo "bless_serve: serve exited non-zero" >&2
    cat "$serve_log" >&2
    exit 1
}

field() { # field KEY
    sed -n "s/^.*\"$1\": \([0-9.]*\).*$/\1/p" "$report" | head -n 1
}
sent="$(field sent)"
nacked_invalid="$(field nacked_invalid)"
lost="$(field lost)"
echo "report: sent $sent, invalid $nacked_invalid, lost $lost"
if [[ -z "$sent" || "$sent" -eq 0 || "$lost" != "0" || "$nacked_invalid" != "0" ]]; then
    echo "bless_serve: refusing a baseline run that sent nothing, lost requests" \
         "or met invalid ones; restore BENCH_serve.json with git" >&2
    exit 1
fi

# Ride-along informational rows: what each journal fsync policy costs per
# single-record append on the bless machine. The SLO gate does not read
# these; they document the durability tax.
echo "==> bench_wal (fsync-policy cost rows)"
./target/release/bench_wal > "$wal_rows"
head -n -1 BENCH_serve.json > "${wal_rows}.merged"
sed -i '$ s/$/,/' "${wal_rows}.merged"
sed -e '1d' "$wal_rows" >> "${wal_rows}.merged"
mv "${wal_rows}.merged" BENCH_serve.json
echo "bless_serve: blessed BENCH_serve.json"
