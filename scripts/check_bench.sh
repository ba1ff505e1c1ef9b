#!/usr/bin/env bash
# Bench-regression gate: re-runs the TCP serving load test and the
# metro-scale world benchmark, comparing both against their committed
# baselines (BENCH_serve.json, BENCH_scale.json).
#
#   scripts/check_bench.sh                              # gate against all baselines
#   SCALE_MAX_SLOWDOWN_PCT=40 scripts/check_bench.sh    # loosen the scale timing gate
#   SCALE_GATE=0 scripts/check_bench.sh                 # serving gate only
#   SERVE_GATE=0 scripts/check_bench.sh                 # scale gate only
#
# The serving gate boots `serve --listen` on an ephemeral port, replays
# the mined request stream through `loadgen` at the baseline's nominal
# rate, and fails when either:
#   * the client-observed p99 request→ACK latency exceeds the SLO the
#     baseline itself declares in `p99_slo_ms` (override with
#     SERVE_P99_SLO_MS); or
#   * the client-observed p99.9 request→ACK latency exceeds the tail SLO
#     the baseline declares in `p999_slo_ms` (override with
#     SERVE_P999_SLO_MS) — the tail where fsync stalls hide; or
#   * the shed rate exceeds the baseline's `max_shed_pct` ceiling
#     (override with SERVE_MAX_SHED_PCT); or
#   * no request was sent, one went unanswered (`lost`), or one was
#     NACKed as invalid — the mined stream holds only valid requests; or
#   * the server's `net.requests_acked` count (from its `--metrics-out`
#     dump) differs from the acks loadgen received; or
#   * either process exits non-zero — a hung drain is a failure, not a
#     timeout to shrug at.
#
# The scale gate re-runs the metro-scale world benchmark (bench_scale)
# for the presets in SCALE_PRESETS (default "medium metro", the presets
# scripts/verify.sh gates) and fails when either:
#   * any preset's snapshot `checksum` differs from the baseline row —
#     engine behavior changed at scale; or
#   * any preset's `epoch_ms` regressed more than SCALE_MAX_SLOWDOWN_PCT
#     percent (default 25) over the best of SCALE_RUNS (default 2) runs.
# Disable with SCALE_GATE=0.
#
# Routing results are pinned by the tier-1 test
# tests/routing_equivalence.rs, which holds the CSR kernel and the cached
# planner bit-identical to naive Dijkstra.
#
# To re-bless the baselines after an intentional change:
#
#   scripts/bless_serve.sh              # rewrites BENCH_serve.json
#   scripts/bench_scale.sh --bless      # rewrites BENCH_scale.json
#
# and commit the new baseline together with the change and a rationale
# (in particular, explain any checksum change — it means the simulation
# produced different outcomes, not just different timings).

set -euo pipefail
cd "$(dirname "$0")/.."

serve_log=""
serve_metrics=""
fresh_serve=""
fresh_scale=""
trap 'rm -f "$serve_log" "$serve_metrics" "$fresh_serve" "$fresh_scale"' EXIT

# Extract `"key": value` scalars from the flat JSON loadgen emits.
field() { # field FILE KEY
    sed -n "s/^.*\"$2\": \([0-9.]*\).*$/\1/p" "$1" | head -n 1
}

failures=0

# ---------------------------------------------------------------------
# Serving SLO gate: serve --listen + loadgen against BENCH_serve.json.
# ---------------------------------------------------------------------

SERVE_BASELINE="BENCH_serve.json"
if [[ "${SERVE_GATE:-1}" != "0" ]]; then
    if [[ ! -f "$SERVE_BASELINE" ]]; then
        echo "check_bench: no baseline $SERVE_BASELINE; run scripts/bless_serve.sh" >&2
        exit 1
    fi
    slo_ms="${SERVE_P99_SLO_MS:-$(field "$SERVE_BASELINE" p99_slo_ms)}"
    p999_slo_ms="${SERVE_P999_SLO_MS:-$(field "$SERVE_BASELINE" p999_slo_ms)}"
    max_shed="${SERVE_MAX_SHED_PCT:-$(field "$SERVE_BASELINE" max_shed_pct)}"
    rate="$(field "$SERVE_BASELINE" target_rps)"
    duration="$(field "$SERVE_BASELINE" duration_ms)"
    if [[ -z "$slo_ms" || -z "$p999_slo_ms" || -z "$max_shed" || -z "$rate" || -z "$duration" ]]; then
        echo "check_bench: $SERVE_BASELINE is missing p99_slo_ms/p999_slo_ms/max_shed_pct/target_rps/duration_ms;" >&2
        echo "             re-bless it with scripts/bless_serve.sh" >&2
        exit 1
    fi

    echo "==> cargo build --release -p mobirescue-net --bin serve -p mobirescue-bench --bin loadgen"
    cargo build --release -q -p mobirescue-net --bin serve -p mobirescue-bench --bin loadgen

    serve_log="$(mktemp)"
    serve_metrics="$(mktemp)"
    fresh_serve="$(mktemp)"
    echo "==> serve --listen 127.0.0.1:0 (small scenario)"
    ./target/release/serve --listen 127.0.0.1:0 --epochs 250 --period-ms 100 --quiet \
        --metrics-out "$serve_metrics" > "$serve_log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$serve_log")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "FAIL: serve never printed its listen address" >&2
        cat "$serve_log" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi

    echo "==> loadgen --addr $addr --rate $rate --duration-ms $duration"
    if ! ./target/release/loadgen --addr "$addr" --rate "$rate" \
            --duration-ms "$duration" --quiet > "$fresh_serve"; then
        echo "FAIL: loadgen exited non-zero" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    if ! wait "$serve_pid"; then
        echo "FAIL: serve exited non-zero" >&2
        cat "$serve_log" >&2
        exit 1
    fi

    p99="$(field "$fresh_serve" rtt_p99_ms)"
    p999="$(field "$fresh_serve" rtt_p999_ms)"
    shed="$(field "$fresh_serve" shed_rate_pct)"
    sent="$(field "$fresh_serve" sent)"
    lost="$(field "$fresh_serve" lost)"
    acked="$(field "$fresh_serve" acked)"
    nacked_invalid="$(field "$fresh_serve" nacked_invalid)"
    server_acked="$(sed -n 's/^c net\.requests_acked \([0-9]*\)$/\1/p' "$serve_metrics")"
    echo "serve: sent $sent, lost $lost, invalid $nacked_invalid, p99 ${p99}ms (SLO ${slo_ms}ms), p999 ${p999}ms (SLO ${p999_slo_ms}ms), shed ${shed}% (cap ${max_shed}%)"
    echo "serve: acks counted by the server $server_acked, received by the client $acked"
    if [[ -z "$p99" || -z "$p999" || -z "$shed" || -z "$acked" || -z "$nacked_invalid" ]]; then
        echo "FAIL: loadgen report is missing rtt_p99_ms/rtt_p999_ms/shed_rate_pct/acked/nacked_invalid" >&2
        failures=$((failures + 1))
    else
        if ! awk -v v="$p99" -v cap="$slo_ms" 'BEGIN { exit !(v <= cap) }'; then
            echo "FAIL: p99 request latency ${p99}ms exceeds the ${slo_ms}ms SLO" >&2
            failures=$((failures + 1))
        fi
        if ! awk -v v="$p999" -v cap="$p999_slo_ms" 'BEGIN { exit !(v <= cap) }'; then
            echo "FAIL: p99.9 request latency ${p999}ms exceeds the ${p999_slo_ms}ms tail SLO" >&2
            failures=$((failures + 1))
        fi
        if ! awk -v v="$shed" -v cap="$max_shed" 'BEGIN { exit !(v <= cap) }'; then
            echo "FAIL: shed rate ${shed}% exceeds the ${max_shed}% ceiling" >&2
            failures=$((failures + 1))
        fi
        if [[ -z "$sent" || "$sent" -eq 0 ]]; then
            echo "FAIL: no requests were sent" >&2
            failures=$((failures + 1))
        fi
        if [[ "$lost" != "0" ]]; then
            echo "FAIL: $lost request(s) were never answered" >&2
            failures=$((failures + 1))
        fi
        if [[ "$nacked_invalid" != "0" ]]; then
            echo "FAIL: the mined stream produced $nacked_invalid invalid request(s)" >&2
            failures=$((failures + 1))
        fi
        if [[ "$server_acked" != "$acked" ]]; then
            echo "FAIL: the server counted ${server_acked:-no} ack(s), the client received $acked" >&2
            failures=$((failures + 1))
        fi
    fi
fi

# ---------------------------------------------------------------------
# Scale gate: bench_scale vs BENCH_scale.json (exact per-preset snapshot
# checksum + epoch-latency ceiling).
# ---------------------------------------------------------------------

SCALE_BASELINE="BENCH_scale.json"
if [[ "${SCALE_GATE:-1}" != "0" ]]; then
    if [[ ! -f "$SCALE_BASELINE" ]]; then
        echo "check_bench: no baseline $SCALE_BASELINE; run scripts/bench_scale.sh --bless" >&2
        exit 1
    fi
    SCALE_MAX_SLOWDOWN_PCT="${SCALE_MAX_SLOWDOWN_PCT:-25}"
    SCALE_RUNS="${SCALE_RUNS:-2}"
    read -r -a scale_presets <<< "${SCALE_PRESETS:-medium metro}"

    # Extract `"key": value` from the named preset's row in the `worlds`
    # array (values may be bare numbers or quoted checksums).
    scale_field() { # scale_field FILE PRESET KEY
        awk -v preset="$2" -v key="$3" '
            $0 ~ "\"preset\": \"" preset "\"" { in_row = 1; next }
            in_row && match($0, "\"" key "\": \"?[0-9a-fx.]+") {
                v = substr($0, RSTART, RLENGTH)
                sub(/.*: "?/, "", v)
                print v
                exit
            }
            in_row && /^    \}/ { exit }
        ' "$1"
    }

    echo "==> cargo build --release -p mobirescue-bench --bin bench_scale"
    cargo build --release -q -p mobirescue-bench --bin bench_scale

    fresh_scale="$(mktemp)"
    declare -A scale_checksum scale_ms
    for run in $(seq 1 "$SCALE_RUNS"); do
        echo "==> running scale benchmark ($run/$SCALE_RUNS: ${scale_presets[*]})"
        ./target/release/bench_scale "${scale_presets[@]}" > "$fresh_scale"
        for preset in "${scale_presets[@]}"; do
            run_checksum="$(scale_field "$fresh_scale" "$preset" checksum)"
            run_ms="$(scale_field "$fresh_scale" "$preset" epoch_ms)"
            if [[ -z "$run_checksum" || -z "$run_ms" ]]; then
                echo "FAIL: scale benchmark emitted no $preset row" >&2
                exit 1
            fi
            if [[ -n "${scale_checksum[$preset]:-}" && "$run_checksum" != "${scale_checksum[$preset]}" ]]; then
                echo "FAIL: $preset checksum not even stable across runs" \
                     "($run_checksum vs ${scale_checksum[$preset]})" >&2
                exit 1
            fi
            scale_checksum[$preset]="$run_checksum"
            if [[ -z "${scale_ms[$preset]:-}" ]] || \
                    awk -v a="$run_ms" -v b="${scale_ms[$preset]}" 'BEGIN { exit !(a < b) }'; then
                scale_ms[$preset]="$run_ms"
            fi
        done
    done

    for preset in "${scale_presets[@]}"; do
        base_checksum="$(scale_field "$SCALE_BASELINE" "$preset" checksum)"
        base_ms="$(scale_field "$SCALE_BASELINE" "$preset" epoch_ms)"
        if [[ -z "$base_checksum" || -z "$base_ms" ]]; then
            echo "check_bench: $SCALE_BASELINE has no $preset row;" >&2
            echo "             re-bless it with scripts/bench_scale.sh --bless" >&2
            exit 1
        fi
        echo "scale/$preset checksum: baseline $base_checksum, fresh ${scale_checksum[$preset]}"
        if [[ "${scale_checksum[$preset]}" != "$base_checksum" ]]; then
            echo "FAIL: $preset scale checksum changed — engine behavior differs at scale" >&2
            failures=$((failures + 1))
        fi
        echo "scale/$preset epoch_ms: baseline $base_ms, fresh ${scale_ms[$preset]} (gate: +${SCALE_MAX_SLOWDOWN_PCT}%)"
        if ! awk -v new="${scale_ms[$preset]}" -v base="$base_ms" -v pct="$SCALE_MAX_SLOWDOWN_PCT" \
                'BEGIN { exit !(new <= base * (1 + pct / 100)) }'; then
            echo "FAIL: $preset epoch latency regressed more than ${SCALE_MAX_SLOWDOWN_PCT}% vs baseline" >&2
            failures=$((failures + 1))
        fi
    done
fi

if [[ "$failures" -gt 0 ]]; then
    echo "check_bench: $failures failure(s)" >&2
    exit 1
fi
echo "check_bench: OK"
