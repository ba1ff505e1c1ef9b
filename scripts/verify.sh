#!/usr/bin/env bash
# Repo verification: the tier-1 gate (ROADMAP.md) plus formatting and
# lints, with a per-step PASS/FAIL summary.
#
#   scripts/verify.sh          # lock files + fmt + clippy + tier-1 +
#                              # crate tests + mrbench ledger tests +
#                              # scale bench gate
#   scripts/verify.sh --full   # additionally run the whole workspace's
#                              # tests in release, `bench` included
#
# `cargo test -q` tests only the root package: its suites include the
# five chaos suites (chaos, rollout, trainer, net, wal). The "crate tests"
# step runs every library crate under `crates/` once — the golden and
# frozen compat fixtures (`mrserve 1`, `mrworld 1`, `mrobs 1`), the
# property tests that hold the CSR kernel and the route planner to naive
# Dijkstra and `detect_deliveries` to its copy-and-scan reference, and
# the core, svm, disaster and solver unit tests. `bench` stays under
# `--full`: its tests drive its binaries and are slow in debug
# (`tests/ci_workflow.rs` pins that split). The "lock files" step runs
# first, because every later cargo command would quietly rewrite a stale
# `Cargo.lock`.
#
# Every step runs even when an earlier one fails, so one invocation
# reports everything that is broken; the script exits non-zero if any
# step failed.

set -euo pipefail
cd "$(dirname "$0")/.."

steps=()
results=()
failures=0

run_step() { # run_step NAME CMD...
    local name="$1"
    shift
    echo "==> $name: $*"
    local result=PASS
    if ! "$@"; then
        result=FAIL
        failures=$((failures + 1))
    fi
    steps+=("$name")
    results+=("$result")
}

# Both lock files must already match their manifests: the root workspace's
# and the mrbench ledger's, which builds the same crates from source.
locks_current() {
    cargo metadata --locked --offline --format-version 1 >/dev/null &&
        cargo metadata --locked --offline --format-version 1 \
            --manifest-path mrbench/Cargo.toml >/dev/null
}

run_step "lock files" locks_current
run_step "fmt" cargo fmt --check
run_step "clippy" cargo clippy --workspace --all-targets -- -D warnings
run_step "tier-1 build" cargo build --release
run_step "tier-1 tests" cargo test -q
run_step "crate tests" cargo test -q -p mobirescue-core -p mobirescue-disaster \
    -p mobirescue-mobility -p mobirescue-net -p mobirescue-obs -p mobirescue-rl \
    -p mobirescue-roadnet -p mobirescue-serve -p mobirescue-sim -p mobirescue-solver \
    -p mobirescue-svm
# The mrbench ledger is a package of its own that builds the crates from
# source and calls only their public items; building and testing it here
# turns a public-API break in rl, core or sim into a verify failure
# instead of a benchmark-pipeline one.
run_step "ledger" cargo test --offline -q --manifest-path mrbench/Cargo.toml
# CI's scale gate (the serving gate has its own CI job, bench-smoke):
# medium and metro presets with a loosened ceiling — verify machines vary
# more than the bless machine, and the exact checksums are the
# load-bearing part.
run_step "scale bench gate" env SERVE_GATE=0 SCALE_PRESETS="medium metro" \
    SCALE_MAX_SLOWDOWN_PCT=150 scripts/check_bench.sh

if [[ "${1:-}" == "--full" ]]; then
    run_step "full workspace tests" cargo test --workspace --release -q
fi

echo
echo "verify summary:"
for i in "${!steps[@]}"; do
    printf '  %-22s %s\n' "${steps[$i]}" "${results[$i]}"
done

if [[ "$failures" -gt 0 ]]; then
    echo "verify: $failures step(s) FAILED"
    exit 1
fi
echo "verify: OK"
