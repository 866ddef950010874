#!/usr/bin/env bash
# Builds the ledger offline, runs its unit tests, runs the full set of
# workloads twice on the same seeds, and compares the two ledgers: the
# same code must agree with itself within the bounds BENCHMARK.json
# fixes. Run from anywhere; nonzero exit on a failed test, a failed
# operation, differing outputs, or a `regressed` verdict.
#
#   benches/ledger/check.sh [runs-per-set] [first-seed]
set -euo pipefail

runs="${1:-3}"
seed="${2:-1}"
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."

manifest=benches/ledger/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"

mkdir -p benches/ledger/out
ledger() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}
ledger repeat "$runs" --seed "$seed" --out benches/ledger/out/check-a.json
ledger repeat "$runs" --seed "$seed" --out benches/ledger/out/check-b.json
ledger compare benches/ledger/out/check-a.json benches/ledger/out/check-b.json
