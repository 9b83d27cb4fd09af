#!/usr/bin/env bash
# Entry point for CI: build the benchmark, run its unit and smoke tests, and
# check that the two committed baselines (same commit, ten runs each) agree
# within the declared bounds. Run from anywhere; needs 2 cores, ~3 minutes.
# The last step exits non-zero if a row of that comparison is a regression or
# unresolved.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- diff \
    benchmark/results/baseline-a.json benchmark/results/baseline-b.json
