#!/usr/bin/env bash
# Pre-merge check: hermeticity gate + the tier-1 verify from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

./ci/check_hermetic.sh

echo "== lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== trace smoke: tiny traced benchmark + Chrome-JSON structural check"
cargo run -q --release -p pto-bench --bin trace_smoke

echo "== metrics smoke: counter tracks + call-site attribution + SLO rails"
timeout 30 cargo run -q --release -p pto-bench --bin metrics_smoke

echo "== perf smoke: wallclock hot paths + BENCH_sim.json structural check"
cargo run -q --release -p pto-bench --bin perf_smoke -- --check

echo "== adaptive smoke: self-tuning policy beats/matches static budgets per regime"
timeout 30 cargo run -q --release -p pto-bench --bin adaptive_sweep -- --smoke

echo "== lincheck smoke: linearizability sweep, variant cells sharded across cores"
timeout 30 cargo run -q --release -p pto-bench --bin lincheck -- --smoke

echo "== compose smoke: cross-structure scenarios (conservation + consistency rails)"
# Bank-transfer (two hash tables, token conservation under concurrent
# audits and abort injection) and order-book (mound + index agreement),
# each across the fallback/pto/adaptive series with SLO rails, plus the
# multi-object lincheck leg (pair/transfer product specs through the WGL
# checker).
timeout 30 cargo run -q --release -p pto-bench --bin bank_transfer -- --smoke
timeout 30 cargo run -q --release -p pto-bench --bin order_book -- --smoke
timeout 30 cargo run -q --release -p pto-bench --bin compose_smoke -- --smoke

echo "== sim + core tests: gate liveness, one-step waits, the executor, 64-lane goldens"
# Every pto-sim unit test (gate invariants up to 256 lanes, the one-step
# minimum-lane wait rule, observer parking), all of pto-core (executor
# unit tests, doctests, and the 2-lane composed-anchor waits), and the
# 64-lane Haswell/NumaIsh golden pair.
cargo test -q -p pto-sim --lib
cargo test -q -p pto-core
cargo test -q --test golden_makespan golden_lane_private_64lane

echo "== lincheck matrix: every structure variant, adaptive-middle and composed included"
cargo test -q --release -p pto-check --test lincheck

echo "== perfbench unit tests: fabricated bad outcomes and the metric catalogue"
# perfbench is its own cargo workspace, so the workspace runs above never
# build it; its tests check that the benchmark rejects bad samples.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
