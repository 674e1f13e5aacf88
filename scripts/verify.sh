#!/usr/bin/env bash
# Offline verification: tier-1 (release build + root-package tests), the
# engine differential (every exploration-engine configuration — workers,
# upper-run dedup, POR, prefix and deep sharing — against its reference
# row, all five checkers), the fork-vs-fresh, bytecode-tier and
# semantic-sharing differential suites, the engine regression tests, the
# persistent-log and kernel hasher unit tests once more as a release build
# (the hasher is wrapping arithmetic, and release builds drop overflow
# checks and debug assertions), the full workspace tests, and
# criterion-free benchmark smoke runs including the B5 (whole-prefix),
# B5d (query-point snapshot), B6 (compiled ClightX bytecode VM) and B8
# (semantic sharing keys) step-ratio gates, a check that those gates
# rewrote BENCH_5/6/8.json with the committed counters (only the host's
# hardware_threads may differ; a change that really moves a counter
# commits the new file), and the end-to-end benchmark
# package's own tests (its traced layer-by-layer pipeline must answer like
# the checkers' entry points). The engine reads no configuration from the
# environment, so every stage runs the one shipped engine (serial by
# default); the differential suites set the other configurations in code.
# Everything here works without network access — proptest/criterion
# resolve to the in-repo shim crates. Each stage reports its own wall time
# so perf regressions in the harness itself are visible.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage DESCRIPTION COMMAND... — runs COMMAND and prints the stage's wall
# time.
stage() {
  local desc="$1"
  shift
  echo "== ${desc} =="
  local t0=$SECONDS
  "$@"
  echo "-- ${desc}: $((SECONDS - t0))s"
}

stage "tier-1: release build" \
  cargo build --release

stage "tier-1: root-package tests" \
  cargo test -q

stage "differential: engine configurations (workers x dedup x POR x prefix/deep sharing, all five checkers, synthetic grids + ticket and qlock stacks)" \
  cargo test -q --test parallel_differential --test por_differential \
    --test prefix_differential --test kernel_differential

stage "differential: fork-vs-fresh snapshot resume (all snapshots x agreeing contexts)" \
  cargo test -q --test fork_differential

stage "differential: bytecode VM vs interpreter (random programs, proptest)" \
  cargo test -q -p ccal-clightx --test bytecode_differential

stage "differential: bytecode VM vs interpreter (all five checkers, ticket stack)" \
  cargo test -q -p ccal-objects --test bytecode_differential

stage "differential: bytecode VM vs interpreter (forensics captures + artifacts)" \
  cargo test -q -p ccal-forensics --test bytecode_differential

stage "differential: semantic sharing keys vs pinned families (all five checkers, both tiers, hostile aliasing)" \
  cargo test -q --test sharing_differential

stage "regression: grid sampling, space_size, index-least first failure" \
  cargo test -q -p ccal-core -- contexts:: par:: por:: sim::

stage "regression: persistent log and kernel hasher unit tests (release build)" \
  cargo test -q --release -p ccal-core --lib -- log:: fxhash::

stage "workspace tests" \
  cargo test --workspace -q

stage "forensics: shrink/replay selftest (all five checkers)" \
  cargo run -q --release -p ccal-forensics --bin ccal-replay -- --selftest

stage "forensics: golden corpus replay" \
  cargo run -q --release -p ccal-forensics --bin ccal-replay -- forensics/corpus

stage "bench smoke (no criterion): composition_scaling --quick" \
  cargo bench -p ccal-bench --no-default-features --bench composition_scaling -- --quick

stage "bench gate (no criterion): prefix_sharing --quick (asserts B5 share/off <= 0.5 and B5d deep/share <= 0.7 at L=5; writes BENCH_5.json)" \
  cargo bench -p ccal-bench --no-default-features --bench prefix_sharing -- --quick

stage "bench gate (no criterion): bytecode_vm --quick (asserts B6 vm/interp prim-steps <= 0.6 and exact atom-step tier equality at L=5; writes BENCH_6.json)" \
  cargo bench -p ccal-bench --no-default-features --bench bytecode_vm -- --quick

stage "bench gate (no criterion): sharing --quick (asserts B8 semantic/pinned atom-steps <= 0.5 at L=5 + per-unit family hits; writes BENCH_8.json)" \
  cargo bench -p ccal-bench --no-default-features --bench sharing -- --quick

stage "bench gates reproduce the committed counters: BENCH_5/6/8.json unchanged apart from hardware_threads" \
  git diff --exit-code -I '"hardware_threads"' -- BENCH_5.json BENCH_6.json BENCH_8.json

stage "certd service e2e: sharded grid, zero-step cache hits, SIGKILL recovery, store persistence" \
  scripts/certd_e2e.sh

stage "e2ebench package tests: the traced per-layer pipeline and the certd replay answer like the entry points and the live daemon" \
  cargo test --release --manifest-path e2ebench/Cargo.toml

echo "verify: all green"
