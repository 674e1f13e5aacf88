#!/usr/bin/env bash
# Offline verification: tier-1 (release build + root-package tests), the
# parallel-vs-serial, POR, prefix-sharing, exploration-kernel,
# bytecode-tier and semantic-sharing differential suites (each
# optimization both on and under its CCAL_POR=0 / CCAL_PREFIX_SHARE=0 /
# CCAL_PREFIX_DEEP=0 / CCAL_BYTECODE=0 / CCAL_SHARE_SEMANTIC=0 escape
# hatch), the engine regression tests, the full workspace tests (on both
# execution tiers and with sharing keys pinned), and criterion-free
# benchmark smoke runs including the B5 (whole-prefix), B5d (query-point
# snapshot), B6 (compiled ClightX bytecode VM) and B8 (semantic sharing
# keys) step-ratio gates. Everything here works without network access —
# proptest/criterion resolve to the in-repo shim crates. Each stage
# reports its own wall time so perf regressions in the harness itself are
# visible.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage DESCRIPTION COMMAND... — runs COMMAND (use `env VAR=... cmd` for
# per-stage environment overrides) and prints the stage's wall time.
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

stage "differential: parallel + dedup engine vs serial" \
  cargo test -q --test parallel_differential

stage "differential: POR-reduced grid vs full grid (all five checkers)" \
  cargo test -q --test por_differential

stage "differential: full grid re-checked with the escape hatch (CCAL_POR=0)" \
  env CCAL_POR=0 cargo test -q --test por_differential

stage "differential: prefix-sharing trie vs memo-free engine (all five checkers)" \
  cargo test -q --test prefix_differential

stage "differential: sharing disabled via the escape hatch (CCAL_PREFIX_SHARE=0)" \
  env CCAL_PREFIX_SHARE=0 cargo test -q --test prefix_differential

stage "differential: deep sharing disabled via the escape hatch (CCAL_PREFIX_DEEP=0)" \
  env CCAL_PREFIX_DEEP=0 cargo test -q --test prefix_differential

stage "differential: fork-vs-fresh snapshot resume (all snapshots x agreeing contexts)" \
  cargo test -q --test fork_differential

stage "differential: unified exploration kernel (all five checkers, ticket + qlock stacks)" \
  cargo test -q --test kernel_differential

stage "differential: bytecode VM vs interpreter (random programs, proptest)" \
  cargo test -q -p ccal-clightx --test bytecode_differential

stage "differential: bytecode VM vs interpreter (all five checkers, ticket stack)" \
  cargo test -q -p ccal-objects --test bytecode_differential

stage "differential: bytecode VM vs interpreter (forensics captures + artifacts)" \
  cargo test -q -p ccal-forensics --test bytecode_differential

stage "differential: semantic sharing keys vs pinned families (all five checkers, both tiers, hostile aliasing)" \
  cargo test -q --test sharing_differential

stage "differential: sharing differential under the escape hatch (CCAL_SHARE_SEMANTIC=0)" \
  env CCAL_SHARE_SEMANTIC=0 cargo test -q --test sharing_differential

stage "regression: grid sampling, space_size, workers, cache cap" \
  cargo test -q -p ccal-core -- contexts:: par:: por:: sim::

stage "workspace tests" \
  cargo test --workspace -q

stage "workspace tests on the interpreter tier (escape hatch: CCAL_BYTECODE=0)" \
  env CCAL_BYTECODE=0 cargo test --workspace -q

stage "workspace tests with pinned sharing keys (escape hatch: CCAL_SHARE_SEMANTIC=0)" \
  env CCAL_SHARE_SEMANTIC=0 cargo test --workspace -q

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

stage "certd service e2e: sharded grid, zero-step cache hits, SIGKILL recovery, store persistence" \
  scripts/certd_e2e.sh

echo "verify: all green"
