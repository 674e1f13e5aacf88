#!/usr/bin/env bash
# Offline verification, 23 stages: a formatting check (the workspace
# must be rustfmt-clean under the default configuration; e2ebench/ is a
# workspace of its own and is not covered), a source check that engine
# state (settings, counters, capture sinks) lives only in
# ccal_core::engine — no static
# atomic, lock or OnceLock and no thread_local! anywhere else in
# crates/*/src, bar the process-wide family-id counter — then tier-1
# (release build + root-package tests), the
# engine differential (every exploration-engine configuration — workers,
# upper-run dedup, POR, prefix and deep sharing — against its reference
# row, all five checkers), the fork-vs-fresh, bytecode-tier and
# semantic-sharing differential suites, the engine regression tests, the
# persistent-log and kernel hasher unit tests once more as a release build
# (the hasher is wrapping arithmetic, and release builds drop overflow
# checks and debug assertions), the step-monitor differential as a release
# build (release builds also drop the layer machine's debug cross-check of
# every monitor answer against the from-scratch predicate, which the debug
# suites run on every log the checkers reach), the full workspace tests, and
# criterion-free benchmark smoke runs including the B5 (whole-prefix),
# B5d (query-point snapshot), B6 (compiled ClightX bytecode VM) and B8
# (semantic sharing keys) step-ratio gates, a check that those gates
# rewrote BENCH_5/6/8.json with the committed counters (only the host's
# hardware_threads may differ; a change that really moves a counter
# commits the new file), and the end-to-end benchmark
# package's own tests (its traced layer-by-layer pipeline must answer like
# the checkers' entry points). The engine reads no configuration from the
# environment, so every stage runs the one shipped engine (serial by
# default); the differential suites set the other configurations in code,
# each test under engines of its own, so no suite needs a serialization
# lock or a --test-threads setting.
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

# no_engine_globals — fails when process-global engine state appears in
# crates/*/src outside the engine module (crates/core/src/engine.rs): a
# static atomic, Mutex, RwLock, OnceLock or LazyLock, or a thread_local!.
# The one allowed static is the family-id counter behind
# prefix::next_family, which must stay unique across engines.
no_engine_globals() {
  local hits
  hits=$(grep -rnE --include='*.rs' \
      -e 'static +[A-Za-z_][A-Za-z0-9_]* *: *[A-Za-z_:]*(Atomic[A-Za-z0-9]*|Mutex|RwLock|OnceLock|LazyLock)\b' \
      -e 'thread_local!' \
      crates/*/src \
    | grep -v '^crates/core/src/engine\.rs:' \
    | grep -vE '^crates/core/src/prefix\.rs:[0-9]+: +static NEXT: AtomicU64 ' || true)
  if [ -n "$hits" ]; then
    echo "process-global engine state outside crates/core/src/engine.rs:"
    echo "$hits"
    return 1
  fi
}

stage "formatting: the workspace is rustfmt-clean (cargo fmt --all --check)" \
  cargo fmt --all --check

stage "engine state lives in one place: no static atomics, locks or thread-locals in crates/*/src outside crates/core/src/engine.rs (bar prefix::next_family)" \
  no_engine_globals

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

stage "differential: rely/guarantee and critical-state step monitors vs whole-log oracles (random logs, forks at random cuts; release build)" \
  cargo test -q --release --test monitor_differential

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
