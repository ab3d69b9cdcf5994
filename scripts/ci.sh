#!/usr/bin/env bash
# Tier-1 CI gate. Run before every merge:
#
#   scripts/ci.sh
#
# Steps, in order (first failure aborts):
#   1. cargo fmt --check      -- formatting drift
#   2. cargo clippy -D warnings  (skipped with a notice if clippy is not
#                                 installed in this toolchain)
#   3. cargo build --release  -- the tier-1 build
#   4. cargo test -q          -- the tier-1 test suite; the root manifest's
#                                `default-members` make it cover every
#                                workspace crate, not just the facade.
#                                Every determinism gate (shard-count,
#                                snapshot, chaos, net, metrics, weights,
#                                per-miss vs batch) is a test here
#   5. chaos under contention -- step 4's service_chaos test binary, run
#                                as two concurrent instances for three
#                                rounds: kill recovery, shedding and
#                                snapshot consistency must also hold on a
#                                starved host, where workers, sessions and
#                                the supervisor are descheduled at random
#                                points and timing-dependent test
#                                assumptions break
#   6. cargo test --doc       -- every doc example compiles and runs
#   7. cargo doc -D warnings  -- the API docs build without a warning, so
#                                an intra-doc link to a renamed or deleted
#                                item fails here
#   8. trace validation       -- a traced Mcf/Repl run at small scale
#                                whose counters must re-derive bit-exactly
#                                from the event stream (inspect's `trace`
#                                leg), and whose JSONL event stream must
#                                match the digest in
#                                tests/golden/trace_mcf_small.sha256, so
#                                two same-cycle events that swap order
#                                fail here even when every counter holds
#   9. paper regeneration     -- every table, figure and the ablation
#                                report at ULMT_SCALE=small through
#                                `inspect -- figures` (~30 s on 2 cores;
#                                its wall time is printed, informational
#                                only), diffed against the golden file
#                                tests/golden/figures_small.txt: the only
#                                end-to-end run of the figure and ablation
#                                code, and the check that a change moves
#                                no reproduced number it did not mean to
#  10. perfbench builds       -- perfbench is its own Cargo workspace, so
#                                step 4 never compiles it; this builds it
#                                against the current crates and runs its
#                                unit tests (build output stays under
#                                target/, nothing is written in perfbench/)
#  11. deprecation audit      -- the one-cycle deprecation window is
#                                closed: no `#[deprecated]` item remains
#                                anywhere in the tree, and nothing still
#                                references the removed pre-redesign
#                                entry points, the removed sweep,
#                                watchdog, twin-run and poison-pill API,
#                                the removed wedge detection, the
#                                removed simulator fault injection, the
#                                removed service event trace and
#                                slow-consumer fault, the public
#                                MruList (now a test-only oracle type),
#                                the simulator's removed hash shadows
#                                (queue 3's set, the id-to-line map, the
#                                FxHashSet alias), or the service API only
#                                tests called (the cancel token, the
#                                public kill budget, the clean-recovery
#                                and checkpoint-ahead helpers), or the
#                                table checkpoint copy the undo log
#                                replaced (TableCheckpoint and its
#                                capture and restore calls); and
#                                `unsafe` occurs in
#                                crates/ exactly once, in the table
#                                storage's prefetch hint helper
#
# This wraps the canonical tier-1 verify from ROADMAP.md
# (`cargo build --release && cargo test -q`) with the lint front-line so
# a clean ci.sh run implies a clean tier-1 run. Performance is measured
# by perfbench alone (see perfbench/README.md), never by this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== cargo clippy not installed; skipping lint step"
fi

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== service_chaos under contention (2 concurrent instances x 3 rounds)"
chaos=$(cargo test -p ulmt-service --test service_chaos --no-run 2>&1 |
    sed -n 's/^ *Executable .*(\(.*\))$/\1/p')
if [ ! -x "$chaos" ]; then
    echo "service_chaos test binary not found"
    exit 1
fi
for round in 1 2 3; do
    "$chaos" -q > target/ci-chaos-a.log 2>&1 & a=$!
    "$chaos" -q > target/ci-chaos-b.log 2>&1 & b=$!
    status=0
    wait "$a" || status=1
    wait "$b" || status=1
    if [ "$status" -ne 0 ]; then
        cat target/ci-chaos-a.log target/ci-chaos-b.log
        echo "service_chaos failed under contention (round $round)"
        exit 1
    fi
done

echo "== cargo test --doc"
cargo test -q --workspace --doc

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== trace validation (Mcf / Repl, small)"
ULMT_SCALE=small \
    cargo run -q --release -p ulmt-bench --bin inspect -- trace mcf target/traces
# A change that reorders events on purpose regenerates the digest with
# `sha256sum target/traces/mcf_repl.trace.jsonl` and says why.
if ! sha256sum -c --quiet tests/golden/trace_mcf_small.sha256; then
    echo "trace event stream differs from tests/golden/trace_mcf_small.sha256"
    exit 1
fi

echo "== paper regeneration (small), diffed against tests/golden/figures_small.txt"
# A change that moves results on purpose regenerates the golden file
# with this command (stdout only) and says why in EXPERIMENTS.md. The
# printed wall time is informational, not a gate: it records the north
# star's regeneration time next to the golden diff in every CI log.
regen_start=$SECONDS
ULMT_SCALE=small cargo run -q --release -p ulmt-bench --bin inspect -- figures \
    > target/ci-figures-small.txt
echo "paper regeneration (small) took $((SECONDS - regen_start)) s wall"
if ! diff -u tests/golden/figures_small.txt target/ci-figures-small.txt; then
    echo "paper regeneration differs from tests/golden/figures_small.txt (above)"
    exit 1
fi

echo "== perfbench builds and its unit tests pass"
CARGO_TARGET_DIR=target/perfbench \
    cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "== deprecation audit"
# The one-cycle deprecation window is closed: the old wrappers are gone,
# so no #[deprecated] item may exist anywhere in the tree and nothing
# may reference the removed pre-redesign entry points, nor the removed
# sweep, watchdog, twin-run and poison-pill API, nor the removed wedge
# detection and epoch fencing, nor the removed simulator fault
# injection, nor the service's removed shard trace events and
# slow-consumer fault, nor the production MruList (its test oracle is
# RefSuccList), nor the simulator's hash shadows of queue 3 and of the
# miss window's lines, nor the FxHashSet alias they used, nor the
# service API only its own tests called (the cancel token, the public
# kill budget, the clean-recovery and checkpoint-ahead helpers; the
# removed PendingBatch::{poll, wait_timeout} are left to the compiler,
# since ingress.rs rightly calls Condvar::wait_timeout). perfbench/ is
# not scanned: its host descriptor still clears ULMT_CYCLE_BUDGET and
# ULMT_FAULT_SEED.
if grep -rn --include='*.rs' '#\[deprecated' src tests examples crates; then
    echo "deprecation audit: #[deprecated] items remain (above); the"
    echo "deprecation window is one release cycle -- remove, don't park"
    exit 1
fi
removed_api='run_figure7_schemes|compare_policies|run_experiments|SweepResult|JobFailure'
removed_api+='|try_parallel_map_with|TwinDelta|SimAbort|RunError|cycle_budget'
removed_api+='|ULMT_CYCLE_BUDGET|panic_after_observations'
removed_api+='|wedge_ticks|WedgeShard|wedge_scan|RecoveryCause|park_until_fenced'
removed_api+='|is_abandoned|abandoned_below|schedstat|thread-self'
removed_api+='|FaultConfig|FaultPlan|FaultReport|FaultCounts|ObservationFault|FaultKind'
removed_api+='|FaultInjected|set_faults|DelayedObservation|ULMT_FAULT_SEED'
removed_api+='|ShardBatch|ShardReject|SlowConsumer|ServiceFaultPlan|slow_consumer|MruList'
removed_api+='|prefetch_q_set|id_to_line|FxHashSet|fx_set_with_capacity'
removed_api+='|cancel_token|CancelToken|ServiceFaultState|kills_fired'
removed_api+='|guarantees_clean_recovery|checkpoint_ahead'
removed_api+='|TableCheckpoint|checkpoint_into|restore_checkpoint|capture_slots|restore_slots|prefetch_record'
if grep -rn --include='*.rs' -E "\b($removed_api)\b" src tests examples crates; then
    echo "deprecation audit: references to removed APIs (above)"
    exit 1
fi
# The workspace's one `unsafe` block is the prefetch hint in the table
# storage (a hint never faults, and it takes a live reference); any
# other needs its own case made, and this count raised with it.
unsafe_uses=$(grep -rnw --include='*.rs' unsafe src tests examples crates || true)
if [ "$(printf '%s\n' "$unsafe_uses" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$unsafe_uses" | grep -q '^crates/core/src/table/storage.rs:'; then
    printf '%s\n' "$unsafe_uses"
    echo "unsafe audit: expected exactly one unsafe, in the table storage's prefetch helper"
    exit 1
fi

echo "ci.sh: all gates passed"
