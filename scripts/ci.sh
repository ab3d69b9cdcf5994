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
#                                rounds: its 2 ms supervision ticks make it
#                                the suite's most timing-sensitive binary,
#                                and a starved host is where a wedge
#                                detector that fences descheduled healthy
#                                workers shows up
#   6. cargo test --doc       -- every doc example compiles and runs
#   7. cargo doc -D warnings  -- the API docs build without a warning, so
#                                an intra-doc link to a renamed or deleted
#                                item fails here
#   8. trace validation       -- a traced fixed-seed faulted run whose
#                                counters must re-derive bit-exactly from
#                                the event stream (inspect's `trace` leg)
#   9. paper regeneration     -- every table, figure and the ablation
#                                report at ULMT_SCALE=small through
#                                `inspect -- figures` (output discarded;
#                                ~30 s on 2 cores): the only end-to-end run
#                                of the figure and ablation code
#  10. perfbench builds       -- perfbench is its own Cargo workspace, so
#                                step 4 never compiles it; this builds it
#                                against the current crates and runs its
#                                unit tests (build output stays under
#                                target/, nothing is written in perfbench/)
#  11. deprecation audit      -- the one-cycle deprecation window is
#                                closed: no `#[deprecated]` item remains
#                                anywhere in the tree, and nothing still
#                                references the removed pre-redesign
#                                entry points
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

echo "== trace validation (faulted, seed 7)"
ULMT_FAULT_SEED=7 ULMT_SCALE=small \
    cargo run -q --release -p ulmt-bench --bin inspect -- trace mcf target/traces

echo "== paper regeneration (small)"
ULMT_SCALE=small cargo run -q --release -p ulmt-bench --bin inspect -- figures > /dev/null

echo "== perfbench builds and its unit tests pass"
CARGO_TARGET_DIR=target/perfbench \
    cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "== deprecation audit"
# The one-cycle deprecation window is closed: the old wrappers are gone,
# so no #[deprecated] item may exist anywhere in the tree and nothing
# may reference the removed pre-redesign entry points.
if grep -rn --include='*.rs' '#\[deprecated' src tests examples crates; then
    echo "deprecation audit: #[deprecated] items remain (above); the"
    echo "deprecation window is one release cycle -- remove, don't park"
    exit 1
fi
if grep -rn --include='*.rs' -E '\b(run_figure7_schemes|compare_policies)\b' \
        src tests examples crates; then
    echo "deprecation audit: references to removed pre-redesign APIs (above)"
    exit 1
fi

echo "ci.sh: all gates passed"
