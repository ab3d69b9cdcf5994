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
#                                workspace crate, not just the facade
#   5. cargo test --doc       -- every doc example compiles and runs
#   6. trace validation       -- a traced fixed-seed faulted run whose
#                                counters must re-derive bit-exactly from
#                                the event stream (inspect's `trace` leg)
#   7. service smoke          -- the sharded prefetch service at 1 and 2
#                                shards, 2 tenants: cross-shard-count
#                                fingerprint identity, the snapshot ->
#                                restore -> fingerprint round-trip, and
#                                the seeded chaos leg (kill/recover
#                                rounds under clean and lossy recovery
#                                policies)
#   8. chaos gate             -- asserts on the smoke report that the
#                                chaos leg actually exercised BOTH paths
#                                (>=1 clean recovery bit-identical to the
#                                fault-free run, >=1 lossy recovery with
#                                exact dropped-batch conservation)
#   8b. fairness gate         -- asserts on the same report that the
#                                starvation leg held its invariants: the
#                                FIFO (shared-queue baseline) tables are
#                                bit-identical to the DRR tables, DRR
#                                starves no light tenant (Jain >= 0.9,
#                                light p99 >= 5x better than FIFO), and
#                                the light-tenant p99 stays bounded
#   8c. net gate              -- asserts on the same report that the
#                                `--net` leg drove every tenant stream
#                                through the loopback TCP front-end and
#                                that the network-path fingerprints are
#                                bit-identical to the in-process path
#   8d. metrics gate          -- asserts on the same report that the
#                                metrics plane produced a populated
#                                per-shard report whose counters match
#                                shard_stats exactly, that a
#                                metrics-disabled run reproduced the
#                                enabled run's fingerprints bit-for-bit
#                                (on both transports), and that the
#                                enabled `--net` leg held >= 98% of the
#                                disabled leg's throughput
#   9. per-miss vs batch identity -- the `tables` microbench on a tiny
#                                profile drives each table's step kernel
#                                per miss and in batches: prefetches,
#                                instruction counts and table fingerprints
#                                must be bit-identical and every snapshot
#                                must survive the byte-codec round trip
#                                (the bin exits 1 on any mismatch)
#  10. deprecation audit      -- the one-cycle deprecation window is
#                                closed: no `#[deprecated]` item remains
#                                anywhere in the tree, and nothing still
#                                references the removed pre-redesign
#                                entry points
#
# This wraps the canonical tier-1 verify from ROADMAP.md
# (`cargo build --release && cargo test -q`) with the lint front-line so
# a clean ci.sh run implies a clean tier-1 run.
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

echo "== cargo test --doc"
cargo test -q --workspace --doc

echo "== trace validation (faulted, seed 7)"
ULMT_FAULT_SEED=7 ULMT_SCALE=small \
    cargo run -q --release -p ulmt-bench --bin inspect -- trace mcf target/traces

echo "== service smoke (1 vs 2 shards, 2 tenants, snapshot round-trip, chaos + net legs)"
ULMT_SHARDS=1,2 ULMT_TENANTS=2 ULMT_FAULT_SEED=7 \
    BENCH_OUT=target/BENCH_service_smoke.json \
    cargo run -q --release -p ulmt-bench --bin serve -- --net

echo "== chaos gate (clean AND lossy recovery paths both exercised)"
# serve exits non-zero on any chaos violation; this gate additionally
# proves the fixed seed drove both recovery paths, so a refactor that
# silently stops scheduling one of them fails CI instead of passing
# vacuously.
grep -Eq '"clean_recoveries": [1-9]' target/BENCH_service_smoke.json \
    || { echo "chaos gate: no clean recoveries exercised"; exit 1; }
grep -Eq '"lossy_recoveries": [1-9]' target/BENCH_service_smoke.json \
    || { echo "chaos gate: no lossy recoveries exercised"; exit 1; }
grep -q '"clean_identical": true' target/BENCH_service_smoke.json \
    || { echo "chaos gate: clean recovery not bit-identical"; exit 1; }
grep -q '"lossy_conserved": true' target/BENCH_service_smoke.json \
    || { echo "chaos gate: lossy recovery accounting not conserved"; exit 1; }

echo "== fairness gate (FIFO == DRR tables, bounded light-tenant p99)"
# serve already exits non-zero when the starvation invariants fail; these
# asserts prove the leg ran and keep the thresholds visible in CI output.
grep -q '"scheduler_fingerprints_identical": true' target/BENCH_service_smoke.json \
    || { echo "fairness gate: FIFO and DRR learned different tables"; exit 1; }
grep -q '"ok": true' target/BENCH_service_smoke.json \
    || { echo "fairness gate: starvation leg invariants failed"; exit 1; }
# Bounded tail: under DRR the light tenants' submit->ack p99 must stay
# under 5 ms even with the hot tenant flooding a 48-batch backlog.
drr_p99=$(sed -n 's/.*"drr": {"light_p50_ms": [0-9.]*, "light_p99_ms": \([0-9.]*\),.*/\1/p' \
    target/BENCH_service_smoke.json)
[ -n "$drr_p99" ] || { echo "fairness gate: no DRR p99 in report"; exit 1; }
awk -v p99="$drr_p99" 'BEGIN { exit !(p99 > 0 && p99 < 5.0) }' \
    || { echo "fairness gate: DRR light p99 ${drr_p99} ms not bounded"; exit 1; }

echo "== net gate (network-path fingerprints bit-identical to in-process)"
# serve exits non-zero when the net leg diverges; this gate additionally
# proves the leg ran at all, so dropping `--net` from the smoke
# invocation fails CI instead of passing vacuously.
grep -q '"identical_to_in_process": true' target/BENCH_service_smoke.json \
    || { echo "net gate: network leg missing or not bit-identical"; exit 1; }

echo "== metrics gate (populated report, counter identity, zero-cost when off)"
# serve exits non-zero when any metrics invariant fails; these asserts
# prove the plane actually ran (a populated per-shard report) so a
# refactor that silently disables it fails CI instead of passing
# vacuously.
grep -q '"counters_match_shard_stats": true' target/BENCH_service_smoke.json \
    || { echo "metrics gate: registry counters diverge from shard_stats"; exit 1; }
grep -q '"disabled_fingerprints_identical": true' target/BENCH_service_smoke.json \
    || { echo "metrics gate: disabling metrics changed the learned tables"; exit 1; }
grep -q '"metrics_modes_identical": true' target/BENCH_service_smoke.json \
    || { echo "metrics gate: net fingerprints differ between metrics modes"; exit 1; }
grep -q '"metrics_overhead_ok": true' target/BENCH_service_smoke.json \
    || { echo "metrics gate: enabled net leg below 98% of disabled throughput"; exit 1; }
grep -Eq '"queue_wait_nanos": \{"p50": [0-9]+, "p99": [0-9]+\}' \
    target/BENCH_service_smoke.json \
    || { echo "metrics gate: no per-shard queue-wait percentiles in report"; exit 1; }
# The Prometheus exposition must stay parseable (TYPE lines + name{labels}
# value samples only); the dedicated unit test is the parser.
cargo test -q -p ulmt-service --lib \
    metrics::tests::exposition_is_parseable_name_value_lines >/dev/null \
    || { echo "metrics gate: exposition output failed to parse"; exit 1; }

echo "== per-miss vs batch identity (tables microbench, tiny profile)"
ULMT_TABLE_MISSES=20000 ULMT_TABLE_ROWS=512 ULMT_REPEAT=1 \
    BENCH_OUT=target/BENCH_tables_smoke.json \
    cargo run -q --release -p ulmt-bench --bin tables

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
