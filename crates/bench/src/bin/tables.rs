//! Correlation-table microbench: each table's one step kernel driven
//! per miss and in batches, with bit-identity gates.
//!
//! Two legs per algorithm (Base/Chain/Repl), both over the same seeded
//! miss stream:
//!
//! * `per_miss` — `process_miss`, which builds one `StepResult` per miss
//!   with the table touches the memory-processor model replays (the
//!   simulator's path);
//! * `batch` — `process_misses`, the same kernel with touch recording
//!   compiled out and nothing allocated per step (the path `ulmt-service`
//!   shards ingest on).
//!
//! Identity gates (exit 1 on failure): after replaying the stream, the
//! batch table's fingerprint must equal the per-miss table's
//! bit-for-bit, both legs must emit the same prefetches and instruction
//! totals, and every snapshot must survive the byte-codec round trip with
//! its fingerprint intact.
//!
//! Environment:
//!
//! * `ULMT_TABLE_MISSES` — stream length per leg (default `500000`).
//! * `ULMT_TABLE_ROWS` — table rows (default `65536`; the paper's real
//!   tables are 1–2M rows, far beyond any private cache, which is the
//!   regime the cache-conscious layout targets).
//! * `ULMT_REPEAT` — timed repetitions, best-of (default `3`).
//! * `BENCH_OUT` — output path (default `BENCH_tables.json`).
//!
//! The report is written atomically (temp file + rename).

use std::fmt::Write as _;
use std::time::Instant;

use ulmt_bench::io::atomic_write;
use ulmt_core::algorithm::{StepSink, UlmtAlgorithm};
use ulmt_core::table::{
    Base, Chain, CorrelationTable, Kind, Replicated, TableParams, TableSnapshot,
};
use ulmt_simcore::{LineAddr, Pcg32};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The differential tests' stream shape: a random walk over a hot pool
/// (hits, MRU churn) plus cold lines (allocations, replacements).
fn miss_stream(seed: u64, len: usize, lines: u64) -> Vec<LineAddr> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let pool: Vec<u64> = (0..64).map(|_| rng.gen_range_u64(0..lines)).collect();
    let mut cursor = 0usize;
    (0..len)
        .map(|_| {
            let n = if rng.gen_bool(0.75) {
                cursor = (cursor + rng.gen_range_usize(1..4)) % pool.len();
                pool[cursor]
            } else {
                rng.gen_range_u64(0..lines)
            };
            LineAddr::new(n)
        })
        .collect()
}

/// Order-sensitive checksum of everything a leg emits: each step's
/// prefetches and phase instruction counts. Both legs fold the same
/// values in the same order, so equal checksums mean equal outputs.
#[derive(Default)]
struct Checksum(u64);

impl Checksum {
    fn fold(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The batch leg's sink: checksums without allocating, the way the
/// service's ingest sink consumes steps.
impl StepSink for Checksum {
    fn begin(&mut self, miss: LineAddr) {
        self.fold(miss.raw());
    }

    fn prefetch(&mut self, addr: LineAddr) {
        self.fold(addr.raw());
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.fold(prefetch_insns);
        self.fold(learn_insns);
    }
}

/// One timed leg: best-of-`repeat` observations/sec, plus a checksum so
/// the work cannot be optimized away.
struct Timing {
    obs_per_sec: f64,
    checksum: u64,
}

fn best_of(repeat: usize, obs: usize, mut run: impl FnMut() -> u64) -> Timing {
    let mut best = f64::MIN;
    let mut checksum = 0u64;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        checksum = run();
        let rate = obs as f64 / start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(rate);
    }
    Timing {
        obs_per_sec: best,
        checksum,
    }
}

/// Replays `misses` through `table` one `process_miss` at a time.
fn per_miss<K: Kind>(table: &mut CorrelationTable<K>, misses: &[LineAddr]) -> u64 {
    let mut sum = Checksum::default();
    for &m in misses {
        let step = table.process_miss(m);
        sum.fold(m.raw());
        for &p in &step.prefetches {
            sum.fold(p.raw());
        }
        sum.fold(step.prefetch_cost.insns);
        sum.fold(step.learn_cost.insns);
    }
    sum.0
}

/// Replays `misses` through `table` in service-sized batches.
fn batched<K: Kind>(table: &mut CorrelationTable<K>, misses: &[LineAddr]) -> u64 {
    let mut sum = Checksum::default();
    for chunk in misses.chunks(512) {
        table.process_misses(chunk, &mut sum);
    }
    sum.0
}

/// Everything measured and verified for one algorithm.
struct AlgReport {
    name: &'static str,
    per_miss: Timing,
    batch: Timing,
    fingerprint: u64,
    identical: bool,
    codec_ok: bool,
}

impl AlgReport {
    fn batch_speedup(&self) -> f64 {
        self.batch.obs_per_sec / self.per_miss.obs_per_sec.max(1e-12)
    }
}

fn codec_round_trips(snap: &TableSnapshot) -> bool {
    match TableSnapshot::from_bytes(&snap.to_bytes()) {
        Ok(decoded) => decoded.fingerprint() == snap.fingerprint(),
        Err(_) => false,
    }
}

fn run_algorithm<K: Kind>(
    name: &'static str,
    make: impl Fn() -> CorrelationTable<K>,
    misses: &[LineAddr],
    repeat: usize,
) -> AlgReport {
    let per_miss_leg = best_of(repeat, misses.len(), || per_miss(&mut make(), misses));
    let batch_leg = best_of(repeat, misses.len(), || batched(&mut make(), misses));

    // Identity gate: replay once more on fresh tables and compare end
    // states; the checksums already pin the emitted streams.
    let (mut slow, mut fast) = (make(), make());
    per_miss(&mut slow, misses);
    batched(&mut fast, misses);
    let fingerprint = slow.table_fingerprint();
    AlgReport {
        name,
        identical: fingerprint == fast.table_fingerprint()
            && per_miss_leg.checksum == batch_leg.checksum,
        codec_ok: codec_round_trips(&slow.snapshot()),
        per_miss: per_miss_leg,
        batch: batch_leg,
        fingerprint,
    }
}

fn json_report(reports: &[AlgReport], misses: usize, rows: usize, repeat: usize) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"misses\": {misses},");
    let _ = writeln!(j, "  \"rows\": {rows},");
    let _ = writeln!(j, "  \"repeat\": {repeat},");
    let _ = writeln!(
        j,
        "  \"identity_ok\": {},",
        reports.iter().all(|r| r.identical && r.codec_ok)
    );
    j.push_str("  \"algorithms\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"per_miss_obs_per_sec\": {:.0}, \"batch_obs_per_sec\": {:.0}, \"batch_speedup\": {:.3}, \"fingerprint\": \"{:016x}\", \"fingerprints_identical\": {}, \"codec_roundtrip_ok\": {}}}{}",
            r.name,
            r.per_miss.obs_per_sec,
            r.batch.obs_per_sec,
            r.batch_speedup(),
            r.fingerprint,
            r.identical,
            r.codec_ok,
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    j
}

fn main() {
    let misses = env_usize("ULMT_TABLE_MISSES", 500_000);
    let rows = env_usize("ULMT_TABLE_ROWS", 65_536);
    let repeat = env_usize("ULMT_REPEAT", 3);
    // Roughly 2 lines per slot so the stream forces replacements.
    let stream = miss_stream(0xDECAF, misses, (rows * 8) as u64);
    eprintln!("tables: {misses} misses, {rows} rows, best of {repeat}");

    let base = TableParams {
        num_rows: rows,
        assoc: 4,
        num_succ: 4,
        num_levels: 1,
    };
    let multi = TableParams {
        num_rows: rows,
        assoc: 2,
        num_succ: 2,
        num_levels: 3,
    };
    let reports = vec![
        run_algorithm("base", || Base::new(base), &stream, repeat),
        run_algorithm("chain", || Chain::new(multi), &stream, repeat),
        run_algorithm("repl", || Replicated::new(multi), &stream, repeat),
    ];

    for r in &reports {
        eprintln!(
            "  {:<6} per-miss {:>12.0} obs/s | batch {:>12.0} ({:.2}x) | identity {}",
            r.name,
            r.per_miss.obs_per_sec,
            r.batch.obs_per_sec,
            r.batch_speedup(),
            if r.identical && r.codec_ok {
                "ok"
            } else {
                "FAILED"
            }
        );
    }

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_tables.json".to_string());
    atomic_write(&out, &json_report(&reports, misses, rows, repeat))
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");

    if !reports.iter().all(|r| r.identical && r.codec_ok) {
        eprintln!("tables: FAILED (fingerprint or codec identity)");
        std::process::exit(1);
    }
    eprintln!("tables: identity gates passed");
}
