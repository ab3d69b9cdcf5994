//! The always-on metrics plane: per-shard counters and log2 histograms,
//! merged into a service-wide [`MetricsReport`].
//!
//! # Registry layout
//!
//! Each shard worker owns one `MetricsRegistry`: three monotone
//! counters (accepted batches, observations, prefetches) plus four
//! fixed-size [`Log2Histogram`]s — batch size (observations), queue
//! wait (nanoseconds from enqueue to dequeue), ingest latency
//! (nanoseconds inside the batch kernel) and checkpoint latency
//! (nanoseconds to bring the shard's recovery checkpoint up to date,
//! the stall every `checkpoint_every` batches). Everything is flat `u64`
//! arrays: recording a batch never allocates, and snapshotting is a
//! memcpy-sized clone.
//!
//! # Clock domains
//!
//! A snapshot is stamped on **both** clocks the service runs on: the
//! shard's virtual `obs_cycles` clock ([`ShardMetrics::obs_cycles`] —
//! the deterministic simulation time the paper's occupancy model uses)
//! and the wall clock ([`ShardMetrics::wall_unix_nanos`]). Histogram
//! samples for queue wait, ingest, checkpoint and recovery latency are wall
//! time; batch size is dimensionless. The virtual clock is *read*, never
//! written, by the metrics plane — which is why metrics can never
//! perturb fingerprints.
//!
//! # Consistency
//!
//! Snapshots ride the shard's inbox as a `ShardMsg::Metrics` control
//! message, which the worker runs between batches, so a snapshot
//! observes a *prefix* of the shard's ingestion stream: every batch
//! processed before the message, nothing after it. Pair with
//! [`PrefetchService::drain`](crate::PrefetchService::drain) for an
//! "everything submitted so far" view, exactly like `ShardStats`.
//!
//! # Crossing a recovery
//!
//! Counters are seeded from the rebuilt shard's recovered totals, so
//! they stay equal to [`ShardStats`] across crashes. Histograms restart
//! empty with the replacement epoch (samples are wall-clock facts about
//! a worker that no longer exists); recovery latency itself is recorded
//! service-side from the supervisor's
//! [`RecoveryReport`](crate::RecoveryReport)s.

use std::fmt::Write as _;
use std::time::SystemTime;

use ulmt_simcore::stats::Log2Histogram;
use ulmt_simcore::Cycle;

use crate::service::ShardStats;

/// The per-shard, allocation-free metrics registry a worker owns while
/// metrics are enabled. All recording happens on the worker thread; the
/// control plane sees it only through [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub(crate) struct MetricsRegistry {
    batches: u64,
    observed: u64,
    prefetches: u64,
    batch_size: Log2Histogram,
    queue_wait_nanos: Log2Histogram,
    ingest_nanos: Log2Histogram,
    checkpoint_nanos: Log2Histogram,
}

impl MetricsRegistry {
    /// A registry whose counters resume from recovered shard totals
    /// (zero on a fresh shard), keeping the `metrics == stats` counter
    /// identity across restarts. Histograms start empty: they describe
    /// the live epoch.
    pub fn resumed(stats: &ShardStats) -> Self {
        MetricsRegistry {
            batches: stats.batches,
            observed: stats.observed,
            prefetches: stats.prefetches,
            batch_size: Log2Histogram::new(),
            queue_wait_nanos: Log2Histogram::new(),
            ingest_nanos: Log2Histogram::new(),
            checkpoint_nanos: Log2Histogram::new(),
        }
    }

    /// Records one accepted batch. `queue_wait_nanos` is `None` when the
    /// batch predates metrics enablement (never in practice: the stamp
    /// and the registry are switched by the same config bit).
    pub fn note_batch(
        &mut self,
        observed: u64,
        prefetches: u64,
        queue_wait_nanos: Option<u64>,
        ingest_nanos: u64,
    ) {
        self.batches += 1;
        self.observed += observed;
        self.prefetches += prefetches;
        self.batch_size.record(observed);
        if let Some(wait) = queue_wait_nanos {
            self.queue_wait_nanos.record(wait);
        }
        self.ingest_nanos.record(ingest_nanos);
    }

    /// Records one checkpoint update's wall time.
    pub fn note_checkpoint(&mut self, nanos: u64) {
        self.checkpoint_nanos.record(nanos);
    }

    /// A public snapshot stamped on both clock domains: the shard's
    /// virtual clock (`now`) and the wall clock (read here, snapshot
    /// time).
    pub fn snapshot(&self, shard: u32, epoch: u64, stats: &ShardStats, now: Cycle) -> ShardMetrics {
        ShardMetrics {
            shard,
            epoch,
            batches: self.batches,
            observed: self.observed,
            prefetches: self.prefetches,
            rejected: stats.rejected,
            shed: stats.shed,
            obs_cycles: now,
            wall_unix_nanos: unix_nanos(),
            batch_size: self.batch_size.clone(),
            queue_wait_nanos: self.queue_wait_nanos.clone(),
            ingest_nanos: self.ingest_nanos.clone(),
            checkpoint_nanos: self.checkpoint_nanos.clone(),
        }
    }
}

fn unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// One shard's metrics snapshot, as captured through its control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// The shard index.
    pub shard: u32,
    /// Worker epoch the snapshot came from (histograms cover this epoch;
    /// counters cover the shard's whole life).
    pub epoch: u64,
    /// Accepted observation batches (equals `ShardStats::batches`).
    pub batches: u64,
    /// Observations processed (equals `ShardStats::observed`).
    pub observed: u64,
    /// Prefetch predictions returned (equals `ShardStats::prefetches`).
    pub prefetches: u64,
    /// Rejected batch attempts across tenants.
    pub rejected: u64,
    /// Shed batch attempts across tenants.
    pub shed: u64,
    /// The shard's virtual `obs_cycles` clock at snapshot time.
    pub obs_cycles: Cycle,
    /// Wall clock at snapshot time, nanoseconds since the Unix epoch.
    pub wall_unix_nanos: u64,
    /// Distribution of accepted batch sizes, in observations.
    pub batch_size: Log2Histogram,
    /// Distribution of queue wait (enqueue to dequeue), wall nanoseconds.
    pub queue_wait_nanos: Log2Histogram,
    /// Distribution of batch-kernel ingest latency, wall nanoseconds.
    pub ingest_nanos: Log2Histogram,
    /// Distribution of checkpoint latency (one update of the shard's
    /// recovery checkpoint, taken every `checkpoint_every` accepted
    /// batches while the shard's queue waits), wall nanoseconds.
    pub checkpoint_nanos: Log2Histogram,
}

/// The service-wide metrics view: every live shard's snapshot plus the
/// supervisor's recovery-latency history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// `false` when the service runs with
    /// [`ServiceConfig::metrics`](crate::ServiceConfig::metrics) off; the
    /// report is then empty.
    pub enabled: bool,
    /// Shard restarts recorded so far.
    pub recoveries: u64,
    /// Distribution of recovery latency (fence to republish), wall
    /// nanoseconds, across every restart of every shard.
    pub recovery_nanos: Log2Histogram,
    /// Per-shard snapshots, sorted by shard index. Shards that are down
    /// or failed at collection time are absent.
    pub shards: Vec<ShardMetrics>,
}

impl MetricsReport {
    /// The report a metrics-disabled service returns.
    pub fn disabled() -> Self {
        MetricsReport {
            enabled: false,
            recoveries: 0,
            recovery_nanos: Log2Histogram::new(),
            shards: Vec::new(),
        }
    }

    /// Renders the report in Prometheus text exposition style:
    /// `# TYPE` comments, `name{labels} value` samples, histograms as
    /// cumulative `_bucket{le="..."}` series with a `_count` total.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE ulmt_metrics_enabled gauge");
        let _ = writeln!(out, "ulmt_metrics_enabled {}", u8::from(self.enabled));
        let _ = writeln!(out, "# TYPE ulmt_recoveries_total counter");
        let _ = writeln!(out, "ulmt_recoveries_total {}", self.recoveries);
        prom_histogram(
            &mut out,
            "ulmt_recovery_latency_nanos",
            "",
            &self.recovery_nanos,
        );
        for (name, kind, get) in COUNTER_SERIES {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for s in &self.shards {
                let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", s.shard, get(s));
            }
        }
        for (name, get) in HISTOGRAM_SERIES {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for s in &self.shards {
                prom_histogram(&mut out, name, &format!("shard=\"{}\"", s.shard), get(s));
            }
        }
        out
    }
}

type CounterGet = fn(&ShardMetrics) -> u64;
type HistogramGet = fn(&ShardMetrics) -> &Log2Histogram;

const COUNTER_SERIES: [(&str, &str, CounterGet); 8] = [
    ("ulmt_shard_epoch", "gauge", |s| s.epoch),
    ("ulmt_shard_batches_total", "counter", |s| s.batches),
    ("ulmt_shard_observations_total", "counter", |s| s.observed),
    ("ulmt_shard_prefetches_total", "counter", |s| s.prefetches),
    ("ulmt_shard_rejected_total", "counter", |s| s.rejected),
    ("ulmt_shard_shed_total", "counter", |s| s.shed),
    ("ulmt_shard_obs_cycles", "gauge", |s| s.obs_cycles),
    ("ulmt_shard_wall_unix_nanos", "gauge", |s| s.wall_unix_nanos),
];

const HISTOGRAM_SERIES: [(&str, HistogramGet); 4] = [
    ("ulmt_shard_batch_size", |s| &s.batch_size),
    ("ulmt_shard_queue_wait_nanos", |s| &s.queue_wait_nanos),
    ("ulmt_shard_ingest_nanos", |s| &s.ingest_nanos),
    ("ulmt_shard_checkpoint_nanos", |s| &s.checkpoint_nanos),
];

/// Emits one histogram as cumulative `_bucket` samples (non-empty
/// buckets plus the `+Inf` catch-all) and a `_count` total.
fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &Log2Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let le = Log2Histogram::bucket_bounds(i).1;
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.total());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MetricsReport {
        let mut reg = MetricsRegistry::resumed(&ShardStats::default());
        reg.note_batch(256, 12, Some(1_500), 90_000);
        reg.note_batch(64, 3, Some(700), 20_000);
        reg.note_checkpoint(400_000);
        let stats = ShardStats {
            shard: 0,
            rejected: 2,
            shed: 1,
            ..ShardStats::default()
        };
        let mut recovery_nanos = Log2Histogram::new();
        recovery_nanos.record(3_000_000);
        MetricsReport {
            enabled: true,
            recoveries: 1,
            recovery_nanos,
            shards: vec![reg.snapshot(0, 0, &stats, 4096)],
        }
    }

    #[test]
    fn registry_counts_and_histograms_agree() {
        let mut reg = MetricsRegistry::resumed(&ShardStats {
            batches: 5,
            observed: 1000,
            prefetches: 40,
            ..ShardStats::default()
        });
        reg.note_batch(256, 10, Some(1_000), 50_000);
        reg.note_checkpoint(2_000_000);
        let snap = reg.snapshot(3, 2, &ShardStats::default(), 777);
        assert_eq!(snap.batches, 6, "counters resume from recovered totals");
        assert_eq!(snap.observed, 1256);
        assert_eq!(snap.prefetches, 50);
        assert_eq!(snap.batch_size.total(), 1, "histograms restart per epoch");
        assert_eq!(snap.queue_wait_nanos.total(), 1);
        assert_eq!(snap.ingest_nanos.total(), 1);
        assert_eq!(snap.checkpoint_nanos.total(), 1);
        assert_eq!(snap.obs_cycles, 777);
        assert_eq!(snap.shard, 3);
        assert_eq!(snap.epoch, 2);
    }

    #[test]
    fn exposition_is_parseable_name_value_lines() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE ulmt_shard_queue_wait_nanos histogram"));
        assert!(text.contains("ulmt_shard_checkpoint_nanos_count{shard=\"0\"} 1"));
        assert!(text.contains("ulmt_shard_batches_total{shard=\"0\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "comment is a TYPE line");
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<u64>().is_ok(), "numeric value in {line:?}");
            let metric = name_part.split('{').next().expect("metric name");
            assert!(
                metric
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "metric name {metric:?}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let text = sample_report().to_prometheus();
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ulmt_shard_batch_size_bucket"))
            .map(|l| l.rsplit_once(' ').expect("value").1.parse().expect("u64"))
            .collect();
        assert!(!buckets.is_empty());
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "cumulative");
        assert_eq!(*buckets.last().expect("inf bucket"), 2, "+Inf holds all");
    }

    #[test]
    fn disabled_report_is_empty_but_renders() {
        let r = MetricsReport::disabled();
        assert!(!r.enabled);
        let text = r.to_prometheus();
        assert!(text.contains("ulmt_metrics_enabled 0"));
        assert!(!text.contains("shard=\""));
    }
}
