//! Service and tenant configuration.

use ulmt_core::table::TableParams;
use ulmt_simcore::{ConfigError, Cycle};

use crate::fault::ServiceFaultConfig;

/// Which correlation algorithm a tenant runs: core's
/// [`ulmt_core::table::TableKind`], whose codes the wire protocol and
/// the snapshot format share.
pub use ulmt_core::table::TableKind;

/// A per-tenant token-bucket admission quota, enforced by the tenant's
/// [`Session`](crate::Session) *before* a batch reaches its queue.
///
/// A tenant holds up to [`burst_batches`](Self::burst_batches) tokens;
/// each submission spends one, and tokens refill at
/// [`refill_per_sec`](Self::refill_per_sec) per wall-clock second
/// (capped at the burst size). A submission finding no token is **shed**
/// — acknowledged without learning and counted exactly in
/// [`TenantStats::shed`](crate::TenantStats::shed), the same piggyback
/// path degraded-mode shedding uses. A refill rate of 0 makes the bucket
/// a pure burst allowance, which is deterministic and what the tests
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionQuota {
    /// Maximum tokens the bucket holds (and its initial fill).
    pub burst_batches: u32,
    /// Tokens regained per wall-clock second (0 = never refill).
    pub refill_per_sec: u32,
}

impl AdmissionQuota {
    /// A bucket of `burst_batches` tokens refilling at `refill_per_sec`.
    pub fn new(burst_batches: u32, refill_per_sec: u32) -> Self {
        AdmissionQuota {
            burst_batches,
            refill_per_sec,
        }
    }

    /// Validates the quota.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.burst_batches == 0 {
            return Err(ConfigError::new(
                "tenant",
                "admission quota needs at least one token of burst",
            ));
        }
        Ok(())
    }
}

/// Per-tenant table choice (which algorithm, what geometry) plus the
/// tenant's fairness knobs (scheduling weight, queue depth, admission
/// quota).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// The correlation algorithm.
    pub kind: TableKind,
    /// Table geometry (Table 4 defaults via the constructors).
    pub params: TableParams,
    /// Deficit-round-robin scheduling weight: a backlogged tenant's
    /// throughput share is proportional to its weight. Must be >= 1;
    /// the constructors default to 1 (equal shares).
    pub weight: u32,
    /// This tenant's ingestion queue depth, in batches. `None` uses the
    /// service-wide [`ServiceConfig::queue_depth`].
    pub queue_depth: Option<usize>,
    /// Optional token-bucket admission quota, enforced client-side
    /// before enqueue. `None` admits everything the queue has room for.
    pub quota: Option<AdmissionQuota>,
}

impl TenantSpec {
    /// A Base tenant with Table 4 defaults at `num_rows`.
    pub fn base(num_rows: usize) -> Self {
        TenantSpec {
            kind: TableKind::Base,
            params: TableParams::base_default(num_rows),
            weight: 1,
            queue_depth: None,
            quota: None,
        }
    }

    /// A Chain tenant with Table 4 defaults at `num_rows`.
    pub fn chain(num_rows: usize) -> Self {
        TenantSpec {
            kind: TableKind::Chain,
            params: TableParams::chain_default(num_rows),
            weight: 1,
            queue_depth: None,
            quota: None,
        }
    }

    /// A Replicated tenant with Table 4 defaults at `num_rows`.
    pub fn repl(num_rows: usize) -> Self {
        TenantSpec {
            kind: TableKind::Repl,
            params: TableParams::repl_default(num_rows),
            weight: 1,
            queue_depth: None,
            quota: None,
        }
    }

    /// Sets the DRR scheduling weight (>= 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets a per-tenant ingestion queue depth, in batches.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Attaches a token-bucket admission quota.
    pub fn with_quota(mut self, quota: AdmissionQuota) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Validates the spec: the geometry must be consistent and match the
    /// algorithm ([`TableKind::validate`]), and the fairness knobs must be
    /// positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.kind.validate(&self.params)?;
        if self.weight == 0 {
            return Err(ConfigError::new(
                "tenant",
                "scheduling weight must be positive",
            ));
        }
        if self.queue_depth == Some(0) {
            return Err(ConfigError::new(
                "tenant",
                "per-tenant queue depth must be positive",
            ));
        }
        if let Some(q) = &self.quota {
            q.validate()?;
        }
        Ok(())
    }
}

/// Supervision, checkpointing and degraded-mode policy of a
/// [`PrefetchService`](crate::PrefetchService).
///
/// The recovery window math: a shard
/// checkpoints after every [`checkpoint_every`](Self::checkpoint_every)
/// accepted batches and journals the last
/// [`journal_window`](Self::journal_window) of them, so at most
/// `checkpoint_every - 1` acked batches sit past the checkpoint when the
/// next batch starts, and `journal_window >= checkpoint_every` guarantees
/// every crash recovers **cleanly** (bit-identical tables, counters and
/// virtual clock); a smaller window trades memory for a bounded lossy gap
/// whose exact size every [`RecoveryReport`](crate::RecoveryReport)
/// carries. The default checkpoints after every batch. A checkpoint is
/// a commit that copies no slot: each table logged the pre-image of
/// every slot the batch wrote, and recovery rolls the surviving tables
/// back to the commit, so a crash that strikes a batch before its ack
/// replays nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Restarts a single shard may consume before it is parked in
    /// [`ShardState::Failed`](crate::ShardState::Failed) for good.
    pub max_restarts: u32,
    /// Accepted batches between checkpoints of a shard's full state
    /// (1, the default: a checkpoint after every batch).
    pub checkpoint_every: u64,
    /// Acked batches the observation journal retains per shard.
    pub journal_window: usize,
    /// First restart backoff, in milliseconds (doubles per restart).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub backoff_max_ms: u64,
    /// Degraded-mode routing: `true` makes sessions *shed* batches
    /// aimed at a down shard — acknowledge without learning, counted in
    /// [`TenantStats::shed`](crate::TenantStats::shed) — so clients
    /// keep their latency budget during recovery. `false` makes
    /// [`Session::submit`](crate::Session::submit) wait for the shard
    /// to come back (bounded by its timeout).
    pub shed_when_down: bool,
    /// Upper bound, in milliseconds, a control-plane call (open,
    /// snapshot, fingerprint, tenant and shard stats, metrics) waits for
    /// its shard before reporting
    /// [`ServiceError::Timeout`](crate::ServiceError::Timeout).
    /// [`PrefetchService::drain`](crate::PrefetchService::drain) is not
    /// bounded by it.
    pub control_timeout_ms: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            max_restarts: 8,
            checkpoint_every: 1,
            journal_window: 128,
            backoff_base_ms: 1,
            backoff_max_ms: 100,
            shed_when_down: true,
            control_timeout_ms: 10_000,
        }
    }
}

impl SupervisionConfig {
    /// Validates the supervision policy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("supervision", reason));
        if self.checkpoint_every == 0 {
            return err("checkpoint interval must be positive");
        }
        if self.journal_window == 0 {
            return err("journal window must be positive");
        }
        Ok(())
    }
}

/// Configuration of a [`PrefetchService`](crate::PrefetchService).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shard worker threads. Tenants hash onto shards; each
    /// tenant's whole stream is handled by exactly one shard, which is
    /// what makes table contents independent of the shard count.
    pub shards: usize,
    /// Default capacity of each *tenant's* ingestion queue, in batches
    /// (overridable per tenant via [`TenantSpec::queue_depth`]). A full
    /// queue makes [`Session::try_submit`](crate::Session::try_submit)
    /// return [`TrySubmit::Full`](crate::TrySubmit::Full) for that
    /// tenant only — neighbors on the shard are unaffected.
    pub queue_depth: usize,
    /// Deficit-round-robin quantum, in observations: the service credit
    /// a weight-1 tenant replenishes per scheduler rotation. Larger
    /// quanta approach per-tenant batching (fewer switches); smaller
    /// quanta interleave more finely. Must be positive.
    pub quantum_obs: usize,
    /// Seed mixed into the tenant-to-shard hash, so different
    /// deployments can spread the same tenant IDs differently.
    pub seed: u64,
    /// Virtual cycles between consecutive observations on a shard's
    /// clock; the shard's [`Server`](ulmt_simcore::Server) utilization is
    /// measured against this arrival rate.
    pub obs_cycles: Cycle,
    /// Supervision, checkpointing and degraded-mode policy.
    pub supervision: SupervisionConfig,
    /// The targeted chaos kill ("kill shard S at its N-th accepted
    /// batch"), for recovery tests. `None` in production.
    pub fault: Option<ServiceFaultConfig>,
    /// The always-on metrics plane (see [`crate::MetricsReport`]), the
    /// one way to watch a running shard: per-shard counters and log2
    /// histograms for batch size, queue wait, ingest, checkpoint and
    /// recovery latency. On by default;
    /// switching it off removes every metrics-path clock read and
    /// leaves one untaken branch per batch — ingestion results are
    /// bit-identical either way (the metrics plane never touches the
    /// virtual clock or the tables).
    pub metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            queue_depth: 64,
            quantum_obs: 256,
            seed: 0x5EED,
            obs_cycles: 8,
            supervision: SupervisionConfig::default(),
            fault: None,
            metrics: true,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration, returning the first inconsistency
    /// found as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("service", reason));
        if self.shards == 0 {
            return err("shard count must be positive");
        }
        if self.queue_depth == 0 {
            return err("queue depth must be positive");
        }
        if self.quantum_obs == 0 {
            return err("scheduler quantum must be positive");
        }
        if self.obs_cycles == 0 {
            return err("observation interval must be positive");
        }
        self.supervision.validate()?;
        Ok(())
    }
}

/// Configuration of the TCP network front-end
/// ([`NetServer`](crate::net::NetServer)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Address to bind, `host:port`. Port 0 picks a free port; read the
    /// bound address back with
    /// [`NetServer::local_addr`](crate::net::NetServer::local_addr).
    pub addr: String,
    /// Connection cap of the bounded acceptor. A connection arriving at
    /// the cap is answered with a typed
    /// [`ServiceError::Busy`](crate::ServiceError::Busy) frame and
    /// closed — never silently dropped and never queued unboundedly.
    pub max_connections: usize,
    /// Per-connection bound, in milliseconds, on how long the rest of a
    /// frame may take to arrive once its first byte has (a stalled or
    /// half-dead peer is disconnected, not waited on forever).
    pub read_timeout_ms: u64,
    /// Per-connection bound, in milliseconds, on blocking writes to the
    /// peer (a reply the peer never reads cannot wedge a worker).
    pub write_timeout_ms: u64,
    /// Largest accepted frame payload, in bytes. An oversized header is
    /// rejected with a typed error *before* any payload is read, so a
    /// hostile length prefix cannot balloon server memory.
    pub max_frame_bytes: u32,
    /// Cadence, in milliseconds, at which an idle connection (waiting
    /// for the next frame) polls the server's closing flag.
    pub poll_tick_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            max_frame_bytes: 8 << 20,
            poll_tick_ms: 25,
        }
    }
}

impl NetConfig {
    /// A loopback config binding an ephemeral port (the default).
    pub fn loopback() -> Self {
        NetConfig::default()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("net", reason));
        if self.max_connections == 0 {
            return err("connection cap must be positive");
        }
        if self.max_frame_bytes < 64 {
            return err("max frame size must hold at least a handshake (64 bytes)");
        }
        if self.read_timeout_ms == 0 || self.write_timeout_ms == 0 {
            return err("read/write timeouts must be positive");
        }
        if self.poll_tick_ms == 0 {
            return err("poll tick must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(NetConfig::default().validate().is_ok());
        assert_eq!(NetConfig::loopback(), NetConfig::default());
    }

    #[test]
    fn net_config_validates() {
        let bad = NetConfig {
            max_connections: 0,
            ..NetConfig::default()
        };
        assert!(bad.validate().unwrap_err().reason().contains("cap"));
        let bad = NetConfig {
            max_frame_bytes: 16,
            ..NetConfig::default()
        };
        assert!(bad.validate().unwrap_err().reason().contains("frame"));
        let bad = NetConfig {
            poll_tick_ms: 0,
            ..NetConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err().component(), "net");
    }

    #[test]
    fn validate_reports_without_panicking() {
        let cfg = ServiceConfig {
            shards: 0,
            ..ServiceConfig::default()
        };
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.component(), "service");
        assert!(e.reason().contains("shard count"));
        let cfg = ServiceConfig {
            queue_depth: 0,
            ..ServiceConfig::default()
        };
        assert!(cfg.validate().unwrap_err().reason().contains("queue depth"));
    }

    #[test]
    fn supervision_policy_validates_and_classifies_windows() {
        let sup = SupervisionConfig::default();
        assert!(sup.validate().is_ok());
        assert!(
            sup.journal_window as u64 >= sup.checkpoint_every,
            "default window covers the gap"
        );
        let lossy = SupervisionConfig {
            checkpoint_every: 64,
            journal_window: 8,
            ..sup
        };
        assert!(lossy.validate().is_ok());
        assert!((lossy.journal_window as u64) < lossy.checkpoint_every);
        let bad = SupervisionConfig {
            journal_window: 0,
            ..sup
        };
        let e = ServiceConfig {
            supervision: bad,
            ..ServiceConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(e.component(), "supervision");
    }

    #[test]
    fn tenant_spec_constructors_are_valid() {
        for spec in [
            TenantSpec::base(1024),
            TenantSpec::chain(1024),
            TenantSpec::repl(1024),
        ] {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn tenant_spec_rejects_multi_level_base() {
        let spec = TenantSpec {
            kind: TableKind::Base,
            params: TableParams::repl_default(64),
            ..TenantSpec::base(64)
        };
        let e = spec.validate().unwrap_err();
        assert!(e.reason().contains("one level"));
    }

    #[test]
    fn fairness_knobs_validate() {
        let spec = TenantSpec::repl(64)
            .with_weight(4)
            .with_queue_depth(8)
            .with_quota(AdmissionQuota::new(16, 100));
        spec.validate().unwrap();
        assert!(TenantSpec::repl(64)
            .with_weight(0)
            .validate()
            .unwrap_err()
            .reason()
            .contains("weight"));
        assert!(TenantSpec::repl(64)
            .with_queue_depth(0)
            .validate()
            .unwrap_err()
            .reason()
            .contains("queue depth"));
        assert!(TenantSpec::repl(64)
            .with_quota(AdmissionQuota::new(0, 5))
            .validate()
            .unwrap_err()
            .reason()
            .contains("burst"));
        let cfg = ServiceConfig {
            quantum_obs: 0,
            ..ServiceConfig::default()
        };
        assert!(cfg.validate().unwrap_err().reason().contains("quantum"));
    }
}
