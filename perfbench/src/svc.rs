//! The prefetch-service workload `svc-inproc-large` (one in-process
//! shard, four 64K-row tenants) and, in its traced run, the network leg
//! (one loopback TCP connection, one 1K-row tenant). Both drive a closed
//! loop from one client thread: each tenant keeps at most `window`
//! batches pending and replies are reaped in global submission order.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use ulmt_bench::profile::Profile;
use ulmt_core::algorithm::StepSink;
use ulmt_core::table::{Base, Chain, Replicated};
use ulmt_core::UlmtAlgorithm;
use ulmt_service::net::{read_frame_into, write_frame, FrameKind};
use ulmt_service::{
    BatchReply, MetricsReport, NetClient, NetConfig, NetServer, NetSubmit, PendingBatch,
    PrefetchService, ServiceConfig, ServiceError, Session, TableKind, TenantSpec,
};
use ulmt_simcore::LineAddr;
use ulmt_system::l2_miss_stream_with;
use ulmt_workloads::codec::{decode_lines_into, encode_lines_into};
use ulmt_workloads::{App, WorkloadSpec};

use crate::host::{self, report_peak_rss, CpuTicks, RssGrowth};
use crate::report::Report;
use crate::span::Spans;
use crate::stats::{median, percentile, slow_latency, slow_rate, Ratio};
use crate::Opts;

/// Observations per submitted batch.
const BATCH: usize = 256;
/// Rounds run even when `--seconds` is shorter: enough for
/// `rss.growth_mb`.
const MIN_ROUNDS: usize = host::RSS_MIN_ROUNDS;
/// Repetitions of each per-layer kernel measurement.
const LAYER_REPS: usize = 3;
/// Bound on one network submission's wait for queue space.
const NET_SUBMIT_WAIT: Duration = Duration::from_millis(100);

/// One tenant: its identity, table and observation stream.
#[derive(PartialEq)]
struct Tenant {
    id: u32,
    spec: TenantSpec,
    /// One pass of the stream.
    obs: Vec<LineAddr>,
    /// Passes of `obs` in one round. Replayed, not materialized: a
    /// repeated copy would be a large allocation whose retention by the
    /// allocator varies from run to run and shows in `peak_rss_mb`.
    passes: usize,
}

impl Tenant {
    /// The round's batches, in order.
    fn batches(&self) -> impl Iterator<Item = &[LineAddr]> {
        (0..self.passes).flat_map(move |_| self.obs.chunks(BATCH))
    }

    /// Observations in one round.
    fn round_obs(&self) -> u64 {
        (self.obs.len() * self.passes) as u64
    }
}

/// Builds a tenant's table spec from its row count.
type TableOf = fn(usize) -> TenantSpec;

/// What a workload is made of.
struct Shape {
    /// Scale profile of the miss streams.
    profile: fn() -> Profile,
    /// `(app, table)` per tenant.
    tenants: &'static [(App, TableOf)],
    /// Rows of every tenant's table.
    rows: usize,
    /// Times each tenant's miss stream is repeated in one round.
    passes: usize,
    /// Pending batches allowed per tenant.
    window: usize,
}

const INPROC_LARGE: Shape = Shape {
    profile: Profile::mid,
    tenants: &[
        (App::Mcf, TenantSpec::repl),
        (App::Gap, TenantSpec::chain),
        (App::Mst, TenantSpec::base),
        (App::Tree, TenantSpec::repl),
    ],
    rows: 64 * 1024,
    passes: 1,
    window: 4,
};

/// The network leg of the traced run: the `small` Mcf miss stream, 8 times
/// per round, through one loopback connection to a 1K-row Repl table.
const NET_SMALL: Shape = Shape {
    profile: Profile::small,
    tenants: &[(App::Mcf, TenantSpec::repl)],
    rows: 1024,
    passes: 8,
    window: 4,
};

/// Generates every tenant's input: the L2 miss stream of its application
/// at the bench seed (`--seed 0` is the generator's default seed).
fn generate(shape: &Shape, seed: u64) -> Vec<Tenant> {
    let profile = (shape.profile)();
    shape
        .tenants
        .iter()
        .enumerate()
        .map(|(i, &(app, make))| {
            let spec = profile.workload(app);
            let spec: WorkloadSpec = spec.clone().seed(spec.seed.wrapping_add(seed));
            Tenant {
                id: i as u32 + 1,
                spec: make(shape.rows),
                obs: l2_miss_stream_with(&profile.config, &spec).collect(),
                passes: shape.passes,
            }
        })
        .collect()
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    }
}

/// A [`StepSink`] that only counts prefetches.
#[derive(Default)]
struct CountSink {
    prefetches: u64,
}

impl StepSink for CountSink {
    fn begin(&mut self, _miss: LineAddr) {}
    fn prefetch(&mut self, _addr: LineAddr) {
        self.prefetches += 1;
    }
    fn end(&mut self, _prefetch_insns: u64, _learn_insns: u64) {}
}

/// A tenant's stream replayed offline through the batch kernel, in the
/// service's batch size: the table fingerprint and prefetch count the
/// service must reproduce, and the kernel's host time.
struct Offline {
    fingerprint: u64,
    prefetches: u64,
    wall: Duration,
}

fn offline(t: &Tenant) -> Offline {
    fn replay<A: UlmtAlgorithm>(mut table: A, t: &Tenant) -> (A, u64, Duration) {
        let mut sink = CountSink::default();
        let start = Instant::now();
        for batch in t.batches() {
            table.process_misses(batch, &mut sink);
        }
        (table, sink.prefetches, start.elapsed())
    }
    let (fingerprint, prefetches, wall) = match t.spec.kind {
        TableKind::Base => {
            let (table, p, w) = replay(Base::new(t.spec.params), t);
            (table.table_fingerprint(), p, w)
        }
        TableKind::Chain => {
            let (table, p, w) = replay(Chain::new(t.spec.params), t);
            (table.table_fingerprint(), p, w)
        }
        TableKind::Repl => {
            let (table, p, w) = replay(Replicated::new(t.spec.params), t);
            (table.table_fingerprint(), p, w)
        }
    };
    Offline {
        fingerprint,
        prefetches,
        wall,
    }
}

/// The client side of a closed loop: submit to a tenant, reap the
/// oldest pending reply.
trait Client {
    /// Submits `buf` for tenant index `t`; `Err` hands the batch back
    /// for a retry (queue full or wait bound expired).
    fn submit(
        &mut self,
        t: usize,
        buf: Vec<LineAddr>,
    ) -> Result<Result<(), Vec<LineAddr>>, ServiceError>;
    /// Blocks for the oldest pending reply.
    fn reap(&mut self) -> Result<BatchReply, ServiceError>;
    const SUBMIT_SPAN: &'static str;
    const REAP_SPAN: &'static str;
}

/// In-process sessions; replies are reaped across tenants in global
/// submission order.
struct InProc {
    sessions: Vec<Session>,
    pending: VecDeque<PendingBatch>,
}

impl Client for InProc {
    const SUBMIT_SPAN: &'static str = "service.session.submit";
    const REAP_SPAN: &'static str = "service.pending_batch.wait";

    fn submit(
        &mut self,
        t: usize,
        buf: Vec<LineAddr>,
    ) -> Result<Result<(), Vec<LineAddr>>, ServiceError> {
        let p = self.sessions[t].submit(buf)?;
        self.pending.push_back(p);
        Ok(Ok(()))
    }

    fn reap(&mut self) -> Result<BatchReply, ServiceError> {
        self.pending.pop_front().ok_or(ServiceError::Closed)?.wait()
    }
}

/// One network connection for the workload's single tenant.
struct Net {
    client: NetClient,
}

impl Client for Net {
    const SUBMIT_SPAN: &'static str = "net.client.submit_timeout";
    const REAP_SPAN: &'static str = "net.client.reap";

    fn submit(
        &mut self,
        _t: usize,
        buf: Vec<LineAddr>,
    ) -> Result<Result<(), Vec<LineAddr>>, ServiceError> {
        Ok(match self.client.submit_timeout(buf, NET_SUBMIT_WAIT)? {
            NetSubmit::Enqueued { .. } => Ok(()),
            NetSubmit::Full(b) | NetSubmit::TimedOut(b) => Err(b),
        })
    }

    fn reap(&mut self) -> Result<BatchReply, ServiceError> {
        self.client.reap()
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    /// First submission to last reaped ack.
    wall: Duration,
    /// Share of vCPU time the host stole during `wall`.
    steal: f64,
    /// Median and 90th-percentile submit-to-ack latency, milliseconds.
    ack_p50: f64,
    ack_p90: f64,
    observed: u64,
    batches: u64,
    /// Prefetches returned, per tenant.
    prefetches: Vec<u64>,
    /// Submit-to-ack latency per batch, milliseconds. The raw samples
    /// are kept for the pooled per-layer figures of a traced run only,
    /// so an untraced run's memory does not grow with its round count.
    ack_ms: Vec<f64>,
    /// Time inside each submit call, microseconds.
    submit_us: Vec<f64>,
    /// Time blocked in each reap, microseconds.
    wait_us: Vec<f64>,
    /// Submission attempts, first tries and retries alike.
    attempts: u64,
    /// Attempts that did not end in a learned batch: handed back for a
    /// retry, shed, cancelled or answered with an error.
    failed: u64,
    /// Service-side metrics collected after the round.
    metrics: Option<MetricsReport>,
    /// Per-tenant snapshot host time and encoded size, traced runs only.
    snapshots: Vec<(Duration, u64)>,
}

impl Round {
    fn obs_per_s(&self) -> f64 {
        self.observed as f64 / self.wall.as_secs_f64()
    }

    /// Drops the raw samples once the round's own figures are taken.
    fn forget_samples(&mut self) {
        self.ack_ms = Vec::new();
        self.submit_us = Vec::new();
        self.wait_us = Vec::new();
    }
}

/// A batch submitted and not yet reaped.
struct InFlight {
    tenant: usize,
    /// Span identifier shared by the batch's submit and reap spans.
    id: u64,
    submitted: Instant,
}

/// The client side of one round's closed loop.
struct Flow<'c, C> {
    client: &'c mut C,
    inflight: VecDeque<InFlight>,
    per_tenant: Vec<usize>,
    /// Recycled submission buffers.
    pool: Vec<Vec<LineAddr>>,
}

impl<C: Client> Flow<'_, C> {
    /// Reaps the oldest pending batch and records its ack.
    fn reap_one(&mut self, spans: &mut Spans, round: &mut Round) -> Result<(), ServiceError> {
        let f = self
            .inflight
            .pop_front()
            .expect("reap with nothing in flight");
        let start = Instant::now();
        let client = &mut *self.client;
        let reply = spans.scope(C::REAP_SPAN, f.id, || client.reap())?;
        let now = Instant::now();
        round.wait_us.push((now - start).as_secs_f64() * 1e6);
        round.ack_ms.push((now - f.submitted).as_secs_f64() * 1e3);
        self.per_tenant[f.tenant] -= 1;
        if reply.error.is_some() || reply.shed || reply.cancelled {
            round.failed += 1;
        }
        round.observed += reply.observed;
        round.prefetches[f.tenant] += reply.prefetches.len() as u64;
        round.batches += 1;
        self.pool.push(reply.recycled);
        Ok(())
    }

    /// Submits `batch` for tenant `t`, retrying a handed-back batch after
    /// freeing queue space. Every retry is failed work.
    fn submit(
        &mut self,
        t: usize,
        batch: &[LineAddr],
        id: u64,
        spans: &mut Spans,
        round: &mut Round,
    ) -> Result<(), ServiceError> {
        let mut buf = self.pool.pop().unwrap_or_else(|| Vec::with_capacity(BATCH));
        buf.extend_from_slice(batch);
        let submitted = Instant::now();
        loop {
            round.attempts += 1;
            let start = Instant::now();
            let client = &mut *self.client;
            let outcome = spans.scope(C::SUBMIT_SPAN, id, || client.submit(t, buf))?;
            round.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            match outcome {
                Ok(()) => break,
                Err(back) => {
                    round.failed += 1;
                    buf = back;
                    if !self.inflight.is_empty() {
                        self.reap_one(spans, round)?;
                    }
                }
            }
        }
        self.per_tenant[t] += 1;
        self.inflight.push_back(InFlight {
            tenant: t,
            id,
            submitted,
        });
        Ok(())
    }
}

/// Drives every tenant's stream through `client`, one batch per tenant
/// in turn, and fills `round`.
fn closed_loop<C: Client>(
    client: &mut C,
    tenants: &[Tenant],
    window: usize,
    round_id: u64,
    spans: &mut Spans,
    round: &mut Round,
) -> Result<(), ServiceError> {
    let mut flow = Flow {
        client,
        inflight: VecDeque::new(),
        per_tenant: vec![0; tenants.len()],
        pool: Vec::new(),
    };
    round.prefetches = vec![0; tenants.len()];
    let mut feeds: Vec<_> = tenants.iter().map(Tenant::batches).collect();
    let mut seq = round_id << 32;
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let mut live = true;
    while live {
        live = false;
        for (t, feed) in feeds.iter_mut().enumerate() {
            let Some(batch) = feed.next() else {
                continue;
            };
            live = true;
            while flow.per_tenant[t] >= window {
                flow.reap_one(spans, round)?;
            }
            flow.submit(t, batch, seq, spans, round)?;
            seq += 1;
        }
    }
    while !flow.inflight.is_empty() {
        flow.reap_one(spans, round)?;
    }
    round.wall = start.elapsed();
    round.steal = ticks.map_or(0.0, CpuTicks::steal_share_since);
    let ack = |pct| percentile(&round.ack_ms, pct).map_or(0.0, |p| p.value);
    (round.ack_p50, round.ack_p90) = (ack(50.0), ack(90.0));
    Ok(())
}

/// Checks a round's outputs against the offline replays.
fn check_round(
    report: &mut Report,
    tenants: &[Tenant],
    expected: &[Offline],
    fingerprints: &[u64],
    round: &Round,
) {
    let total: u64 = tenants.iter().map(Tenant::round_obs).sum();
    report.check(round.observed == total, || {
        format!("acked {} observations, submitted {total}", round.observed)
    });
    for ((t, want), (&fp, &prefetches)) in tenants
        .iter()
        .zip(expected)
        .zip(fingerprints.iter().zip(&round.prefetches))
    {
        report.check(fp == want.fingerprint, || {
            format!(
                "tenant {}: fingerprint {fp:016x} != offline replay {:016x}",
                t.id, want.fingerprint
            )
        });
        report.check(prefetches == want.prefetches, || {
            format!(
                "tenant {}: {prefetches} prefetches returned, offline replay gives {}",
                t.id, want.prefetches
            )
        });
    }
}

/// One set-up: input generation plus service start and tenant open,
/// shut down outside the timing. Returns its time and the generated
/// inputs.
fn set_up(report: &mut Report, shape: &Shape, seed: u64) -> Option<(f64, Vec<Tenant>)> {
    let start = Instant::now();
    let tenants = generate(shape, seed);
    let opened = open_inproc(&tenants);
    let secs = start.elapsed().as_secs_f64();
    match opened {
        Ok((service, _)) => {
            service.shutdown();
        }
        Err(e) => {
            report.violation(format!("set-up failed: {e}"));
            return None;
        }
    }
    Some((secs, tenants))
}

fn open_inproc(tenants: &[Tenant]) -> Result<(PrefetchService, Vec<Session>), ServiceError> {
    let service = PrefetchService::start(service_config());
    let sessions = tenants
        .iter()
        .map(|t| service.open(t.id, t.spec))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((service, sessions))
}

fn open_net(tenants: &[Tenant]) -> Result<(NetServer, NetClient), ServiceError> {
    let service = PrefetchService::start(service_config());
    let server = NetServer::bind(service, NetConfig::loopback())?;
    let t = &tenants[0];
    let client = NetClient::connect(server.local_addr(), t.id, t.spec)?;
    Ok((server, client))
}

/// Offline replays of every tenant: the expected outputs, plus the batch
/// kernel's host time per observation.
fn replay_all(tenants: &[Tenant]) -> (Vec<Offline>, f64) {
    let expected: Vec<Offline> = tenants.iter().map(offline).collect();
    let obs: u64 = tenants.iter().map(Tenant::round_obs).sum();
    let wall: Duration = expected.iter().map(|o| o.wall).sum();
    (expected, wall.as_nanos() as f64 / obs as f64)
}

/// One untimed warm-up round, then timed rounds until `--seconds` have
/// passed. A traced run alternates traced and untraced rounds so host
/// drift hits both alike. Every round's work is accounted, the warm-up
/// round's too. `None` if a round failed outright.
fn run_rounds(
    opts: &Opts,
    report: &mut Report,
    spans: &mut Spans,
    mut one: impl FnMut(u64, &mut Spans, &mut Report) -> Option<Round>,
) -> Option<Vec<Round>> {
    let account = |report: &mut Report, r: &Round| {
        report.attempted += r.attempts;
        report.failed += r.failed + r.metrics.as_ref().map_or(0, |m| m.recoveries);
    };
    let warmup = one(0, spans, report)?;
    account(report, &warmup);
    report_peak_rss(report);
    let mut rss = RssGrowth::default();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < opts.measure {
        let traced = opts.trace && rounds.len() % 2 == 1;
        spans.set_enabled(traced);
        let round = one(rounds.len() as u64 + 1, spans, report);
        spans.set_enabled(false);
        let mut round = round?;
        round.traced = traced;
        if !opts.trace {
            round.forget_samples();
        }
        account(report, &round);
        rounds.push(round);
        rss.after_round(report, rounds.len());
    }
    Some(rounds)
}

pub fn run_inproc(opts: &Opts, report: &mut Report, spans: &mut Spans) {
    let shape = &INPROC_LARGE;
    let Some((first, tenants)) = set_up(report, shape, opts.seed) else {
        return;
    };
    let (expected, _) = replay_all(&tenants);
    // Set-up is repeated after every timed round, so its median sees the
    // same host as the rounds do; the inputs must come out identical each
    // time.
    let mut setups = vec![first];

    let rounds = run_rounds(opts, report, spans, |id, spans, report| {
        let (service, sessions) = open_inproc(&tenants)
            .map_err(|e| report.violation(format!("round {id}: open failed: {e}")))
            .ok()?;
        let mut client = InProc {
            sessions,
            pending: VecDeque::new(),
        };
        let mut round = Round::default();
        spans.enter("svc.round", id);
        let outcome = closed_loop(&mut client, &tenants, shape.window, id, spans, &mut round);
        spans.exit();
        let fingerprints = outcome.and_then(|()| service.drain()).and_then(|()| {
            client
                .sessions
                .iter_mut()
                .map(|s| s.fingerprint())
                .collect::<Result<Vec<u64>, _>>()
        });
        match fingerprints {
            Ok(fps) => check_round(report, &tenants, &expected, &fps, &round),
            Err(e) => {
                report.violation(format!("round {id}: {e}"));
                service.shutdown();
                return None;
            }
        }
        round.metrics = service.metrics().ok();
        if opts.trace {
            for s in &mut client.sessions {
                let t = Instant::now();
                match spans.scope("service.session.snapshot", id, || s.snapshot()) {
                    Ok(snap) => round
                        .snapshots
                        .push((t.elapsed(), snap.to_bytes().len() as u64)),
                    Err(e) => report.violation(format!("round {id}: snapshot: {e}")),
                }
            }
        }
        service.shutdown();
        // Not after the warm-up round: `peak_rss_mb` is read before a
        // second copy of the inputs ever exists.
        if id > 0 {
            let (secs, again) = set_up(report, shape, opts.seed)?;
            report.check(again == tenants, || {
                "input generation is not deterministic".to_string()
            });
            setups.push(secs);
        }
        Some(round)
    });
    report.e2e("setup_s", median(&setups), "s");
    if let Some(rounds) = rounds {
        let wire = if opts.trace {
            net_layers(opts, report, spans)
        } else {
            None
        };
        finish(opts, report, spans, &tenants, &rounds, wire);
    }
}

/// The network path, measured per layer in the traced run: one
/// [`NET_SMALL`] round through a loopback `NetClient`, checked against
/// the offline replay every in-process round is checked against too, and
/// the wire codec on in-memory buffers.
fn net_layers(opts: &Opts, report: &mut Report, spans: &mut Spans) -> Option<(f64, f64, u64, u64)> {
    let tenants = generate(&NET_SMALL, opts.seed);
    let (expected, _) = replay_all(&tenants);
    let mut round = Round::default();
    spans.set_enabled(true);
    let outcome = open_net(&tenants).and_then(|(server, client)| {
        let mut net = Net { client };
        let fp = closed_loop(&mut net, &tenants, NET_SMALL.window, 0, spans, &mut round)
            .and_then(|()| net.client.fingerprint());
        net.client.goodbye();
        server.shutdown();
        fp
    });
    spans.set_enabled(false);
    match outcome {
        Ok(fp) => check_round(report, &tenants, &expected, &[fp], &round),
        Err(e) => {
            report.violation(format!("network leg: {e}"));
            return None;
        }
    }
    report.attempted += round.attempts;
    report.failed += round.failed;
    report.layer("net.obs_per_s", round.obs_per_s(), "1/s");
    report.layer("net.ack_p50_ms", round.ack_p50, "ms");
    report.layer("net.ack_p90_ms", round.ack_p90, "ms");
    report.layer("net.submit_us", median(&round.submit_us), "us");
    report.layer("net.wait_us", median(&round.wait_us), "us");
    Some(wire_kernels(&tenants, spans))
}

/// Host time of the wire codec on in-memory buffers, per observation:
/// `(encode, decode, observations, bytes)`. Encode is the line codec
/// plus frame write; decode is frame read plus the line codec.
fn wire_kernels(tenants: &[Tenant], spans: &mut Spans) -> (f64, f64, u64, u64) {
    let tenant = &tenants[0];
    let obs = tenant.round_obs();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = Vec::new();
    spans.set_enabled(true);
    for rep in 0..LAYER_REPS as u64 {
        let mut payload = Vec::with_capacity(BATCH * 8);
        bytes.clear();
        let t = Instant::now();
        spans.scope("wire.encode", rep, || {
            for batch in tenant.batches() {
                payload.clear();
                encode_lines_into(batch, &mut payload);
                write_frame(&mut bytes, FrameKind::Submit, &payload).expect("write to memory");
            }
        });
        enc.push(t.elapsed().as_nanos() as f64 / obs as f64);
        let mut cursor = Cursor::new(&bytes);
        let mut frame = Vec::new();
        let mut lines = Vec::with_capacity(BATCH);
        let mut decoded = 0usize;
        let t = Instant::now();
        spans.scope("wire.decode", rep, || {
            while (cursor.position() as usize) < bytes.len() {
                read_frame_into(&mut cursor, &mut frame, u32::MAX).expect("frame in memory");
                lines.clear();
                decode_lines_into(&frame, &mut lines).expect("whole lines");
                decoded += black_box(lines.len());
            }
        });
        dec.push(t.elapsed().as_nanos() as f64 / obs as f64);
        assert_eq!(decoded as u64, obs, "wire round trip lost observations");
    }
    spans.set_enabled(false);
    (median(&enc), median(&dec), obs, bytes.len() as u64)
}

/// End-to-end metrics from the untraced rounds; per-layer metrics of a
/// traced run.
fn finish(
    opts: &Opts,
    report: &mut Report,
    spans: &mut Spans,
    tenants: &[Tenant],
    rounds: &[Round],
    wire: Option<(f64, f64, u64, u64)>,
) {
    let (untraced, traced) = host::split(rounds, |r| r.traced);
    let med = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let per_round = |f: &dyn Fn(&Round) -> f64| untraced.iter().map(|r| f(r)).collect::<Vec<_>>();
    // Not an end-to-end metric: whole runs land in slow periods of the
    // host's memory system (see README). With a fixed window per tenant a
    // throughput loss shows as latency, which `latency_ms` bounds.
    report.layer(
        "svc.obs_per_s",
        slow_rate(&per_round(&Round::obs_per_s)),
        "1/s",
    );
    // Each round's 90th-percentile submit-to-ack latency, at the slow end
    // of the rounds.
    report.e2e("latency_ms", slow_latency(&per_round(&|r| r.ack_p90)), "ms");
    println!(
        "info  {} rounds ({} measured), {} batches (ack samples) per round, seed {}; obs/s per round: {:.0?}",
        rounds.len(),
        untraced.len(),
        rounds[0].batches,
        opts.seed,
        untraced.iter().map(|r| r.obs_per_s()).collect::<Vec<_>>()
    );
    println!(
        "info  ack p50/p90 ms per round: {:.3?}",
        untraced
            .iter()
            .map(|r| (r.ack_p50, r.ack_p90))
            .collect::<Vec<_>>()
    );
    if !opts.trace {
        return;
    }

    host::report_steal(report, &rounds.iter().map(|r| r.steal).collect::<Vec<_>>());
    report.layer("ack.p50_ms", med(&untraced, &|r| r.ack_p50), "ms");
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        untraced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    if let Some(p99) = percentile(&pooled(&|r| &r.ack_ms), 99.0) {
        report.percentile_ms("ack.p99_ms", p99);
    }
    report.layer("client.submit_us", median(&pooled(&|r| &r.submit_us)), "us");
    report.layer("client.wait_us", median(&pooled(&|r| &r.wait_us)), "us");
    let wall = |rs: &[&Round]| median(&rs.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
    report.layer(
        "trace.overhead_ratio",
        wall(&traced) / wall(&untraced),
        "ratio",
    );
    report.count("trace.rounds", traced.len() as u64);

    // Service-side latency histograms (log2 buckets: upper bounds).
    let shard_us = |f: &dyn Fn(&ulmt_service::ShardMetrics) -> u64| {
        med(&untraced, &|r| {
            r.metrics
                .as_ref()
                .and_then(|m| m.shards.first())
                .map_or(0.0, |s| f(s) as f64 / 1e3)
        })
    };
    report.layer(
        "ingress.queue_wait_us.p50",
        shard_us(&|s| s.queue_wait_nanos.percentile(50)),
        "us",
    );
    report.layer(
        "ingress.queue_wait_us.p99",
        shard_us(&|s| s.queue_wait_nanos.percentile(99)),
        "us",
    );
    report.layer(
        "shard.ingest_us.p50",
        shard_us(&|s| s.ingest_nanos.percentile(50)),
        "us",
    );
    report.layer(
        "shard.ingest_us.p99",
        shard_us(&|s| s.ingest_nanos.percentile(99)),
        "us",
    );

    // The table kernel alone, on the same streams and table sizes.
    spans.set_enabled(true);
    let batch_ns: Vec<f64> = (0..LAYER_REPS as u64)
        .map(|rep| spans.scope("core.process_misses", rep, || replay_all(tenants).1))
        .collect();
    spans.set_enabled(false);
    let batch_ns = median(&batch_ns);
    report.layer("core.batch_ns_per_obs", batch_ns, "ns");

    // Checkpoint cost: one snapshot of every tenant at the end of a
    // round (tables at their fullest, so an upper estimate), times the
    // checkpoints the round's batches trigger, over the round's wall.
    let every = service_config().supervision.checkpoint_every;
    let snap_ms = |r: &Round| {
        r.snapshots
            .iter()
            .map(|s| s.0.as_secs_f64() * 1e3)
            .sum::<f64>()
    };
    let with_snaps: Vec<&Round> = rounds.iter().filter(|r| !r.snapshots.is_empty()).collect();
    if !with_snaps.is_empty() {
        report.layer("checkpoint.snapshot_ms", med(&with_snaps, &snap_ms), "ms");
        report.count(
            "checkpoint.bytes",
            with_snaps[0].snapshots.iter().map(|s| s.1).sum(),
        );
        report.count("checkpoint.count_est", rounds[0].batches / every);
        report.layer(
            "checkpoint.est_share",
            med(&with_snaps, &|r| {
                snap_ms(r) * (r.batches / every) as f64 / (r.wall.as_secs_f64() * 1e3)
            }),
            "frac",
        );
        report.layer(
            "checkpoint.round_wall_ms",
            med(&with_snaps, &|r| r.wall.as_secs_f64() * 1e3),
            "ms",
        );
    }
    if let Some((enc, dec, obs, bytes)) = wire {
        report.layer("wire.encode_ns_per_obs", enc, "ns");
        report.layer("wire.decode_ns_per_obs", dec, "ns");
        report.count("wire.obs", obs);
        report.count("wire.bytes", bytes);
    }

    for (name, t) in spans.self_times() {
        report.layer(
            &format!("self_ms.{name}"),
            t.self_ns as f64 / t.count as f64 / 1e6,
            "ms",
        );
    }

    let first = &rounds[0];
    report.count(
        "shard.recoveries",
        rounds
            .iter()
            .map(|r| r.metrics.as_ref().map_or(0, |m| m.recoveries))
            .sum(),
    );
    report.ratio(
        "prefetch.per_obs",
        Ratio {
            part: first.prefetches.iter().sum(),
            base: first.observed,
        },
    );
}
