//! The memory-processor execution model.

use ulmt_cache::{Cache, CacheConfig};
use ulmt_core::algorithm::UlmtAlgorithm;
use ulmt_core::cost::{Cost, StepResult};
use ulmt_simcore::stats::Mean;
use ulmt_simcore::{Addr, ConfigError, Cycle, LineAddr, SharedTracer, TraceEvent};

/// Where the memory processor is integrated (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemProcLocation {
    /// Inside a DRAM chip: lowest table-access latency, highest bandwidth
    /// (Table 3: 21/56-cycle round trips, 25.6 GB/s internal bus).
    #[default]
    InDram,
    /// In the North Bridge (memory controller) chip: no DRAM modification
    /// needed, but ~2x the table-access latency (65/100 cycles) and a
    /// 25-cycle delay before prefetch requests reach the DRAM.
    NorthBridge,
}

impl MemProcLocation {
    /// Extra delay a prefetch request suffers before reaching the DRAM
    /// (Table 3: 25 cycles from the North Bridge, none inside the DRAM).
    pub fn prefetch_injection_delay(self) -> Cycle {
        match self {
            MemProcLocation::InDram => 0,
            MemProcLocation::NorthBridge => 25,
        }
    }

    /// Contention-free round-trip latency of a table-memory fetch.
    pub fn fetch_latency(self, row_hit: bool) -> Cycle {
        match (self, row_hit) {
            (MemProcLocation::InDram, true) => 21,
            (MemProcLocation::InDram, false) => 56,
            (MemProcLocation::NorthBridge, true) => 65,
            (MemProcLocation::NorthBridge, false) => 100,
        }
    }

    /// Short label used in reports (Figure 8 calls the North Bridge
    /// variant `ReplMC`).
    pub fn label(self) -> &'static str {
        match self {
            MemProcLocation::InDram => "dram",
            MemProcLocation::NorthBridge => "mc",
        }
    }
}

/// Memory-processor parameters (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemProcConfig {
    /// Where the core sits.
    pub location: MemProcLocation,
    /// Main-processor cycles per retired ULMT instruction. The core is
    /// 2-issue at 800 MHz (half the main clock), so the best case is 1
    /// main cycle per instruction.
    pub cycles_per_insn: Cycle,
    /// Private-cache hit round trip in main-processor cycles (Table 3: 4).
    pub l1_hit: Cycle,
    /// Private-cache geometry.
    pub cache: CacheConfig,
}

impl Default for MemProcConfig {
    fn default() -> Self {
        MemProcConfig {
            location: MemProcLocation::InDram,
            cycles_per_insn: 1,
            l1_hit: 4,
            cache: CacheConfig::memproc_l1(),
        }
    }
}

impl MemProcConfig {
    /// A North Bridge-located memory processor (`ReplMC` in Figure 8).
    pub fn north_bridge() -> Self {
        MemProcConfig {
            location: MemProcLocation::NorthBridge,
            ..Self::default()
        }
    }

    /// Validates the parameters, returning the first invalid one as a
    /// typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cycles_per_insn == 0 {
            return Err(ConfigError::new(
                "memory processor",
                "memory processor cycles/insn must be positive",
            ));
        }
        self.cache.validate().map_err(|e| {
            ConfigError::new(
                "memory processor",
                format!("memory processor cache: {}", e.reason()),
            )
        })
    }
}

/// Source of correlation-table lines on private-cache misses.
///
/// Implemented by the system simulator over its shared DRAM model (so
/// table traffic contends with demand and prefetch traffic), and by
/// [`FixedLatencyMemory`] for stand-alone use.
pub trait TableMemory {
    /// Fetches the cache line containing `addr` at time `now`; returns the
    /// cycle at which the data reaches the memory processor.
    fn fetch(&mut self, addr: Addr, now: Cycle) -> Cycle;
}

/// A contention-free [`TableMemory`] with the paper's row-hit/row-miss
/// latencies and a simple open-row model (one open row, 4 KB).
///
/// # Example
///
/// ```
/// use ulmt_memproc::{FixedLatencyMemory, MemProcLocation, TableMemory};
/// use ulmt_simcore::Addr;
///
/// let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
/// let t1 = mem.fetch(Addr::new(0), 0); // row miss: 56 cycles
/// let t2 = mem.fetch(Addr::new(64), t1); // same row: 21 cycles
/// assert_eq!(t1, 56);
/// assert_eq!(t2, t1 + 21);
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatencyMemory {
    location: MemProcLocation,
    open_row: Option<u64>,
}

impl FixedLatencyMemory {
    /// Creates a memory with all rows closed.
    pub fn new(location: MemProcLocation) -> Self {
        FixedLatencyMemory {
            location,
            open_row: None,
        }
    }
}

impl TableMemory for FixedLatencyMemory {
    fn fetch(&mut self, addr: Addr, now: Cycle) -> Cycle {
        let row = addr.raw() / 4096;
        let hit = self.open_row == Some(row);
        self.open_row = Some(row);
        now + self.location.fetch_latency(hit)
    }
}

/// Outcome of the ULMT processing one observed miss.
#[derive(Debug, Clone)]
pub struct UlmtStep {
    /// Prefetch addresses generated, ready at `response_done`.
    pub prefetches: Vec<LineAddr>,
    /// Cycle at which the prefetch addresses were generated (end of the
    /// Prefetching step).
    pub response_done: Cycle,
    /// Cycle at which the Learning step finished; the ULMT is busy until
    /// then.
    pub occupancy_done: Cycle,
}

/// Aggregate ULMT execution statistics (Figure 10).
#[derive(Debug, Clone, Default)]
pub struct UlmtStats {
    /// Response time per observed miss, in main-processor cycles.
    pub response: Mean,
    /// Occupancy time per observed miss, in main-processor cycles.
    pub occupancy: Mean,
    /// Cycles spent computing (instruction execution).
    pub busy_cycles: Cycle,
    /// Cycles stalled on the private cache / table memory.
    pub mem_cycles: Cycle,
    /// Instructions retired.
    pub insns: u64,
    /// Misses observed (steps executed).
    pub steps: u64,
    /// Observations dropped because the ULMT was still busy and its
    /// observation queue (queue 2) was full.
    pub dropped_observations: u64,
}

impl UlmtStats {
    /// Instructions per *memory-processor* cycle (the core runs at half
    /// the main clock), as printed atop the bars of Figure 10.
    pub fn ipc(&self) -> f64 {
        let total = self.busy_cycles + self.mem_cycles;
        if total == 0 {
            0.0
        } else {
            self.insns as f64 / (total as f64 / 2.0)
        }
    }

    /// Fraction of ULMT time stalled on memory.
    pub fn mem_fraction(&self) -> f64 {
        let total = self.busy_cycles + self.mem_cycles;
        if total == 0 {
            0.0
        } else {
            self.mem_cycles as f64 / total as f64
        }
    }
}

/// A memory processor executing one ULMT.
///
/// # Example
///
/// ```
/// use ulmt_core::AlgorithmSpec;
/// use ulmt_memproc::{FixedLatencyMemory, MemProcConfig, MemProcessor, MemProcLocation};
/// use ulmt_simcore::LineAddr;
///
/// let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::repl(1024).build());
/// let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         let now = mp.busy_until();
///         mp.process(LineAddr::new(n), now, &mut mem);
///     }
/// }
/// let step = mp.process(LineAddr::new(1), mp.busy_until(), &mut mem);
/// assert!(step.prefetches.contains(&LineAddr::new(2)));
/// assert!(step.response_done < step.occupancy_done);
/// ```
pub struct MemProcessor {
    cfg: MemProcConfig,
    algorithm: Box<dyn UlmtAlgorithm>,
    cache: Cache,
    busy_until: Cycle,
    stats: UlmtStats,
    tracer: Option<SharedTracer>,
    /// The step being replayed, its buffers reused across observations.
    step: StepResult,
}

impl std::fmt::Debug for MemProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemProcessor")
            .field("algorithm", &self.algorithm.name())
            .field("location", &self.cfg.location)
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

impl MemProcessor {
    /// Creates a memory processor running `algorithm`.
    pub fn new(cfg: MemProcConfig, algorithm: Box<dyn UlmtAlgorithm>) -> Self {
        MemProcessor {
            cache: Cache::new(cfg.cache),
            cfg,
            algorithm,
            busy_until: 0,
            stats: UlmtStats::default(),
            tracer: None,
            step: StepResult::new(),
        }
    }

    /// Installs a shared event tracer: every processed observation is then
    /// recorded as a [`TraceEvent::UlmtStep`] carrying the same response
    /// and occupancy durations that feed the Figure 10 means.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// The configuration.
    pub fn config(&self) -> &MemProcConfig {
        &self.cfg
    }

    /// Name of the algorithm being run.
    pub fn algorithm_name(&self) -> String {
        self.algorithm.name()
    }

    /// The algorithm itself (for customization calls such as page
    /// re-mapping).
    pub fn algorithm_mut(&mut self) -> &mut dyn UlmtAlgorithm {
        self.algorithm.as_mut()
    }

    /// Cycle until which the thread is busy with the previous observation.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Returns `true` if the thread can accept a new observation at `now`.
    pub fn is_idle_at(&self, now: Cycle) -> bool {
        self.busy_until <= now
    }

    /// Execution statistics.
    pub fn stats(&self) -> &UlmtStats {
        &self.stats
    }

    /// Records that an observation had to be dropped (queue 2 overflow).
    pub fn record_dropped_observation(&mut self) {
        self.stats.dropped_observations += 1;
    }

    /// Executes the Prefetching + Learning steps for `miss`, starting at
    /// `now` (which must be ≥ [`MemProcessor::busy_until`]; the caller
    /// serializes observations).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if called while still busy.
    pub fn process(&mut self, miss: LineAddr, now: Cycle, mem: &mut dyn TableMemory) -> UlmtStep {
        debug_assert!(
            now >= self.busy_until,
            "ULMT is busy until {}",
            self.busy_until
        );
        let mut step = std::mem::take(&mut self.step);
        step.clear();
        self.algorithm.step(miss, &mut step);

        let mut t = now;
        self.replay_cost(&step.prefetch_cost, &mut t, mem);
        let response_done = t;
        self.replay_cost(&step.learn_cost, &mut t, mem);
        let occupancy_done = t;

        self.busy_until = occupancy_done;
        self.stats.steps += 1;
        self.stats.insns += step.total_insns();
        self.stats.response.add((response_done - now) as f64);
        self.stats.occupancy.add((occupancy_done - now) as f64);
        if let Some(tracer) = &self.tracer {
            tracer.record(
                now,
                TraceEvent::UlmtStep {
                    line: miss,
                    response: response_done - now,
                    occupancy: occupancy_done - now,
                },
            );
        }

        let prefetches = std::mem::take(&mut step.prefetches);
        self.step = step;
        UlmtStep {
            prefetches,
            response_done,
            occupancy_done,
        }
    }

    /// Hands back a consumed [`UlmtStep::prefetches`] buffer, so the next
    /// step fills it instead of allocating a fresh one.
    pub fn recycle(&mut self, mut prefetches: Vec<LineAddr>) {
        if prefetches.capacity() > self.step.prefetches.capacity() {
            prefetches.clear();
            self.step.prefetches = prefetches;
        }
    }

    /// Replays one phase's cost against the clock and the private cache.
    fn replay_cost(&mut self, cost: &Cost, t: &mut Cycle, mem: &mut dyn TableMemory) {
        let busy = cost.insns * self.cfg.cycles_per_insn;
        *t += busy;
        self.stats.busy_cycles += busy;
        let line_size = self.cfg.cache.line_size;
        for touch in &cost.table_touches {
            let first = touch.addr.line(line_size).raw();
            let last = touch
                .addr
                .offset(touch.bytes.max(1) as i64 - 1)
                .line(line_size)
                .raw();
            for lineno in first..=last {
                let line = LineAddr::new(lineno);
                let before = *t;
                // The in-order core waits out every miss, so the line is
                // installed as soon as it is fetched.
                if self.cache.access_install(line, touch.is_write) {
                    *t += self.cfg.l1_hit;
                } else {
                    *t = mem.fetch(line.byte_addr(line_size), *t);
                }
                self.stats.mem_cycles += *t - before;
                // Drain any write-backs (they only cost bandwidth, modeled
                // by the TableMemory implementation if it cares).
                while self.cache.writeback_queue_mut().pop().is_some() {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_core::AlgorithmSpec;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn run_steps(mp: &mut MemProcessor, mem: &mut dyn TableMemory, seq: &[u64], reps: usize) {
        for _ in 0..reps {
            for &n in seq {
                let now = mp.busy_until();
                mp.process(line(n), now, mem);
            }
        }
    }

    #[test]
    fn a_recycled_prefetch_buffer_is_reused() {
        let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::repl(1024).build());
        let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
        run_steps(&mut mp, &mut mem, &[1, 2, 3], 2);
        mp.recycle(Vec::with_capacity(1000));
        let step = mp.process(line(1), mp.busy_until(), &mut mem);
        assert!(step.prefetches.contains(&line(2)));
        assert!(
            step.prefetches.capacity() >= 1000,
            "the step filled the recycled buffer"
        );
    }

    #[test]
    fn response_precedes_occupancy() {
        let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::repl(1024).build());
        let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
        let step = mp.process(line(5), 0, &mut mem);
        assert!(step.response_done <= step.occupancy_done);
        assert!(step.occupancy_done > 0);
        assert_eq!(mp.busy_until(), step.occupancy_done);
    }

    #[test]
    fn repl_response_is_low_and_occupancy_under_200() {
        // Figure 6/10 viability: occupancy must stay under ~200 cycles so
        // the ULMT keeps up with back-to-back dependent misses.
        let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::repl(4096).build());
        let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
        let seq: Vec<u64> = (0..32).map(|i| i * 37 + 3).collect();
        run_steps(&mut mp, &mut mem, &seq, 6);
        let stats = mp.stats();
        assert!(
            stats.occupancy.mean() < 200.0,
            "occupancy {}",
            stats.occupancy.mean()
        );
        assert!(
            stats.response.mean() < 100.0,
            "response {}",
            stats.response.mean()
        );
    }

    #[test]
    fn chain_response_exceeds_repl() {
        let seq: Vec<u64> = (0..32).map(|i| i * 37 + 3).collect();
        let run = |spec: AlgorithmSpec| {
            let mut mp = MemProcessor::new(MemProcConfig::default(), spec.build());
            let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
            run_steps(&mut mp, &mut mem, &seq, 6);
            mp.stats().response.mean()
        };
        let chain = run(AlgorithmSpec::chain(4096));
        let repl = run(AlgorithmSpec::repl(4096));
        assert!(chain > repl, "chain {chain} vs repl {repl}");
    }

    #[test]
    fn north_bridge_roughly_doubles_response() {
        // Use a working set larger than the 32 KB private cache so table
        // reads actually reach the (location-dependent) memory.
        let seq: Vec<u64> = (0..3000).map(|i| i * 37 + 3).collect();
        let run = |cfg: MemProcConfig| {
            let mut mp = MemProcessor::new(cfg, AlgorithmSpec::repl(4096).build());
            let mut mem = FixedLatencyMemory::new(cfg.location);
            run_steps(&mut mp, &mut mem, &seq, 6);
            mp.stats().response.mean()
        };
        let dram = run(MemProcConfig::default());
        let nb = run(MemProcConfig::north_bridge());
        assert!(nb > dram * 1.3, "nb {nb} vs dram {dram}");
    }

    #[test]
    fn cache_reuse_lowers_learning_cost() {
        // Replicated's learning touches rows that were updated recently,
        // so the private cache should show a healthy hit rate.
        let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::repl(1024).build());
        let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
        let seq: Vec<u64> = (0..8).collect();
        run_steps(&mut mp, &mut mem, &seq, 16);
        let s = mp.stats();
        assert!(s.mem_fraction() < 0.8, "mem fraction {}", s.mem_fraction());
        assert!(s.ipc() > 0.2, "ipc {}", s.ipc());
    }

    #[test]
    fn dropped_observation_counter() {
        let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::seq1().build());
        mp.record_dropped_observation();
        mp.record_dropped_observation();
        assert_eq!(mp.stats().dropped_observations, 2);
    }

    #[test]
    fn idle_tracking() {
        let mut mp = MemProcessor::new(MemProcConfig::default(), AlgorithmSpec::seq1().build());
        let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
        assert!(mp.is_idle_at(0));
        let step = mp.process(line(1), 0, &mut mem);
        assert!(!mp.is_idle_at(step.occupancy_done - 1));
        assert!(mp.is_idle_at(step.occupancy_done));
    }
}
