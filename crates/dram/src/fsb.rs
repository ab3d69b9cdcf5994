//! Front-side (main memory) bus model.
//!
//! The FSB is split-transaction: the request phase and the data phase
//! occupy the bus separately. Utilization is tracked per traffic class so
//! Figure 11 can attribute the increase to prefetching vs. faster
//! execution.

use ulmt_simcore::trace::BusClass;
use ulmt_simcore::{ConfigError, Cycle, Server, SharedTracer, TraceEvent};

/// Classes of FSB traffic, for the Figure 11 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Demand miss requests and their replies.
    Demand,
    /// Memory-side prefetched lines pushed to the L2 cache.
    Prefetch,
    /// Dirty line write-backs.
    WriteBack,
}

/// FSB timing parameters (Table 3: split-transaction, 8 B, 400 MHz,
/// 3.2 GB/s peak; cycles are 1.6 GHz main-processor cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsbConfig {
    /// Bus occupancy of an address/request phase (one 400 MHz bus cycle).
    pub t_request: Cycle,
    /// Bus occupancy of a 64 B data phase (64 B at 3.2 GB/s = 20 ns = 32
    /// main cycles).
    pub t_data: Cycle,
    /// One-way propagation latency between the processor and the North
    /// Bridge, *not* occupying the bus (pipelined). Chosen so the
    /// contention-free round trip from the main processor matches the
    /// 208/243-cycle figures of Table 3.
    pub t_propagate: Cycle,
}

impl Default for FsbConfig {
    fn default() -> Self {
        // Main-processor round trip = 2 * t_propagate + t_request + t_data
        //   + NB overhead (44) + DRAM row hit (21) = 208
        // => 2 * t_propagate = 208 - 4 - 32 - 44 - 21 = 107 ≈ 2 * 53.
        FsbConfig {
            t_request: 4,
            t_data: 32,
            t_propagate: 53,
        }
    }
}

impl FsbConfig {
    /// Validates the timing parameters: the bus phases must take time (a
    /// zero-occupancy phase would give the bus infinite bandwidth and
    /// break utilization accounting).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("FSB", reason));
        if self.t_request == 0 {
            return err("FSB request phase must take at least one cycle");
        }
        if self.t_data == 0 {
            return err("FSB data phase must take at least one cycle");
        }
        Ok(())
    }
}

/// The front-side bus: a single FCFS resource with per-class accounting.
///
/// # Example
///
/// ```
/// use ulmt_dram::{Fsb, FsbConfig, TrafficClass};
///
/// let mut fsb = Fsb::new(FsbConfig::default());
/// let done = fsb.transfer_data(0, TrafficClass::Demand);
/// assert_eq!(done, 32);
/// assert_eq!(fsb.busy_cycles(TrafficClass::Demand), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Fsb {
    cfg: FsbConfig,
    bus: Server,
    busy_by_class: [Cycle; 3],
    tracer: Option<SharedTracer>,
}

impl Fsb {
    /// Creates an idle bus.
    pub fn new(cfg: FsbConfig) -> Self {
        Fsb {
            cfg,
            bus: Server::new(),
            busy_by_class: [0; 3],
            tracer: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FsbConfig {
        &self.cfg
    }

    /// Installs a shared event tracer: every bus occupancy is then
    /// recorded as a [`TraceEvent::FsbTransfer`].
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Occupies the bus for a request phase arriving at `now`; returns the
    /// time the request has crossed the bus (excluding propagation — add
    /// [`FsbConfig::t_propagate`] for end-to-end latency).
    pub fn transfer_request(&mut self, now: Cycle, class: TrafficClass) -> Cycle {
        self.occupy(now, self.cfg.t_request, class)
    }

    /// Occupies the bus for a 64 B data phase arriving at `now`; returns
    /// the completion time.
    pub fn transfer_data(&mut self, now: Cycle, class: TrafficClass) -> Cycle {
        self.occupy(now, self.cfg.t_data, class)
    }

    fn occupy(&mut self, now: Cycle, duration: Cycle, class: TrafficClass) -> Cycle {
        self.busy_by_class[class_index(class)] += duration;
        if let Some(tracer) = &self.tracer {
            tracer.record(
                now,
                TraceEvent::FsbTransfer {
                    class: bus_class(class),
                    busy: duration,
                },
            );
        }
        self.bus.serve(now, duration)
    }

    /// Busy cycles attributed to one traffic class.
    pub fn busy_cycles(&self, class: TrafficClass) -> Cycle {
        self.busy_by_class[class_index(class)]
    }

    /// Total busy cycles across classes.
    pub fn total_busy_cycles(&self) -> Cycle {
        self.busy_by_class.iter().sum()
    }

    /// Overall utilization over `elapsed` cycles.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.total_busy_cycles() as f64 / elapsed as f64
        }
    }

    /// Utilization attributable to one class over `elapsed` cycles.
    pub fn utilization_of(&self, class: TrafficClass, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles(class) as f64 / elapsed as f64
        }
    }
}

fn class_index(class: TrafficClass) -> usize {
    match class {
        TrafficClass::Demand => 0,
        TrafficClass::Prefetch => 1,
        TrafficClass::WriteBack => 2,
    }
}

/// The tracer's crate-independent mirror of [`TrafficClass`].
fn bus_class(class: TrafficClass) -> BusClass {
    match class {
        TrafficClass::Demand => BusClass::Demand,
        TrafficClass::Prefetch => BusClass::Prefetch,
        TrafficClass::WriteBack => BusClass::WriteBack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_transfers() {
        let mut fsb = Fsb::new(FsbConfig::default());
        let a = fsb.transfer_data(0, TrafficClass::Demand);
        let b = fsb.transfer_data(0, TrafficClass::Prefetch);
        assert_eq!(a, 32);
        assert_eq!(b, 64);
    }

    #[test]
    fn per_class_accounting() {
        let mut fsb = Fsb::new(FsbConfig::default());
        fsb.transfer_data(0, TrafficClass::Demand);
        fsb.transfer_data(0, TrafficClass::Demand);
        fsb.transfer_data(0, TrafficClass::Prefetch);
        fsb.transfer_request(0, TrafficClass::WriteBack);
        assert_eq!(fsb.busy_cycles(TrafficClass::Demand), 64);
        assert_eq!(fsb.busy_cycles(TrafficClass::Prefetch), 32);
        assert_eq!(fsb.busy_cycles(TrafficClass::WriteBack), 4);
        assert_eq!(fsb.total_busy_cycles(), 100);
        assert!((fsb.utilization(1000) - 0.1).abs() < 1e-12);
        assert!((fsb.utilization_of(TrafficClass::Prefetch, 1000) - 0.032).abs() < 1e-12);
    }

    #[test]
    fn contention_free_round_trip_matches_table3() {
        // 2 * propagate + request + data + NB overhead + DRAM row hit = 208.
        let cfg = FsbConfig::default();
        let rt = 2 * cfg.t_propagate + cfg.t_request + cfg.t_data + 44 + 21;
        assert_eq!(rt, 207); // 1 cycle of rounding slack vs. the paper's 208
        let rt_miss = 2 * cfg.t_propagate + cfg.t_request + cfg.t_data + 44 + 56;
        assert_eq!(rt_miss, 242); // vs. the paper's 243
    }
}
