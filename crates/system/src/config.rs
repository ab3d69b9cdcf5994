//! Whole-system configuration (Table 3).

use ulmt_cache::CacheConfig;
use ulmt_cpu::CpuConfig;
use ulmt_dram::{DramConfig, FsbConfig};
use ulmt_memproc::MemProcConfig;
use ulmt_simcore::Cycle;

use crate::error::ConfigError;

/// Fixed pipeline latencies along the miss path, chosen so the
/// contention-free round trip from the main processor matches Table 3:
/// 208 cycles on a DRAM row hit and 243 on a row miss.
///
/// `l2_lookup + fsb_request + fsb_propagate + nb_to_dram + row_hit(21)
///  + channel_transfer(64) + nb_to_dram + fsb_propagate + fsb_data(32)
///  + deliver = 12+4+25+11+21+64+11+25+32+3 = 208`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLatencies {
    /// L1 + L2 lookup time before a miss request leaves the chip.
    pub l2_lookup: Cycle,
    /// One-way FSB propagation (pipelined, not occupying the bus).
    pub fsb_propagate: Cycle,
    /// One-way North Bridge ↔ DRAM interface latency.
    pub nb_to_dram: Cycle,
    /// Reply delivery from the L2 to the core.
    pub deliver: Cycle,
}

impl Default for PathLatencies {
    fn default() -> Self {
        PathLatencies {
            l2_lookup: 12,
            fsb_propagate: 25,
            nb_to_dram: 11,
            deliver: 3,
        }
    }
}

/// Depths of the Figure 3 queues (Table 3: "Depth of queues 1 through 6:
/// 16").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepths {
    /// Queue 1: demand requests waiting for DRAM dispatch.
    pub demand: usize,
    /// Queue 2: miss observations waiting for the ULMT.
    pub observation: usize,
    /// Queue 3: ULMT prefetch requests waiting for DRAM dispatch.
    pub prefetch: usize,
}

impl Default for QueueDepths {
    fn default() -> Self {
        QueueDepths {
            demand: 16,
            observation: 16,
            prefetch: 16,
        }
    }
}

/// The full simulated machine (Table 3 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Main processor.
    pub cpu: CpuConfig,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 data cache.
    pub l2: CacheConfig,
    /// Front-side bus.
    pub fsb: FsbConfig,
    /// DRAM geometry and timing.
    pub dram: DramConfig,
    /// Memory processor (location can be overridden by the scheme).
    pub memproc: MemProcConfig,
    /// Fixed path latencies.
    pub path: PathLatencies,
    /// Queue depths.
    pub queues: QueueDepths,
    /// Filter module capacity (Table 3: 32 entries, FIFO).
    pub filter_entries: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cpu: CpuConfig::default(),
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            fsb: FsbConfig::default(),
            dram: DramConfig::default(),
            memproc: MemProcConfig::default(),
            path: PathLatencies::default(),
            queues: QueueDepths::default(),
            filter_entries: 32,
        }
    }
}

impl SystemConfig {
    /// A machine with scaled-down caches (2 KB L1, 32 KB L2) for fast
    /// tests and examples: workloads shrunk with
    /// [`WorkloadSpec::scale`](../../workloads/spec/struct.WorkloadSpec.html#method.scale)
    /// still exceed the L2, so the miss behavior of the full-size system
    /// is preserved at a fraction of the runtime.
    pub fn small() -> Self {
        let mut cfg = SystemConfig::default();
        cfg.l1 = CacheConfig {
            size_bytes: 2 * 1024,
            ..cfg.l1
        };
        cfg.l2 = CacheConfig {
            size_bytes: 32 * 1024,
            ..cfg.l2
        };
        cfg
    }

    /// Validates the whole configuration, returning the first structural
    /// problem found as a typed [`ConfigError`].
    ///
    /// Every simulator constructor calls this up front, so an inconsistent
    /// configuration surfaces as one descriptive error instead of a panic
    /// (or a deadlock) deep inside a component.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queues.demand == 0 {
            return Err(ConfigError::ZeroQueueDepth { queue: "demand" });
        }
        if self.queues.observation == 0 {
            return Err(ConfigError::ZeroQueueDepth {
                queue: "observation",
            });
        }
        if self.queues.prefetch == 0 {
            return Err(ConfigError::ZeroQueueDepth { queue: "prefetch" });
        }
        if self.filter_entries == 0 {
            return Err(ConfigError::ZeroFilterEntries);
        }
        self.cpu.validate().map_err(|e| ConfigError::Cpu {
            reason: e.into_reason(),
        })?;
        self.l1.validate().map_err(|e| ConfigError::Cache {
            which: "L1",
            reason: e.into_reason(),
        })?;
        self.l2.validate().map_err(|e| ConfigError::Cache {
            which: "L2",
            reason: e.into_reason(),
        })?;
        self.dram.validate().map_err(|e| ConfigError::Dram {
            reason: e.into_reason(),
        })?;
        self.fsb.validate().map_err(|e| ConfigError::Fsb {
            reason: e.into_reason(),
        })?;
        self.memproc.validate().map_err(|e| ConfigError::MemProc {
            reason: e.into_reason(),
        })?;
        for (which, latency) in [
            ("l2_lookup", self.path.l2_lookup),
            ("fsb_propagate", self.path.fsb_propagate),
            ("nb_to_dram", self.path.nb_to_dram),
            ("deliver", self.path.deliver),
        ] {
            if latency == 0 {
                return Err(ConfigError::InconsistentPathLatency { which });
            }
        }
        Ok(())
    }

    /// Contention-free demand round trip on a DRAM row hit, for
    /// validation against Table 3's 208 cycles.
    pub fn round_trip_row_hit(&self) -> Cycle {
        self.path.l2_lookup
            + self.fsb.t_request
            + self.path.fsb_propagate
            + self.path.nb_to_dram
            + self.dram.t_row_hit
            + self.dram.t_transfer
            + self.path.nb_to_dram
            + self.path.fsb_propagate
            + self.fsb.t_data
            + self.path.deliver
    }

    /// Contention-free demand round trip on a DRAM row miss (Table 3:
    /// 243 cycles).
    pub fn round_trip_row_miss(&self) -> Cycle {
        self.round_trip_row_hit() + (self.dram.t_row_miss - self.dram.t_row_hit)
    }

    /// Renders the configuration as the rows of Table 3.
    pub fn table3(&self) -> String {
        let mut s = String::new();
        s.push_str("PROCESSOR\n");
        s.push_str(&format!(
            "  Main: {}-issue dynamic, 1.6 GHz; pending loads {}; ROB {} insns\n",
            self.cpu.issue_width, self.cpu.max_pending_loads, self.cpu.rob_insns
        ));
        s.push_str("  Memory proc: 2-issue dynamic, 800 MHz (1 main cycle/insn best case)\n");
        s.push_str("MEMORY\n");
        s.push_str(&format!(
            "  L1: {} KB, {}-way, {}-B line, {}-cycle hit RT\n",
            self.l1.size_bytes / 1024,
            self.l1.assoc,
            self.l1.line_size,
            self.cpu.l1_hit
        ));
        s.push_str(&format!(
            "  L2: {} KB, {}-way, {}-B line, {}-cycle hit RT, {} MSHRs\n",
            self.l2.size_bytes / 1024,
            self.l2.assoc,
            self.l2.line_size,
            self.cpu.l2_hit,
            self.l2.mshrs
        ));
        s.push_str(&format!(
            "  RT memory latency: {} cycles (row miss), {} (row hit)\n",
            self.round_trip_row_miss(),
            self.round_trip_row_hit()
        ));
        s.push_str(&format!(
            "  Memory proc L1: {} KB, {}-way, {}-B line, {}-cycle hit RT\n",
            self.memproc.cache.size_bytes / 1024,
            self.memproc.cache.assoc,
            self.memproc.cache.line_size,
            self.memproc.l1_hit
        ));
        s.push_str("  Memory proc RT latency: in NB 100/65 cycles, in DRAM 56/21 (row miss/hit)\n");
        s.push_str(&format!(
            "  DRAM: {} channels x {} banks, {}-B rows; transfer {} cycles/line\n",
            self.dram.channels,
            self.dram.banks_per_channel,
            self.dram.row_bytes,
            self.dram.t_transfer
        ));
        s.push_str("OTHER\n");
        s.push_str(&format!(
            "  Queues 1-3 depth: {}/{}/{}; Filter: {} entries, FIFO\n",
            self.queues.demand, self.queues.observation, self.queues.prefetch, self.filter_entries
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_match_table3() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.round_trip_row_hit(), 208);
        assert_eq!(cfg.round_trip_row_miss(), 243);
    }

    #[test]
    fn validate_accepts_table3_and_small() {
        assert_eq!(SystemConfig::default().validate(), Ok(()));
        assert_eq!(SystemConfig::small().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_zero_queue() {
        for (queue, cfg) in [
            (
                "demand",
                SystemConfig {
                    queues: QueueDepths {
                        demand: 0,
                        ..QueueDepths::default()
                    },
                    ..SystemConfig::default()
                },
            ),
            (
                "observation",
                SystemConfig {
                    queues: QueueDepths {
                        observation: 0,
                        ..QueueDepths::default()
                    },
                    ..SystemConfig::default()
                },
            ),
            (
                "prefetch",
                SystemConfig {
                    queues: QueueDepths {
                        prefetch: 0,
                        ..QueueDepths::default()
                    },
                    ..SystemConfig::default()
                },
            ),
        ] {
            assert_eq!(cfg.validate(), Err(ConfigError::ZeroQueueDepth { queue }));
        }
    }

    #[test]
    fn checked_accepts_valid_and_panics_with_message() {
        // The panicking constructor reports the `validate` message.
        assert!(SystemConfig::default().validate().is_ok());
        let spec = ulmt_workloads::WorkloadSpec::new(ulmt_workloads::App::Tree);
        let result = std::panic::catch_unwind(|| {
            let cfg = SystemConfig {
                filter_entries: 0,
                ..SystemConfig::default()
            };
            crate::SystemSim::new(cfg, &spec, crate::PrefetchScheme::NoPref);
        });
        let msg = *result.unwrap_err().downcast::<String>().expect("panic msg");
        assert!(msg.contains("Filter"), "{msg}");
    }

    #[test]
    fn validate_rejects_zero_filter() {
        let cfg = SystemConfig {
            filter_entries: 0,
            ..SystemConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroFilterEntries));
    }

    #[test]
    fn validate_rejects_bad_cache_geometry() {
        let mut cfg = SystemConfig::default();
        cfg.l2 = ulmt_cache::CacheConfig { assoc: 0, ..cfg.l2 };
        match cfg.validate() {
            Err(ConfigError::Cache {
                which: "L2",
                reason,
            }) => {
                assert!(reason.contains("associativity"), "{reason}");
            }
            other => panic!("expected L2 cache error, got {other:?}"),
        }
        let mut cfg = SystemConfig::default();
        cfg.l1 = ulmt_cache::CacheConfig {
            line_size: 48,
            ..cfg.l1
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::Cache { which: "L1", .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_cpu_dram_fsb_memproc() {
        let mut cfg = SystemConfig::default();
        cfg.cpu.issue_width = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::Cpu { .. })));

        let mut cfg = SystemConfig::default();
        cfg.dram.t_row_hit = cfg.dram.t_row_miss + 1;
        assert!(matches!(cfg.validate(), Err(ConfigError::Dram { .. })));

        let mut cfg = SystemConfig::default();
        cfg.fsb.t_data = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::Fsb { .. })));

        let mut cfg = SystemConfig::default();
        cfg.memproc.cycles_per_insn = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::MemProc { .. })));
    }

    #[test]
    fn validate_rejects_inconsistent_path_latencies() {
        let mut cfg = SystemConfig::default();
        cfg.path.nb_to_dram = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InconsistentPathLatency {
                which: "nb_to_dram"
            })
        );
        let mut cfg = SystemConfig::default();
        cfg.path.deliver = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InconsistentPathLatency { which: "deliver" })
        ));
    }

    #[test]
    fn table3_rendering_mentions_key_values() {
        let text = SystemConfig::default().table3();
        assert!(text.contains("512 KB"));
        assert!(text.contains("6-issue"));
        assert!(text.contains("208"));
        assert!(text.contains("243"));
        assert!(text.contains("Filter: 32 entries"));
    }
}
