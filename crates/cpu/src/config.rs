//! Main-processor parameters (Table 3).

use ulmt_simcore::{ConfigError, Cycle};

/// Timing parameters of the main processor and its cache hierarchy.
///
/// Defaults follow Table 3 of the paper: 6-issue dynamic, 1.6 GHz, 8
/// pending loads; L1 3-cycle hit round trip, L2 19-cycle hit round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions issued per cycle when not stalled.
    pub issue_width: u64,
    /// Run-ahead window in instructions (reorder-buffer size): how far the
    /// processor can slide past an outstanding miss before stalling.
    pub rob_insns: u64,
    /// Maximum simultaneously pending (missing) loads.
    pub max_pending_loads: usize,
    /// L1 hit round-trip latency in cycles.
    pub l1_hit: Cycle,
    /// L2 hit round-trip latency in cycles.
    pub l2_hit: Cycle,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            issue_width: 6,
            rob_insns: 128,
            max_pending_loads: 8,
            l1_hit: 3,
            l2_hit: 19,
        }
    }
}

impl CpuConfig {
    /// Busy cycles needed to execute `insns` instructions at full issue
    /// width (rounded up).
    pub fn busy_cycles(&self, insns: u64) -> Cycle {
        insns.div_ceil(self.issue_width)
    }

    /// Validates the configuration, returning the first invalid parameter
    /// as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("CPU", reason));
        if self.issue_width == 0 {
            return err("issue width must be positive");
        }
        if self.rob_insns == 0 {
            return err("ROB size must be positive");
        }
        if self.max_pending_loads == 0 {
            return err("pending loads must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let c = CpuConfig::default();
        assert!(c.validate().is_ok());
        assert!(CpuConfig {
            issue_width: 0,
            ..c
        }
        .validate()
        .unwrap_err()
        .reason()
        .contains("issue width"));
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.max_pending_loads, 8);
        assert_eq!(c.l1_hit, 3);
        assert_eq!(c.l2_hit, 19);
    }

    #[test]
    fn busy_cycles_round_up() {
        let c = CpuConfig::default();
        assert_eq!(c.busy_cycles(0), 0);
        assert_eq!(c.busy_cycles(1), 1);
        assert_eq!(c.busy_cycles(6), 1);
        assert_eq!(c.busy_cycles(7), 2);
        assert_eq!(c.busy_cycles(600), 100);
    }
}
