//! Banked DRAM with open-row policy.

use ulmt_simcore::{ConfigError, Cycle, LineAddr};

/// DRAM geometry and timing (Table 3 of the paper; cycles are 1.6 GHz
/// main-processor cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels (Table 3: dual channel).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Core access latency on a row-buffer hit.
    pub t_row_hit: Cycle,
    /// Core access latency on a row-buffer miss (includes activation,
    /// ~tRAC).
    pub t_row_miss: Cycle,
    /// Channel occupancy to transfer one 64 B line to/from an external
    /// requester (each channel is 2 B @ 800 MHz = 1.6 GB/s, so 64 B takes
    /// 40 ns = 64 main cycles).
    pub t_transfer: Cycle,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 4096,
            t_row_hit: 21,
            t_row_miss: 56,
            t_transfer: 64,
        }
    }
}

impl DramConfig {
    /// Total number of banks.
    pub fn num_banks(&self) -> usize {
        self.channels * self.banks_per_channel
    }

    /// Validates the geometry, returning the first inconsistency found as
    /// a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("DRAM", reason));
        if !self.channels.is_power_of_two() {
            return err("channel count must be a power of two");
        }
        if !self.banks_per_channel.is_power_of_two() {
            return err("bank count must be a power of two");
        }
        if !self.row_bytes.is_power_of_two() {
            return err("row size must be a power of two");
        }
        if self.t_row_miss < self.t_row_hit {
            return err("row miss cannot be faster than row hit");
        }
        if self.t_transfer == 0 {
            return err("channel transfer time must be positive");
        }
        Ok(())
    }
}

/// Outcome of one DRAM core access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Core latency (row hit or miss), excluding channel transfer.
    pub latency: Cycle,
    /// `true` if the access hit in the open row.
    pub row_hit: bool,
    /// Channel the line maps to.
    pub channel: usize,
}

/// Counters for DRAM behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStats {
    /// Total accesses.
    pub accesses: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
}

impl DramStats {
    /// Fraction of accesses that hit the open row.
    pub fn row_hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

/// Banked DRAM with one open row per bank.
///
/// Consecutive lines interleave across channels (for bandwidth), then
/// across banks, so sequential streams enjoy row hits while random traffic
/// mostly misses — reproducing the 208 vs 243-cycle split of Table 3.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// Open row per bank, `None` when closed (cold).
    open_rows: Vec<Option<u64>>,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM with all rows closed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Dram {
            open_rows: vec![None; cfg.num_banks()],
            cfg,
            stats: DramStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Channel index the line maps to.
    pub fn channel_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.cfg.channels - 1)
    }

    /// Performs one core access: updates the bank's open row and returns
    /// the resulting latency. Channel occupancy is accounted separately by
    /// the memory controller.
    pub fn access(&mut self, line: LineAddr) -> DramAccess {
        let channel = self.channel_of(line);
        let within_channel = line.raw() >> self.cfg.channels.trailing_zeros();
        let bank_in_channel = (within_channel as usize) & (self.cfg.banks_per_channel - 1);
        let bank = channel * self.cfg.banks_per_channel + bank_in_channel;
        let lines_per_row = self.cfg.row_bytes / LineAddr::L2_LINE;
        let row = (within_channel >> self.cfg.banks_per_channel.trailing_zeros()) / lines_per_row;

        let row_hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        self.stats.accesses += 1;
        if row_hit {
            self.stats.row_hits += 1;
        }
        DramAccess {
            latency: if row_hit {
                self.cfg.t_row_hit
            } else {
                self.cfg.t_row_miss
            },
            row_hit,
            channel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_misses_then_hits() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.access(LineAddr::new(0));
        assert!(!a.row_hit);
        assert_eq!(a.latency, 56);
        let b = d.access(LineAddr::new(0));
        assert!(b.row_hit);
        assert_eq!(b.latency, 21);
    }

    #[test]
    fn channel_interleaving_by_line() {
        let d = Dram::new(DramConfig::default());
        assert_eq!(d.channel_of(LineAddr::new(0)), 0);
        assert_eq!(d.channel_of(LineAddr::new(1)), 1);
        assert_eq!(d.channel_of(LineAddr::new(2)), 0);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Two lines in the same channel and bank but different rows.
        let lines_per_row = cfg.row_bytes / 64;
        let stride = (cfg.channels as u64) * (cfg.banks_per_channel as u64) * lines_per_row;
        let a = LineAddr::new(0);
        let b = LineAddr::new(stride);
        d.access(a);
        let hit_a = d.access(a);
        assert!(hit_a.row_hit);
        let miss_b = d.access(b);
        assert!(!miss_b.row_hit);
        // And the row buffer now holds b's row.
        let back_to_a = d.access(a);
        assert!(!back_to_a.row_hit);
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut d = Dram::new(DramConfig::default());
        for i in 0..1024u64 {
            d.access(LineAddr::new(i));
        }
        // 16 banks cold + occasional row crossings; overwhelmingly hits.
        assert!(
            d.stats().row_hit_ratio() > 0.9,
            "ratio {}",
            d.stats().row_hit_ratio()
        );
    }

    #[test]
    fn stats_count() {
        let mut d = Dram::new(DramConfig::default());
        d.access(LineAddr::new(0));
        d.access(LineAddr::new(0));
        assert_eq!(d.stats().accesses, 2);
        assert_eq!(d.stats().row_hits, 1);
    }
}
