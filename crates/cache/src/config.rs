//! Cache geometry configuration.

use ulmt_simcore::ConfigError;

/// Geometry and resource limits of one cache.
///
/// The defaults mirror Table 3 of the paper; see [`CacheConfig::l1`],
/// [`CacheConfig::l2`] and [`CacheConfig::memproc_l1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Number of Miss Status Handling Registers.
    pub mshrs: usize,
    /// Capacity of the write-back queue in lines.
    pub wb_capacity: usize,
}

impl CacheConfig {
    /// Main processor L1 data cache: 16 KB, 2-way, 32 B lines (Table 3).
    pub fn l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            assoc: 2,
            line_size: 32,
            mshrs: 16,
            wb_capacity: 8,
        }
    }

    /// Main processor L2 data cache: 512 KB, 4-way, 64 B lines (Table 3).
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            assoc: 4,
            line_size: 64,
            mshrs: 16,
            wb_capacity: 16,
        }
    }

    /// Memory processor L1 data cache: 32 KB, 2-way, 32 B lines (Table 3).
    pub fn memproc_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_size: 32,
            mshrs: 4,
            wb_capacity: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.line_size * self.assoc as u64)) as usize
    }

    /// Total number of lines the cache can hold.
    pub fn num_lines(&self) -> usize {
        self.num_sets() * self.assoc
    }

    /// Validates the geometry, returning the first inconsistency found as
    /// a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("cache", reason));
        if !self.line_size.is_power_of_two() {
            return err("line size must be a power of two");
        }
        if self.assoc == 0 {
            return err("associativity must be positive");
        }
        if self.mshrs == 0 {
            return err("MSHR count must be positive");
        }
        let set_bytes = self.line_size * self.assoc as u64;
        if !self.size_bytes.is_multiple_of(set_bytes) {
            return err("capacity must be a whole number of sets");
        }
        if self.num_sets() == 0 || !self.num_sets().is_power_of_two() {
            return err("set count must be a power of two");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_geometries() {
        let l1 = CacheConfig::l1();
        assert!(l1.validate().is_ok());
        assert_eq!(l1.num_sets(), 256);
        assert_eq!(l1.num_lines(), 512);

        let l2 = CacheConfig::l2();
        assert!(l2.validate().is_ok());
        assert_eq!(l2.num_sets(), 2048);
        assert_eq!(l2.num_lines(), 8192);

        let mp = CacheConfig::memproc_l1();
        assert!(mp.validate().is_ok());
        assert_eq!(mp.num_sets(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        crate::Cache::new(CacheConfig {
            line_size: 48,
            ..CacheConfig::l1()
        });
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn rejects_ragged_capacity() {
        crate::Cache::new(CacheConfig {
            size_bytes: 1000,
            ..CacheConfig::l1()
        });
    }

    #[test]
    fn validate_reports_without_panicking() {
        assert!(CacheConfig::l2().validate().is_ok());
        let zero_ways = CacheConfig {
            assoc: 0,
            ..CacheConfig::l1()
        };
        let e = zero_ways.validate().unwrap_err();
        assert_eq!(e.component(), "cache");
        assert!(e.reason().contains("associativity"));
        let zero_sets = CacheConfig {
            size_bytes: 0,
            ..CacheConfig::l1()
        };
        assert!(zero_sets
            .validate()
            .unwrap_err()
            .reason()
            .contains("power of two"));
        let zero_mshrs = CacheConfig {
            mshrs: 0,
            ..CacheConfig::l1()
        };
        assert!(zero_mshrs.validate().unwrap_err().reason().contains("MSHR"));
    }
}
