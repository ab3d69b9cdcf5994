//! Correlation tables: shared storage plus the Base, Chain and Replicated
//! algorithms (Figure 4 of the paper).
//!
//! The table is a plain software data structure: `NumRows` rows organized
//! in `NumRows / Assoc` sets, indexed by a trivial hash (the low bits of
//! the miss line address) and tagged with the full line address — exactly
//! the structure the paper sizes in Table 2 (20 / 12 / 28 bytes per row
//! for Base / Chain / Replicated on a 32-bit machine).

mod base;
mod chain;
mod correlation;
mod replicated;
mod snapshot;
mod storage;

use ulmt_simcore::ConfigError;

pub use base::Base;
pub use chain::Chain;
pub use correlation::{BaseKind, ChainKind, CorrelationTable, Kind, ReplKind};
pub use replicated::Replicated;
pub use snapshot::{RowSnapshot, SnapshotError, TableSnapshot};
pub use storage::{AllocKind, MruList, RowPtr, RowRef, RowTable, TableStats};

/// Which correlation algorithm a table runs (Figure 4). The code is the
/// one stable tag both the `ULMTSNAP` snapshot format and the service's
/// wire protocol carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// The conventional one-level table ([`Base`]).
    Base,
    /// Multi-level walking of the conventional table ([`Chain`]).
    Chain,
    /// The paper's Replicated table ([`Replicated`]).
    Repl,
}

impl TableKind {
    /// Stable one-byte tag.
    pub fn code(self) -> u8 {
        match self {
            TableKind::Base => 0,
            TableKind::Chain => 1,
            TableKind::Repl => 2,
        }
    }

    /// The kind tagged `code`, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(TableKind::Base),
            1 => Some(TableKind::Chain),
            2 => Some(TableKind::Repl),
            _ => None,
        }
    }

    /// Human-readable name (matches the algorithms' `name()`).
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Base => "base",
            TableKind::Chain => "chain",
            TableKind::Repl => "repl",
        }
    }

    /// Validates `params` for this algorithm: the geometry must be
    /// consistent ([`TableParams::validate`]) and Base stores exactly one
    /// level of successors.
    pub fn validate(self, params: &TableParams) -> Result<(), ConfigError> {
        params.validate()?;
        if self == TableKind::Base && params.num_levels != 1 {
            return Err(ConfigError::new(
                "table",
                "Base stores exactly one level of successors",
            ));
        }
        Ok(())
    }
}

/// Largest row arena, in host bytes, a table may need: 1 GiB.
///
/// Allocation failure aborts the process, so a geometry no machine can
/// hold has to be refused while it is still a value — above all one a
/// remote client names in its `Hello`. The bound is fixed, not an
/// option, and sits far above every geometry the reproduction uses: the
/// paper's largest tables (256K Replicated rows, Table 2) need about
/// 18 MB and the Table 2 `NumRows` derivation stops at 4M
/// one-successor rows, about 140 MB.
pub const MAX_ARENA_BYTES: usize = 1 << 30;

/// Parameters of a correlation table and its algorithm (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableParams {
    /// Maximum number of misses the table stores predictions for
    /// (`NumRows`, Table 2 sizes it per application).
    pub num_rows: usize,
    /// Associativity of the table (`Assoc`).
    pub assoc: usize,
    /// Maximum number of successors kept per level (`NumSucc`).
    pub num_succ: usize,
    /// Number of levels of successors stored/prefetched (`NumLevels`).
    /// Always 1 for Base.
    pub num_levels: usize,
}

impl TableParams {
    /// Base defaults from Table 4: `NumSucc = 4`, `Assoc = 4` (Joseph &
    /// Grunwald's values), one level.
    pub fn base_default(num_rows: usize) -> Self {
        TableParams {
            num_rows,
            assoc: 4,
            num_succ: 4,
            num_levels: 1,
        }
    }

    /// Chain defaults from Table 4: `NumSucc = 2`, `Assoc = 2`,
    /// `NumLevels = 3`.
    pub fn chain_default(num_rows: usize) -> Self {
        TableParams {
            num_rows,
            assoc: 2,
            num_succ: 2,
            num_levels: 3,
        }
    }

    /// Replicated defaults from Table 4: `NumSucc = 2`, `Assoc = 2`,
    /// `NumLevels = 3`.
    pub fn repl_default(num_rows: usize) -> Self {
        TableParams {
            num_rows,
            assoc: 2,
            num_succ: 2,
            num_levels: 3,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_rows / self.assoc
    }

    /// Bytes per row of the *Base/Chain* organization on a 32-bit machine:
    /// a 4-byte tag plus `NumSucc` 4-byte successors.
    pub fn flat_row_bytes(&self) -> u64 {
        4 + 4 * self.num_succ as u64
    }

    /// Bytes per row of the *Replicated* organization on a 32-bit machine:
    /// a 4-byte tag plus `NumLevels * NumSucc` 4-byte successors.
    pub fn repl_row_bytes(&self) -> u64 {
        4 + 4 * (self.num_levels * self.num_succ) as u64
    }

    /// Validates the parameters, returning the first inconsistency found
    /// as a typed [`ConfigError`]: a zero dimension, `num_succ` or
    /// `num_levels` above 255 (the arena and the snapshot format store
    /// level lengths in a byte), `num_rows` not divisible by `assoc`, or
    /// a set count that is not a power of two (required by the trivial
    /// low-bits hash), or a row arena above [`MAX_ARENA_BYTES`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |reason: &str| Err(ConfigError::new("table", reason));
        if self.num_rows == 0 || self.assoc == 0 {
            return err("table dimensions must be positive");
        }
        if self.num_succ == 0 || self.num_levels == 0 {
            return err("NumSucc/NumLevels must be positive");
        }
        if self.num_succ > 255 || self.num_levels > 255 {
            return err("NumSucc/NumLevels must be at most 255");
        }
        if !self.num_rows.is_multiple_of(self.assoc) {
            return err("NumRows must be a multiple of Assoc");
        }
        if !self.num_sets().is_power_of_two() {
            return err("set count must be a power of two");
        }
        if self
            .arena_bytes()
            .is_none_or(|bytes| bytes > MAX_ARENA_BYTES)
        {
            return err("row arena exceeds MAX_ARENA_BYTES (1 GiB)");
        }
        Ok(())
    }

    /// Host bytes of the row arena when every row stores `num_levels`
    /// successor levels (the Replicated layout, the largest of the
    /// three): per row a tag, valid flag, generation and LRU stamp, and
    /// per level one length byte plus `num_succ` successors. `None` if
    /// the size overflows `usize`.
    fn arena_bytes(&self) -> Option<usize> {
        const ROW_META: usize = 3 * size_of::<u64>() + size_of::<bool>();
        let per_level = self
            .num_succ
            .checked_mul(size_of::<u64>())?
            .checked_add(1)?;
        let per_row = self
            .num_levels
            .checked_mul(per_level)?
            .checked_add(ROW_META)?;
        self.num_rows.checked_mul(per_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_row_sizes_match_paper() {
        // "each row in Base, Chain, and Repl takes 20, 12, and 28 bytes,
        // respectively, in a 32-bit machine"
        assert_eq!(TableParams::base_default(1024).flat_row_bytes(), 20);
        assert_eq!(TableParams::chain_default(1024).flat_row_bytes(), 12);
        assert_eq!(TableParams::repl_default(1024).repl_row_bytes(), 28);
    }

    #[test]
    fn table2_average_sizes_match_paper() {
        // Table 2's average: 140 K rows -> 2.7 / 1.6 / 3.8 MB.
        let rows = 140 * 1024;
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let base = mb(rows * TableParams::base_default(rows as usize).flat_row_bytes());
        let chain = mb(rows * TableParams::chain_default(rows as usize).flat_row_bytes());
        let repl = mb(rows * TableParams::repl_default(rows as usize).repl_row_bytes());
        assert!((base - 2.7).abs() < 0.1, "base {base}");
        assert!((chain - 1.6).abs() < 0.1, "chain {chain}");
        assert!((repl - 3.8).abs() < 0.1, "repl {repl}");
    }

    #[test]
    #[should_panic(expected = "multiple of Assoc")]
    fn checked_rejects_ragged() {
        Base::new(TableParams {
            num_rows: 10,
            assoc: 4,
            num_succ: 2,
            num_levels: 1,
        });
    }

    #[test]
    fn validate_reports_without_panicking() {
        assert!(TableParams::base_default(1024).validate().is_ok());
        let e = TableParams {
            num_rows: 10,
            assoc: 4,
            num_succ: 2,
            num_levels: 1,
        }
        .validate()
        .unwrap_err();
        assert_eq!(e.component(), "table");
        assert!(e.reason().contains("multiple of Assoc"));
        let e = TableParams {
            num_rows: 24,
            assoc: 2,
            num_succ: 2,
            num_levels: 1,
        }
        .validate()
        .unwrap_err();
        assert!(e.reason().contains("power of two"));
    }

    #[test]
    fn validate_rejects_arenas_no_host_can_allocate() {
        // Every field in range, but 2^40 rows of 255 x 255 successors
        // is ~5.7e17 bytes; past ~2^48 rows the product wraps `usize`.
        for num_rows in [1 << 40, 1 << 50, 1 << 62] {
            let huge = TableParams {
                num_rows,
                assoc: 1,
                num_succ: 255,
                num_levels: 255,
            };
            assert!(huge.validate().unwrap_err().reason().contains("arena"));
            assert!(TableKind::Repl.validate(&huge).is_err());
        }
        // Just past the bound with one successor per row: 2^26 rows of
        // 34 bytes is over 1 GiB; 2^24 rows is well under it.
        let rows = |num_rows| TableParams {
            num_rows,
            assoc: 1,
            num_succ: 1,
            num_levels: 1,
        };
        assert!(rows(1 << 26).validate().is_err());
        assert!(rows(1 << 24).validate().is_ok());
        // The paper's largest table stays far inside it.
        assert!(TableParams::repl_default(256 * 1024).validate().is_ok());
    }

    #[test]
    fn validate_rejects_levels_or_successors_beyond_a_byte() {
        let ok = TableParams {
            num_succ: 255,
            num_levels: 255,
            ..TableParams::repl_default(64)
        };
        assert!(ok.validate().is_ok());
        for params in [
            TableParams {
                num_succ: 256,
                ..ok
            },
            TableParams {
                num_levels: 256,
                ..ok
            },
        ] {
            let e = params.validate().unwrap_err();
            assert!(e.reason().contains("at most 255"), "{e}");
        }
    }

    #[test]
    fn kind_codes_round_trip_and_base_keeps_one_level() {
        for kind in [TableKind::Base, TableKind::Chain, TableKind::Repl] {
            assert_eq!(TableKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(TableKind::from_code(3), None);
        let deep = TableParams::repl_default(64);
        assert!(TableKind::Repl.validate(&deep).is_ok());
        let e = TableKind::Base.validate(&deep).unwrap_err();
        assert!(e.reason().contains("exactly one level"));
    }
}
