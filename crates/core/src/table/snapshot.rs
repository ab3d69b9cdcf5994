//! Portable snapshots of learned correlation tables.
//!
//! A [`TableSnapshot`] captures everything a table has *learned* — the
//! live rows, in global LRU-to-MRU order, with every successor list in
//! MRU order — in an algorithm-independent form, plus the **learning
//! context**: which rows the algorithm's retained learning pointers
//! were referencing at capture time. Restoring a snapshot into an empty
//! table of the same geometry reproduces the table's contents exactly
//! (the restore replays rows in the same canonical order
//! [`RowTable::resize`](super::RowTable::resize) uses) *and* re-arms
//! the learning pointers, so a restored table does not just fingerprint
//! identically — it **continues** identically, miss for miss. That is
//! what lets the prefetch service's crash recovery replay journaled
//! batches on top of a checkpoint and land bit-identical to a shard
//! that never died.
//!
//! Deliberately excluded: the [`TableStats`](super::TableStats)
//! counters (a restored table starts counting afresh).

use std::hash::Hasher;

use ulmt_simcore::{ConfigError, FxHasher};

use super::{TableKind, TableParams};

/// One live row: the miss tag plus its successor levels, each level in
/// MRU-to-LRU order. Base and Chain always have exactly one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSnapshot {
    /// Raw line number of the miss the row predicts for.
    pub tag: u64,
    /// Successor levels, outermost index = level, inner lists MRU first.
    pub levels: Vec<Vec<u64>>,
}

/// A complete, portable capture of a correlation table's learned state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// The producing algorithm. Restoring into a different algorithm is
    /// rejected: the row organizations are not interchangeable.
    pub kind: TableKind,
    /// Geometry of the captured table.
    pub params: TableParams,
    /// Live rows in global LRU-to-MRU order (the canonical replay order).
    pub rows: Vec<RowSnapshot>,
    /// The learning context: tags of the rows the algorithm's retained
    /// learning pointers referenced at capture time, most recent miss
    /// first (Base/Chain keep at most one, Replicated up to
    /// `NumLevels`). `None` marks a pointer whose row had already been
    /// evicted — position matters (Replicated's i-th pointer learns at
    /// level i), so tombstones are kept, not dropped. Restoring re-arms
    /// the pointers so the table continues learning exactly where the
    /// captured one left off.
    pub learn_ctx: Vec<Option<u64>>,
}

/// Errors decoding or restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream does not start with the snapshot magic.
    BadMagic,
    /// The byte stream uses an unknown format version.
    BadVersion(u16),
    /// The byte stream ended mid-structure.
    Truncated,
    /// The byte stream carries an unknown algorithm tag.
    BadKind(u8),
    /// The snapshot was produced by a different algorithm than the one
    /// restoring it.
    KindMismatch {
        /// What the restoring algorithm is.
        expected: TableKind,
        /// What the snapshot holds.
        found: TableKind,
    },
    /// The snapshot's table parameters are inconsistent.
    InvalidParams(ConfigError),
    /// The snapshot's geometry differs from the table restoring it.
    ParamsMismatch {
        /// The restoring table's geometry.
        expected: TableParams,
        /// The snapshot's geometry.
        found: TableParams,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a table snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot ends mid-structure"),
            SnapshotError::BadKind(k) => write!(f, "unknown snapshot algorithm tag {k}"),
            SnapshotError::KindMismatch { expected, found } => write!(
                f,
                "snapshot holds a {} table, cannot restore into {}",
                found.name(),
                expected.name()
            ),
            SnapshotError::InvalidParams(e) => write!(f, "invalid snapshot parameters: {e}"),
            SnapshotError::ParamsMismatch { expected, found } => write!(
                f,
                "snapshot geometry {found:?} differs from the table's {expected:?}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Magic prefix of the binary encoding.
const MAGIC: &[u8; 8] = b"ULMTSNAP";
/// Current format version. Version 2 added the learning context.
const VERSION: u16 = 2;

/// The fingerprint of a canonical encoding (see
/// [`TableSnapshot::fingerprint`]).
pub(super) fn fingerprint_of(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Writes the canonical `ULMTSNAP` encoding into one buffer, row by row,
/// so a live table can be encoded without first building a
/// [`TableSnapshot`].
pub(super) struct Encoder(Vec<u8>);

impl Encoder {
    /// Starts an encoding with its header: magic, version, algorithm,
    /// geometry and row count.
    pub(super) fn new(kind: TableKind, params: &TableParams, rows: usize) -> Self {
        let mut out = Vec::with_capacity(32 + rows * 32);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(kind.code());
        for dim in [
            params.num_rows,
            params.assoc,
            params.num_succ,
            params.num_levels,
        ] {
            out.extend_from_slice(&(dim as u32).to_le_bytes());
        }
        out.extend_from_slice(&(rows as u32).to_le_bytes());
        Encoder(out)
    }

    /// Appends one row: its tag, then each level's length and
    /// successors, MRU first.
    pub(super) fn row<L>(&mut self, tag: u64, levels: impl ExactSizeIterator<Item = L>)
    where
        L: ExactSizeIterator<Item = u64>,
    {
        let out = &mut self.0;
        out.extend_from_slice(&tag.to_le_bytes());
        out.push(levels.len() as u8);
        for level in levels {
            out.push(level.len() as u8);
            for succ in level {
                out.extend_from_slice(&succ.to_le_bytes());
            }
        }
    }

    /// Appends the learning context and returns the encoding.
    pub(super) fn finish(
        mut self,
        learn_ctx: impl ExactSizeIterator<Item = Option<u64>>,
    ) -> Vec<u8> {
        let out = &mut self.0;
        out.push(learn_ctx.len() as u8);
        for entry in learn_ctx {
            match entry {
                Some(tag) => {
                    out.push(1);
                    out.extend_from_slice(&tag.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        self.0
    }
}

impl TableSnapshot {
    /// Returns `Ok(())` if the snapshot was produced by `expected`.
    pub fn expect_kind(&self, expected: TableKind) -> Result<(), SnapshotError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(SnapshotError::KindMismatch {
                expected,
                found: self.kind,
            })
        }
    }

    /// A 64-bit fingerprint of the learned contents, computed over the
    /// canonical byte encoding. Two tables fingerprint equal iff they
    /// learned identical rows in an identical recency order — the
    /// property the service's determinism checks rely on.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.to_bytes())
    }

    /// Serializes to the versioned binary format (little-endian, fully
    /// self-contained; no external dependencies).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new(self.kind, &self.params, self.rows.len());
        for row in &self.rows {
            enc.row(row.tag, row.levels.iter().map(|l| l.iter().copied()));
        }
        enc.finish(self.learn_ctx.iter().copied())
    }

    /// Decodes the binary format produced by [`TableSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let kind_code = r.u8()?;
        let kind = TableKind::from_code(kind_code).ok_or(SnapshotError::BadKind(kind_code))?;
        let params = TableParams {
            num_rows: r.u32()? as usize,
            assoc: r.u32()? as usize,
            num_succ: r.u32()? as usize,
            num_levels: r.u32()? as usize,
        };
        params.validate().map_err(SnapshotError::InvalidParams)?;
        let num_rows = r.u32()? as usize;
        // Each encoded row takes at least 9 bytes, so a lying row count
        // cannot reserve more than the input could fill.
        let mut rows = Vec::with_capacity(num_rows.min(r.remaining() / 9));
        for _ in 0..num_rows {
            let tag = r.u64()?;
            let num_levels = r.u8()? as usize;
            let mut levels = Vec::with_capacity(num_levels);
            for _ in 0..num_levels {
                let len = r.u8()? as usize;
                let mut level = Vec::with_capacity(len);
                for _ in 0..len {
                    level.push(r.u64()?);
                }
                levels.push(level);
            }
            rows.push(RowSnapshot { tag, levels });
        }
        let ctx_len = r.u8()? as usize;
        let mut learn_ctx = Vec::with_capacity(ctx_len);
        for _ in 0..ctx_len {
            let present = r.u8()? != 0;
            learn_ctx.push(if present { Some(r.u64()?) } else { None });
        }
        Ok(TableSnapshot {
            kind,
            params,
            rows,
            learn_ctx,
        })
    }
}

/// Bounds-checked little-endian cursor over the snapshot bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableSnapshot {
        TableSnapshot {
            kind: TableKind::Repl,
            params: TableParams::repl_default(64),
            rows: vec![
                RowSnapshot {
                    tag: 5,
                    levels: vec![vec![6, 7], vec![8]],
                },
                RowSnapshot {
                    tag: 6,
                    levels: vec![vec![7], vec![]],
                },
            ],
            learn_ctx: vec![Some(6), None],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let snap = sample();
        let decoded = TableSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.fingerprint(), snap.fingerprint());
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let e = TableSnapshot::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(e, SnapshotError::Truncated | SnapshotError::BadMagic),
                "len {len}: {e:?}"
            );
        }
    }

    #[test]
    fn rejects_foreign_bytes() {
        assert_eq!(
            TableSnapshot::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::BadMagic)
        );
        let mut bytes = sample().to_bytes();
        bytes[8] = 0xFF; // version
        assert!(matches!(
            TableSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadVersion(_))
        ));
        let mut bytes = sample().to_bytes();
        bytes[10] = 9; // kind tag
        assert_eq!(
            TableSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadKind(9))
        );
    }

    #[test]
    fn rejects_inconsistent_params() {
        let mut snap = sample();
        snap.params.assoc = 3; // 64 % 3 != 0
        assert!(matches!(
            TableSnapshot::from_bytes(&snap.to_bytes()),
            Err(SnapshotError::InvalidParams(_))
        ));
    }

    #[test]
    fn lying_row_count_is_a_typed_error() {
        // A valid 2^20-row geometry whose header claims 2^32-1 rows but
        // carries none: decoding must fail cleanly, not reserve for them.
        let mut bytes = TableSnapshot {
            params: TableParams {
                num_rows: 1 << 20,
                assoc: 1,
                num_succ: 2,
                num_levels: 3,
            },
            rows: Vec::new(),
            learn_ctx: Vec::new(),
            ..sample()
        }
        .to_bytes();
        let count = MAGIC.len() + 2 + 1 + 4 * 4;
        bytes[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            TableSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn learning_context_rides_the_encoding_and_fingerprint() {
        let snap = sample();
        let decoded = TableSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded.learn_ctx, vec![Some(6), None]);
        // Same rows, different pointer context: behaviorally different
        // tables must fingerprint differently.
        let mut rearmed = snap.clone();
        rearmed.learn_ctx = vec![Some(5), None];
        assert_ne!(snap.fingerprint(), rearmed.fingerprint());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let snap = sample();
        let mut swapped = snap.clone();
        swapped.rows.swap(0, 1);
        assert_ne!(snap.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn kind_mismatch_reports_both_sides() {
        let snap = sample();
        let e = snap.expect_kind(TableKind::Base).unwrap_err();
        assert_eq!(
            e.to_string(),
            "snapshot holds a repl table, cannot restore into base"
        );
    }
}
