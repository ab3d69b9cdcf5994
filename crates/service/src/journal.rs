//! The per-shard observation journal: a bounded ring of recently-acked
//! batches that makes crash recovery bit-identical whenever the window
//! suffices.
//!
//! # Recovery contract
//!
//! Each shard assigns every **accepted** batch a monotonically increasing
//! sequence number `seq` (1-based, shared across the shard's tenants in
//! stream order) and journals `(seq, tenant, piggybacked counters, obs)`
//! *before* acknowledging the batch to its client. The supervisor also
//! keeps a periodic checkpoint: a slot-exact copy of every tenant table
//! plus the shard's counters and virtual clock, stamped with the
//! checkpoint `seq`.
//!
//! On a crash, recovery restores the checkpoint and replays every
//! journaled batch with `seq > checkpoint.seq` through the same
//! `process_misses` batch kernel the live shard uses. Because the journal
//! is pushed in seq order and evicts oldest-first, its contents always
//! form one contiguous range `[lo, hi]`:
//!
//! * if `lo <= checkpoint.seq + 1`, the journal covers the whole gap and
//!   recovery is **clean** — the rebuilt shard is bit-identical (same
//!   table fingerprints, same counters, same virtual clock) to a shard
//!   that never died;
//! * otherwise the batches in `(checkpoint.seq, lo)` were evicted before
//!   the crash and recovery is **lossy** — it still replays the surviving
//!   suffix, and reports the exact number of acked-but-unrecoverable
//!   batches (and observations) so the accounting identity
//!   `control.accepted == recovered.accepted + dropped` stays exact.
//!
//! Window math: a shard that checkpoints every `C` accepted batches and
//! journals `W >= C` of them can always recover cleanly, because at most
//! `C` acked batches ever sit past the newest checkpoint. `W < C` buys a
//! smaller memory bound at the price of a lossy window of up to `C - W`
//! batches. At the default `C = 1` only a crash between a batch's ack
//! and the end of the checkpoint update that follows it leaves an acked
//! batch past the checkpoint, so a clean recovery replays at most one
//! entry. Batches that were *in the ingestion queue* (not yet acked) at
//! the crash are not the journal's problem: their reply channels error
//! out and the client resubmits — at-least-once delivery on top of an
//! exactly-once journal.

use std::collections::VecDeque;

use ulmt_simcore::LineAddr;

/// One acked batch, as the shard journaled it before replying.
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    /// Shard-global accepted-batch sequence number (1-based).
    pub seq: u64,
    /// Tenant the batch belongs to.
    pub tenant: u32,
    /// The submitting session's *cumulative* rejected-submission count
    /// as of this batch. Cumulative (not a delta) so that replay and
    /// at-least-once resubmission apply it idempotently: the shard
    /// merges `max(applied, cum)`, never a blind add.
    pub rejected_cum: u64,
    /// The session's cumulative shed-submission count (same scheme).
    pub shed_cum: u64,
    /// The observations themselves.
    pub obs: Vec<LineAddr>,
}

/// What a journal replay could reconstruct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalCoverage {
    /// Entries with `seq > checkpoint_seq`, i.e. replayable work.
    pub replayable: u64,
    /// Acked batches in the gap `(checkpoint_seq, oldest_journaled)` that
    /// were evicted and cannot be replayed.
    pub dropped_batches: u64,
    /// Observations inside those dropped batches are unknown (the entries
    /// are gone); this is the count of *surviving* replayable
    /// observations, for conservation reporting.
    pub replayable_obs: u64,
}

/// A bounded, seq-ordered ring of recently-acked observation batches.
#[derive(Debug)]
pub(crate) struct ObservationJournal {
    window: usize,
    next_seq: u64,
    ring: VecDeque<JournalEntry>,
}

impl ObservationJournal {
    /// An empty journal retaining at most `window` acked batches.
    pub fn new(window: usize) -> Self {
        ObservationJournal {
            window: window.max(1),
            next_seq: 1,
            ring: VecDeque::with_capacity(window.clamp(1, 1024)),
        }
    }

    /// The seq the next accepted batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The seq of the last acked batch (0 if none yet).
    pub fn last_acked(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of batches currently retained.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Assigns the next seq to an acked batch and retains it, evicting
    /// the oldest entry if the window is full. Returns the assigned seq.
    ///
    /// The evicted entry's observation buffer is recycled into the new
    /// entry, so once the window is full the per-ack hot path allocates
    /// only when a batch outgrows the recycled capacity — the journal
    /// reaches the same steady-state zero-allocation regime as the reply
    /// buffers.
    pub fn push(&mut self, tenant: u32, rejected_cum: u64, shed_cum: u64, obs: &[LineAddr]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut buf = if self.ring.len() == self.window {
            let mut recycled = self.ring.pop_front().expect("window >= 1").obs;
            recycled.clear();
            recycled
        } else {
            Vec::new()
        };
        buf.extend_from_slice(obs);
        self.ring.push_back(JournalEntry {
            seq,
            tenant,
            rejected_cum,
            shed_cum,
            obs: buf,
        });
        seq
    }

    /// Used by recovery to resume the seq counter on a rebuilt shard: the
    /// journal object itself survives the crash (it lives outside the
    /// worker thread), so this only needs to exist for tests constructing
    /// journals by hand.
    #[cfg(test)]
    pub fn set_next_seq(&mut self, next: u64) {
        self.next_seq = next;
    }

    /// The replayable entries after `checkpoint_seq`, in seq order, plus
    /// the exact coverage accounting.
    pub fn replay_from(&self, checkpoint_seq: u64) -> (Vec<&JournalEntry>, JournalCoverage) {
        // A checkpoint is always taken at an acked seq, so a checkpoint
        // ahead of `last_acked()` means the recovery state is corrupt:
        // fail fast in debug builds.
        debug_assert!(
            checkpoint_seq <= self.last_acked(),
            "journal: checkpoint seq {checkpoint_seq} is ahead of last acked {}",
            self.last_acked()
        );
        let entries: Vec<&JournalEntry> = self
            .ring
            .iter()
            .filter(|e| e.seq > checkpoint_seq)
            .collect();
        let first_retained = entries.first().map(|e| e.seq);
        let coverage = JournalCoverage {
            replayable: entries.len() as u64,
            dropped_batches: evicted(first_retained, checkpoint_seq, self.last_acked()),
            replayable_obs: entries.iter().map(|e| e.obs.len() as u64).sum(),
        };
        (entries, coverage)
    }
}

/// Acked batches past `checkpoint_seq` that the journal no longer holds:
/// the gap up to the oldest entry retained past it or, with none
/// retained, everything acked after it. A checkpoint ahead of
/// `last_acked` (corrupt state) drops nothing in a release build.
fn evicted(first_retained: Option<u64>, checkpoint_seq: u64, last_acked: u64) -> u64 {
    match first_retained {
        Some(first) => first - (checkpoint_seq + 1),
        None => last_acked.saturating_sub(checkpoint_seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ns: std::ops::Range<u64>) -> Vec<LineAddr> {
        ns.map(LineAddr::new).collect()
    }

    #[test]
    fn seqs_are_contiguous_and_window_bounded() {
        let mut j = ObservationJournal::new(3);
        for i in 0..5 {
            let seq = j.push(7, 0, 0, &lines(0..i + 1));
            assert_eq!(seq, i + 1);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.last_acked(), 5);
        let seqs: Vec<u64> = j.ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5], "ring keeps the newest contiguous run");
    }

    #[test]
    fn full_coverage_is_clean() {
        let mut j = ObservationJournal::new(8);
        for i in 0..6u64 {
            j.push(1, 0, 0, &lines(0..4));
            let _ = i;
        }
        // Checkpoint at seq 2: batches 3..=6 are all retained.
        let (entries, cov) = j.replay_from(2);
        assert_eq!(entries.len(), 4);
        assert_eq!(cov.dropped_batches, 0);
        assert_eq!(cov.replayable, 4);
        assert_eq!(cov.replayable_obs, 16);
        assert!(entries.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn evicted_gap_is_counted_exactly() {
        let mut j = ObservationJournal::new(2);
        for _ in 0..7 {
            j.push(1, 0, 0, &lines(0..3));
        }
        // Retained: seqs 6, 7. Checkpoint at seq 1 → batches 2..=5 gone.
        let (entries, cov) = j.replay_from(1);
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [6, 7]);
        assert_eq!(cov.dropped_batches, 4);
        assert_eq!(cov.replayable, 2);
    }

    #[test]
    fn empty_journal_after_checkpoint_reports_whole_gap() {
        let mut j = ObservationJournal::new(4);
        j.set_next_seq(10); // 9 batches acked, none retained
        let (entries, cov) = j.replay_from(5);
        assert!(entries.is_empty());
        assert_eq!(cov.dropped_batches, 4, "seqs 6..=9 unrecoverable");
        // Checkpoint newer than everything acked: nothing to do.
        let (_, cov) = j.replay_from(9);
        assert_eq!(cov.dropped_batches, 0);
    }

    #[test]
    fn checkpoint_at_last_acked_is_a_legitimate_zero_gap() {
        let mut j = ObservationJournal::new(4);
        for _ in 0..6 {
            j.push(1, 0, 0, &lines(0..2));
        }
        // Exactly at the boundary: nothing to replay, nothing dropped,
        // and the recovery state is sound.
        let (entries, cov) = j.replay_from(j.last_acked());
        assert!(entries.is_empty());
        assert_eq!(cov.dropped_batches, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ahead of last acked")]
    fn checkpoint_ahead_of_acked_is_flagged_as_corrupt() {
        // 9 batches acked, and a checkpoint one past the boundary that
        // the shard never acked.
        let mut j = ObservationJournal::new(4);
        j.set_next_seq(10);
        let _ = j.replay_from(10);
    }

    #[test]
    fn a_checkpoint_ahead_of_acked_drops_nothing_in_release() {
        // The count a release build reports past the debug assertion: no
        // retained entry and a checkpoint (10) past the last ack (9).
        assert_eq!(evicted(None, 10, 9), 0);
        // The sound cases around it: the whole gap when nothing is
        // retained, and the gap up to the oldest retained entry.
        assert_eq!(evicted(None, 5, 9), 4);
        assert_eq!(evicted(None, 9, 9), 0);
        assert_eq!(evicted(Some(8), 5, 9), 2);
        assert_eq!(evicted(Some(6), 5, 9), 0);
    }

    #[test]
    fn steady_state_push_recycles_the_evicted_buffer() {
        let mut j = ObservationJournal::new(2);
        let obs = lines(0..64);
        for _ in 0..2 {
            j.push(1, 0, 0, &obs);
        }
        // Window full: every further push must reuse the evicted entry's
        // buffer rather than allocating a fresh one.
        let recycled_ptr = j.ring.front().expect("full window").obs.as_ptr();
        let recycled_cap = j.ring.front().expect("full window").obs.capacity();
        j.push(1, 0, 0, &obs);
        let newest = &j.ring.back().expect("just pushed").obs;
        assert_eq!(newest.as_ptr(), recycled_ptr, "evicted buffer is reused");
        assert_eq!(newest.capacity(), recycled_cap, "capacity is preserved");
        assert_eq!(newest.len(), 64);
        // Smaller follow-up batches keep riding recycled capacity.
        for _ in 0..8 {
            j.push(1, 0, 0, &lines(0..16));
        }
        assert!(
            j.ring.iter().all(|e| e.obs.capacity() >= 64),
            "recycled capacity survives smaller batches"
        );
    }

    #[test]
    fn piggybacked_counters_ride_the_entry() {
        let mut j = ObservationJournal::new(4);
        j.push(3, 2, 1, &lines(0..1));
        let (entries, _) = j.replay_from(0);
        assert_eq!(entries[0].rejected_cum, 2);
        assert_eq!(entries[0].shed_cum, 1);
        assert_eq!(entries[0].tenant, 3);
    }
}
