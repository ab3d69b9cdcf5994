//! Miss Status Handling Registers.
//!
//! An MSHR tracks one in-flight line fill. The file has a fixed number of
//! registers (Table 3: queue depths and MSHR counts are small); when all
//! are busy, new misses must stall and arriving pushes are dropped.

use ulmt_simcore::LineAddr;

/// Identifier of an allocated MSHR, valid until it is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrId(pub(crate) usize);

/// Tag of a free register: no line address reaches it (a line number is
/// a byte address divided by the line size).
const FREE: u64 = u64::MAX;

/// Flags of one in-flight miss.
#[derive(Debug, Clone, Copy, Default)]
struct Mshr {
    /// `true` if a demand access is waiting on this fill (as opposed to a
    /// fill initiated purely by a prefetch).
    demand_waiting: bool,
    /// `true` if the fill was initiated by a prefetch (processor-side
    /// prefetch or memory-side push that stole the register).
    prefetch_initiated: bool,
}

/// A fixed-capacity file of Miss Status Handling Registers.
///
/// # Example
///
/// ```
/// use ulmt_cache::MshrFile;
/// use ulmt_simcore::LineAddr;
///
/// let mut file = MshrFile::new(2);
/// let a = file.allocate(LineAddr::new(1), true, false).unwrap();
/// let _b = file.allocate(LineAddr::new(2), true, false).unwrap();
/// assert!(file.allocate(LineAddr::new(3), true, false).is_none()); // full
/// assert_eq!(file.find(LineAddr::new(1)), Some(a));
/// file.release(a);
/// assert!(file.has_free());
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Raw line tracked by each register, [`FREE`] if the register is
    /// free; [`MshrFile::find`] scans this flat array only.
    tags: Vec<u64>,
    slots: Vec<Mshr>,
    in_use: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            tags: vec![FREE; capacity],
            slots: vec![Mshr::default(); capacity],
            in_use: 0,
        }
    }

    /// Allocates a register for `line`. Returns `None` when all registers
    /// are busy.
    ///
    /// # Panics
    ///
    /// Panics if `line` is the reserved all-ones line number. Panics in
    /// debug builds if an MSHR for `line` already exists; callers must
    /// merge into the existing register instead (see [`MshrFile::find`]).
    pub fn allocate(
        &mut self,
        line: LineAddr,
        demand_waiting: bool,
        prefetch_initiated: bool,
    ) -> Option<MshrId> {
        assert_ne!(line.raw(), FREE, "line {line} is not addressable");
        debug_assert!(self.find(line).is_none(), "duplicate MSHR for {line}");
        let idx = self.tags.iter().position(|&t| t == FREE)?;
        self.tags[idx] = line.raw();
        self.slots[idx] = Mshr {
            demand_waiting,
            prefetch_initiated,
        };
        self.in_use += 1;
        Some(MshrId(idx))
    }

    /// Finds the register tracking `line`, if any.
    pub fn find(&self, line: LineAddr) -> Option<MshrId> {
        if self.in_use == 0 {
            return None;
        }
        self.tags.iter().position(|&t| t == line.raw()).map(MshrId)
    }

    /// Marks that a demand access is now waiting on the fill tracked by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn mark_demand(&mut self, id: MshrId) {
        self.slot_mut(id).demand_waiting = true;
    }

    /// Returns `true` if a demand access waits on `id`.
    pub fn demand_waiting(&self, id: MshrId) -> bool {
        self.slot(id).demand_waiting
    }

    /// Returns `true` if the fill tracked by `id` was initiated by a
    /// prefetch.
    pub fn prefetch_initiated(&self, id: MshrId) -> bool {
        self.slot(id).prefetch_initiated
    }

    /// Line tracked by `id`.
    pub fn line(&self, id: MshrId) -> LineAddr {
        let tag = self.tags[id.0];
        assert!(tag != FREE, "stale MshrId");
        LineAddr::new(tag)
    }

    /// Releases `id`, freeing the register.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn release(&mut self, id: MshrId) {
        assert!(self.tags[id.0] != FREE, "releasing unallocated MSHR");
        self.tags[id.0] = FREE;
        self.in_use -= 1;
    }

    /// Returns `true` if at least one register is free.
    pub fn has_free(&self) -> bool {
        self.in_use < self.tags.len()
    }

    /// Number of registers currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Total number of registers.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    fn slot(&self, id: MshrId) -> &Mshr {
        assert!(self.tags[id.0] != FREE, "stale MshrId");
        &self.slots[id.0]
    }

    fn slot_mut(&mut self, id: MshrId) -> &mut Mshr {
        assert!(self.tags[id.0] != FREE, "stale MshrId");
        &mut self.slots[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn allocate_until_full() {
        let mut f = MshrFile::new(3);
        for i in 0..3 {
            assert!(f.allocate(line(i), true, false).is_some());
        }
        assert!(!f.has_free());
        assert_eq!(f.in_use(), 3);
        assert!(f.allocate(line(99), true, false).is_none());
    }

    #[test]
    fn release_frees_slot() {
        let mut f = MshrFile::new(1);
        let id = f.allocate(line(5), false, true).unwrap();
        assert!(f.prefetch_initiated(id));
        assert!(!f.demand_waiting(id));
        f.mark_demand(id);
        assert!(f.demand_waiting(id));
        f.release(id);
        assert!(f.has_free());
        assert_eq!(f.find(line(5)), None);
    }

    #[test]
    fn find_locates_by_line() {
        let mut f = MshrFile::new(4);
        let a = f.allocate(line(10), true, false).unwrap();
        let b = f.allocate(line(20), true, false).unwrap();
        assert_eq!(f.find(line(10)), Some(a));
        assert_eq!(f.find(line(20)), Some(b));
        assert_eq!(f.find(line(30)), None);
        assert_eq!(f.line(a), line(10));
    }

    #[test]
    #[should_panic(expected = "releasing unallocated")]
    fn double_release_panics() {
        let mut f = MshrFile::new(1);
        let id = f.allocate(line(1), true, false).unwrap();
        f.release(id);
        f.release(id);
    }
}
