//! Physical address newtypes.
//!
//! The simulator distinguishes three granularities of address:
//!
//! * [`Addr`] — a byte address, as issued by the main processor.
//! * [`LineAddr`] — a cache-line address (byte address divided by the line
//!   size). The correlation tables of the paper operate exclusively on L2
//!   line addresses (64 B lines in Table 3).
//! * [`PageAddr`] — a page address, used by the page re-mapping support of
//!   Section 3.4 of the paper.
//!
//! Keeping the granularities as distinct types prevents the classic
//! byte-vs-line unit confusion that plagues cache simulators, at zero
//! runtime cost.

use std::fmt;

/// Default page size used by the page re-mapping support (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// A physical byte address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-line address for a given line size: a shift, not
    /// a division, since the size is a power of two.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_size` is not a power of two. A
    /// release build silently shifts by its trailing zeros instead.
    pub fn line(self, line_size: u64) -> LineAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }

    /// Returns the page address of this byte address.
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_SIZE)
    }

    /// Returns the address offset by `bytes`.
    pub fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A cache-line address: a byte address divided by the line size.
///
/// The line size is *not* carried in the value; the component that produced
/// the `LineAddr` defines it. Converting back to a byte address requires the
/// same line size (see [`LineAddr::byte_addr`]). The 64-byte variant used by
/// the L2 cache and the correlation tables has a shorthand,
/// [`LineAddr::to_byte_addr`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Line size of the main processor's L2 cache (Table 3), which is also
    /// the granularity of the correlation tables and all prefetches.
    pub const L2_LINE: u64 = 64;

    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the line for a given line size.
    pub fn byte_addr(self, line_size: u64) -> Addr {
        Addr(self.0 * line_size)
    }

    /// Returns the first byte address assuming the L2 line size (64 B).
    pub fn to_byte_addr(self) -> Addr {
        self.byte_addr(Self::L2_LINE)
    }

    /// Returns the page this line belongs to, assuming the L2 line size.
    pub fn page(self) -> PageAddr {
        self.to_byte_addr().page()
    }

    /// Returns the line offset by `delta` lines (may be negative).
    pub fn offset(self, delta: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add(delta as u64))
    }

    /// Returns the distance in lines from `other` to `self`
    /// (`self - other`), as a signed value.
    pub fn delta(self, other: LineAddr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

/// A page address: a byte address divided by [`PAGE_SIZE`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from a raw page number.
    pub const fn new(raw: u64) -> Self {
        PageAddr(raw)
    }

    /// Returns the raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first L2 line of this page.
    pub fn first_line(self) -> LineAddr {
        LineAddr(self.0 * (PAGE_SIZE / LineAddr::L2_LINE))
    }

    /// Number of L2 lines per page.
    pub fn lines_per_page() -> u64 {
        PAGE_SIZE / LineAddr::L2_LINE
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P0x{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounding() {
        let a = Addr::new(0x12345);
        assert_eq!(a.line(64).raw(), 0x12345 / 64);
        assert_eq!(a.line(32).raw(), 0x12345 / 32);
        assert_eq!(a.line(64).to_byte_addr().raw(), (0x12345 / 64) * 64);
    }

    #[test]
    fn line_offsets_and_delta() {
        let l = LineAddr::new(100);
        assert_eq!(l.offset(5).raw(), 105);
        assert_eq!(l.offset(-5).raw(), 95);
        assert_eq!(l.offset(5).delta(l), 5);
        assert_eq!(l.delta(l.offset(5)), -5);
    }

    #[test]
    fn page_of_line() {
        // 64 lines per 4 KiB page.
        assert_eq!(PageAddr::lines_per_page(), 64);
        let l = LineAddr::new(64 * 7 + 3);
        assert_eq!(l.page().raw(), 7);
        assert_eq!(l.page().first_line().raw(), 64 * 7);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", Addr::new(0x40)), "0x40");
        assert_eq!(format!("{}", LineAddr::new(1)), "L0x1");
        assert_eq!(format!("{}", PageAddr::new(2)), "P0x2");
    }

    #[test]
    fn addr_byte_offset() {
        let a = Addr::new(1000);
        assert_eq!(a.offset(24).raw(), 1024);
        assert_eq!(a.offset(-1000).raw(), 0);
    }
}
