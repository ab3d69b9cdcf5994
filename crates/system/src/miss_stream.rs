//! State-only extraction of the L2 miss address stream.
//!
//! The prediction experiment of Figure 5 and the table sizing of Table 2
//! operate on "all L2 cache miss addresses", independent of timing. This
//! module filters a workload's reference stream through the L1 and L2
//! cache *state* and yields the L2 miss lines in order.
//!
//! Nothing is ever in flight here: each level is driven with
//! [`Cache::access_install`], which installs a missing line at once and
//! leaves the cache exactly as an access followed by its fill would,
//! without allocating and releasing an MSHR. So no access blocks or
//! merges, and every L2 miss is one element of the stream.

use ulmt_cache::{Cache, CacheConfig};
use ulmt_simcore::LineAddr;
use ulmt_workloads::WorkloadSpec;

/// Iterator over the L2 miss lines of a workload.
#[derive(Debug)]
pub struct MissStream<I> {
    refs: I,
    l1: Cache,
    l2: Cache,
    l1_line: u64,
}

impl<I> MissStream<I>
where
    I: Iterator<Item = ulmt_workloads::TraceRecord>,
{
    /// Filters `refs` through caches of the given geometries.
    pub fn new(refs: I, l1_cfg: CacheConfig, l2_cfg: CacheConfig) -> Self {
        MissStream {
            refs,
            l1: Cache::new(l1_cfg),
            l2: Cache::new(l2_cfg),
            l1_line: l1_cfg.line_size,
        }
    }

    fn filter_one(&mut self, rec: &ulmt_workloads::TraceRecord) -> Option<LineAddr> {
        let l1_line = rec.addr.line(self.l1_line);
        if self.l1.access_install(l1_line, rec.is_write) {
            return None;
        }
        let l2_line = rec.addr.line(LineAddr::L2_LINE);
        (!self.l2.access_install(l2_line, rec.is_write)).then_some(l2_line)
    }
}

impl<I> Iterator for MissStream<I>
where
    I: Iterator<Item = ulmt_workloads::TraceRecord>,
{
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        loop {
            let rec = self.refs.next()?;
            if let Some(miss) = self.filter_one(&rec) {
                return Some(miss);
            }
        }
    }
}

/// The L2 miss line stream of `workload` through the Table 3 hierarchy.
pub fn l2_miss_stream(
    workload: &WorkloadSpec,
) -> MissStream<impl Iterator<Item = ulmt_workloads::TraceRecord>> {
    MissStream::new(workload.build(), CacheConfig::l1(), CacheConfig::l2())
}

/// The L2 miss line stream through the caches of `config` (used by scaled
/// profiles, whose workloads only exceed scaled caches).
pub fn l2_miss_stream_with(
    config: &crate::SystemConfig,
    workload: &WorkloadSpec,
) -> MissStream<impl Iterator<Item = ulmt_workloads::TraceRecord>> {
    MissStream::new(workload.build(), config.l1, config.l2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_workloads::App;

    #[test]
    fn repeated_small_footprint_misses_once() {
        // A workload smaller than the L2 misses each line exactly once.
        let spec = WorkloadSpec::new(App::Tree).scale(0.5).iterations(3);
        let misses: Vec<_> = l2_miss_stream(&spec).collect();
        let distinct: std::collections::HashSet<_> = misses.iter().collect();
        // Noise adds a few extra lines; the repeat iterations add nothing.
        assert!(misses.len() < spec.build().count() / 2);
        assert!(!distinct.is_empty());
    }

    #[test]
    fn streaming_footprint_misses_every_iteration() {
        let spec = WorkloadSpec::new(App::Mcf).scale(1.0).iterations(2);
        let misses = l2_miss_stream(&spec).count();
        // Footprint (22 K lines) >> L2 (8 K lines): nearly every distinct
        // line misses in both iterations.
        assert!(misses as u64 > 2 * spec.footprint_lines() * 9 / 10);
    }

    #[test]
    fn l1_filters_second_half_touches() {
        // CG touches both halves of each line: the second touch hits L1's
        // other line... both 32-B halves are distinct L1 lines, but the L2
        // sees a single miss per 64-B line.
        let spec = WorkloadSpec::new(App::Cg).scale(1.0 / 16.0).iterations(1);
        let refs = spec.build().count() as u64;
        let misses = l2_miss_stream(&spec).count() as u64;
        assert!(misses <= refs / 2 + 1, "misses {misses} refs {refs}");
    }
}
