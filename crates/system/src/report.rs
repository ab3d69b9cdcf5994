//! Human-readable run reports.

use crate::result::RunResult;

impl RunResult {
    /// Renders a compact multi-line summary of the run, suitable for
    /// terminal output or a lab notebook.
    ///
    /// # Example
    ///
    /// ```
    /// use ulmt_system::{Experiment, PrefetchScheme, SystemConfig};
    /// use ulmt_workloads::{App, WorkloadSpec};
    ///
    /// let r = Experiment::new(
    ///     SystemConfig::small(),
    ///     WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2),
    /// )
    /// .scheme(PrefetchScheme::Repl)
    /// .run();
    /// let text = r.summary();
    /// assert!(text.contains("Tree"));
    /// assert!(text.contains("BeyondL2"));
    /// ```
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{} / {}\n", self.app, self.scheme));
        s.push_str(&format!(
            "  execution: {} cycles ({} refs, {} L2 misses to memory)\n",
            self.exec_cycles, self.refs, self.l2_misses
        ));
        let total = self.breakdown.total().max(1) as f64;
        s.push_str(&format!(
            "  breakdown: Busy {:.1}%  UptoL2 {:.1}%  BeyondL2 {:.1}%\n",
            100.0 * self.breakdown.busy as f64 / total,
            100.0 * self.breakdown.upto_l2 as f64 / total,
            100.0 * self.breakdown.beyond_l2 as f64 / total,
        ));
        let p = &self.prefetch;
        let squashed =
            p.squashed_filter + p.squashed_demand + p.squashed_duplicate + p.squashed_at_nb;
        if p.issued + squashed > 0 {
            s.push_str(&format!(
                "  prefetching: {} issued; hits {}  delayed {}  replaced {}  redundant {}\n",
                p.issued, p.hits, p.delayed_hits, p.replaced, p.redundant
            ));
            s.push_str(&format!(
                "  squashed: filter {}  demand {}  duplicate {}  at-NB {}\n",
                p.squashed_filter, p.squashed_demand, p.squashed_duplicate, p.squashed_at_nb
            ));
        }
        if let Some(u) = &self.ulmt {
            s.push_str(&format!(
                "  ULMT: {} observations ({} dropped); response {:.0}c occupancy {:.0}c ipc {:.2}\n",
                u.steps,
                u.dropped_observations,
                u.response.mean(),
                u.occupancy.mean(),
                u.ipc()
            ));
        }
        s.push_str(&format!(
            "  memory: FSB {:.1}% busy ({:.1}% prefetch traffic); DRAM row hits {:.1}%\n",
            100.0 * self.fsb_utilization,
            100.0 * self.fsb_prefetch_utilization,
            100.0 * self.dram_row_hit_ratio
        ));
        let fr = self.inter_miss.fractions();
        let labels = self.inter_miss.labels();
        s.push_str("  inter-miss:");
        for (label, f) in labels.iter().zip(fr) {
            s.push_str(&format!(" {label} {:.0}%", 100.0 * f));
        }
        s.push('\n');
        if self.demand_q_overflow + self.prefetch_q_overflow + self.observations_dropped > 0 {
            s.push_str(&format!(
                "  pressure: q1 overflow {}  q2 dropped {}  q3 overflow {}\n",
                self.demand_q_overflow, self.observations_dropped, self.prefetch_q_overflow
            ));
        }
        if self.wall_nanos > 0 {
            s.push_str(&format!(
                "  host: {:.1} ms wall, {:.0} simulated cycles/s\n",
                self.wall_nanos as f64 / 1e6,
                self.cycles_per_wall_sec()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::{Experiment, PrefetchScheme, SystemConfig};
    use ulmt_workloads::{App, WorkloadSpec};

    #[test]
    fn summary_covers_all_sections() {
        let r = Experiment::new(
            SystemConfig::small(),
            WorkloadSpec::new(App::Mcf).scale(1.0 / 32.0).iterations(2),
        )
        .scheme(PrefetchScheme::Repl)
        .run();
        let text = r.summary();
        for needle in [
            "Mcf / Repl",
            "execution:",
            "breakdown:",
            "prefetching:",
            "squashed:",
            "ULMT:",
            "memory:",
            "inter-miss:",
            "host:",
            "cycles/s",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn nopref_summary_omits_prefetch_sections() {
        let r = Experiment::new(
            SystemConfig::small(),
            WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2),
        )
        .scheme(PrefetchScheme::NoPref)
        .run();
        let text = r.summary();
        assert!(!text.contains("ULMT:"));
        assert!(!text.contains("prefetching:"));
        assert!(!text.contains("squashed:"));
    }
}
