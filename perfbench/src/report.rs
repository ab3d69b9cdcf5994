//! The result of one benchmark run: metrics, gates, work accounting and
//! the host it ran on, printed by name with units and as one JSON line.

use std::fmt::Write as _;

use crate::stats::{Percentile, Ratio};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics, always from untraced work.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Correctness gates that failed, one line each.
    pub violations: Vec<String>,
    /// Operations attempted (simulations run, batches submitted).
    pub attempted: u64,
    /// Attempted operations that failed, were retried, shed or
    /// recovered from.
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A per-layer count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.layer(name, value as f64, "count");
    }

    /// A ratio together with its numerator and base, as three metrics
    /// `<name>`, `<name>.part` and `<name>.base`. An empty base reports
    /// no ratio at all rather than a made-up one.
    pub fn ratio(&mut self, name: &str, r: Ratio) {
        if let Some(v) = r.value() {
            self.layer(name, v, "ratio");
        }
        self.count(&format!("{name}.part"), r.part);
        self.count(&format!("{name}.base"), r.base);
    }

    /// A latency percentile in milliseconds with its sample counts, as
    /// `<name>`, `<name>.samples` and `<name>.beyond`.
    pub fn percentile_ms(&mut self, name: &str, p: Percentile) {
        self.layer(name, p.value, "ms");
        self.count(&format!("{name}.samples"), p.samples as u64);
        self.count(&format!("{name}.beyond"), p.beyond as u64);
    }

    /// Records a failed correctness gate.
    pub fn violation(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.violations.push(msg);
    }

    /// Checks `cond`, recording `msg` when it does not hold.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.violation(msg());
        }
    }

    /// Takes in what a run of another workload measured: its work, its
    /// failed gates, and every per-layer metric whose name this report
    /// does not hold yet. Its end-to-end metrics are dropped.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        for m in other.per_layer {
            if !self.per_layer.iter().any(|have| have.name == m.name) {
                self.per_layer.push(m);
            }
        }
    }

    /// Checks that the metrics this report prints with `--trace <t>` are
    /// exactly the ones the manifest (`BENCHMARK.json`) lists for it.
    pub fn check_manifest(&mut self, manifest: &str, per_layer: bool) {
        let section = if per_layer { "per_layer" } else { "end_to_end" };
        let Some(mut want) = manifest_names(manifest, section) else {
            self.violation(format!("BENCHMARK.json has no {section} list"));
            return;
        };
        let list = if per_layer {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut have: Vec<&str> = list.iter().map(|m| m.name.as_str()).collect();
        want.sort_unstable();
        have.sort_unstable();
        let missing: Vec<&str> = want
            .iter()
            .map(String::as_str)
            .filter(|n| have.binary_search(n).is_err())
            .collect();
        let extra: Vec<&str> = have
            .iter()
            .copied()
            .filter(|n| want.binary_search_by(|w| w.as_str().cmp(n)).is_err())
            .collect();
        let dup = have.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        if !(missing.is_empty() && extra.is_empty() && dup.is_none()) {
            let msg = format!(
                "{section} metrics differ from BENCHMARK.json: missing {missing:?}, \
                 not listed {extra:?}, reported twice {dup:?}"
            );
            self.violation(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints every metric as `<kind> <name> = <value> <unit>`.
    pub fn print_lines(&self) {
        for (kind, list) in [("e2e", &self.end_to_end), ("layer", &self.per_layer)] {
            for m in list {
                println!("{kind:5} {:36} = {} {}", m.name, m.value, m.unit);
            }
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// selected metrics.
    pub fn json(&self, per_layer: bool) -> String {
        let list = if per_layer {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in list.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (never expected) become `null`.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The metric names of one list (`"end_to_end"` or `"per_layer"`) of the
/// manifest: every `"name"` value between the list's brackets. The lists
/// hold flat objects, so the first `]` after the key closes the list.
/// `None` when the manifest has no such list.
pub fn manifest_names(manifest: &str, section: &str) -> Option<Vec<String>> {
    let key = manifest.find(&format!("\"{section}\""))?;
    let rest = &manifest[key..];
    let open = rest.find('[')?;
    let close = open + rest[open..].find(']')?;
    let mut list = &rest[open..close];
    let mut names = Vec::new();
    while let Some(at) = list.find("\"name\"") {
        list = &list[at + "\"name\"".len()..];
        let start = list.find('"')? + 1;
        let len = list[start..].find('"')?;
        names.push(list[start..start + len].to_string());
        list = &list[start + len + 1..];
    }
    Some(names)
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.e2e("setup_s", 0.25, "s");
        r.count("ops.failed", 0);
        let line = r.json(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.violation("x".into());
        assert!(r.json(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn ratio_without_base_reports_counts_only() {
        let mut r = Report::default();
        r.ratio("prefetch.accuracy", Ratio { part: 0, base: 0 });
        let names: Vec<_> = r.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["prefetch.accuracy.part", "prefetch.accuracy.base"]);
    }

    #[test]
    fn manifest_lists_are_read_by_section() {
        let manifest = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "latency_ms", "unit": "ms"}],
            "per_layer": [{"name": "a.b", "unit": "ns"}]}"#;
        assert_eq!(
            manifest_names(manifest, "end_to_end").unwrap(),
            ["setup_s", "latency_ms"]
        );
        assert_eq!(manifest_names(manifest, "per_layer").unwrap(), ["a.b"]);
        assert_eq!(manifest_names(manifest, "absent"), None);

        let mut r = Report::default();
        r.e2e("latency_ms", 1.0, "ms");
        r.e2e("setup_s", 1.0, "s");
        r.check_manifest(manifest, false);
        assert!(r.correct());
        r.check_manifest(manifest, true);
        assert!(!r.correct(), "a.b is missing from the per-layer list");
    }

    #[test]
    fn absorb_keeps_own_metrics_and_adds_work() {
        let mut own = Report {
            attempted: 2,
            ..Report::default()
        };
        own.layer("rounds.timed", 10.0, "count");
        let mut side = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        side.e2e("setup_s", 1.0, "s");
        side.layer("rounds.timed", 4.0, "count");
        side.layer("wire.obs", 7.0, "count");
        side.violation("side gate".into());
        own.absorb(side);
        assert_eq!((own.attempted, own.failed), (5, 1));
        assert!(own.end_to_end.is_empty());
        let layers: Vec<_> = own
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(layers, [("rounds.timed", 10.0), ("wire.obs", 7.0)]);
        assert!(!own.correct());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
