//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A disabled [`Spans`] records nothing and reads no clock, so untraced
//! runs pay one branch per call site. A traced run keeps every span in
//! memory and writes them out as JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `"service.session.submit"`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one unit of work (a batch, a
    /// simulation round).
    pub batch: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus the time their direct children
    /// cover, nanoseconds.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, batch: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, batch);
        let out = f();
        self.exit();
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total and self time per span name. Children of one span run one
    /// after another on this thread, so the part of a span's interval
    /// its children cover is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let x = spans.scope("a", 0, || 5);
        assert_eq!(x, 5);
        assert_eq!(spans.len(), 0);
        assert!(spans.self_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::new(true);
        spans.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                batch: 1,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                batch: 1,
            },
            Span {
                name: "leaf",
                start_ns: 15,
                end_ns: 35,
                parent: Some(1),
                batch: 1,
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                batch: 1,
            },
        ];
        let t = spans.self_times();
        assert_eq!(
            t["root"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(
            t["child"],
            SelfTime {
                count: 2,
                total_ns: 40,
                self_ns: 20
            }
        );
        assert_eq!(t["leaf"].self_ns, 20);
    }

    #[test]
    fn nesting_links_parents() {
        let mut spans = Spans::new(true);
        spans.enter("outer", 7);
        spans.scope("inner", 7, || ());
        spans.exit();
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert!(spans.spans[0].end_ns >= spans.spans[1].end_ns);
    }
}
