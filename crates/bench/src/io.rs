//! Trace-file writers for the `inspect` binary.

use std::io::Write as _;
use std::path::Path;

use ulmt_simcore::TraceBuffer;

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file (`<path>.tmp.<pid>`) which is persisted and then renamed
/// over the destination. A crash, panic, or watchdog kill mid-write can
/// therefore never leave a truncated or interleaved trace file behind —
/// readers see either the old complete file or the new complete file.
pub fn atomic_write(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension(format!(
        "{}tmp.{}",
        path.extension()
            .map(|e| format!("{}.", e.to_string_lossy()))
            .unwrap_or_default(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original destination is untouched.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes an event trace as JSON Lines (one `{"at":..,"ev":..}` object
/// per line), atomically.
pub fn write_trace_jsonl(path: impl AsRef<Path>, trace: &TraceBuffer) -> std::io::Result<()> {
    atomic_write(path, &trace.to_jsonl())
}

/// Writes an event trace in the Chrome `trace_event` format, atomically.
/// The file loads directly into Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`.
pub fn write_trace_chrome(path: impl AsRef<Path>, trace: &TraceBuffer) -> std::io::Result<()> {
    atomic_write(path, &trace.to_chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("ulmt_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        atomic_write(&path, "{\"v\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 1}\n");
        atomic_write(&path, "{\"v\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 2}\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_exports_round_trip_to_disk() {
        use ulmt_simcore::{LineAddr, TraceConfig, TraceEvent};
        let mut buf = TraceBuffer::new(TraceConfig::with_capacity(8));
        buf.record(
            3,
            TraceEvent::Q3Enqueue {
                line: LineAddr::new(7),
            },
        );
        let dir = std::env::temp_dir().join(format!("ulmt_trace_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("run.trace.jsonl");
        let chrome = dir.join("run.trace.json");
        write_trace_jsonl(&jsonl, &buf).unwrap();
        write_trace_chrome(&chrome, &buf).unwrap();
        let j = std::fs::read_to_string(&jsonl).unwrap();
        assert!(j.contains("\"ev\":\"q3_enqueue\""), "{j}");
        let c = std::fs::read_to_string(&chrome).unwrap();
        assert!(c.contains("traceEvents"), "{c}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
