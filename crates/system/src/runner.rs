//! Parallel experiment harness.
//!
//! Every figure and table of the paper is produced by sweeping
//! applications × schemes through independent [`Experiment`] runs — an
//! embarrassingly parallel workload. This module fans such runs across a
//! worker pool of scoped OS threads (`std` only, no external crates)
//! while keeping the one property the experiment pipeline depends on:
//! **results come back in input order, bit-identical to a serial run**.
//! Each simulation is fully deterministic and shares no mutable state, so
//! parallel execution cannot perturb the measurements — only the wall
//! clock.
//!
//! Workers default to [`std::thread::available_parallelism`] and can be
//! pinned with the `ULMT_WORKERS` environment variable (e.g.
//! `ULMT_WORKERS=1` forces serial execution for debugging).
//!
//! # Example
//!
//! ```
//! use ulmt_system::runner::{run_experiments, parallel_map};
//! use ulmt_system::{Experiment, PrefetchScheme, SystemConfig};
//! use ulmt_workloads::{App, WorkloadSpec};
//!
//! let experiments: Vec<Experiment> = [PrefetchScheme::NoPref, PrefetchScheme::Repl]
//!     .into_iter()
//!     .map(|s| {
//!         let spec = WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2);
//!         Experiment::new(SystemConfig::small(), spec).scheme(s)
//!     })
//!     .collect();
//! let sweep = run_experiments(experiments);
//! assert_eq!(sweep.results.len(), 2);
//! assert_eq!(sweep.results[0].scheme, "NoPref"); // input order preserved
//! assert!(sweep.cycles_per_wall_sec() > 0.0);
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Instant;

use crate::experiment::Experiment;
use crate::result::RunResult;

/// Parses a `ULMT_WORKERS`-style override: `Some(n)` for a positive
/// integer, `None` for anything else (empty, non-numeric, zero).
pub fn parse_workers(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Number of workers the harness uses by default: `ULMT_WORKERS` if set
/// to a positive integer, otherwise the machine's available parallelism —
/// and never more than the machine's available parallelism. The jobs are
/// CPU-bound with no blocking I/O, so oversubscription only adds
/// scheduler noise to the wall-clock measurements; an oversized override
/// is clamped (with a one-time warning) instead of honored.
///
/// An unusable `ULMT_WORKERS` value (non-numeric or `0`) used to fall
/// through silently; it now warns once on stderr and falls back to the
/// machine default, so a typo in a sweep script cannot silently serialize
/// (or mis-parallelize) a whole figure run.
pub fn worker_count() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("ULMT_WORKERS") {
        Ok(v) => match parse_workers(&v) {
            Some(n) if n > cores => {
                static CLAMP: Once = Once::new();
                CLAMP.call_once(|| {
                    eprintln!(
                        "warning: ULMT_WORKERS={n} exceeds available parallelism; \
                         clamping to {cores}"
                    );
                });
                cores
            }
            Some(n) => n,
            None => {
                static WARN: Once = Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "warning: ULMT_WORKERS={v:?} is not a positive integer; \
                         falling back to available parallelism"
                    );
                });
                cores
            }
        },
        Err(_) => cores,
    }
}

/// Applies `f` to every item on a pool of `workers` scoped threads and
/// returns the results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor over the job list),
/// so a few slow jobs — e.g. paper-scale FT next to small Tree runs — do
/// not idle the rest of the pool. With `workers == 1` (or a single item)
/// no threads are spawned and the items are mapped inline.
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated once all
/// workers have stopped).
pub fn parallel_map_with<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    // Jobs are claimed exactly once via the atomic cursor; the mutexes
    // only hand values across the thread boundary and are never contended.
    // Poisoning is recovered everywhere: a worker that panicked mid-`f`
    // never holds a lock across the panic, so the protected values stay
    // consistent and one dead worker must not cascade into harness aborts.
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each job is claimed exactly once");
                let result = f(item);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// [`parallel_map_with`] with per-job panic isolation.
///
/// Each job runs under `catch_unwind`: a panicking job yields
/// `Err("panicked: ...")` and a job that returns `Err` keeps its error.
/// Neither is retried, because every job is a deterministic simulation
/// that would fail the same way again. Results come back in input order;
/// one poisoned job cannot take down the whole map.
pub fn try_parallel_map_with<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R, String> + Sync,
{
    parallel_map_with(items, workers, |item: T| {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(item)))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload.as_ref()))))
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// [`parallel_map_with`] using the default [`worker_count`].
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, worker_count(), f)
}

/// One experiment the sweep could not complete, itemized for the report.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Index of the experiment in the input vector.
    pub index: usize,
    /// Application label of the failed experiment.
    pub app: String,
    /// Scheme label of the failed experiment.
    pub scheme: String,
    /// The final error (a typed [`crate::error::RunError`] rendered to
    /// text, or `panicked: ...` for an isolated panic).
    pub error: String,
}

/// The outcome of one sweep: per-run results (in input order) plus the
/// sweep's wall-clock throughput and any jobs that could not complete.
///
/// A sweep degrades gracefully: a panicking or watchdog-cancelled job is
/// removed from [`SweepResult::results`] and itemized in
/// [`SweepResult::failed`] instead of aborting the other jobs. When
/// `failed` is empty, `results` is exactly the historical all-success
/// vector (input order, one entry per experiment).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One [`RunResult`] per *completed* experiment, in input order.
    pub results: Vec<RunResult>,
    /// Experiments that failed, in input order.
    pub failed: Vec<JobFailure>,
    /// Wall-clock time of the whole sweep in nanoseconds.
    pub wall_nanos: u64,
    /// Workers the sweep ran with.
    pub workers: usize,
}

impl SweepResult {
    /// Jobs the sweep was asked to run (completed + failed).
    pub fn total_jobs(&self) -> usize {
        self.results.len() + self.failed.len()
    }

    /// Jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.results.len()
    }

    /// Total simulated cycles across all runs.
    pub fn total_cycles(&self) -> u64 {
        self.results.iter().map(|r| r.exec_cycles).sum()
    }

    /// Sweep throughput: simulated cycles per wall-clock second.
    ///
    /// On an N-core machine this approaches N × the single-run
    /// throughput; the ratio against a serial sweep is the harness
    /// speedup.
    pub fn cycles_per_wall_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.total_cycles() as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// A compact human-readable throughput report: one line per run plus
    /// the sweep aggregate.
    pub fn throughput_report(&self) -> String {
        let mut s = String::new();
        for r in &self.results {
            s.push_str(&format!(
                "  {:<8} {:<16} {:>12} cycles {:>8.1} ms {:>12.0} cyc/s\n",
                r.app,
                r.scheme,
                r.exec_cycles,
                r.wall_nanos as f64 / 1e6,
                r.cycles_per_wall_sec()
            ));
        }
        for fail in &self.failed {
            s.push_str(&format!(
                "  {:<8} {:<16} FAILED: {}\n",
                fail.app, fail.scheme, fail.error
            ));
        }
        s.push_str(&format!(
            "sweep: {}/{} runs completed on {} workers, {:.1} ms wall, \
             {:.0} simulated cycles/s\n",
            self.completed(),
            self.total_jobs(),
            self.workers,
            self.wall_nanos as f64 / 1e6,
            self.cycles_per_wall_sec()
        ));
        s
    }
}

/// Runs `experiments` on `workers` threads, collecting completed results
/// in input order with sweep timing. Jobs are panic-isolated; a job that
/// panics or fails (e.g. exceeds its cycle budget) lands in
/// [`SweepResult::failed`] instead of aborting the others.
pub fn run_experiments_with(experiments: Vec<Experiment>, workers: usize) -> SweepResult {
    let start = Instant::now();
    let labels: Vec<(String, String)> = experiments.iter().map(Experiment::labels).collect();
    let outcomes = try_parallel_map_with(experiments, workers, |e: Experiment| {
        e.run_guarded().map_err(|err| err.to_string())
    });
    let mut results = Vec::new();
    let mut failed = Vec::new();
    for (index, (outcome, (app, scheme))) in outcomes.into_iter().zip(labels).enumerate() {
        match outcome {
            Ok(r) => results.push(r),
            Err(error) => failed.push(JobFailure {
                index,
                app,
                scheme,
                error,
            }),
        }
    }
    SweepResult {
        results,
        failed,
        wall_nanos: start.elapsed().as_nanos() as u64,
        workers,
    }
}

/// Runs `experiments` on the default worker pool.
pub fn run_experiments(experiments: Vec<Experiment>) -> SweepResult {
    run_experiments_with(experiments, worker_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::scheme::PrefetchScheme;
    use ulmt_workloads::{App, WorkloadSpec};

    #[test]
    fn parallel_map_preserves_input_order() {
        // Jobs with deliberately inverted cost ordering: the first jobs
        // are the slowest, so a naive completion-order collection would
        // return them last.
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map_with(items.clone(), 8, |i| {
            let spin = (40 - i) * 1000;
            let mut acc = i;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_with(empty, 4, |x: u32| x).is_empty());
        assert_eq!(parallel_map_with(vec![7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_respects_env_override() {
        // The test environment may or may not set ULMT_WORKERS; only
        // check the invariant that holds either way.
        assert!(worker_count() >= 1);
    }

    #[test]
    fn parse_workers_accepts_positive_and_rejects_garbage() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 12 "), Some(12));
        assert_eq!(parse_workers("0"), None);
        assert_eq!(parse_workers(""), None);
        assert_eq!(parse_workers("four"), None);
        assert_eq!(parse_workers("-3"), None);
        assert_eq!(parse_workers("2.5"), None);
    }

    #[test]
    fn try_parallel_map_isolates_panics_and_counts_attempts() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<u32> = (0..6).collect();
        let attempts: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let outcomes = try_parallel_map_with(items, 3, |i: u32| {
            attempts[i as usize].fetch_add(1, Ordering::SeqCst);
            if i == 2 {
                panic!("job {i} exploded");
            }
            if i == 4 {
                return Err(format!("job {i} refused"));
            }
            Ok(i * 10)
        });
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            match i {
                2 => {
                    let err = o.as_ref().unwrap_err();
                    assert!(
                        err.contains("panicked") && err.contains("exploded"),
                        "{err}"
                    );
                }
                4 => assert_eq!(o.as_ref().unwrap_err(), "job 4 refused"),
                _ => assert_eq!(*o.as_ref().unwrap(), i as u32 * 10),
            }
        }
        // Panics and typed errors alike run exactly once: no retries.
        assert!(attempts.iter().all(|a| a.load(Ordering::SeqCst) == 1));
    }

    /// The satellite acceptance test: a parallel sweep returns
    /// bit-identical `RunResult`s, in the same order, as the serial path
    /// for all `PrefetchScheme::FIGURE7` schemes on two apps.
    #[test]
    fn parallel_sweep_matches_serial_figure7() {
        let experiments = |apps: &[App]| -> Vec<Experiment> {
            apps.iter()
                .flat_map(|&app| {
                    PrefetchScheme::FIGURE7.iter().map(move |&s| {
                        let spec = WorkloadSpec::new(app).scale(1.0 / 16.0).iterations(3);
                        Experiment::new(SystemConfig::small(), spec).scheme(s)
                    })
                })
                .collect()
        };
        let apps = [App::Mcf, App::Gap];
        let serial = run_experiments_with(experiments(&apps), 1);
        let parallel = run_experiments_with(experiments(&apps), 4);
        assert_eq!(parallel.workers, 4);
        assert_eq!(serial.results.len(), 14);
        assert_eq!(parallel.results.len(), 14);
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(s.scheme, p.scheme);
            assert_eq!(s.app, p.app);
            assert_eq!(s.exec_cycles, p.exec_cycles);
            assert_eq!(
                s.fingerprint(),
                p.fingerprint(),
                "diverged on {}/{}",
                s.app,
                s.scheme
            );
        }
    }

    #[test]
    fn sweep_throughput_is_measured() {
        let spec = WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2);
        let sweep = run_experiments(vec![
            Experiment::new(SystemConfig::small(), spec.clone()),
            Experiment::new(SystemConfig::small(), spec).scheme(PrefetchScheme::Repl),
        ]);
        assert!(sweep.wall_nanos > 0);
        assert!(sweep.total_cycles() > 0);
        assert!(sweep.cycles_per_wall_sec() > 0.0);
        let report = sweep.throughput_report();
        assert!(report.contains("sweep:"), "{report}");
        assert!(report.contains("cyc/s"), "{report}");
        // Per-run wall time was recorded by the simulator itself.
        assert!(sweep.results.iter().all(|r| r.wall_nanos > 0));
    }
}
