//! Parallel experiment harness.
//!
//! Every figure and table of the paper is produced by sweeping
//! applications × schemes through independent
//! [`Experiment`](crate::Experiment) runs — an embarrassingly parallel
//! workload. This module fans such runs across a
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
//! use ulmt_system::runner::parallel_map;
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
//! let results = parallel_map(experiments, Experiment::run);
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].scheme, "NoPref"); // input order preserved
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, PoisonError};

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

/// [`parallel_map_with`] using the default [`worker_count`].
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, worker_count(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::experiment::Experiment;
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

    /// A parallel sweep returns bit-identical `RunResult`s, in the same
    /// order, as the serial path for all `PrefetchScheme::FIGURE7`
    /// schemes on two apps.
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
        let serial = parallel_map_with(experiments(&apps), 1, Experiment::run);
        let parallel = parallel_map_with(experiments(&apps), 4, Experiment::run);
        assert_eq!(serial.len(), 14);
        assert_eq!(parallel.len(), 14);
        for (s, p) in serial.iter().zip(&parallel) {
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
}
