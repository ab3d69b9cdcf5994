//! Cached experiment runner shared by the figure generators.

use std::collections::HashMap;

use ulmt_system::{Experiment, PrefetchScheme, RunResult};
use ulmt_workloads::App;

use crate::profile::Profile;

fn simulate(profile: &Profile, app: App, scheme: PrefetchScheme) -> RunResult {
    Experiment::new(profile.config, profile.workload(app))
        .scheme(scheme)
        .run()
}

/// Runs (app, scheme) simulations once and memoizes the results, since
/// several figures share the same underlying runs.
#[derive(Debug)]
pub struct Runner {
    profile: Profile,
    cache: HashMap<(App, PrefetchScheme), RunResult>,
}

impl Runner {
    /// Creates a runner for `profile`.
    pub fn new(profile: Profile) -> Self {
        Runner {
            profile,
            cache: HashMap::new(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Returns the (memoized) result of running `app` under `scheme`.
    pub fn run(&mut self, app: App, scheme: PrefetchScheme) -> &RunResult {
        let profile = &self.profile;
        self.cache.entry((app, scheme)).or_insert_with(|| {
            eprintln!("  running {} / {scheme} ...", app.name());
            simulate(profile, app, scheme)
        })
    }

    /// Pre-fills the cache for every not-yet-run pair of the `apps` ×
    /// `schemes` grid by fanning the missing simulations across the
    /// `ulmt_system::runner` worker pool. Results are identical to running
    /// them one by one through [`Runner::run`] — the simulations are
    /// deterministic — so the figure generators can warm their whole grid
    /// up front and then read every result from the cache.
    pub fn warm_grid(&mut self, apps: &[App], schemes: &[PrefetchScheme]) {
        let mut missing: Vec<(App, PrefetchScheme)> = Vec::new();
        for p in apps
            .iter()
            .flat_map(|&a| schemes.iter().map(move |&s| (a, s)))
        {
            if !self.cache.contains_key(&p) && !missing.contains(&p) {
                missing.push(p);
            }
        }
        if missing.is_empty() {
            return;
        }
        eprintln!(
            "  running {} simulations on {} workers ...",
            missing.len(),
            ulmt_system::worker_count().min(missing.len())
        );
        let results = ulmt_system::parallel_map(missing.clone(), |(app, scheme)| {
            simulate(&self.profile, app, scheme)
        });
        self.cache.extend(missing.into_iter().zip(results));
    }

    /// Speedup of `scheme` over NoPref for `app`.
    pub fn speedup(&mut self, app: App, scheme: PrefetchScheme) -> f64 {
        let base = self.run(app, PrefetchScheme::NoPref).exec_cycles;
        self.run(app, scheme).speedup_vs(base)
    }

    /// Arithmetic mean of per-application speedups for `scheme` (the
    /// paper reports "the average of the application speedups").
    pub fn mean_speedup(&mut self, scheme: PrefetchScheme) -> f64 {
        let sum: f64 = App::ALL.iter().map(|&a| self.speedup(a, scheme)).sum();
        sum / App::ALL.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_runs() {
        let mut r = Runner::new(Profile::small());
        let a = r.run(App::Tree, PrefetchScheme::NoPref).exec_cycles;
        let b = r.run(App::Tree, PrefetchScheme::NoPref).exec_cycles;
        assert_eq!(a, b);
        assert_eq!(r.cache.len(), 1);
    }

    #[test]
    fn warm_matches_serial_runs() {
        let schemes = [PrefetchScheme::NoPref, PrefetchScheme::Repl];
        let mut warmed = Runner::new(Profile::small());
        warmed.warm_grid(&[App::Tree], &schemes);
        assert_eq!(warmed.cache.len(), 2);
        let mut cold = Runner::new(Profile::small());
        for s in schemes {
            assert_eq!(
                warmed.run(App::Tree, s).fingerprint(),
                cold.run(App::Tree, s).fingerprint(),
                "warm/serial divergence under {s}"
            );
        }
    }

    #[test]
    fn speedup_of_nopref_is_one() {
        let mut r = Runner::new(Profile::small());
        let s = r.speedup(App::Tree, PrefetchScheme::NoPref);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
