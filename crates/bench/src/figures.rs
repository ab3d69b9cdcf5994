//! Regeneration of Figures 5–11.

use ulmt_core::algorithm::{Combined, UlmtAlgorithm};
use ulmt_core::predict::PredictionScorer;
use ulmt_core::seq::SeqUlmt;
use ulmt_core::table::{Base, Chain, Replicated, TableParams};
use ulmt_system::{l2_miss_stream_with, PrefetchScheme};
use ulmt_workloads::App;

use crate::profile::Profile;
use crate::runner::Runner;

fn pct(x: f64) -> String {
    format!("{:5.1}", 100.0 * x)
}

/// The algorithms compared in Figure 5, per level.
fn fig5_algorithms(num_rows: usize) -> Vec<(&'static str, Box<dyn UlmtAlgorithm>)> {
    // "The experiments for the pair-based schemes use large tables ...
    // NumRows is 256 K, Assoc is 4, and NumSucc is 4."
    let params = TableParams {
        num_rows,
        assoc: 4,
        num_succ: 4,
        num_levels: 3,
    };
    let seq4 = || Box::new(SeqUlmt::seq4());
    let base = || {
        Box::new(Base::new(TableParams {
            num_levels: 1,
            ..params
        }))
    };
    let repl = || Box::new(Replicated::new(params));
    vec![
        ("Seq1", Box::new(SeqUlmt::seq1()) as Box<dyn UlmtAlgorithm>),
        ("Seq4", seq4()),
        ("Base", base()),
        ("Seq4+Base", Box::new(Combined::new(vec![seq4(), base()]))),
        ("Chain", Box::new(Chain::new(params))),
        ("Repl", repl()),
        ("Seq4+Repl", Box::new(Combined::new(vec![seq4(), repl()]))),
    ]
}

/// Figure 5: fraction of L2 misses correctly predicted at levels 1–3.
pub fn fig5(profile: &Profile) -> String {
    let mut out = String::new();
    out.push_str("Figure 5. % of L2 misses correctly predicted per level\n");
    let mut per_alg: Vec<(&str, Vec<[f64; 3]>)> = Vec::new();
    for app in App::ALL {
        eprintln!("  predicting {} ...", app.name());
        let spec = profile.workload(app);
        let misses: Vec<_> = l2_miss_stream_with(&profile.config, &spec).collect();
        let num_rows = (4 * spec.footprint_lines() as usize).next_power_of_two();
        for (i, (name, mut alg)) in fig5_algorithms(num_rows).into_iter().enumerate() {
            let mut scorer = PredictionScorer::new(3);
            for &m in &misses {
                scorer.observe(alg.as_mut(), m);
            }
            if per_alg.len() <= i {
                per_alg.push((name, Vec::new()));
            }
            per_alg[i]
                .1
                .push([scorer.accuracy(1), scorer.accuracy(2), scorer.accuracy(3)]);
        }
    }
    for level in 0..3 {
        out.push_str(&format!("\nLevel {}\n{:<12}", level + 1, "Algorithm"));
        for app in App::ALL {
            out.push_str(&format!("{:>8}", app.name()));
        }
        out.push_str(&format!("{:>8}\n", "Avg"));
        for (name, rows) in &per_alg {
            // Base only stores one level of successors.
            if level > 0 && (*name == "Base" || *name == "Seq4+Base") {
                continue;
            }
            out.push_str(&format!("{name:<12}"));
            let mut sum = 0.0;
            for acc in rows {
                out.push_str(&format!("{:>8}", pct(acc[level])));
                sum += acc[level];
            }
            out.push_str(&format!("{:>8}\n", pct(sum / rows.len() as f64)));
        }
    }
    out
}

/// Figure 6: distribution of cycles between consecutive L2 misses
/// arriving at memory (NoPref).
pub fn fig6(runner: &mut Runner) -> String {
    runner.warm_grid(&App::ALL, &[PrefetchScheme::NoPref]);
    let mut out = String::new();
    out.push_str("Figure 6. Time between L2 misses at memory (NoPref)\n");
    let labels = ulmt_simcore::stats::BinnedHistogram::inter_miss().labels();
    out.push_str(&format!("{:<8}", "App"));
    for l in &labels {
        out.push_str(&format!("{l:>12}"));
    }
    out.push('\n');
    let mut sums = vec![0.0; labels.len()];
    for app in App::ALL {
        let r = runner.run(app, PrefetchScheme::NoPref);
        let fr = r.inter_miss.fractions();
        out.push_str(&format!("{:<8}", app.name()));
        for (i, f) in fr.iter().enumerate() {
            out.push_str(&format!("{:>11}%", pct(*f).trim()));
            sums[i] += f;
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<8}", "Average"));
    for s in &sums {
        out.push_str(&format!("{:>11}%", pct(*s / App::ALL.len() as f64).trim()));
    }
    out.push('\n');
    out
}

/// Figure 7: normalized execution time under the seven schemes.
pub fn fig7(runner: &mut Runner) -> String {
    runner.warm_grid(&App::ALL, &PrefetchScheme::FIGURE7);
    let mut out = String::new();
    out.push_str("Figure 7. Execution time normalized to NoPref (Busy/UptoL2/BeyondL2)\n");
    for app in App::ALL {
        let base = runner.run(app, PrefetchScheme::NoPref).exec_cycles;
        out.push_str(&format!("\n{}\n", app.name()));
        out.push_str(&format!(
            "{:<16} {:>6} {:>6} {:>8} {:>7} {:>8}\n",
            "Scheme", "Busy", "UptoL2", "BeyondL2", "Total", "Speedup"
        ));
        for scheme in PrefetchScheme::FIGURE7 {
            let r = runner.run(app, scheme);
            let (busy, upto, beyond) = r.breakdown.normalized_to(base);
            let total = r.exec_cycles as f64 / base as f64;
            out.push_str(&format!(
                "{:<16} {:>6.3} {:>6.3} {:>8.3} {:>7.3} {:>8.2}\n",
                scheme.label(),
                busy,
                upto,
                beyond,
                total,
                base as f64 / r.exec_cycles as f64
            ));
        }
    }
    out.push_str("\nAverage speedups over NoPref\n");
    for scheme in PrefetchScheme::FIGURE7 {
        out.push_str(&format!(
            "{:<16} {:>6.2}\n",
            scheme.label(),
            runner.mean_speedup(scheme)
        ));
    }
    out
}

/// Figure 8: memory-processor location (in-DRAM vs North Bridge).
pub fn fig8(runner: &mut Runner) -> String {
    let schemes = [
        PrefetchScheme::NoPref,
        PrefetchScheme::Conven4Repl,
        PrefetchScheme::Conven4ReplMc,
    ];
    runner.warm_grid(&App::ALL, &schemes);
    let mut out = String::new();
    out.push_str("Figure 8. Execution time vs. memory processor location\n");
    out.push_str(&format!("{:<8}", "App"));
    for s in schemes {
        out.push_str(&format!("{:>16}", s.label()));
    }
    out.push('\n');
    for app in App::ALL {
        let base = runner.run(app, PrefetchScheme::NoPref).exec_cycles;
        out.push_str(&format!("{:<8}", app.name()));
        for scheme in schemes {
            let r = runner.run(app, scheme);
            out.push_str(&format!("{:>16.3}", r.exec_cycles as f64 / base as f64));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "Average speedups: Conven4+Repl {:.2}, Conven4+ReplMC {:.2}\n",
        runner.mean_speedup(PrefetchScheme::Conven4Repl),
        runner.mean_speedup(PrefetchScheme::Conven4ReplMc)
    ));
    out
}

/// Figure 9: breakdown of L2 misses + ULMT prefetches, normalized to the
/// NoPref miss count.
pub fn fig9(runner: &mut Runner) -> String {
    let schemes = [
        PrefetchScheme::Base,
        PrefetchScheme::Chain,
        PrefetchScheme::Repl,
        PrefetchScheme::Conven4Repl,
        PrefetchScheme::Conven4ReplMc,
    ];
    runner.warm_grid(&App::ALL, &schemes);
    runner.warm_grid(&App::ALL, &[PrefetchScheme::NoPref]);
    let mut out = String::new();
    out.push_str("Figure 9. L2 misses + prefetches, normalized to NoPref misses\n");
    let groups: Vec<(String, Vec<App>)> = vec![
        ("Sparse".into(), vec![App::Sparse]),
        ("Tree".into(), vec![App::Tree]),
        (
            "Avg-other-7".into(),
            App::ALL
                .iter()
                .copied()
                .filter(|a| *a != App::Sparse && *a != App::Tree)
                .collect(),
        ),
    ];
    for (label, apps) in groups {
        out.push_str(&format!(
            "\n{label}\n{:<16} {:>6} {:>8} {:>9} {:>9} {:>10} {:>9}\n",
            "Scheme", "Hits", "Delayed", "NonPref", "Replaced", "Redundant", "Coverage"
        ));
        for scheme in schemes {
            let mut acc = [0.0f64; 6];
            for &app in &apps {
                let original = runner.run(app, PrefetchScheme::NoPref).l2_misses.max(1) as f64;
                let r = runner.run(app, scheme);
                let p = &r.prefetch;
                acc[0] += p.hits as f64 / original;
                acc[1] += p.delayed_hits as f64 / original;
                acc[2] += p.non_pref_misses as f64 / original;
                acc[3] += p.replaced as f64 / original;
                acc[4] += p.redundant as f64 / original;
                acc[5] += (p.hits + p.delayed_hits) as f64 / original;
            }
            let n = apps.len() as f64;
            out.push_str(&format!(
                "{:<16} {:>6.2} {:>8.2} {:>9.2} {:>9.2} {:>10.2} {:>9.2}\n",
                scheme.label(),
                acc[0] / n,
                acc[1] / n,
                acc[2] / n,
                acc[3] / n,
                acc[4] / n,
                acc[5] / n
            ));
        }
    }
    out
}

/// Figure 10: ULMT response and occupancy times.
pub fn fig10(runner: &mut Runner) -> String {
    let schemes = [
        PrefetchScheme::Base,
        PrefetchScheme::Chain,
        PrefetchScheme::Repl,
        PrefetchScheme::ReplMc,
    ];
    runner.warm_grid(&App::ALL, &schemes);
    let mut out = String::new();
    out.push_str("Figure 10. Average ULMT response/occupancy (main-processor cycles)\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>11} {:>8} {:>8} {:>6}\n",
        "Algorithm", "Response", "Occupancy", "Busy%", "Mem%", "IPC"
    ));
    for scheme in schemes {
        let (mut resp, mut occ, mut memf, mut ipc) = (0.0, 0.0, 0.0, 0.0);
        let mut n = 0.0;
        for app in App::ALL {
            let r = runner.run(app, scheme);
            let Some(u) = &r.ulmt else { continue };
            resp += u.response.mean();
            occ += u.occupancy.mean();
            memf += u.mem_fraction();
            ipc += u.ipc();
            n += 1.0;
        }
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>11.1} {:>7.1}% {:>7.1}% {:>6.2}\n",
            scheme.label(),
            resp / n,
            occ / n,
            100.0 * (1.0 - memf / n),
            100.0 * memf / n,
            ipc / n
        ));
    }
    out
}

/// Figure 11: main-memory (front-side) bus utilization.
pub fn fig11(runner: &mut Runner) -> String {
    let schemes = [
        PrefetchScheme::NoPref,
        PrefetchScheme::Conven4,
        PrefetchScheme::Base,
        PrefetchScheme::Chain,
        PrefetchScheme::Repl,
        PrefetchScheme::Conven4Repl,
        PrefetchScheme::Conven4ReplMc,
    ];
    runner.warm_grid(&App::ALL, &schemes);
    let mut out = String::new();
    out.push_str("Figure 11. FSB utilization (average over applications)\n");
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>12} {:>12}\n",
        "Scheme", "Total", "Baseline", "FasterExec", "PrefTraffic"
    ));
    let base_utils: Vec<(f64, f64)> = App::ALL
        .iter()
        .map(|&a| {
            let r = runner.run(a, PrefetchScheme::NoPref);
            (r.fsb_utilization, r.exec_cycles as f64)
        })
        .collect();
    for scheme in schemes {
        let (mut total, mut baseline, mut faster, mut pref) = (0.0, 0.0, 0.0, 0.0);
        for (i, &app) in App::ALL.iter().enumerate() {
            let r = runner.run(app, scheme);
            let (u0, t0) = base_utils[i];
            let scaled_u0 = u0 * (t0 / r.exec_cycles as f64);
            total += r.fsb_utilization;
            baseline += u0;
            faster += (scaled_u0 - u0).max(0.0);
            pref += (r.fsb_utilization - scaled_u0).max(0.0);
        }
        let n = App::ALL.len() as f64;
        out.push_str(&format!(
            "{:<16} {:>7.1}% {:>9.1}% {:>11.1}% {:>11.1}%\n",
            scheme.label(),
            100.0 * total / n,
            100.0 * baseline / n,
            100.0 * faster / n,
            100.0 * pref / n
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_runner() -> Runner {
        Runner::new(Profile::small())
    }

    #[test]
    fn fig5_smoke_on_two_apps() {
        // Full fig5 is exercised by the bench; here: a tiny profile works
        // and produces sane accuracy ordering on one app.
        let profile = Profile::small();
        // Enough iterations that the first (unlearnable) pass does not
        // dominate the accuracy denominator.
        let spec = profile.workload(App::Mcf).iterations(8);
        let misses: Vec<_> = l2_miss_stream_with(&profile.config, &spec).collect();
        let num_rows = (4 * spec.footprint_lines() as usize).next_power_of_two();
        let mut accs = Vec::new();
        for (name, mut alg) in fig5_algorithms(num_rows) {
            let mut scorer = PredictionScorer::new(3);
            for &m in &misses {
                scorer.observe(alg.as_mut(), m);
            }
            accs.push((name, scorer.accuracy(1)));
        }
        let get = |n: &str| {
            accs.iter()
                .find(|(a, _)| *a == n)
                .expect("algorithm exists")
                .1
        };
        // Pair-based predicts Mcf; sequential cannot.
        assert!(get("Base") > 0.45, "base {}", get("Base"));
        assert!(get("Seq4") < 0.1, "seq4 {}", get("Seq4"));
        assert!(get("Repl") > 0.45, "repl {}", get("Repl"));
        assert!(get("Base") > 3.0 * get("Seq4"));
    }

    #[test]
    fn fig6_output_contains_all_apps() {
        // Use a single app to keep it fast: patch in a tiny subset by
        // running the full fig6 at small scale for Tree only would need
        // API changes, so just smoke the whole thing at small scale.
        let mut r = small_runner();
        let text = fig6(&mut r);
        assert!(text.contains("Mcf"));
        assert!(text.contains("[200,280)"));
    }
}
