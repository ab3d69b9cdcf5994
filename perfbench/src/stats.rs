//! Order statistics and ratios the benchmark reports.

/// A nearest-rank percentile of a sample set, with the sample count it
/// rests on and the number of samples strictly above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (a member of the sample set).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank percentile `pct` (0..=100) of `samples`: the smallest
/// sample with at least `pct`% of the set at or below it. `None` for an
/// empty set. The input need not be sorted.
pub fn percentile(samples: &[f64], pct: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    let value = sorted[rank.clamp(1, n) - 1];
    let beyond = sorted.iter().filter(|&&x| x > value).count();
    Some(Percentile {
        value,
        samples: n,
        beyond,
    })
}

/// The nearest-rank median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Rounds worse than the one an end-to-end metric reports.
const SLOW_SKIP: usize = 4;

/// The fifth-lowest per-round rate (the lowest with fewer than five
/// rounds; 0 for none). End-to-end rates report the slow end of the
/// rounds because the host runs the program in a slower and a faster
/// regime, and the share of fast rounds in a run moves a median far more
/// than the slow end, while a burst of up to four disturbed rounds does
/// not reach it (see README).
pub fn slow_rate(per_round: &[f64]) -> f64 {
    let mut sorted = per_round.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = if sorted.len() > SLOW_SKIP {
        SLOW_SKIP
    } else {
        0
    };
    sorted.get(rank).copied().unwrap_or(0.0)
}

/// The fifth-highest per-round latency (the highest with fewer than five
/// rounds; 0 for none), for the reason [`slow_rate`] gives.
pub fn slow_latency(per_round: &[f64]) -> f64 {
    let negated: Vec<f64> = per_round.iter().map(|x| -x).collect();
    -slow_rate(&negated)
}

/// A ratio reported together with its base, so a reader can tell a
/// 0.5 from 1 of 2 apart from a 0.5 from 5000 of 10000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator count.
    pub part: u64,
    /// Denominator count: the base the ratio is taken over.
    pub base: u64,
}

impl Ratio {
    /// `part / base`, or `None` when the base is empty.
    pub fn value(self) -> Option<f64> {
        (self.base > 0).then(|| self.part as f64 / self.base as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_set_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_of_single_sample() {
        for pct in [0.0, 50.0, 99.0, 100.0] {
            let p = percentile(&[7.0], pct).unwrap();
            assert_eq!((p.value, p.samples, p.beyond), (7.0, 1, 0));
        }
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&xs, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn percentile_rounds_rank_up_on_even_sets() {
        let p = percentile(&[4.0, 1.0, 3.0, 2.0], 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (2.0, 2));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        let p = percentile(&[4.0, 1.0, 3.0, 2.0], 51.0).unwrap();
        assert_eq!((p.value, p.beyond), (3.0, 1));
    }

    #[test]
    fn beyond_counts_only_strictly_greater_samples() {
        // Ties at the percentile value are not "beyond" it.
        let p = percentile(&[1.0, 5.0, 5.0, 5.0, 9.0], 50.0).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (5.0, 5, 1));
        let p = percentile(&[3.0; 20], 90.0).unwrap();
        assert_eq!((p.value, p.beyond), (3.0, 0));
    }

    #[test]
    fn slow_end_of_the_rounds() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // Four rounds are slower than the slow rate, four slower than the
        // slow latency.
        assert_eq!(slow_rate(&xs), 5.0);
        assert_eq!(slow_latency(&xs), 16.0);
        // Fewer than five rounds: the worst one.
        assert_eq!(slow_rate(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(slow_latency(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(slow_rate(&[]), 0.0);
        assert_eq!(slow_latency(&[]), 0.0);
    }

    #[test]
    fn ratio_with_base() {
        let r = Ratio { part: 3, base: 4 };
        assert_eq!(r.value(), Some(0.75));
        assert_eq!(Ratio { part: 0, base: 10 }.value(), Some(0.0));
        assert_eq!(Ratio { part: 5, base: 0 }.value(), None);
        // The base survives next to the value: equal values, different
        // bases stay distinguishable.
        let small = Ratio { part: 1, base: 2 };
        let large = Ratio {
            part: 5000,
            base: 10000,
        };
        assert_eq!(small.value(), large.value());
        assert_ne!(small, large);
    }
}
