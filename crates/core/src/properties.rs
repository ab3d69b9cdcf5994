//! Table 1: qualitative comparison of the correlation algorithms,
//! *measured from the real data structures* rather than asserted.
//!
//! For each algorithm we train on a short repeating miss sequence and
//! count, per observed miss, the number of distinct table rows accessed in
//! the Prefetching step (which require an associative search) and in the
//! Learning step (which do not), exactly the quantities Table 1 tabulates.

use ulmt_simcore::LineAddr;

use crate::algorithm::UlmtAlgorithm;
use crate::cost::StepResult;
use crate::table::{Base, Chain, Replicated, TableParams};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmProperties {
    /// Algorithm name.
    pub name: String,
    /// Levels of successors prefetched.
    pub levels_prefetched: usize,
    /// Whether each level holds the *true* MRU successors.
    pub true_mru_per_level: bool,
    /// Measured row accesses in the Prefetching step (searches).
    pub prefetch_row_accesses: f64,
    /// Measured row accesses in the Learning step (no searches).
    pub learn_row_accesses: f64,
    /// Response-time class as the paper reports it.
    pub response: ResponseClass,
    /// Space requirement relative to Base for a constant number of
    /// prefetches (Table 1's last row: Repl needs `NumLevels` times the
    /// successor storage).
    pub relative_space: f64,
}

/// Response-time class (Table 1's qualitative "Low"/"High").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseClass {
    /// A single row access in the prefetching step.
    Low,
    /// Multiple dependent row accesses in the prefetching step.
    High,
}

impl std::fmt::Display for ResponseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResponseClass::Low => write!(f, "Low"),
            ResponseClass::High => write!(f, "High"),
        }
    }
}

/// Measures a trained algorithm: average rows read in the prefetch phase
/// and rows written in the learn phase, per processed miss.
fn measure(alg: &mut dyn UlmtAlgorithm) -> (f64, f64) {
    // Train on a repeating sequence long enough to fill every level.
    let seq: Vec<LineAddr> = (0..8u64).map(|n| LineAddr::new(n * 129 + 7)).collect();
    for _ in 0..4 {
        alg.process_misses(&seq, &mut StepResult::new());
    }
    // Measure one steady-state pass, recorded into one step record.
    let mut pass = StepResult::new();
    alg.process_misses(&seq, &mut pass);
    // Row accesses are the touches bigger than a bare 4-byte tag probe.
    let reads = &pass.prefetch_cost.table_touches;
    let pf_rows = reads.iter().filter(|t| t.bytes > 4).count();
    let ln_rows = pass
        .learn_cost
        .table_touches
        .iter()
        .filter(|t| t.is_write)
        .count();
    let steps = seq.len() as f64;
    (pf_rows as f64 / steps, ln_rows as f64 / steps)
}

/// Builds Table 1 for the given `num_levels` (the paper uses 3).
pub fn table1(num_levels: usize) -> Vec<AlgorithmProperties> {
    let rows = 4096;
    let base_params = TableParams::base_default(rows);
    let multi = TableParams {
        num_levels,
        ..TableParams::chain_default(rows)
    };

    let mut base = Base::new(base_params);
    let (base_pf, base_ln) = measure(&mut base);
    let mut chain = Chain::new(multi);
    let (chain_pf, chain_ln) = measure(&mut chain);
    let mut repl = Replicated::new(multi);
    let (repl_pf, repl_ln) = measure(&mut repl);

    vec![
        AlgorithmProperties {
            name: "Base".into(),
            levels_prefetched: 1,
            true_mru_per_level: true,
            prefetch_row_accesses: base_pf,
            learn_row_accesses: base_ln,
            response: ResponseClass::Low,
            relative_space: 1.0,
        },
        AlgorithmProperties {
            name: "Chain".into(),
            levels_prefetched: num_levels,
            true_mru_per_level: false,
            prefetch_row_accesses: chain_pf,
            learn_row_accesses: chain_ln,
            response: ResponseClass::High,
            relative_space: 1.0,
        },
        AlgorithmProperties {
            name: "Replicated".into(),
            levels_prefetched: num_levels,
            true_mru_per_level: true,
            prefetch_row_accesses: repl_pf,
            learn_row_accesses: repl_ln,
            response: ResponseClass::Low,
            relative_space: num_levels as f64,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_match_paper() {
        let rows = table1(3);
        let base = &rows[0];
        let chain = &rows[1];
        let repl = &rows[2];

        // Base: 1 level, 1 row access in each step.
        assert_eq!(base.levels_prefetched, 1);
        assert!((base.prefetch_row_accesses - 1.0).abs() < 0.01);

        // Chain: NumLevels row accesses in the prefetching step, 1 in
        // learning.
        assert_eq!(chain.levels_prefetched, 3);
        assert!(
            chain.prefetch_row_accesses > 2.5,
            "{}",
            chain.prefetch_row_accesses
        );
        assert!((chain.learn_row_accesses - 1.0).abs() < 0.01);
        assert!(!chain.true_mru_per_level);
        assert_eq!(chain.response, ResponseClass::High);

        // Replicated: 1 row access when prefetching, NumLevels updates
        // when learning, NumLevels x space.
        assert!((repl.prefetch_row_accesses - 1.0).abs() < 0.01);
        assert!(repl.learn_row_accesses > 2.5, "{}", repl.learn_row_accesses);
        assert!(repl.true_mru_per_level);
        assert_eq!(repl.response, ResponseClass::Low);
        assert_eq!(repl.relative_space, 3.0);
    }
}
