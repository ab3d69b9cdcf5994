//! Randomized property tests of the simulation kernel against reference
//! models, driven by the in-repo deterministic PRNG.

use ulmt_simcore::rng::Pcg32;
use ulmt_simcore::stats::{BinnedHistogram, Summary};
use ulmt_simcore::{EventQueue, Server};

const CASES: u64 = 128;

fn random_vec(rng: &mut Pcg32, max_len: usize, bound: u64) -> Vec<u64> {
    let len = rng.gen_range_usize(1..max_len);
    (0..len).map(|_| rng.gen_range_u64(0..bound)).collect()
}

/// The event queue pops in nondecreasing time order, and same-time
/// events pop in push order (stable priority queue).
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = Pcg32::seed_from_u64(0xe0e0);
    for _ in 0..CASES {
        let times = random_vec(&mut rng, 200, 32);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        // Reference: stable sort by time.
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        expected.sort_by_key(|&(t, _)| t);
        let mut popped = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        assert_eq!(popped, expected);
    }
}

/// The event queue pops exactly what a `(time, seq)` binary heap pops,
/// on seeded mixes of pushes and pops: pushes at the time just popped
/// (which go after every pending same-time event), a few cycles ahead,
/// and more than 1024 cycles ahead.
#[test]
fn event_queue_matches_a_sequenced_heap() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut rng = Pcg32::seed_from_u64(0xe7e7);
    for _ in 0..CASES {
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..1_000 {
            if rng.gen_range_u64(0..8) < 5 {
                let ahead = match rng.gen_range_u64(0..4) {
                    0 => 0,
                    1 => rng.gen_range_u64(1..8),
                    2 => rng.gen_range_u64(8..300),
                    _ => rng.gen_range_u64(1025..5000),
                };
                q.push(now + ahead, seq);
                reference.push(Reverse((now + ahead, seq)));
                seq += 1;
            } else {
                let popped = q.pop();
                assert_eq!(popped, reference.pop().map(|Reverse(e)| e));
                if let Some((t, _)) = popped {
                    now = t;
                }
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.peek_time(), reference.peek().map(|Reverse((t, _))| *t));
        }
        while let Some(Reverse(expected)) = reference.pop() {
            assert_eq!(q.pop(), Some(expected));
        }
        assert!(q.is_empty());
    }
}

/// A server never overlaps service intervals, never goes backwards, and
/// its busy time equals the sum of durations.
#[test]
fn server_intervals_are_disjoint() {
    let mut rng = Pcg32::seed_from_u64(0x5e4e4);
    for _ in 0..CASES {
        let len = rng.gen_range_usize(1..100);
        let mut reqs: Vec<(u64, u64)> = (0..len)
            .map(|_| (rng.gen_range_u64(0..1000), rng.gen_range_u64(1..50)))
            .collect();
        reqs.sort_by_key(|&(t, _)| t); // arrivals in time order
        let mut server = Server::new();
        let mut last_end = 0u64;
        let mut total = 0u64;
        for &(t, d) in &reqs {
            let (start, end) = server.serve_with_start(t, d);
            assert!(start >= t, "service before arrival");
            assert!(start >= last_end, "overlapping service");
            assert_eq!(end, start + d);
            last_end = end;
            total += d;
        }
        assert_eq!(server.busy_cycles(), total);
        assert_eq!(server.requests(), reqs.len() as u64);
    }
}

/// Histogram bin counts always sum to the number of samples, and each
/// sample lands in the bin a reference search would pick.
#[test]
fn histogram_matches_reference_binning() {
    let mut rng = Pcg32::seed_from_u64(0x415706);
    for _ in 0..CASES {
        let samples = random_vec(&mut rng, 200, 500);
        let edges = [80u64, 200, 280];
        let mut h = BinnedHistogram::new(&edges);
        let mut reference = [0u64; 4];
        for &x in &samples {
            h.record(x);
            let bin = edges.iter().position(|&e| x < e).unwrap_or(3);
            reference[bin] += 1;
        }
        assert_eq!(h.counts(), &reference[..]);
        assert_eq!(h.total(), samples.len() as u64);
        let frac_sum: f64 = h.fractions().iter().sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}

/// Summary agrees with direct min/max/mean computation.
#[test]
fn summary_matches_direct_computation() {
    let mut rng = Pcg32::seed_from_u64(0x50332a);
    for _ in 0..CASES {
        let samples = random_vec(&mut rng, 200, 10_000);
        let mut s = Summary::new();
        for &x in &samples {
            s.record(x);
        }
        assert_eq!(s.min(), samples.iter().copied().min());
        assert_eq!(s.max(), samples.iter().copied().max());
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
    }
}
