//! The L2 miss streams, pinned bit for bit.
//!
//! Figure 5, Table 2 and the service's tenant streams all read
//! `l2_miss_stream_with`. The golden figure file only sees their
//! summaries, so this test pins every application's `small` stream by its
//! length and a 64-bit FNV-1a hash of its line numbers, in order. A change
//! to the cache model or to the extractor that moves any miss fails here.

use ulmt_system::{l2_miss_stream_with, SystemConfig};
use ulmt_workloads::{App, WorkloadSpec};

/// The stream's length and the FNV-1a hash of each line number's
/// little-endian bytes, in order.
fn length_and_hash(lines: impl Iterator<Item = u64>) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0;
    for line in lines {
        len += 1;
        for byte in line.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (len, hash)
}

/// (application, stream length, hash) at the `small` profile: the
/// `SystemConfig::small` caches and 1/16-scale workloads.
const SMALL: [(App, usize, u64); 9] = [
    (App::Cg, 84240, 0xd69004a2ca537085),
    (App::Equake, 177120, 0x89279a38447b27dd),
    (App::Ft, 278659, 0xd5e59cdc5f64faa4),
    (App::Gap, 169948, 0xf19411ffa8d33b78),
    (App::Mcf, 40002, 0x0827ae1e194a7955),
    (App::Mst, 339157, 0x91447613c3fda4fa),
    (App::Parser, 171043, 0xdc36fe6f2fc41fe0),
    (App::Sparse, 290719, 0x24003efa22c329c1),
    (App::Tree, 484, 0xf5b53bf47fc1fcc5),
];

#[test]
fn small_miss_streams_are_pinned() {
    let config = SystemConfig::small();
    for (app, len, hash) in SMALL {
        let spec = WorkloadSpec::new(app).scale(1.0 / 16.0);
        let got = length_and_hash(l2_miss_stream_with(&config, &spec).map(|line| line.raw()));
        assert_eq!(got, (len, hash), "{}: (length, hash)", app.name());
    }
}
