//! Byte identity of the generation kernel.
//!
//! `generate_views` may cache anything that is a pure function of the cell,
//! but it may never reorder, add or drop an RNG draw — so every delivered
//! view must stay bit for bit what it was when these pins were taken. The
//! fingerprints below cover what no golden figure does: a second seed and a
//! volume multiplier, each at one and four shards. They move only when a
//! draw, a calibration prior or a record field does, and then together with
//! `scan_gate.rs` and `results/full_results.json`.

use std::fmt::Write;

use vmp_synth::stream::ViewStream;
use vmp_synth::EcosystemConfig;

/// FNV-1a folded over everything written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Views delivered and the FNV-1a of `Debug` of each, in delivery order.
fn fingerprint(config: EcosystemConfig) -> (u64, u64) {
    let mut stream = ViewStream::new(config);
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut views = 0u64;
    while let Some(batch) = stream.next_batch() {
        for view in &batch.views {
            write!(hash, "{view:?}").expect("hashing cannot fail");
            views += 1;
        }
    }
    (views, hash.0)
}

fn assert_pinned(name: &str, config: &EcosystemConfig, expected: (u64, u64)) {
    for threads in [1, 4] {
        let got = fingerprint(EcosystemConfig { threads, ..config.clone() });
        assert_eq!(
            got, expected,
            "{name} at {threads} shard(s): (views, fnv) = ({}, {:#018x})",
            got.0, got.1
        );
    }
}

#[test]
fn small_default_seed() {
    assert_pinned("small", &EcosystemConfig::small(), (320_720, 0x0630_b2fe_8f2e_545d));
}

#[test]
fn small_second_seed() {
    let config = EcosystemConfig { seed: 7, ..EcosystemConfig::small() };
    assert_pinned("small seed 7", &config, (309_960, 0x7288_0b0c_8180_64b6));
}

#[test]
fn small_volume_scale_2() {
    let mut config = EcosystemConfig::small();
    config.view_gen.volume_scale = 2;
    assert_pinned("small x2", &config, (641_440, 0x31eb_c319_e0d4_671d));
}
