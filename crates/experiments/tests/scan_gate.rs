//! The offline gate for the 13 figures that scan the telemetry store.
//!
//! Each scan figure is a pure function of the store it reads, so the
//! serialized results of all 13 are a function of the generated corpus. The
//! fingerprints below pin byte identity across any change to how the
//! drivers read segments: resident or spilled, one view volume or two, and
//! a second seed. `wall_time_secs` and `stages` (the only wall-clock fields)
//! are blanked before hashing. They move when the generated corpus does
//! (together with `kernel_identity.rs`) or when a scan figure's output
//! does.

use std::path::PathBuf;

use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline};
use vmp_experiments::{run, ReproContext, Scale};
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

/// The figures that read the store, in paper order.
const SCAN_FIGURES: [&str; 13] = [
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "summary",
];

fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vmp-scan-gate-{tag}-{}", std::process::id()))
}

/// FNV-1a of the 13 scan results, each serialized with its wall-clock
/// fields blanked, in `SCAN_FIGURES` order. Also returns how many checks
/// failed.
fn scan_fingerprint(ctx: &ReproContext) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut failed = 0;
    for id in SCAN_FIGURES {
        let mut result = run(id, ctx).expect("scan figure is registered");
        failed += result.failures().len();
        result.wall_time_secs = 0.0;
        result.stages.clear();
        let json = serde_json::to_string(&result).expect("results serialize");
        hash =
            json.bytes().fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    }
    (hash, failed)
}

/// The quick ecosystem, ingested spilled: every segment load is a block
/// decode.
fn quick_spilled_uncached(dir: PathBuf) -> ReproContext {
    let mut stream = ViewStream::new(EcosystemConfig::small());
    let mut pipeline = IngestPipeline::new(IngestOptions {
        spill: Some(SpillConfig { dir, hot_budget_bytes: 0 }),
        ..IngestOptions::default()
    });
    while let Some(batch) = stream.next_batch() {
        pipeline.push_batch(batch.views);
    }
    let store = pipeline.finish();
    ReproContext { dataset: stream.into_dataset(), store, scale_factor: 1 }
}

/// Quick scale at the default seed: resident and decode-every-load spilled
/// stores produce the same pinned bytes, and every check passes.
const QUICK: u64 = 0x2715_d279_1e77_96cd;

#[test]
fn quick_resident_is_pinned() {
    let ctx = ReproContext::new(Scale::Quick);
    assert!(!ctx.store.spill_enabled());
    let (hash, failed) = scan_fingerprint(&ctx);
    assert_eq!(failed, 0, "every scan check passes at the default seed");
    assert_eq!(hash, QUICK, "quick resident: fingerprint {hash:#018x}");
}

#[test]
fn quick_spilled_without_a_hot_cache_is_pinned() {
    let ctx = quick_spilled_uncached(spill_dir("uncached"));
    assert!(ctx.store.spill_enabled());
    let (hash, failed) = scan_fingerprint(&ctx);
    assert_eq!(failed, 0, "every scan check passes at the default seed");
    assert_eq!(hash, QUICK, "quick spilled, 0-byte hot cache: fingerprint {hash:#018x}");
}

#[test]
fn quick_at_twice_the_volume_spilled_is_pinned() {
    let ctx = ReproContext::with_options(Scale::Quick, None, 2, Some(spill_dir("x2")));
    assert!(ctx.store.spill_enabled());
    let (hash, _) = scan_fingerprint(&ctx);
    assert_eq!(hash, 0x1acc_56a0_1bad_fd9c, "quick x2 spilled: fingerprint {hash:#018x}");
}

#[test]
fn quick_at_seed_7_is_pinned() {
    let ctx = ReproContext::with_seed(Scale::Quick, Some(7));
    let (hash, _) = scan_fingerprint(&ctx);
    assert_eq!(hash, 0xe538_09b8_6a48_1806, "quick seed 7: fingerprint {hash:#018x}");
}
