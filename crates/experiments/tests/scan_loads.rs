//! How often the scan figures read a spilled store: once per segment.
//!
//! The `store.*` counters are process-global, so this binary holds a
//! single test — nothing else in the process spills or loads a segment
//! while it counts.

use vmp_experiments::{run, ReproContext, Scale};

/// The figures that read the store, in paper order.
const SCAN_FIGURES: [&str; 13] = [
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "summary",
];

/// Segment loads the store has served so far.
fn loads() -> u64 {
    vmp_obs::counter("store.segment_loads").get()
}

/// Loads that decoded a spill block: every load, since the store keeps no
/// decoded segment.
fn decodes() -> u64 {
    vmp_obs::counter("store.hot_misses").get()
}

#[test]
fn the_scan_figures_load_each_segment_once() {
    let dir = std::env::temp_dir().join(format!("vmp-scan-loads-{}", std::process::id()));
    let ctx = ReproContext::with_options(Scale::Quick, None, 1, Some(dir));
    assert!(ctx.store.spill_enabled());
    let segments = ctx.store.snapshots().len() as u64;
    assert!(segments > 1);
    let spilled = vmp_obs::counter("store.segments_spilled").get();
    assert_eq!(spilled, segments);

    let (before, before_decodes) = (loads(), decodes());
    for id in SCAN_FIGURES {
        let result = run(id, &ctx).expect("scan figure is registered");
        assert!(result.all_passed(), "{id}: {:?}", result.failures());
    }
    assert_eq!(loads() - before, spilled, "one load per segment over all 13 scan figures");
    assert_eq!(decodes() - before_decodes, spilled, "every load decodes its block");

    let before = loads();
    for id in SCAN_FIGURES {
        run(id, &ctx).expect("scan figure is registered");
    }
    assert_eq!(loads() - before, 0, "a second pass of the scan figures reads no segment");
}
