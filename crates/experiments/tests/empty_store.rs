//! The scan figures on a store with no data: each returns exactly one
//! failed check, "store has data" — never a panic, and never a result with
//! no checks at all (which `all_passed` would read as a pass).

use vmp_analytics::store::ViewStore;
use vmp_experiments::{run, ReproContext};
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

/// The figures that read the store, in paper order.
const SCAN_FIGURES: [&str; 13] = [
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "summary",
];

#[test]
fn every_scan_figure_fails_one_check_on_an_empty_store() {
    let dataset = ViewStream::new(EcosystemConfig::small()).into_dataset();
    let ctx = ReproContext { dataset, store: ViewStore::default(), scale_factor: 1 };
    for id in SCAN_FIGURES {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(id, &ctx).expect("scan figure is registered")
        }));
        let result = outcome.unwrap_or_else(|_| panic!("{id} panicked on an empty store"));
        assert_eq!(result.id, id);
        assert!(!result.all_passed(), "{id} passed on an empty store");
        let names: Vec<&str> = result.checks.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["store has data"], "{id}");
    }
}
