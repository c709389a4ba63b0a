//! The title-streamed Fig 18 study reports the pushes the whole-catalogue
//! ledger made: every participant's copy of every title at every rung, on
//! every common CDN. One test in its own process, so the global registry
//! is private.

use vmp::syndication::catalogue::CatalogueStudy;
use vmp::syndication::storage::storage_study;

#[test]
fn storage_study_pushes_participants_titles_rungs_per_common_cdn() {
    let study = CatalogueStudy::paper_setting();
    let rungs: u64 = study.participants().iter().map(|p| p.ladder.len() as u64).sum();
    assert_eq!(rungs, 30, "9 + 7 + 14 rungs");
    let pushes = vmp::obs::counter("cdn.origin_pushes");
    let bytes_pushed = vmp::obs::counter("cdn.origin_bytes_pushed");
    let (pushes_before, bytes_before) = (pushes.get(), bytes_pushed.get());

    let result = storage_study(&study);

    let common = study.common_cdns().len() as u64;
    assert_eq!(common, 2);
    assert_eq!(pushes.get() - pushes_before, rungs * u64::from(study.titles) * common);
    assert_eq!(pushes.get() - pushes_before, 1_440_000);
    let stored: u64 = result.per_cdn.iter().map(|r| r.total.0).sum();
    assert_eq!(bytes_pushed.get() - bytes_before, stored);
}
