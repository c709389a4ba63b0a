//! Fig 12: number of CDNs used per publisher, plus §4.3's live/VoD
//! segregation statistics.

use crate::context::ReproContext;
use crate::figures::helpers::{
    count_share_check, counts_figure, endpoints, share_at_least, CountHistogram,
};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::columns::Segment;
use vmp_analytics::report::Table;
use vmp_core::content::ContentClass;

/// Runs the Fig 12 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig12", "Fig 12: CDNs per publisher");
    let sweep = Sweep::of(ctx);
    let Some(last) = sweep.last_or_fail(&mut result) else {
        return result;
    };
    let (counts, hist, buckets, series) = counts_figure(
        "CDNs",
        &last.cdn_counts,
        &sweep.per_snapshot(|s| s.cdn.average_counts.as_ref()),
    );

    // Paper: plain average just above 2, weighted ≈4.5.
    result.checks.extend(histogram_checks(&counts));
    if let (Some((_, avg_end)), Some((_, w_end))) =
        (endpoints(&series, "average"), endpoints(&series, "weighted average"))
    {
        result.checks.push(Check::in_range("fig12c: plain average slightly above 2", avg_end, 1.7, 2.8));
        result.checks.push(Check::in_range("fig12c: weighted average ≈4.5", w_end, 3.7, 5.0));
    }

    // Segregation: among multi-CDN publishers serving both classes, how
    // many keep a CDN exclusively for VoD (paper: 30%) or live (19%)?
    let seg = last.segregation;
    let mut seg_table = Table::new(
        "§4.3: live/VoD CDN segregation among multi-CDN live+VoD publishers",
        vec!["statistic", "% of publishers"],
    );
    seg_table.row(vec!["≥1 VoD-only CDN".into(), format!("{:.1}", seg.0)]);
    seg_table.row(vec!["≥1 live-only CDN".into(), format!("{:.1}", seg.1)]);
    result.checks.push(Check::in_range("§4.3: ≈30% have a VoD-only CDN", seg.0, 18.0, 42.0));
    result.checks.push(Check::in_range("§4.3: ≈19% have a live-only CDN", seg.1, 8.0, 30.0));

    result.tables.push(hist);
    result.tables.push(buckets);
    result.tables.push(seg_table);
    result.series.push(series);
    result
}

/// Fig 12(a)'s checks, read from the exact histogram. Paper: >40% of
/// publishers single-CDN but <5% of VH; <10% of publishers use 5 CDNs but
/// carry >50% of VH; ≈80% of VH from 4-5-CDN publishers.
fn histogram_checks(counts: &CountHistogram) -> [Check; 5] {
    let (one, five) = (counts.get(&1), counts.get(&5));
    [
        count_share_check("fig12a: ≈40% of publishers use one CDN", one.map(|s| s.0), 1, 28.0, 55.0),
        count_share_check("fig12a: single-CDN publishers carry <5% of VH", one.map(|s| s.1), 1, 0.0, 8.0),
        count_share_check("fig12a: <10-ish% of publishers use 5 CDNs", five.map(|s| s.0), 5, 2.0, 18.0),
        count_share_check("fig12a: 5-CDN publishers carry >50% of VH", five.map(|s| s.1), 5, 35.0, 90.0),
        Check::in_range("§4.4: ≈80% of VH from 4-5-CDN publishers", share_at_least(counts, 4).1, 65.0, 95.0),
    ]
}

/// (% with a VoD-only CDN, % with a live-only CDN) among multi-CDN
/// publishers serving both content classes, measured from one snapshot's
/// telemetry.
#[expect(clippy::cast_possible_truncation, reason = "a trailing-zero count of a u64 is at most 64")]
pub(crate) fn segregation(seg: &Segment) -> (f64, f64) {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct PubCdns {
        /// cdn bit (dense CDN index) → (vod views, live views).
        per_cdn: BTreeMap<u8, (u32, u32)>,
        vod_total: u32,
        live_total: u32,
    }
    let vod = ContentClass::Vod.code();
    let (classes, masks) = (seg.classes(), seg.cdn_column());
    let mut per_pub: BTreeMap<u32, PubCdns> = BTreeMap::new();
    for run in seg.cells() {
        let entry = per_pub.entry(run.publisher).or_default();
        for i in run.rows.clone() {
            let is_vod = classes[i] == vod;
            if is_vod {
                entry.vod_total = entry.vod_total.saturating_add(1);
            } else {
                entry.live_total = entry.live_total.saturating_add(1);
            }
            let mut bits = masks.value(i);
            while bits != 0 {
                let counts = entry.per_cdn.entry(bits.trailing_zeros() as u8).or_default();
                bits &= bits - 1;
                if is_vod {
                    counts.0 += 1;
                } else {
                    counts.1 += 1;
                }
            }
        }
    }
    let mut eligible = 0usize;
    let mut vod_only = 0usize;
    let mut live_only = 0usize;
    for (_, p) in per_pub {
        if p.per_cdn.len() < 2 || p.vod_total < 10 || p.live_total < 10 {
            // Must be multi-CDN and *meaningfully* serve both classes —
            // with too few observed views of a class, exclusivity is
            // undecidable either way.
            continue;
        }
        eligible += 1;
        // A CDN is exclusively-VoD when it served VoD but zero live views
        // *and* enough live views exist that, were the CDN class-agnostic,
        // we would have expected to see several there (binomial evidence —
        // the paper's dataset has billions of views so absence is
        // conclusive; a sampled dataset needs the explicit test).
        let mut has_vod_only = false;
        let mut has_live_only = false;
        for (vod, live) in p.per_cdn.values() {
            let cdn_share_of_vod = *vod as f64 / p.vod_total.max(1) as f64;
            let cdn_share_of_live = *live as f64 / p.live_total.max(1) as f64;
            let expected_live = p.live_total as f64 * cdn_share_of_vod;
            let expected_vod = p.vod_total as f64 * cdn_share_of_live;
            if *live == 0 && *vod >= 3 && expected_live >= 3.5 {
                has_vod_only = true;
            }
            if *vod == 0 && *live >= 3 && expected_vod >= 3.5 {
                has_live_only = true;
            }
        }
        if has_vod_only {
            vod_only += 1;
        }
        if has_live_only {
            live_only += 1;
        }
    }
    if eligible == 0 {
        (0.0, 0.0)
    } else {
        (
            100.0 * vod_only as f64 / eligible as f64,
            100.0 * live_only as f64 / eligible as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_single_cdn_row_fails_by_name() {
        // Every publisher uses 4 or 5 CDNs: nobody is single-CDN, so the
        // "<5% of VH" check has nothing to measure and must not pass.
        let counts = CountHistogram::from([(4, (60.0, 30.0)), (5, (40.0, 70.0))]);
        let checks = histogram_checks(&counts);
        let single = checks
            .iter()
            .find(|c| c.name == "fig12a: single-CDN publishers carry <5% of VH")
            .expect("check present");
        assert!(!single.passed);
        assert_eq!(single.detail, "no publisher has a count of 1");
        let five = checks
            .iter()
            .find(|c| c.name == "fig12a: 5-CDN publishers carry >50% of VH")
            .expect("check present");
        assert!(five.passed, "{}", five.detail);
    }
}
