//! Fig 2: streaming protocols across publishers and view-hours, over time.
//!
//! (a) % of publishers supporting each protocol; (b) % of view-hours per
//! protocol; (c) same as (b) with the large DASH-first publishers removed.
//! Plus §4.1's RTMP aside (1.6% → 0.1% of view-hours).

use crate::context::ReproContext;
use crate::figures::helpers::{endpoints, share_series};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_core::protocol::StreamingProtocol;

/// Runs the Fig 2 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig02", "Fig 2: protocol prevalence over 27 months");
    let sweep = Sweep::of(ctx);
    if sweep.last_or_fail(&mut result).is_none() {
        return result;
    }
    let protocols = [
        StreamingProtocol::Hls,
        StreamingProtocol::Dash,
        StreamingProtocol::SmoothStreaming,
        StreamingProtocol::Hds,
        StreamingProtocol::Rtmp,
    ];

    let a = share_series(
        "Fig 2(a): % of publishers supporting each protocol",
        &protocols,
        &sweep.per_snapshot(|s| Some(&s.protocol.publishers)),
    );
    let b = share_series(
        "Fig 2(b): % of view-hours by protocol",
        &protocols,
        &sweep.per_snapshot(|s| Some(&s.protocol.hours)),
    );
    let c = share_series(
        "Fig 2(c): % of view-hours by protocol, excluding the large DASH-first publishers",
        &protocols,
        &sweep.per_snapshot(|s| s.protocol_without_dash_first.as_ref()),
    );

    // Checks against the paper's endpoints.
    if let Some((_, hls_end)) = endpoints(&a, "HLS") {
        result.checks.push(Check::in_range("fig2a: HLS ≈91% of publishers at end", hls_end, 83.0, 97.0));
    }
    if let Some((dash_start, dash_end)) = endpoints(&a, "DASH") {
        result.checks.push(Check::in_range("fig2a: DASH ≈10% of publishers at start", dash_start, 4.0, 20.0));
        result.checks.push(Check::in_range("fig2a: DASH ≈43% of publishers at end", dash_end, 34.0, 52.0));
    }
    if let Some((hds_start, hds_end)) = endpoints(&a, "HDS") {
        result.checks.push(Check::new(
            "fig2a: HDS declines",
            hds_end < hds_start,
            format!("{hds_start:.1}% → {hds_end:.1}%"),
        ));
        result.checks.push(Check::in_range("fig2a: HDS ≈19% at end", hds_end, 12.0, 27.0));
    }
    if let Some((dash_vh_start, dash_vh_end)) = endpoints(&b, "DASH") {
        result.checks.push(Check::in_range("fig2b: DASH ≈3% of VH at start", dash_vh_start, 0.0, 9.0));
        result.checks.push(Check::in_range("fig2b: DASH ≈38% of VH at end", dash_vh_end, 27.0, 50.0));
    }
    if let Some((_, hls_vh_end)) = endpoints(&b, "HLS") {
        result.checks.push(Check::in_range("fig2b: HLS ≈38-45% of VH at end", hls_vh_end, 30.0, 55.0));
    }
    if let Some((_, dash_wo_end)) = endpoints(&c, "DASH") {
        result.checks.push(Check::in_range(
            "fig2c: DASH <5% of VH without the large publishers",
            dash_wo_end,
            0.0,
            8.0,
        ));
    }
    if let Some((rtmp_start, rtmp_end)) = endpoints(&b, "RTMP") {
        result.checks.push(Check::in_range("§4.1: RTMP ≈1.6% of VH at start", rtmp_start, 0.1, 5.0));
        result.checks.push(Check::in_range("§4.1: RTMP ≈0.1% of VH at end", rtmp_end, 0.0, 1.0));
    }

    result.series.push(a);
    result.series.push(b);
    result.series.push(c);
    result.notes.push(format!(
        "{} large publishers are excluded in (c) (the paper's confidential N).",
        ctx.dash_first_publishers().len()
    ));
    result
}
