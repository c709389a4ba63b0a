//! Shared experiment context: one generated ecosystem + ingested telemetry.
//!
//! Generation and ingest run as one streaming pipeline, the same at every
//! volume: the sharded [`ViewStream`] hands fixed-size view batches straight
//! to the analytics [`IngestPipeline`], which keeps only the columnar
//! segments it builds from them, so the full view vector never exists in
//! memory. The view-volume multiplier (`repro --scale N`) only changes how
//! many views the stream generates; passing a spill directory moves sealed
//! segments to disk, keeping RSS roughly flat in the scale factor.

use std::path::PathBuf;

use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline, ViewStore};
use vmp_core::ids::PublisherId;
use vmp_synth::ecosystem::{Dataset, EcosystemConfig};
use vmp_synth::stream::ViewStream;

/// How big a run to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full 54-snapshot run (the EXPERIMENTS.md numbers).
    Full,
    /// Reduced run for CI / quick iteration.
    Quick,
}

/// The context shared by all ecosystem-driven experiments.
pub struct ReproContext {
    /// The generated ecosystem's metadata (the views went into the store).
    pub dataset: Dataset,
    /// Ingested telemetry.
    pub store: ViewStore,
    /// View-volume multiplier this context was generated with.
    pub scale_factor: u64,
}

impl std::fmt::Debug for ReproContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReproContext")
            .field("views", &self.store.len())
            .field("scale_factor", &self.scale_factor)
            .finish_non_exhaustive()
    }
}

impl ReproContext {
    /// Generates the ecosystem with the default master seed.
    pub fn new(scale: Scale) -> ReproContext {
        ReproContext::with_seed(scale, None)
    }

    /// Generates the ecosystem, overriding the master seed when given
    /// (`repro --seed N`); `None` keeps the config default, so published
    /// EXPERIMENTS.md numbers stay reproducible.
    pub fn with_seed(scale: Scale, seed: Option<u64>) -> ReproContext {
        ReproContext::with_options(scale, seed, 1, None)
    }

    /// Full control: view-volume multiplier (`repro --scale N`) and an
    /// explicit spill directory. The multiplier scales how many views are
    /// generated and nothing else; a spill directory moves sealed segments
    /// to disk, decoded again on each load. Library code never picks the
    /// directory itself — the binary does, so no `env` reads happen outside
    /// `crates/obs`.
    pub fn with_options(
        scale: Scale,
        seed: Option<u64>,
        scale_factor: u64,
        spill_dir: Option<PathBuf>,
    ) -> ReproContext {
        let scale_factor = scale_factor.max(1);
        let mut config = match scale {
            Scale::Full => EcosystemConfig {
                snapshot_stride: 2,
                ..EcosystemConfig::default()
            },
            Scale::Quick => EcosystemConfig::small(),
        };
        if let Some(seed) = seed {
            config.seed = seed;
        }
        config.view_gen.volume_scale = scale_factor;
        let options =
            IngestOptions { spill: spill_dir.map(SpillConfig::new), ..IngestOptions::default() };
        let mut stream = ViewStream::new(config);
        let mut pipeline = IngestPipeline::new(options);
        {
            let _span = vmp_obs::span("pipeline.ingest");
            while let Some(batch) = stream.next_batch() {
                pipeline.push_batch(batch.views);
            }
        }
        let store = pipeline.finish();
        let dataset = stream.into_dataset();
        ReproContext { dataset, store, scale_factor }
    }

    /// The DASH-first / largest publishers (paper's anonymized `N`).
    pub fn dash_first_publishers(&self) -> Vec<PublisherId> {
        self.dataset
            .profiles
            .iter()
            .filter(|p| p.dash_first)
            .map(|p| p.publisher.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column-for-column equality of two stores' segments.
    fn assert_same_columns(a: &ViewStore, b: &ViewStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.snapshots(), b.snapshots());
        for (a, b) in a.iter_segments().zip(b.iter_segments()) {
            assert_eq!(a.publishers(), b.publishers());
            assert_eq!(a.protocols(), b.protocols());
            assert_eq!(a.players(), b.players());
            assert_eq!(a.cdn_masks(), b.cdn_masks());
            assert_eq!(a.hours(), b.hours());
            assert_eq!(a.weights(), b.weights());
        }
    }

    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vmp-spill-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn quick_context_builds() {
        let ctx = ReproContext::new(Scale::Quick);
        assert!(!ctx.store.is_empty());
        assert_eq!(
            ctx.dash_first_publishers().len(),
            vmp_synth::trends::DASH_FIRST_PUBLISHERS
        );
    }

    /// The streaming context must see exactly the views a collected stream
    /// holds, in the same order.
    #[test]
    fn streamed_ingest_matches_collected_ingest() {
        let ctx = ReproContext::new(Scale::Quick);
        let mut stream = ViewStream::new(EcosystemConfig::small());
        let mut views = Vec::new();
        while let Some(batch) = stream.next_batch() {
            views.extend(batch.views);
        }
        assert_same_columns(&ctx.store, &ViewStore::ingest(views));
    }

    /// Spilled segments carry exactly the resident run's columns.
    #[test]
    fn spilled_context_matches_resident_context() {
        let resident = ReproContext::new(Scale::Quick);
        let dir = spill_dir("s1");
        let spilled = ReproContext::with_options(Scale::Quick, None, 1, Some(dir.clone()));
        assert!(spilled.store.spill_enabled());
        assert_same_columns(&resident.store, &spilled.store);
        drop(spilled);
        // The spill directory is cleaned up when the store drops.
        assert!(!dir.exists());
    }

    /// The default (`Scale::Full`) store's spill bytes do not depend on how
    /// many generator shards made its views: ingest sees one
    /// snapshot-ordered stream, and every dictionary code is assigned in
    /// that stream's order. The blocks also keep to at most 20 bytes a row.
    #[test]
    fn spill_bytes_are_the_same_at_one_and_four_shards() {
        let spill_bytes = |threads: usize| {
            let config =
                EcosystemConfig { threads, snapshot_stride: 2, ..EcosystemConfig::default() };
            let mut stream = ViewStream::new(config);
            let mut pipeline = IngestPipeline::new(IngestOptions::default());
            while let Some(batch) = stream.next_batch() {
                pipeline.push_batch(batch.views);
            }
            let store = pipeline.finish();
            let mut bytes = Vec::new();
            for seg in store.iter_segments() {
                seg.write_block(&mut bytes).expect("write to memory");
            }
            (store.len(), bytes)
        };
        let (rows, one) = spill_bytes(1);
        let (_, four) = spill_bytes(4);
        assert!(one == four, "spill bytes differ between 1 and 4 shards");
        assert!(one.len() <= 20 * rows, "{} spill bytes for {rows} rows", one.len());
    }

    /// Scale > 1 is the same path with more views: resident (no spill
    /// directory) and spilled runs agree column for column.
    #[test]
    fn scale_2_resident_matches_scale_2_spilled() {
        let resident = ReproContext::with_options(Scale::Quick, None, 2, None);
        assert!(!resident.store.spill_enabled());
        assert_eq!(resident.scale_factor, 2);
        let spilled =
            ReproContext::with_options(Scale::Quick, None, 2, Some(spill_dir("s2")));
        assert!(spilled.store.spill_enabled());
        assert_same_columns(&resident.store, &spilled.store);
    }
}
