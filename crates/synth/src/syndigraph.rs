//! The owner ↔ syndicator graph (§6, Fig 14).
//!
//! Syndicators license and redistribute content from owners. Fig 14's CDF
//! says: >80% of content owners use at least one full syndicator, and the
//! top ~20% of owners reach about a third of all full syndicators. The
//! graph here reproduces that shape: each owner gets a target *reach*
//! (fraction of the syndicator pool) drawn from a skewed distribution, then
//! that many distinct syndicators.

use std::collections::{BTreeMap, BTreeSet};
use vmp_core::ids::PublisherId;
use vmp_core::publisher::SyndicationRole;
use vmp_stats::Rng;

use crate::publisher_gen::PublisherProfile;

/// The syndication relationships of the ecosystem.
#[derive(Debug, Clone, Default)]
pub struct SyndicationGraph {
    /// All full syndicators (and mixed publishers acting as syndicators).
    syndicators: Vec<PublisherId>,
    /// owner → set of syndicators carrying its content.
    by_owner: BTreeMap<PublisherId, BTreeSet<PublisherId>>,
    /// syndicator → the owners it licenses from, ascending and distinct.
    by_syndicator: BTreeMap<PublisherId, Vec<PublisherId>>,
}

impl SyndicationGraph {
    /// Builds the graph for a population.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the reach fraction lies in [0, 1] and k is clamped to the pool"
    )]
    pub fn generate(population: &[PublisherProfile], rng: &mut Rng) -> SyndicationGraph {
        let syndicators: Vec<PublisherId> = population
            .iter()
            .filter(|p| {
                matches!(
                    p.publisher.role,
                    SyndicationRole::FullSyndicator | SyndicationRole::Mixed
                )
            })
            .map(|p| p.publisher.id)
            .collect();
        let owners: Vec<&PublisherProfile> = population
            .iter()
            .filter(|p| {
                matches!(p.publisher.role, SyndicationRole::OwnerOnly | SyndicationRole::Mixed)
            })
            .collect();

        let mut graph = SyndicationGraph {
            syndicators: syndicators.clone(),
            by_owner: BTreeMap::new(),
            by_syndicator: BTreeMap::new(),
        };
        if syndicators.is_empty() {
            return graph;
        }
        let mut by_syndicator: BTreeMap<PublisherId, BTreeSet<PublisherId>> = BTreeMap::new();

        for owner in owners {
            // Reach: ~18% of owners use no syndicator; the rest draw a
            // fraction of the pool skewed low, with bigger owners reaching
            // further (the popular-catalogue effect).
            let reach_fraction = if rng.chance(0.18) {
                0.0
            } else {
                let base = rng.f64().powf(2.2) * 0.38; // skewed toward 0
                (base + 0.10 * owner.size01).min(0.45)
            };
            let pool: Vec<PublisherId> = syndicators
                .iter()
                .copied()
                .filter(|s| *s != owner.publisher.id)
                .collect();
            if pool.is_empty() {
                continue;
            }
            let k = ((reach_fraction * pool.len() as f64).round() as usize).min(pool.len());
            if k == 0 {
                continue;
            }
            let chosen = rng.sample_indices(pool.len(), k);
            let set: BTreeSet<PublisherId> = chosen.into_iter().map(|i| pool[i]).collect();
            for s in &set {
                by_syndicator.entry(*s).or_default().insert(owner.publisher.id);
            }
            graph.by_owner.insert(owner.publisher.id, set);
        }
        graph.by_syndicator = by_syndicator
            .into_iter()
            .map(|(syndicator, owners)| (syndicator, owners.into_iter().collect()))
            .collect();
        graph
    }

    /// All full syndicators.
    pub fn syndicators(&self) -> &[PublisherId] {
        &self.syndicators
    }

    /// Fraction of the syndicator pool used by each owner — the Fig 14 CDF
    /// input (owners with zero syndicators included).
    pub fn reach_fractions(&self, owners: &[PublisherId]) -> Vec<f64> {
        let pool = self.syndicators.len().max(1) as f64;
        owners
            .iter()
            .map(|o| self.by_owner.get(o).map(|s| s.len()).unwrap_or(0) as f64 / pool)
            .collect()
    }

    /// The owners `syndicator` licenses content from, ascending; empty for
    /// a publisher that licenses nothing. A syndicated view's owner is one
    /// uniform draw from this slice.
    pub fn licensed_owners(&self, syndicator: PublisherId) -> &[PublisherId] {
        self.by_syndicator.get(&syndicator).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::publisher_gen::PublisherProfile;

    /// The per-view owner draw that per-cell `licensed_owners` replaced,
    /// kept as the oracle. Its owner set is rebuilt from `by_owner`, so it
    /// does not share the lookup it checks.
    pub(crate) fn sample_owner(
        graph: &SyndicationGraph,
        syndicator: PublisherId,
        rng: &mut Rng,
    ) -> Option<PublisherId> {
        let owners: BTreeSet<PublisherId> = graph
            .by_owner
            .iter()
            .filter(|(_, syndicators)| syndicators.contains(&syndicator))
            .map(|(owner, _)| *owner)
            .collect();
        if owners.is_empty() {
            return None;
        }
        let v: Vec<PublisherId> = owners.iter().copied().collect();
        Some(*rng.choose(&v))
    }

    fn graph(n: usize, seed: u64) -> (Vec<PublisherProfile>, SyndicationGraph) {
        let mut rng = Rng::seed_from(seed);
        let pop: Vec<PublisherProfile> = (0..n)
            .map(|i| PublisherProfile::generate(PublisherId::new(i as u32), &mut rng))
            .collect();
        let g = SyndicationGraph::generate(&pop, &mut rng);
        (pop, g)
    }

    #[test]
    fn graph_is_consistent_both_ways() {
        let (_, g) = graph(200, 1);
        for (owner, synds) in &g.by_owner {
            for s in synds {
                assert!(g.by_syndicator[s].contains(owner));
            }
        }
        for (synd, owners) in &g.by_syndicator {
            for o in owners {
                assert!(g.by_owner[o].contains(synd));
            }
        }
    }

    #[test]
    fn fig14_shape_most_owners_syndicate() {
        let (pop, g) = graph(400, 2);
        let owners: Vec<PublisherId> = pop
            .iter()
            .filter(|p| {
                matches!(p.publisher.role, SyndicationRole::OwnerOnly | SyndicationRole::Mixed)
            })
            .map(|p| p.publisher.id)
            .collect();
        let fractions = g.reach_fractions(&owners);
        let with_any = fractions.iter().filter(|f| **f > 0.0).count() as f64;
        let share = with_any / fractions.len() as f64;
        assert!(share > 0.75, "owners with ≥1 syndicator: {share}");
        // Top owners reach a substantial fraction (≈1/3) of the pool.
        let mut sorted = fractions.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let p90 = sorted[sorted.len() / 10];
        assert!((0.18..=0.50).contains(&p90), "p90 reach {p90}");
    }

    #[test]
    fn no_self_syndication() {
        let (_, g) = graph(200, 3);
        for (owner, synds) in &g.by_owner {
            assert!(!synds.contains(owner));
        }
    }

    #[test]
    fn sample_owner_only_from_licensed() {
        let (_, g) = graph(200, 4);
        let syndicators: Vec<PublisherId> = g.by_syndicator.keys().copied().collect();
        assert!(!syndicators.is_empty());
        for synd in &syndicators {
            let owners = g.licensed_owners(*synd);
            assert!(!owners.is_empty());
            assert!(owners.windows(2).all(|w| w[0] < w[1]), "{owners:?} not ascending");
            for owner in owners {
                assert!(g.by_owner[owner].contains(synd));
            }
        }
        assert!(g.licensed_owners(PublisherId::new(10_000)).is_empty());
    }

    #[test]
    fn per_cell_owners_replay_sample_owner() {
        for seed in [4, 6] {
            let (pop, g) = graph(200, seed);
            let mut cell = Rng::seed_from(seed + 100);
            let mut reference = cell.clone();
            // Every publisher, syndicator or not, and one outside the graph.
            let ids = pop.iter().map(|p| p.publisher.id).chain([PublisherId::new(10_000)]);
            for id in ids {
                let owners = g.licensed_owners(id);
                for _ in 0..8 {
                    let drawn = (!owners.is_empty()).then(|| *cell.choose(owners));
                    assert_eq!(drawn, sample_owner(&g, id, &mut reference), "{id}");
                }
            }
            assert_eq!(cell, reference, "seed {seed}: draw counts differ");
        }
    }

    #[test]
    fn empty_population_yields_empty_graph() {
        let mut rng = Rng::seed_from(5);
        let g = SyndicationGraph::generate(&[], &mut rng);
        assert!(g.syndicators().is_empty());
        assert!(g.reach_fractions(&[]).is_empty());
    }
}
