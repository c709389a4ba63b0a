//! Deterministic PRNG: xoshiro256\*\* with splitmix64 seeding and
//! hierarchical stream forking.
//!
//! Why not the `rand` crate? Reproducibility across `rand` major versions is
//! not guaranteed, and the figure pipeline treats "same seed ⇒ same bytes"
//! as a contract. The two algorithms below are tiny, public-domain, and
//! fully specified here, so the contract is under our control.

/// splitmix64 step — used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic random number generator (xoshiro256\*\*).
///
/// ```
/// use vmp_stats::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// // Forked child streams are independent of the parent and each other.
/// let parent = Rng::seed_from(42);
/// assert_ne!(parent.fork(1).next_u64(), parent.fork(2).next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; splitmix64 expands it into a full non-zero state.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child stream. `label` values must be distinct
    /// per call site; the same `(parent seed, label)` always yields the same
    /// child. Forking never advances the parent.
    pub fn fork(&self, label: u64) -> Rng {
        // Mix the full parent state with the label through splitmix64.
        let [s0, s1, s2, s3] = self.s;
        let mut sm = s0
            ^ s1.rotate_left(16)
            ^ s2.rotate_left(32)
            ^ s3.rotate_left(48)
            ^ label.wrapping_mul(0xD1B54A32D192ED03);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    /// Uses Lemire's multiply-shift with rejection for unbiased output.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Lemire's method keeps the low 64 bits of the product on purpose"
    )]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of a non-empty slice.
    #[expect(clippy::cast_possible_truncation, reason = "the draw is below the slice length")]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    #[expect(clippy::cast_possible_truncation, reason = "the draw is at most the loop index")]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir when `k << n`),
    /// returned in ascending order. Panics if `k > n`.
    #[expect(clippy::cast_possible_truncation, reason = "the draw is at most the loop index")]
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        // Floyd's algorithm: O(k) expected, no allocation of size n.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.below((j + 1) as u64) as usize;
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = Rng::seed_from(7);
        let mut c1 = parent.fork(1);
        let mut c1_again = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        // Extremely unlikely to collide if independent.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_with_reasonable_mean() {
        let mut r = Rng::seed_from(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = Rng::seed_from(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for c in counts {
            // Expected 10_000, allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::seed_from(0).below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::seed_from(9);
        for _ in 0..50 {
            let s = r.sample_indices(30, 7);
            assert_eq!(s.len(), 7);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 30));
        }
        assert_eq!(r.sample_indices(5, 5).len(), 5);
        assert!(r.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
    }
}
