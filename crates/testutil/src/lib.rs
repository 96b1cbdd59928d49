//! Deterministic pseudo-random generation for the workspace's property
//! tests.
//!
//! The container this workspace builds in has no access to the crates.io
//! registry, so the test suite cannot depend on `proptest`. The property
//! tests instead draw their cases from this tiny, fully deterministic
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c)-style generator:
//! every run explores the same cases, failures print the offending seed, and
//! a failing case can be replayed by constructing `Rng::seeded(seed)`.
//!
//! ```
//! use bec_testutil::Rng;
//!
//! let mut rng = Rng::seeded(7);
//! let a = rng.next_u64();
//! let b = rng.range_u64(0, 10);
//! assert!(b < 10);
//! assert_ne!(a, rng.next_u64());
//! ```

use std::collections::HashMap;

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// Not cryptographic; statistically solid for test-case generation and
/// equidistributed over `u64`.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator with a fixed default seed (shared by most tests).
    pub fn new() -> Rng {
        Rng::seeded(0x5DEECE66D)
    }

    /// A generator seeded with `seed` (replay a failing case by seeding with
    /// the value the assertion message reported).
    pub fn seeded(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The current state; report this in assertion messages so a failure can
    /// be replayed with [`Rng::seeded`].
    pub fn state(&self) -> u64 {
        self.state
    }

    /// A uniform value in `lo..hi` (half-open). `hi` must exceed `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        // Modulo bias is irrelevant at test-case-generation quality.
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform `i64` in `lo..hi` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.range_u64(0, (hi - lo) as u64) as i64)
    }

    /// A uniform `usize` in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 != 0
    }

    /// An index into `weights`, drawn with probability proportional to its
    /// weight. Zero-weight entries are never chosen.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or all weights are zero.
    pub fn choose_weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "choose_weighted needs a positive total weight");
        let mut roll = self.range_u64(0, total);
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                return i;
            }
            roll -= w;
        }
        unreachable!("roll below total weight")
    }

    /// Shuffles `items` in place (Fisher–Yates over the whole slice).
    ///
    /// Draws exactly `items.len()` values from the generator — the same
    /// sequence as `partial_shuffle(items, items.len())` — so a shuffle is
    /// replayable from the seed alone.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        self.partial_shuffle(items, n);
    }

    /// Moves a uniform random sample of `n` elements (without replacement)
    /// into `items[..n]`, in sampled order: the first `n` steps of a
    /// Fisher–Yates shuffle. The tail `items[n..]` holds the unsampled rest
    /// in unspecified order.
    ///
    /// Draws exactly `n` values from the generator regardless of the slice
    /// length (one `range_u64` per sampled slot), which is what lets seeded
    /// consumers keep their historical byte-for-byte output. Campaign fault
    /// sampling draws the same values through [`Rng::sample_indices`],
    /// which never materialises the slice.
    ///
    /// # Panics
    ///
    /// Panics if `n > items.len()`.
    pub fn partial_shuffle<T>(&mut self, items: &mut [T], n: usize) {
        assert!(n <= items.len(), "cannot sample {n} of {}", items.len());
        for i in 0..n {
            let j = self.range_u64(i as u64, items.len() as u64) as usize;
            items.swap(i, j);
        }
    }

    /// The first `n` slots of `partial_shuffle` over `0..len`, in sampled
    /// order, in O(`n`) time and memory: a sparse Fisher–Yates that keeps
    /// only the displaced positions in a swap map.
    ///
    /// Draws the same `n` values as `partial_shuffle` (and leaves the
    /// generator in the same state), so swapping one for the other keeps
    /// every seeded sample byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn sample_indices(&mut self, len: usize, n: usize) -> Vec<usize> {
        assert!(n <= len, "cannot sample {n} of {len}");
        // `moved[p]` is the value at virtual position `p` when it is no
        // longer `p` itself. Position `i` is final once step `i` has run,
        // so only positions past `i` are ever looked up again.
        let mut moved: HashMap<usize, usize> = HashMap::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let j = self.range_u64(i as u64, len as u64) as usize;
            let at_i = moved.remove(&i).unwrap_or(i);
            out.push(if j == i { at_i } else { moved.insert(j, at_i).unwrap_or(j) });
        }
        out
    }
}

impl Default for Rng {
    fn default() -> Self {
        Rng::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new();
        for _ in 0..1000 {
            let v = rng.range_u64(3, 17);
            assert!((3..17).contains(&v));
            let s = rng.range_i64(-8, 9);
            assert!((-8..9).contains(&s));
            assert!(rng.index(5) < 5);
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::new();
        let items = [0u32, 1, 2, 3];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.choose(&items) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Rng::seeded(11);
        let weights = [1, 0, 7, 2];
        let mut counts = [0u32; 4];
        for _ in 0..10_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        // Zero-weight entries are impossible; heavy entries dominate.
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] && counts[2] > counts[3], "{counts:?}");
        assert!(counts[0] > 0 && counts[3] > 0, "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn choose_weighted_rejects_all_zero() {
        Rng::new().choose_weighted(&[0, 0]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::seeded(3).shuffle(&mut a);
        Rng::seeded(3).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, sorted, "and (at 50 elements) virtually never the identity");
        let mut c = sorted.clone();
        Rng::seeded(4).shuffle(&mut c);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn partial_shuffle_prefix_is_a_uniform_sample() {
        // Every element must appear in the sampled prefix eventually, and
        // the prefix must never contain duplicates.
        let mut hit = [false; 10];
        let mut rng = Rng::seeded(9);
        for _ in 0..300 {
            let mut items: Vec<usize> = (0..10).collect();
            rng.partial_shuffle(&mut items, 3);
            let prefix = &items[..3];
            assert!(prefix.iter().all(|&v| prefix.iter().filter(|&&w| w == v).count() == 1));
            for &v in prefix {
                hit[v] = true;
            }
            items.sort_unstable();
            assert_eq!(items, (0..10).collect::<Vec<_>>(), "still a permutation");
        }
        assert!(hit.iter().all(|h| *h), "{hit:?}");
    }

    #[test]
    fn sample_indices_matches_partial_shuffle() {
        // The campaign sampler's contract: the same values in the same
        // order as the first `n` slots of `partial_shuffle` over `0..len`,
        // and the generator left in the same state.
        for seed in [0, 1, 3052, 60607, u64::MAX] {
            for len in [1usize, 2, 63, 64, 65, 100_000] {
                for n in [0, 1, len - 1, len] {
                    let mut dense = Rng::seeded(seed);
                    let mut items: Vec<usize> = (0..len).collect();
                    dense.partial_shuffle(&mut items, n);
                    let mut sparse = Rng::seeded(seed);
                    let got = sparse.sample_indices(len, n);
                    assert_eq!(got, items[..n], "seed {seed} len {len} n {n}");
                    assert_eq!(sparse.state(), dense.state(), "seed {seed} len {len} n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample 3 of 2")]
    fn sample_indices_rejects_oversampling() {
        Rng::new().sample_indices(2, 3);
    }

    #[test]
    fn partial_shuffle_draw_count_is_exactly_n() {
        // The determinism contract consumers rely on: n draws, no more.
        let mut rng = Rng::seeded(21);
        let mut items: Vec<u32> = (0..100).collect();
        rng.partial_shuffle(&mut items, 5);
        let mut replay = Rng::seeded(21);
        for _ in 0..5 {
            replay.next_u64();
        }
        assert_eq!(rng.state(), replay.state());
    }
}
