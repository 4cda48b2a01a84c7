//! Sequence helpers: shuffling, choosing, index sampling.

use crate::{Rng, RngCore};

/// Random operations on slices.
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

    /// One uniformly chosen element (`None` when empty).
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_range(0..=i));
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

/// Sampling of distinct indices.
pub mod index {
    use crate::{Rng, RngCore};

    /// A set of sampled indices.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct IndexVec(Vec<usize>);

    impl IndexVec {
        /// The indices as a vector (sampling order).
        pub fn into_vec(self) -> Vec<usize> {
            self.0
        }
    }

    /// `amount` distinct indices from `0..length`, in random order. Small
    /// samples use Floyd's algorithm (no `O(length)` work), large ones a
    /// partial Fisher–Yates shuffle.
    pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
        assert!(amount <= length, "cannot sample {amount} of {length}");
        if amount * 8 < length {
            let mut out: Vec<usize> = Vec::with_capacity(amount);
            for j in length - amount..length {
                let t = rng.gen_range(0..=j);
                let pick = if out.contains(&t) { j } else { t };
                out.push(pick);
            }
            IndexVec(out)
        } else {
            let mut all: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                all.swap(i, j);
            }
            all.truncate(amount);
            IndexVec(all)
        }
    }
}
