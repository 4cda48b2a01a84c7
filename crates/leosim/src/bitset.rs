//! Compact time bitsets.
//!
//! A [`TimeBitset`] records, for every step of a [`crate::TimeGrid`],
//! whether some predicate held (satellite visible, terminal connected, …).
//! All the paper's Monte-Carlo experiments reduce to unions and
//! intersections of these bitsets followed by gap extraction, so these
//! operations are implemented over `u64` blocks.

use serde::{Deserialize, Serialize};

/// A fixed-length bitset indexed by time-grid step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeBitset {
    len: usize,
    blocks: Vec<u64>,
}

/// A half-open run of consecutive steps `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Run {
    /// First step of the run.
    pub start: usize,
    /// One past the last step of the run.
    pub end: usize,
}

impl Run {
    /// Number of steps in the run.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl TimeBitset {
    /// An all-zeros bitset of `len` steps.
    pub fn zeros(len: usize) -> Self {
        TimeBitset { len, blocks: vec![0; len.div_ceil(64)] }
    }

    /// An all-ones bitset of `len` steps.
    pub fn ones(len: usize) -> Self {
        let mut b = TimeBitset { len, blocks: vec![u64::MAX; len.div_ceil(64)] };
        b.clear_tail();
        b
    }

    /// Number of steps the bitset covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set step `k` to 1.
    #[inline]
    pub fn set(&mut self, k: usize) {
        debug_assert!(k < self.len);
        self.blocks[k / 64] |= 1u64 << (k % 64);
    }

    /// Clear step `k` to 0.
    #[inline]
    pub fn clear(&mut self, k: usize) {
        debug_assert!(k < self.len);
        self.blocks[k / 64] &= !(1u64 << (k % 64));
    }

    /// Read step `k`.
    #[inline]
    pub fn get(&self, k: usize) -> bool {
        debug_assert!(k < self.len);
        (self.blocks[k / 64] >> (k % 64)) & 1 == 1
    }

    /// Number of set steps.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of clear steps.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of steps set, in `[0, 1]`. Zero-length bitsets yield 0.
    pub fn fraction_ones(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// `self |= other` (element-wise OR).
    pub fn union_assign(&mut self, other: &TimeBitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// `self &= other` (element-wise AND).
    pub fn intersect_assign(&mut self, other: &TimeBitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// Element-wise complement.
    pub fn complement(&self) -> TimeBitset {
        let mut out = TimeBitset {
            len: self.len,
            blocks: self.blocks.iter().map(|b| !b).collect(),
        };
        out.clear_tail();
        out
    }

    /// Number of steps set in both `self` and `other`, without allocating.
    pub fn intersection_count(&self, other: &TimeBitset) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Number of steps that would be newly covered by adding `other`
    /// (i.e. `|other \ self|`), without allocating.
    pub fn marginal_gain(&self, other: &TimeBitset) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (!a & b).count_ones() as usize)
            .sum()
    }

    /// Runs of consecutive set steps.
    pub fn runs_of_ones(&self) -> Vec<Run> {
        self.runs(true)
    }

    /// Runs of consecutive clear steps (coverage *gaps*).
    pub fn runs_of_zeros(&self) -> Vec<Run> {
        self.runs(false)
    }

    fn runs(&self, ones: bool) -> Vec<Run> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for k in 0..self.len {
            let bit = self.get(k) == ones;
            match (bit, start) {
                (true, None) => start = Some(k),
                (false, Some(s)) => {
                    out.push(Run { start: s, end: k });
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push(Run { start: s, end: self.len });
        }
        out
    }

    /// Indices of set steps.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&k| self.get(k))
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = TimeBitset::zeros(130);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.count_zeros(), 130);
        let o = TimeBitset::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!((o.fraction_ones() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn tail_bits_not_counted() {
        // len not a multiple of 64: complement must not set ghost bits.
        let z = TimeBitset::zeros(70);
        let c = z.complement();
        assert_eq!(c.count_ones(), 70);
        let c2 = c.complement();
        assert_eq!(c2.count_ones(), 0);
    }

    #[test]
    fn set_get_clear() {
        let mut b = TimeBitset::zeros(100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_ones(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn union_intersect_difference() {
        let mut a = TimeBitset::zeros(128);
        let mut b = TimeBitset::zeros(128);
        for k in 0..64 {
            a.set(k);
        }
        for k in 32..96 {
            b.set(k);
        }
        let mut u = a.clone();
        u.union_assign(&b);
        assert_eq!(u.count_ones(), 96);
        let mut i = a.clone();
        i.intersect_assign(&b);
        assert_eq!(i.count_ones(), 32);
        assert_eq!(a.intersection_count(&b), 32);
        assert_eq!(a.marginal_gain(&b), 32);
        assert_eq!(u.marginal_gain(&a), 0);
    }

    #[test]
    fn runs_extraction() {
        let mut b = TimeBitset::zeros(20);
        for k in [0, 1, 2, 7, 8, 15] {
            b.set(k);
        }
        let ones = b.runs_of_ones();
        assert_eq!(ones, vec![
            Run { start: 0, end: 3 },
            Run { start: 7, end: 9 },
            Run { start: 15, end: 16 }
        ]);
        let zeros = b.runs_of_zeros();
        assert_eq!(zeros, vec![
            Run { start: 3, end: 7 },
            Run { start: 9, end: 15 },
            Run { start: 16, end: 20 }
        ]);
    }

    #[test]
    fn runs_edge_cases() {
        assert!(TimeBitset::zeros(10).runs_of_ones().is_empty());
        assert_eq!(TimeBitset::zeros(10).runs_of_zeros(), vec![Run { start: 0, end: 10 }]);
        assert_eq!(TimeBitset::ones(10).runs_of_ones(), vec![Run { start: 0, end: 10 }]);
        assert!(TimeBitset::zeros(0).runs_of_zeros().is_empty());
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut b = TimeBitset::zeros(200);
        for k in (0..200).step_by(7) {
            b.set(k);
        }
        let idx: Vec<usize> = b.iter_ones().collect();
        assert_eq!(idx, (0..200).step_by(7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = TimeBitset::zeros(10);
        let b = TimeBitset::zeros(11);
        a.union_assign(&b);
    }

    #[test]
    fn complement_roundtrip_fraction() {
        let mut b = TimeBitset::zeros(1000);
        for k in 0..250 {
            b.set(k * 4);
        }
        assert!((b.fraction_ones() - 0.25).abs() < 1e-12);
        assert!((b.complement().fraction_ones() - 0.75).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bitset(len: usize) -> impl Strategy<Value = TimeBitset> {
        proptest::collection::vec(any::<bool>(), len).prop_map(move |bits| {
            let mut b = TimeBitset::zeros(len);
            for (k, set) in bits.iter().enumerate() {
                if *set {
                    b.set(k);
                }
            }
            b
        })
    }

    proptest! {
        #[test]
        fn union_count_bounds(a in arb_bitset(137), b in arb_bitset(137)) {
            let mut u = a.clone();
            u.union_assign(&b);
            prop_assert!(u.count_ones() >= a.count_ones().max(b.count_ones()));
            prop_assert!(u.count_ones() <= a.count_ones() + b.count_ones());
        }

        #[test]
        fn inclusion_exclusion(a in arb_bitset(137), b in arb_bitset(137)) {
            let mut u = a.clone();
            u.union_assign(&b);
            let i = a.intersection_count(&b);
            prop_assert_eq!(u.count_ones() + i, a.count_ones() + b.count_ones());
        }

        #[test]
        fn marginal_gain_is_union_minus_base(a in arb_bitset(200), b in arb_bitset(200)) {
            let mut u = a.clone();
            u.union_assign(&b);
            prop_assert_eq!(a.marginal_gain(&b), u.count_ones() - a.count_ones());
        }

        #[test]
        fn complement_involution(a in arb_bitset(99)) {
            prop_assert_eq!(a.complement().complement(), a);
        }

        #[test]
        fn runs_partition_the_domain(a in arb_bitset(150)) {
            let total: usize = a.runs_of_ones().iter().map(Run::len).sum::<usize>()
                + a.runs_of_zeros().iter().map(Run::len).sum::<usize>();
            prop_assert_eq!(total, 150);
            let ones: usize = a.runs_of_ones().iter().map(Run::len).sum();
            prop_assert_eq!(ones, a.count_ones());
        }

        #[test]
        fn demorgan(a in arb_bitset(80), b in arb_bitset(80)) {
            // !(a | b) == !a & !b
            let mut u = a.clone();
            u.union_assign(&b);
            let lhs = u.complement();
            let mut rhs = a.complement();
            rhs.intersect_assign(&b.complement());
            prop_assert_eq!(lhs, rhs);
        }
    }
}
