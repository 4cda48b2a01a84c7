//! The multi-party constellation registry.
//!
//! Tracks which party contributed which satellite and supports the
//! operations the robustness experiments need: withdrawal of a party,
//! stake queries, and shuffled (interleaved) assignment — the paper's §3.3
//! observation that coverage-optimal constellations naturally intersperse
//! satellites of different parties rather than clustering them.

use crate::party::{allocate_by_ratio, Party, PartyId, PartyKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Ownership map over a constellation of `sat_count` satellites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstellationRegistry {
    /// Number of satellites under management.
    pub sat_count: usize,
    /// The participating parties (with their satellite indices).
    pub parties: Vec<Party>,
}

impl ConstellationRegistry {
    /// Build a registry by allocating `sat_count` satellites across parties
    /// with the given stake ratios.
    ///
    /// If `shuffle` is provided, satellite indices are randomly interleaved
    /// across parties (the coverage-optimal "interspersed" arrangement);
    /// otherwise parties receive contiguous index blocks (the clustered
    /// arrangement, useful as a worst-case comparator).
    pub fn from_ratios(
        sat_count: usize,
        ratios: &[f64],
        kind: PartyKind,
        shuffle: Option<&mut StdRng>,
    ) -> Self {
        let counts = allocate_by_ratio(sat_count, ratios);
        Self::from_counts(sat_count, &counts, kind, shuffle)
    }

    /// Build a registry from explicit per-party satellite counts.
    ///
    /// Each party's index list is sorted here, once, at build time —
    /// [`Self::remaining_after_withdrawal`] relies on that precomputed
    /// ordering on its hot path.
    pub fn from_counts(
        sat_count: usize,
        counts: &[usize],
        kind: PartyKind,
        shuffle: Option<&mut StdRng>,
    ) -> Self {
        assert_eq!(counts.iter().sum::<usize>(), sat_count, "counts must cover all satellites");
        let mut indices: Vec<usize> = (0..sat_count).collect();
        if let Some(rng) = shuffle {
            indices.shuffle(rng);
        }
        let mut parties = Vec::with_capacity(counts.len());
        let mut cursor = 0;
        for (pi, &c) in counts.iter().enumerate() {
            let mut sats: Vec<usize> = indices[cursor..cursor + c].to_vec();
            sats.sort_unstable();
            parties.push(Party {
                id: PartyId::new(format!("party-{pi:02}")),
                kind,
                satellites: sats,
            });
            cursor += c;
        }
        ConstellationRegistry { sat_count, parties }
    }

    /// The party with the largest stake (first on ties).
    pub fn largest_party(&self) -> &Party {
        self.parties.iter().max_by_key(|p| p.stake()).expect("registry has at least one party")
    }

    /// Find a party by id.
    pub fn party(&self, id: &PartyId) -> Option<&Party> {
        self.parties.iter().find(|p| &p.id == id)
    }

    /// Satellite indices remaining if `id` withdraws.
    ///
    /// Hot path for the robustness and churn experiments, which withdraw
    /// repeatedly over many runs. [`Self::from_counts`] sorts each party's
    /// index list at build time, so the withdrawn set is already a sorted
    /// index set and one merge sweep over `0..sat_count` suffices — no
    /// per-call hash set.
    pub fn remaining_after_withdrawal(&self, id: &PartyId) -> Vec<usize> {
        let withdrawn: &[usize] = self.party(id).map(|p| p.satellites.as_slice()).unwrap_or(&[]);
        debug_assert!(
            withdrawn.windows(2).all(|w| w[0] < w[1]),
            "party index lists are sorted at build time"
        );
        let mut remaining = Vec::with_capacity(self.sat_count.saturating_sub(withdrawn.len()));
        let mut w = 0;
        for i in 0..self.sat_count {
            while w < withdrawn.len() && withdrawn[w] < i {
                w += 1;
            }
            if w < withdrawn.len() && withdrawn[w] == i {
                continue;
            }
            remaining.push(i);
        }
        remaining
    }

    /// All satellite indices.
    pub fn all_indices(&self) -> Vec<usize> {
        (0..self.sat_count).collect()
    }

    /// Check internal consistency: every satellite owned exactly once.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.sat_count];
        for p in &self.parties {
            for &s in &p.satellites {
                if s >= self.sat_count {
                    return Err(format!("{}: satellite {s} out of range", p.id));
                }
                if seen[s] {
                    return Err(format!("satellite {s} owned twice"));
                }
                seen[s] = true;
            }
        }
        if let Some(orphan) = seen.iter().position(|&v| !v) {
            return Err(format!("satellite {orphan} unowned"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::skewed_ratios;
    use rand::SeedableRng;

    #[test]
    fn contiguous_assignment() {
        let reg = ConstellationRegistry::from_counts(10, &[4, 6], PartyKind::Country, None);
        assert_eq!(reg.parties[0].satellites, vec![0, 1, 2, 3]);
        assert_eq!(reg.parties[1].satellites, vec![4, 5, 6, 7, 8, 9]);
        reg.validate().unwrap();
    }

    #[test]
    fn shuffled_assignment_valid_and_interleaved() {
        let mut rng = StdRng::seed_from_u64(7);
        let reg = ConstellationRegistry::from_ratios(
            100,
            &skewed_ratios(1.0, 9),
            PartyKind::Company,
            Some(&mut rng),
        );
        reg.validate().unwrap();
        // With shuffling, party 0's satellites should not be the contiguous
        // prefix (probability of that is astronomically small).
        assert_ne!(reg.parties[0].satellites, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn largest_party_and_stake() {
        let reg = ConstellationRegistry::from_ratios(
            1000,
            &skewed_ratios(10.0, 10),
            PartyKind::Country,
            None,
        );
        let big = reg.largest_party();
        assert_eq!(big.stake(), 500);
    }

    #[test]
    fn withdrawal_removes_only_that_party() {
        let mut rng = StdRng::seed_from_u64(1);
        let reg = ConstellationRegistry::from_ratios(
            100,
            &skewed_ratios(3.0, 4),
            PartyKind::Country,
            Some(&mut rng),
        );
        let id = reg.largest_party().id.clone();
        let remaining = reg.remaining_after_withdrawal(&id);
        assert_eq!(remaining.len(), 100 - reg.largest_party().stake());
        let withdrawn: std::collections::HashSet<usize> =
            reg.largest_party().satellites.iter().cloned().collect();
        assert!(remaining.iter().all(|i| !withdrawn.contains(i)));
    }

    #[test]
    fn repeated_withdrawal_is_idempotent_and_matches_set_filter() {
        // Regression for the sorted-sweep rewrite: repeated calls must
        // return identical results, and every shuffled registry must agree
        // with the straightforward set-based reference.
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let reg = ConstellationRegistry::from_ratios(
                97,
                &skewed_ratios(2.0, 5),
                PartyKind::Company,
                Some(&mut rng),
            );
            for party in &reg.parties {
                let first = reg.remaining_after_withdrawal(&party.id);
                let second = reg.remaining_after_withdrawal(&party.id);
                assert_eq!(first, second, "repeated withdrawal must be idempotent");
                let withdrawn: std::collections::HashSet<usize> =
                    party.satellites.iter().cloned().collect();
                let reference: Vec<usize> =
                    (0..reg.sat_count).filter(|i| !withdrawn.contains(i)).collect();
                assert_eq!(first, reference, "sweep must match the set filter");
                assert!(first.windows(2).all(|w| w[0] < w[1]), "output stays sorted");
            }
        }
    }

    #[test]
    fn withdrawal_of_whole_registry_leaves_nothing() {
        let reg = ConstellationRegistry::from_counts(6, &[6], PartyKind::Country, None);
        assert!(reg.remaining_after_withdrawal(&reg.parties[0].id).is_empty());
    }

    #[test]
    fn withdrawal_of_unknown_party_is_noop() {
        let reg = ConstellationRegistry::from_counts(5, &[5], PartyKind::Country, None);
        let remaining = reg.remaining_after_withdrawal(&PartyId::new("ghost"));
        assert_eq!(remaining.len(), 5);
    }

    #[test]
    fn validate_detects_double_ownership() {
        let mut reg = ConstellationRegistry::from_counts(4, &[2, 2], PartyKind::Country, None);
        reg.parties[1].satellites[0] = 0; // now 0 owned twice, 2 orphaned
        assert!(reg.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn counts_must_cover() {
        ConstellationRegistry::from_counts(10, &[4, 4], PartyKind::Country, None);
    }
}
