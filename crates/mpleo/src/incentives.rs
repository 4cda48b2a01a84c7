//! Participation incentives: pricing models and settlement between
//! consumer and provider parties (the paper's §3.2).
//!
//! The model mirrors the Helium-style structure the paper cites:
//!
//! * providers earn for *carrying traffic* in proportion to utilization;
//! * prices are either predetermined (fixed) or dynamically set by scarcity
//!   (an open data market).
//!
//! Proof-of-coverage rewards are `dcp::ledger`'s; capacity-limited
//! scheduling and spare-capacity accounting are `traffic::allocate` and
//! `TrafficReport::party_spare`.

use crate::party::PartyId;
use leosim::visibility::VisibilityTable;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How providers charge for carried traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PricingModel {
    /// A predetermined price per served step.
    Fixed {
        /// Price per served step, credits.
        rate: f64,
    },
    /// Scarcity pricing: when `k` satellites are visible to the consumer at
    /// a step, the price is `base * (1 + surge / k)` — fewer alternatives,
    /// higher price. `k = 0` steps are unserved and cost nothing.
    Dynamic {
        /// Baseline price per served step, credits.
        base: f64,
        /// Surge coefficient.
        surge: f64,
    },
}

impl PricingModel {
    /// Price of one served step when `visible_count` satellites could have
    /// served the consumer.
    pub fn price(&self, visible_count: usize) -> f64 {
        match *self {
            PricingModel::Fixed { rate } => rate,
            PricingModel::Dynamic { base, surge } => {
                if visible_count == 0 {
                    0.0
                } else {
                    base * (1.0 + surge / visible_count as f64)
                }
            }
        }
    }
}

/// A record that satellite `sat` served consumer site `site` at step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceRecord {
    /// Satellite index (into the visibility table).
    pub sat: usize,
    /// Consumer site index.
    pub site: usize,
    /// Time-grid step.
    pub step: usize,
}

/// Generate service records by assigning, at every step, each site to the
/// lowest-indexed visible satellite of the subset (a deterministic,
/// capacity-free stand-in for a scheduler; the loaded version is
/// `traffic::allocate`).
pub fn service_records(vt: &VisibilityTable, sat_indices: &[usize]) -> Vec<ServiceRecord> {
    let mut out = Vec::new();
    for site in 0..vt.site_count() {
        for step in 0..vt.grid.steps {
            if let Some(&sat) = sat_indices.iter().find(|&&s| vt.bitset(s, site).get(step)) {
                out.push(ServiceRecord { sat, site, step });
            }
        }
    }
    out
}

/// Settlement outcome: net credit balance per party (positive = earned).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Settlement {
    /// Net balances, credits.
    pub balances: HashMap<PartyId, f64>,
    /// Gross amount transferred, credits.
    pub volume: f64,
}

impl Settlement {
    /// Net balance of a party (0 if unknown).
    pub fn balance(&self, id: &PartyId) -> f64 {
        self.balances.get(id).copied().unwrap_or(0.0)
    }
}

/// Settle an epoch of service records.
///
/// `sat_owner[sat]` is the providing party of a satellite; `site_consumer
/// [site]` is the paying party of a terminal site. For each record the
/// consumer pays the provider the model price (self-service — a party using
/// its own satellite — transfers nothing but still counts as utilization).
/// `visible_counts[site][step]` supplies the scarcity input for dynamic
/// pricing; pass the result of [`visible_count_matrix`].
pub fn settle(
    records: &[ServiceRecord],
    sat_owner: &HashMap<usize, PartyId>,
    site_consumer: &HashMap<usize, PartyId>,
    pricing: PricingModel,
    visible_counts: &[Vec<usize>],
) -> Settlement {
    let mut balances: HashMap<PartyId, f64> = HashMap::new();
    let mut volume = 0.0;
    for r in records {
        let provider = sat_owner.get(&r.sat).expect("satellite has an owner");
        let consumer = site_consumer.get(&r.site).expect("site has a consumer");
        if provider == consumer {
            continue;
        }
        let price = pricing.price(visible_counts[r.site][r.step]);
        *balances.entry(provider.clone()).or_default() += price;
        *balances.entry(consumer.clone()).or_default() -= price;
        volume += price;
    }
    Settlement { balances, volume }
}

/// Per-(site, step) count of visible satellites from the subset — the
/// scarcity signal for dynamic pricing.
pub fn visible_count_matrix(vt: &VisibilityTable, sat_indices: &[usize]) -> Vec<Vec<usize>> {
    (0..vt.site_count())
        .map(|site| {
            let mut counts = vec![0usize; vt.grid.steps];
            for &s in sat_indices {
                for step in vt.bitset(s, site).iter_ones() {
                    counts[step] += 1;
                }
            }
            counts
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use leosim::visibility::SimConfig;
    use leosim::TimeGrid;
    use orbital::constellation::single_plane;
    use orbital::time::Epoch;

    fn epoch() -> Epoch {
        Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
    }

    fn table() -> VisibilityTable {
        let sats = single_plane(6, 550.0, 53.0, epoch());
        let sites = vec![fixtures::tokyo(), fixtures::taipei()];
        let grid = TimeGrid::new(epoch(), 86_400.0, 120.0);
        VisibilityTable::compute(&sats, &sites, &grid, &SimConfig::default())
    }

    fn owners() -> (HashMap<usize, PartyId>, HashMap<usize, PartyId>) {
        let mut sat_owner = HashMap::new();
        for s in 0..6 {
            sat_owner.insert(s, PartyId::new(if s < 3 { "alpha" } else { "beta" }));
        }
        let mut site_consumer = HashMap::new();
        site_consumer.insert(0usize, PartyId::new("gamma"));
        site_consumer.insert(1usize, PartyId::new("alpha"));
        (sat_owner, site_consumer)
    }

    #[test]
    fn pricing_models() {
        let fixed = PricingModel::Fixed { rate: 2.0 };
        assert_eq!(fixed.price(1), 2.0);
        assert_eq!(fixed.price(10), 2.0);
        let dynamic = PricingModel::Dynamic { base: 1.0, surge: 2.0 };
        assert_eq!(dynamic.price(0), 0.0);
        assert_eq!(dynamic.price(1), 3.0);
        assert_eq!(dynamic.price(2), 2.0);
        assert!(dynamic.price(100) < dynamic.price(2));
    }

    #[test]
    fn service_records_match_visibility() {
        let vt = table();
        let idx: Vec<usize> = (0..6).collect();
        let records = service_records(&vt, &idx);
        // Every record corresponds to actual visibility.
        for r in &records {
            assert!(vt.bitset(r.sat, r.site).get(r.step));
        }
        // Total records equal the union coverage of each site.
        for site in 0..2 {
            let expected = vt.coverage_union(&idx, site).count_ones();
            let got = records.iter().filter(|r| r.site == site).count();
            assert_eq!(got, expected, "site {site}");
        }
    }

    #[test]
    fn settlement_conserves_credits() {
        let vt = table();
        let idx: Vec<usize> = (0..6).collect();
        let records = service_records(&vt, &idx);
        let (sat_owner, site_consumer) = owners();
        let counts = visible_count_matrix(&vt, &idx);
        for pricing in
            [PricingModel::Fixed { rate: 1.5 }, PricingModel::Dynamic { base: 1.0, surge: 3.0 }]
        {
            let s = settle(&records, &sat_owner, &site_consumer, pricing, &counts);
            let net: f64 = s.balances.values().sum();
            assert!(net.abs() < 1e-9, "credits not conserved: {net}");
            assert!(s.volume >= 0.0);
        }
    }

    #[test]
    fn self_service_transfers_nothing() {
        let vt = table();
        // Alpha owns everything and consumes everything: no transfers.
        let sat_owner: HashMap<usize, PartyId> =
            (0..6).map(|s| (s, PartyId::new("alpha"))).collect();
        let site_consumer: HashMap<usize, PartyId> =
            (0..2).map(|s| (s, PartyId::new("alpha"))).collect();
        let idx: Vec<usize> = (0..6).collect();
        let records = service_records(&vt, &idx);
        let counts = visible_count_matrix(&vt, &idx);
        let s = settle(
            &records,
            &sat_owner,
            &site_consumer,
            PricingModel::Fixed { rate: 1.0 },
            &counts,
        );
        assert_eq!(s.volume, 0.0);
    }

    #[test]
    fn provider_earns_consumer_pays() {
        let vt = table();
        let idx: Vec<usize> = (0..6).collect();
        let records = service_records(&vt, &idx);
        let (sat_owner, site_consumer) = owners();
        let counts = visible_count_matrix(&vt, &idx);
        let s = settle(
            &records,
            &sat_owner,
            &site_consumer,
            PricingModel::Fixed { rate: 1.0 },
            &counts,
        );
        // Gamma only consumes (owns no satellites): non-positive balance.
        assert!(s.balance(&PartyId::new("gamma")) <= 0.0);
        // Beta only provides (consumes nothing): non-negative balance.
        assert!(s.balance(&PartyId::new("beta")) >= 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn visible_count_matrix_consistent() {
        let vt = table();
        let idx: Vec<usize> = (0..6).collect();
        let counts = visible_count_matrix(&vt, &idx);
        for site in 0..2 {
            for step in 0..vt.grid.steps {
                let manual = idx.iter().filter(|&&s| vt.bitset(s, site).get(step)).count();
                assert_eq!(counts[site][step], manual);
            }
        }
    }
}
