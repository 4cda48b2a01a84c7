//! Constellation economics: the capital argument of the paper's §1–2.
//!
//! "Amazon and Starlink have projected that building fully operational LEO
//! networks requires investments between 10-30 billion dollars." This
//! module prices constellations with a simple, auditable cost model
//! (satellite capex + launch + annual operations, with replacement over a
//! design life) and compares the *cost of a coverage target* for
//! go-it-alone vs MP-LEO participation — turning Fig. 2's coverage curve
//! into dollars.

use serde::{Deserialize, Serialize};

/// Cost model parameters (2024-ish public figures, millions of USD).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Satellite build cost, $M each.
    pub sat_capex_musd: f64,
    /// Launch cost per satellite (rideshare amortized), $M.
    pub launch_per_sat_musd: f64,
    /// Annual operations per satellite (ground segment share, staff,
    /// spectrum), $M.
    pub annual_ops_per_sat_musd: f64,
    /// Satellite design life, years (drives replacement cadence).
    pub design_life_years: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Starlink-class economics: ~$0.5M satellite, ~$1M launch share,
        // 5-year life.
        CostModel {
            sat_capex_musd: 0.5,
            launch_per_sat_musd: 1.0,
            annual_ops_per_sat_musd: 0.1,
            design_life_years: 5.0,
        }
    }
}

impl CostModel {
    /// Total cost of owning `sats` satellites for `years`, $M
    /// (initial deployment + replacements + operations).
    pub fn total_cost_musd(&self, sats: usize, years: f64) -> f64 {
        assert!(years >= 0.0);
        let deploy = (self.sat_capex_musd + self.launch_per_sat_musd) * sats as f64;
        // Replacements: each satellite is rebuilt every design life.
        let generations = (years / self.design_life_years).max(0.0);
        let replacement = deploy * generations;
        let ops = self.annual_ops_per_sat_musd * sats as f64 * years;
        deploy + replacement + ops
    }
}

/// One row of a cost-of-coverage comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageCost {
    /// Satellites the party must own.
    pub own_sats: usize,
    /// Satellites whose coverage the party enjoys.
    pub effective_sats: usize,
    /// 10-year total cost to the party, $M.
    pub cost_10yr_musd: f64,
    /// Availability achieved at the party's target site, fraction.
    pub availability: f64,
}

/// Cost for a party to reach `availability` going it alone, given the
/// empirical size→availability curve `curve` (pairs of `(sats,
/// availability)`, ascending in sats — e.g. from the Fig. 2 experiment).
/// Returns `None` when the curve never reaches the target.
pub fn go_it_alone(
    curve: &[(usize, f64)],
    target_availability: f64,
    model: &CostModel,
) -> Option<CoverageCost> {
    let (sats, availability) = curve.iter().find(|(_, a)| *a >= target_availability).copied()?;
    Some(CoverageCost {
        own_sats: sats,
        effective_sats: sats,
        cost_10yr_musd: model.total_cost_musd(sats, 10.0),
        availability,
    })
}

/// Cost for a party to reach the same target inside an MP-LEO constellation
/// of `shared_total` satellites, contributing its proportional share
/// (`shared_total / parties`, rounded up). The availability enjoyed is the
/// whole constellation's.
pub fn mp_leo_share(
    curve: &[(usize, f64)],
    target_availability: f64,
    parties: usize,
    model: &CostModel,
) -> Option<CoverageCost> {
    assert!(parties >= 1);
    let (shared_total, availability) =
        curve.iter().find(|(_, a)| *a >= target_availability).copied()?;
    let own = shared_total.div_ceil(parties);
    Some(CoverageCost {
        own_sats: own,
        effective_sats: shared_total,
        cost_10yr_musd: model.total_cost_musd(own, 10.0),
        availability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Fig.-2-shaped curve (availability at Taipei by constellation
    /// size, 25-degree mask).
    fn curve() -> Vec<(usize, f64)> {
        vec![
            (10, 0.048),
            (50, 0.219),
            (100, 0.392),
            (200, 0.633),
            (500, 0.923),
            (1000, 0.995),
            (2000, 1.0),
        ]
    }

    #[test]
    fn cost_model_scales_linearly_in_sats() {
        let m = CostModel::default();
        let c1 = m.total_cost_musd(100, 10.0);
        let c2 = m.total_cost_musd(200, 10.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
        assert_eq!(m.total_cost_musd(0, 10.0), 0.0);
    }

    #[test]
    fn ten_year_cost_includes_replacement() {
        let m = CostModel::default();
        // 10 years / 5-year life = deploy + 2 generations of replacement.
        let one = m.total_cost_musd(1, 10.0);
        let deploy = 1.5;
        let expected = deploy + 2.0 * deploy + 0.1 * 10.0;
        assert!((one - expected).abs() < 1e-9, "{one} vs {expected}");
    }

    #[test]
    fn paper_scale_headline() {
        // The paper: full networks need $10-30B. Our default model at
        // Starlink Gen1 scale (4400 sats) over 10 years lands inside that
        // band.
        let m = CostModel::default();
        let total = m.total_cost_musd(4400, 10.0) / 1000.0; // $B
        assert!((10.0..30.0).contains(&total), "10-year cost {total} $B");
    }

    #[test]
    fn alone_vs_shared_headline() {
        // The §2 claim: contributing ~50-100 satellites into a shared 1000
        // buys coverage that going alone prices at 1000 satellites.
        let m = CostModel::default();
        let alone = go_it_alone(&curve(), 0.995, &m).unwrap();
        let shared = mp_leo_share(&curve(), 0.995, 11, &m).unwrap();
        assert_eq!(alone.own_sats, 1000);
        assert_eq!(shared.own_sats, 91);
        assert_eq!(shared.effective_sats, 1000);
        assert!((alone.availability - shared.availability).abs() < 1e-12);
        let saving = alone.cost_10yr_musd / shared.cost_10yr_musd;
        assert!(saving > 10.0 && saving < 12.0, "cost ratio {saving}");
    }

    #[test]
    fn unreachable_target_is_none() {
        let m = CostModel::default();
        assert!(go_it_alone(&curve()[..3], 0.99, &m).is_none());
        assert!(mp_leo_share(&curve()[..3], 0.99, 5, &m).is_none());
    }

    #[test]
    fn more_parties_cheaper_share() {
        let m = CostModel::default();
        let few = mp_leo_share(&curve(), 0.99, 5, &m).unwrap();
        let many = mp_leo_share(&curve(), 0.99, 20, &m).unwrap();
        assert!(many.cost_10yr_musd < few.cost_10yr_musd);
        assert_eq!(many.effective_sats, few.effective_sats);
    }
}
