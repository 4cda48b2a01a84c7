//! RF link budgets for the bent pipe.
//!
//! The paper's §3.1 picks a *transparent* bent pipe (the satellite repeats
//! raw RF) and §4 notes the cost: a transparent repeater amplifies uplink
//! noise into the downlink, whereas a regenerative (decode-and-forward)
//! payload resets the noise budget at the satellite. This module implements
//! the standard link-budget chain — free-space path loss, EIRP, G/T,
//! carrier-to-noise — and composes the two legs both ways so the ablation
//! can quantify the §4 trade-off in achievable data rate.
//!
//! Conventions: decibel quantities are `_db`/`_dbw`/`_dbi`; frequencies in
//! GHz; distances in km; rates in bit/s.

use serde::{Deserialize, Serialize};

/// Boltzmann constant in dBW/K/Hz.
pub const BOLTZMANN_DBW: f64 = -228.599_16;

/// One directional RF leg (uplink or downlink).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RfLeg {
    /// Transmit EIRP, dBW.
    pub eirp_dbw: f64,
    /// Receive figure of merit G/T, dB/K.
    pub g_over_t_db_k: f64,
    /// Carrier frequency, GHz.
    pub frequency_ghz: f64,
    /// Occupied bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Implementation / atmospheric margin, dB (subtracted).
    pub losses_db: f64,
}

impl RfLeg {
    /// A Ku-band user uplink typical of LEO broadband terminals.
    pub fn ku_user_uplink() -> RfLeg {
        RfLeg {
            eirp_dbw: 33.0,      // ~45 cm dish, a few watts
            g_over_t_db_k: 8.0,  // satellite receive
            frequency_ghz: 14.0,
            bandwidth_hz: 62.5e6,
            losses_db: 2.0,
        }
    }

    /// A Ku-band space-to-ground downlink into a gateway.
    pub fn ku_gateway_downlink() -> RfLeg {
        RfLeg {
            eirp_dbw: 36.0,       // satellite TWTA + antenna
            g_over_t_db_k: 31.0,  // 2.4 m gateway dish
            frequency_ghz: 11.7,
            bandwidth_hz: 62.5e6,
            losses_db: 2.0,
        }
    }

    /// The leg with its range-independent terms evaluated; panics unless the
    /// frequency is positive.
    pub fn prepared(&self) -> PreparedLeg {
        assert!(self.frequency_ghz > 0.0);
        PreparedLeg {
            eirp_plus_g_over_t_db: self.eirp_dbw + self.g_over_t_db_k,
            frequency_db: 20.0 * self.frequency_ghz.log10(),
            bandwidth_db: 10.0 * (self.bandwidth_hz).log10(),
            losses_db: self.losses_db,
        }
    }

    /// Carrier-to-noise ratio (linear) across this leg at `range_km`.
    pub fn cn_linear(&self, range_km: f64) -> f64 {
        self.prepared().cn_linear(range_km)
    }

    /// Shannon-capacity bound for this leg alone at `range_km`, bit/s.
    pub fn capacity_bps(&self, range_km: f64) -> f64 {
        shannon_bps(self.bandwidth_hz, self.cn_linear(range_km))
    }
}

/// An [`RfLeg`] with everything in its budget that does not depend on the
/// range evaluated once ([`RfLeg::prepared`]): a caller that prices many
/// ranges over one leg pays one `log10` and one `powf` a range. The terms
/// are the ones [`PreparedLeg::cn_linear`] combines, in its order, so the
/// result is the same `f64` however often the leg was prepared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedLeg {
    eirp_plus_g_over_t_db: f64,
    /// `20 log10(f_GHz)`, the frequency term of the path loss.
    frequency_db: f64,
    /// `10 log10(B_Hz)`.
    bandwidth_db: f64,
    losses_db: f64,
}

impl PreparedLeg {
    /// Carrier-to-noise ratio (linear) across this leg at `range_km`.
    pub fn cn_linear(&self, range_km: f64) -> f64 {
        let cn_db = self.eirp_plus_g_over_t_db
            - path_loss_db(range_km, self.frequency_db)
            - BOLTZMANN_DBW
            - self.bandwidth_db
            - self.losses_db;
        10f64.powf(cn_db / 10.0)
    }
}

/// Free-space path loss, dB.
pub fn free_space_path_loss_db(range_km: f64, frequency_ghz: f64) -> f64 {
    assert!(frequency_ghz > 0.0);
    path_loss_db(range_km, 20.0 * frequency_ghz.log10())
}

/// FSPL(dB) = 92.45 + 20 log10(d_km) + 20 log10(f_GHz), the last term given.
fn path_loss_db(range_km: f64, frequency_db: f64) -> f64 {
    assert!(range_km > 0.0);
    92.45 + 20.0 * range_km.log10() + frequency_db
}

/// Shannon bound over `bandwidth_hz` at carrier-to-noise `cn` (linear), bit/s.
pub fn shannon_bps(bandwidth_hz: f64, cn: f64) -> f64 {
    bandwidth_hz * (1.0 + cn).log2()
}

/// How the satellite joins the two legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PayloadArchitecture {
    /// Transparent repeater: uplink noise is re-amplified into the
    /// downlink; end-to-end C/N composes as `1/(1/up + 1/down)`.
    Transparent,
    /// Regenerative (decode-and-forward): each leg is decoded separately;
    /// the weaker leg bounds the end-to-end rate.
    Regenerative,
}

impl PayloadArchitecture {
    /// End-to-end carrier-to-noise (linear) from the two legs' own.
    pub fn compose_cn(self, up_cn: f64, down_cn: f64) -> f64 {
        match self {
            PayloadArchitecture::Transparent => 1.0 / (1.0 / up_cn + 1.0 / down_cn),
            PayloadArchitecture::Regenerative => up_cn.min(down_cn),
        }
    }
}

/// End-to-end carrier-to-noise (linear) through the bent pipe.
pub fn end_to_end_cn(
    arch: PayloadArchitecture,
    up: &RfLeg,
    up_range_km: f64,
    down: &RfLeg,
    down_range_km: f64,
) -> f64 {
    arch.compose_cn(up.cn_linear(up_range_km), down.cn_linear(down_range_km))
}

/// End-to-end Shannon-bound throughput, bit/s (bandwidth = min of the
/// legs').
pub fn end_to_end_capacity_bps(
    arch: PayloadArchitecture,
    up: &RfLeg,
    up_range_km: f64,
    down: &RfLeg,
    down_range_km: f64,
) -> f64 {
    let bw = up.bandwidth_hz.min(down.bandwidth_hz);
    shannon_bps(bw, end_to_end_cn(arch, up, up_range_km, down, down_range_km))
}

/// Slant range (km) from a ground site to a satellite at `altitude_km`
/// seen at elevation `elevation_rad` — the geometry feeding the budget.
pub fn slant_range_km(altitude_km: f64, elevation_rad: f64) -> f64 {
    let re = orbital::EARTH_RADIUS_KM;
    let r = re + altitude_km;
    let se = elevation_rad.sin();
    // Law of cosines solved for the range.
    (r * r - re * re * (1.0 - se * se)).sqrt() - re * se
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `RfLeg::cn_linear` as it was spelled before the leg could be
    /// prepared: every term evaluated per call.
    fn cn_linear_reference(leg: &RfLeg, range_km: f64) -> f64 {
        let fspl_db = 92.45 + 20.0 * range_km.log10() + 20.0 * leg.frequency_ghz.log10();
        let cn_db = leg.eirp_dbw + leg.g_over_t_db_k
            - fspl_db
            - BOLTZMANN_DBW
            - 10.0 * (leg.bandwidth_hz).log10()
            - leg.losses_db;
        10f64.powf(cn_db / 10.0)
    }

    #[test]
    fn the_prepared_leg_is_the_unprepared_formula_bit_for_bit() {
        let arbitrary = RfLeg {
            eirp_dbw: 41.7,
            g_over_t_db_k: -3.3,
            frequency_ghz: 28.35,
            bandwidth_hz: 217.3e6,
            losses_db: 0.7,
        };
        for leg in [RfLeg::ku_user_uplink(), RfLeg::ku_gateway_downlink(), arbitrary] {
            let prepared = leg.prepared();
            // 1 km to 50 000 km, log-spaced.
            for i in 0..=4000 {
                let range_km = 50_000f64.powf(i as f64 / 4000.0);
                let want = cn_linear_reference(&leg, range_km).to_bits();
                assert_eq!(prepared.cn_linear(range_km).to_bits(), want, "{leg:?} at {range_km}");
                assert_eq!(leg.cn_linear(range_km).to_bits(), want, "{leg:?} at {range_km}");
                assert_eq!(
                    free_space_path_loss_db(range_km, leg.frequency_ghz).to_bits(),
                    (92.45 + 20.0 * range_km.log10() + 20.0 * leg.frequency_ghz.log10()).to_bits()
                );
            }
        }
    }

    #[test]
    fn end_to_end_capacity_keeps_its_bits() {
        use PayloadArchitecture::{Regenerative, Transparent};
        // What the function returned before its formula was split into
        // `compose_cn` and `shannon_bps` (x86-64 glibc).
        let golden = [
            (Transparent, 550.0, 550.0, 0x41b8_2247_a85a_241b_u64),
            (Transparent, 1123.456, 789.25, 0x41b0_a623_7b2b_2cb4),
            (Transparent, 2600.0, 31.5, 0x41a1_3243_9416_697e),
            (Transparent, 640.125, 2411.0, 0x41b6_673f_e324_d8f2),
            (Regenerative, 550.0, 550.0, 0x41b8_24aa_1d88_4514),
            (Regenerative, 1123.456, 789.25, 0x41b0_a746_8e26_7c0e),
            (Regenerative, 2600.0, 31.5, 0x41a1_3243_b925_f66c),
            (Regenerative, 640.125, 2411.0, 0x41b6_888e_10d9_5012),
        ];
        let (up, down) = (RfLeg::ku_user_uplink(), RfLeg::ku_gateway_downlink());
        for (arch, up_km, down_km, bits) in golden {
            let bps = end_to_end_capacity_bps(arch, &up, up_km, &down, down_km);
            assert_eq!(bps.to_bits(), bits, "{arch:?} {up_km} {down_km}: {bps}");
        }
    }

    #[test]
    fn fspl_reference_values() {
        // 1000 km at 12 GHz: 92.45 + 60 + 21.58 = ~174 dB.
        let l = free_space_path_loss_db(1000.0, 12.0);
        assert!((l - 174.03).abs() < 0.1, "fspl {l}");
        // Doubling distance adds ~6 dB.
        let l2 = free_space_path_loss_db(2000.0, 12.0);
        assert!((l2 - l - 6.02).abs() < 0.01);
    }

    #[test]
    fn slant_range_limits() {
        // Straight up: range = altitude.
        let up = slant_range_km(550.0, std::f64::consts::FRAC_PI_2);
        assert!((up - 550.0).abs() < 1e-9, "zenith {up}");
        // At the horizon the range is much longer.
        let horizon = slant_range_km(550.0, 0.0);
        assert!(horizon > 2500.0 && horizon < 2900.0, "horizon {horizon}");
        // Monotone decreasing with elevation.
        let e25 = slant_range_km(550.0, 25f64.to_radians());
        assert!(e25 < horizon && e25 > up);
    }

    #[test]
    fn leo_link_closes_with_sane_rate() {
        let up = RfLeg::ku_user_uplink();
        let range = slant_range_km(550.0, 40f64.to_radians());
        let cn = up.cn_linear(range);
        let cn_db = 10.0 * cn.log10();
        // Typical user uplink C/N sits in the 5-20 dB window.
        assert!((2.0..25.0).contains(&cn_db), "C/N {cn_db} dB");
        let rate = up.capacity_bps(range);
        assert!(rate > 100e6 && rate < 1e9, "uplink bound {rate} bps");
    }

    #[test]
    fn capacity_falls_with_range() {
        let up = RfLeg::ku_user_uplink();
        let near = up.capacity_bps(slant_range_km(550.0, 80f64.to_radians()));
        let far = up.capacity_bps(slant_range_km(550.0, 25f64.to_radians()));
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn transparent_never_beats_regenerative() {
        let up = RfLeg::ku_user_uplink();
        let down = RfLeg::ku_gateway_downlink();
        for el in [10f64, 25.0, 45.0, 80.0] {
            let r = slant_range_km(550.0, el.to_radians());
            let t = end_to_end_cn(PayloadArchitecture::Transparent, &up, r, &down, r);
            let g = end_to_end_cn(PayloadArchitecture::Regenerative, &up, r, &down, r);
            assert!(t <= g + 1e-12, "el {el}: transparent {t} > regenerative {g}");
        }
    }

    #[test]
    fn noise_amplification_worst_when_legs_balanced() {
        // When one leg dominates, transparent ~ regenerative; when equal,
        // transparent loses ~3 dB.
        let up = RfLeg::ku_user_uplink();
        let _down = RfLeg::ku_gateway_downlink();
        let r = slant_range_km(550.0, 40f64.to_radians());
        let cu = up.cn_linear(r);
        // Equalize legs artificially for the balanced case.
        let balanced = 1.0 / (1.0 / cu + 1.0 / cu);
        assert!((balanced / cu - 0.5).abs() < 1e-12, "balanced transparent = half the C/N");
    }

    #[test]
    fn end_to_end_rate_gap_is_meaningful() {
        let up = RfLeg::ku_user_uplink();
        let down = RfLeg::ku_gateway_downlink();
        let r = slant_range_km(550.0, 25f64.to_radians());
        let t = end_to_end_capacity_bps(PayloadArchitecture::Transparent, &up, r, &down, r);
        let g = end_to_end_capacity_bps(PayloadArchitecture::Regenerative, &up, r, &down, r);
        assert!(g > t, "regenerative must win: {g} vs {t}");
        // But the satellite-simplicity cost the paper accepts is bounded:
        // well under 2x at these budgets.
        assert!(g / t < 2.0, "gap {g}/{t}");
    }
}
