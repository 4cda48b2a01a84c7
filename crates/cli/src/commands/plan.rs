//! Constellation-shaping commands: `plan` (gap-filling placement) and
//! `screen` (conjunction screening).

use super::common::{epoch, CmdResult};
use crate::args::Args;
use leosim::visibility::{SimConfig, VisibilityTable};
use leosim::TimeGrid;
use orbital::conjunction::{congestion_report, screen_all_pairs, ScreeningConfig};
use orbital::constellation::{satellite_at, walker_delta, ShellSpec};
use orbital::time::format_duration;

/// `mpleo plan` — gap-filling slot suggestions.
pub fn plan(args: &Args) -> CmdResult {
    args.expect_only(&["contribute", "base", "days", "step"])?;
    let contribute = args.get_usize("contribute", 3)?;
    let base_n = args.get_usize("base", 40)?;
    let days = args.get_f64("days", 1.0)?;
    let step = args.get_f64("step", 120.0)?;

    let spec = ShellSpec {
        planes: (base_n / 5).max(1) as u32,
        sats_per_plane: 5,
        ..ShellSpec::starlink_like()
    };
    let mut all = walker_delta(&spec, epoch());
    let base_count = all.len();
    let mut id = 50_000;
    for incl in [43.0, 53.0, 70.0] {
        for raan in (0..360).step_by(60) {
            for phase in (0..360).step_by(90) {
                all.push(satellite_at(
                    &format!("CAND-{id}"),
                    id,
                    550.0,
                    incl,
                    raan as f64,
                    phase as f64,
                    epoch(),
                ));
                id += 1;
            }
        }
    }
    let cities = geodata::paper_cities();
    let sites = geodata::to_sites(&cities);
    let weights = geodata::population_weights(&cities);
    let grid = TimeGrid::new(epoch(), days * 86_400.0, step);
    let vt = VisibilityTable::compute(&all, &sites, &grid, &SimConfig::default());
    let base: Vec<usize> = (0..base_count).collect();
    let candidates: Vec<usize> = (base_count..all.len()).collect();
    let chosen = mpleo::placement::greedy_select(&vt, &base, &candidates, contribute, &weights);

    println!("existing constellation: {base_count} satellites");
    println!("recommended slots for a {contribute}-satellite contribution:");
    let mut running = base.clone();
    for (rank, c) in chosen.iter().enumerate() {
        let el = &all[*c].elements;
        let gain = mpleo::placement::marginal_gain_s(&vt, &running, *c, &weights);
        println!(
            "  #{}: inclination {:>5.1} deg, RAAN {:>5.1} deg, phase {:>5.1} deg  (+{} pop-weighted coverage)",
            rank + 1,
            el.inclination_rad.to_degrees(),
            el.raan_rad.to_degrees(),
            el.mean_anomaly_rad.to_degrees(),
            format_duration(gain * 7.0 * 86_400.0 / vt.grid.duration_s()),
        );
        running.push(*c);
    }
    Ok(())
}

/// `mpleo screen` — conjunction screening.
pub fn screen(args: &Args) -> CmdResult {
    args.expect_only(&["planes", "per-plane", "hours", "threshold", "inclination", "altitude"])?;
    let spec = ShellSpec {
        planes: args.get_usize("planes", 6)? as u32,
        sats_per_plane: args.get_usize("per-plane", 6)? as u32,
        inclination_deg: args.get_f64("inclination", 53.0)?,
        altitude_km: args.get_f64("altitude", 550.0)?,
        ..ShellSpec::starlink_like()
    };
    let window_s = args.get_f64("hours", 6.0)? * 3600.0;
    let cfg =
        ScreeningConfig { threshold_km: args.get_f64("threshold", 10.0)?, ..Default::default() };
    let els: Vec<_> = walker_delta(&spec, epoch()).iter().map(|s| s.elements).collect();
    let found = screen_all_pairs(&els, epoch(), window_s, &cfg);
    let report = congestion_report(&found, els.len(), window_s);
    println!(
        "screened {} satellites over {} (threshold {} km)",
        report.satellites,
        format_duration(window_s),
        cfg.threshold_km
    );
    println!("conjunctions: {}", report.conjunctions);
    if report.conjunctions > 0 {
        println!("closest approach: {:.2} km", report.min_miss_km);
        for c in found.iter().take(10) {
            println!(
                "  sats {:>3} x {:>3}: {:.2} km at t+{}",
                c.sat_a,
                c.sat_b,
                c.miss_distance_km,
                format_duration(c.tca_offset_s)
            );
        }
    } else {
        println!("constellation is clean at this threshold.");
    }
    Ok(())
}
