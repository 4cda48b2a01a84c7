//! Coverage-reporting commands: `coverage` (point and region), `sla`,
//! and the ASCII `map`.

use super::common::{epoch, sampled_sats, site_table, CmdResult};
use crate::args::Args;
use leosim::coverage::CoverageStats;
use leosim::visibility::SimConfig;
use leosim::TimeGrid;
use orbital::time::format_duration;

/// `mpleo coverage` — coverage statistics for a point or named region.
pub fn coverage(args: &Args) -> CmdResult {
    args.expect_only(&[
        "lat",
        "lon",
        "sats",
        "days",
        "step",
        "mask",
        "region",
    ])?;
    let region_name = args.get_str("region", "");
    if !region_name.is_empty() {
        return coverage_region(args, &region_name);
    }
    let lat = args.get_f64("lat", 25.033)?;
    let lon = args.get_f64("lon", 121.565)?;
    let (vt, n) = site_table(args, lat, lon)?;
    let all: Vec<usize> = (0..vt.sat_count()).collect();
    let stats = CoverageStats::from_bitset(&vt.coverage_union(&all, 0), &vt.grid);
    println!("site: ({lat:.3}, {lon:.3}); constellation sample: {n} satellites");
    println!("horizon: {}", format_duration(vt.grid.duration_s()));
    println!("coverage:        {:.3}%", stats.covered_fraction * 100.0);
    println!("without coverage: {:.3}%", stats.uncovered_fraction * 100.0);
    println!("longest gap:     {}", format_duration(stats.max_gap_s));
    println!("gap count:       {}", stats.gap_count);
    println!("mean gap:        {}", format_duration(stats.mean_gap_s));
    Ok(())
}

/// Regional coverage for `mpleo coverage --region <name>`.
fn coverage_region(args: &Args, name: &str) -> CmdResult {
    let region = match name.to_ascii_lowercase().as_str() {
        "taiwan" => geodata::Region::taiwan(),
        "ukraine" => geodata::Region::ukraine(),
        "korea" | "south-korea" => geodata::Region::south_korea(),
        other => return Err(format!("unknown region '{other}' (taiwan | ukraine | korea)").into()),
    };
    let sats_n = args.get_usize("sats", 500)?;
    let days = args.get_f64("days", 1.0)?;
    let step = args.get_f64("step", 120.0)?;
    let mask = args.get_f64("mask", 25.0)?;
    let sats = sampled_sats(0xC13, sats_n)?;
    let grid = TimeGrid::new(epoch(), days * 86_400.0, step);
    let cfg = SimConfig::default().with_mask_deg(mask);
    let rc = leosim::region::region_coverage(&sats, &region, 3, &grid, &cfg);
    println!(
        "region: {} ({} receiver grid points); sample: {sats_n} satellites",
        rc.region, rc.receivers
    );
    println!("horizon: {}", format_duration(grid.duration_s()));
    println!("mean availability:         {:.3}%", rc.mean_fraction * 100.0);
    println!("worst-site availability:   {:.3}%", rc.worst_fraction * 100.0);
    println!("worst-site longest gap:    {}", format_duration(rc.worst_max_gap_s));
    println!("simultaneous (all points): {:.3}%", rc.simultaneous_fraction * 100.0);
    Ok(())
}

/// `mpleo sla` — quote the sellable tier.
pub fn sla(args: &Args) -> CmdResult {
    args.expect_only(&[
        "lat",
        "lon",
        "sats",
        "days",
        "step",
        "mask",
    ])?;
    let lat = args.get_f64("lat", 25.033)?;
    let lon = args.get_f64("lon", 121.565)?;
    let (vt, n) = site_table(args, lat, lon)?;
    let all: Vec<usize> = (0..vt.sat_count()).collect();
    let stats = CoverageStats::from_bitset(&vt.coverage_union(&all, 0), &vt.grid);
    let quote = mpleo::sla::quote(&stats);
    println!("site ({lat:.3}, {lon:.3}), {n}-satellite sample:");
    println!("availability: {:.3}%", quote.availability * 100.0);
    println!("worst outage: {}", format_duration(quote.worst_outage_s));
    println!(
        "sellable tier: {} ({}x best-effort price)",
        quote.tier.name, quote.tier.price_multiplier
    );
    if let Some(gap) = quote.next_tier_gap {
        if gap > 0.0 {
            println!("availability shortfall to next tier: {:.3} points", gap * 100.0);
        } else {
            println!("availability meets the next tier; outage duration is the binding constraint");
        }
    }
    Ok(())
}

/// `mpleo map` — ASCII world coverage map.
pub fn map(args: &Args) -> CmdResult {
    args.expect_only(&["sats", "hours", "mask", "rows", "cols"])?;
    let sats_n = args.get_usize("sats", 200)?;
    let hours = args.get_f64("hours", 12.0)?;
    let mask = args.get_f64("mask", 25.0)?;
    let rows = args.get_usize("rows", 18)?;
    let cols = args.get_usize("cols", 72)?;
    let sats = sampled_sats(0xC12, sats_n)?;
    let grid = TimeGrid::new(epoch(), hours * 3600.0, 600.0);
    let cfg = SimConfig::default().with_mask_deg(mask);
    let map = leosim::coveragemap::CoverageMap::compute(&sats, &grid, &cfg, rows, cols);
    println!("coverage fraction, {sats_n} satellites, {hours:.0} h horizon, {mask:.0} deg mask");
    println!("(darker = better covered; right margin = row latitude)\n");
    print!("{}", map.ascii());
    println!("\narea-weighted global mean coverage: {:.1}%", map.global_mean() * 100.0);
    println!("note the bright bands near +-53 deg and the dark poles — the");
    println!("geometry behind every figure in the paper.");
    Ok(())
}
