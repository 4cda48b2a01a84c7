//! The `traffic` command: route diurnal metro demand over a shared
//! constellation sample and summarize service plus the capacity market.

use super::common::{configure_threads, epoch, sampled_sats, CmdResult};
use crate::args::Args;
use leosim::ephemeris::EphemerisStore;
use leosim::visibility::SimConfig;
use leosim::TimeGrid;
use orbital::time::format_duration;
// The crate is `traffic`, the command below is `traffic()`; alias the
// crate so paths inside the function stay unambiguous to readers.
use traffic as traffic_crate;

/// `mpleo traffic` — route diurnal metro demand over a shared
/// constellation sample and summarize service plus the resulting capacity
/// market (the `traffic` crate's engine, the CLI-sized cousin of the
/// `traffic_diurnal` experiment).
pub fn traffic(args: &Args) -> CmdResult {
    args.expect_only(&[
        "sats",
        "hours",
        "step",
        "parties",
        "gateway-stride",
        "isl-range",
        "max-hops",
        "scale",
        "mask",
        "threads",
    ])?;
    configure_threads(args)?;
    let sats_n = args.get_usize("sats", 300)?;
    let hours = args.get_f64("hours", 12.0)?;
    let step = args.get_f64("step", 600.0)?;
    let n_parties = args.get_usize("parties", 3)?;
    let stride = args.get_usize("gateway-stride", 3)?;
    let isl_range = args.get_f64("isl-range", 3000.0)?;
    let max_hops = args.get_usize("max-hops", 1)?;
    let scale = args.get_f64("scale", 1.0)?;
    let mask = args.get_f64("mask", 25.0)?;
    if n_parties == 0 {
        return Err("--parties must be at least 1".into());
    }
    if stride == 0 {
        return Err("--gateway-stride must be at least 1".into());
    }
    if scale < 0.0 {
        return Err("--scale must be non-negative".into());
    }

    let grid = TimeGrid::new(epoch(), hours * 3600.0, step);
    let cfg = SimConfig::default().with_mask_deg(mask);
    let store = EphemerisStore::build(&sampled_sats(0xC14, sats_n)?, &grid, &cfg);

    let cities = geodata::paper_cities();
    let gateways = traffic_crate::gateways_every_nth(&cities, stride);
    let parties: Vec<mpleo::party::PartyId> =
        (0..n_parties).map(|p| mpleo::party::PartyId::new(format!("party-{p}"))).collect();
    let sat_party: Vec<usize> = (0..store.sat_count()).map(|s| s % n_parties).collect();
    let city_party: Vec<usize> = (0..cities.len()).map(|c| c % n_parties).collect();
    let tcfg = traffic_crate::TrafficConfig {
        graph: traffic_crate::GraphConfig {
            isl_range_km: isl_range,
            max_hops,
            ..traffic_crate::GraphConfig::default()
        },
        demand_scale: scale,
        ..traffic_crate::TrafficConfig::default()
    };
    let report = traffic_crate::run_traffic(
        &store,
        &cities,
        &gateways,
        &cfg,
        &tcfg,
        &sat_party,
        &city_party,
        &parties,
    );

    println!(
        "constellation sample: {sats_n} satellites, {n_parties} parties, {} gateways",
        gateways.len()
    );
    println!(
        "horizon: {} ({} steps of {step:.0} s)",
        format_duration(grid.duration_s()),
        grid.steps
    );
    println!(
        "served: {:.1}% of offered traffic (drop {:.1}%)",
        report.served_ratio() * 100.0,
        report.drop_pct()
    );
    match (report.pooled_latency_ms(0.5), report.pooled_latency_ms(0.99)) {
        (Some(p50), Some(p99)) => println!("latency under load: p50 {p50:.1} ms, p99 {p99:.1} ms"),
        _ => println!("latency under load: no traffic served"),
    }
    println!("offered peak/trough: {:.2}", report.offered_peak_trough());
    println!();
    let rows: Vec<Vec<String>> = report
        .party_summary()
        .iter()
        .map(|p| {
            vec![
                p.party.to_string(),
                format!("{:.0}", p.offered_mbps),
                format!("{:.0}", p.served_mbps),
                format!("{:.0}", p.carried_mbps),
                format!("{:.0}", p.spare_mbps),
            ]
        })
        .collect();
    mpleo_bench::print_table(
        &["party", "offered Mbps", "served Mbps", "carried Mbps", "spare Mbps"],
        &rows,
    );

    // Market coupling: 6-hour epochs (at least one step each).
    let epoch_steps = ((6.0 * 3600.0 / step).round() as usize).max(1);
    let summaries = traffic_crate::summarize_epochs(&report, epoch_steps);
    let keys = traffic_crate::party_keys(&parties, b"mpleo-traffic-cli");
    let orders = traffic_crate::epoch_orders(&summaries, &keys, 1.0);
    let book = traffic_crate::clear_market(&orders);
    let settlement = book.settlement();
    let net: f64 = settlement.values().sum();
    println!();
    println!(
        "capacity market: {} epochs, {} orders, {} trades (settlement net {net:+.2e})",
        summaries.len(),
        orders.len(),
        book.trades().len()
    );
    for (party, credits) in &settlement {
        println!("  {party}: {credits:+.2} credits");
    }
    Ok(())
}
