//! The `traffic` command: route diurnal metro demand over a shared
//! constellation sample and summarize service plus the capacity market.

use super::common::{CmdResult, TrafficScene};
use crate::args::Args;
// The crate is `traffic`, the command below is `traffic()`; alias the
// crate so paths inside the function stay unambiguous to readers.
use traffic as traffic_crate;

/// `mpleo traffic` — route diurnal metro demand over a shared
/// constellation sample and summarize service plus the resulting capacity
/// market (the `traffic` crate's engine, the CLI-sized cousin of the
/// `traffic_diurnal` experiment).
pub fn traffic(args: &Args) -> CmdResult {
    let scene = TrafficScene::from_args(args, &["isl-range", "max-hops"], 0xC14)?;
    let isl_range = args.get_f64("isl-range", 3000.0)?;
    let max_hops = args.get_usize("max-hops", 1)?;

    let tcfg = traffic_crate::TrafficConfig {
        graph: traffic_crate::GraphConfig {
            isl_range_km: isl_range,
            max_hops,
            ..traffic_crate::GraphConfig::default()
        },
        demand_scale: scene.scale,
        ..traffic_crate::TrafficConfig::default()
    };
    let report = traffic_crate::run_traffic(
        &scene.store,
        &scene.cities,
        &scene.gateways,
        &scene.cfg,
        &tcfg,
        &scene.sat_party,
        &scene.city_party,
        &scene.parties,
    );

    scene.print_header();
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

    // Market coupling, one clearing per epoch.
    let summaries = traffic_crate::summarize_epochs(&report, scene.epoch_steps);
    let keys = traffic_crate::party_keys(&scene.parties, b"mpleo-traffic-cli");
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
