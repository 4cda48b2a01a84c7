//! The `churn` command: a timed failure/withdrawal campaign over the
//! traffic stack with graceful-degradation and market summaries.

use super::common::{configure_threads, epoch, sampled_sats, CmdResult};
use crate::args::Args;
use leosim::ephemeris::EphemerisStore;
use leosim::visibility::SimConfig;
use leosim::TimeGrid;
use orbital::time::format_duration;
use traffic as traffic_crate;

/// `mpleo churn` — run a timed churn campaign over the traffic stack:
/// mid-run satellite failures plus an optional party withdrawal, with the
/// graceful-degradation summary and the censored capacity-market
/// settlement (the `traffic::churn` engine, the CLI-sized cousin of the
/// `churn_withdrawal` experiment).
pub fn churn(args: &Args) -> CmdResult {
    args.expect_only(&[
        "sats",
        "hours",
        "step",
        "parties",
        "gateway-stride",
        "fail-fraction",
        "withdraw",
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
    let fail_fraction = args.get_f64("fail-fraction", 0.1)?;
    let withdraw = args.get_str("withdraw", "1");
    let scale = args.get_f64("scale", 1.0)?;
    let mask = args.get_f64("mask", 25.0)?;
    if n_parties == 0 {
        return Err("--parties must be at least 1".into());
    }
    if stride == 0 {
        return Err("--gateway-stride must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&fail_fraction) {
        return Err("--fail-fraction must be in [0, 1]".into());
    }
    if scale < 0.0 {
        return Err("--scale must be non-negative".into());
    }
    let withdraw: Option<usize> = match withdraw.as_str() {
        "none" => None,
        v => {
            let p: usize = v
                .parse()
                .map_err(|_| format!("--withdraw must be a party index or 'none', got '{v}'"))?;
            if p >= n_parties {
                return Err(format!("--withdraw {p} out of range ({n_parties} parties)").into());
            }
            Some(p)
        }
    };

    let grid = TimeGrid::new(epoch(), hours * 3600.0, step);
    let cfg = SimConfig::default().with_mask_deg(mask);
    let store = EphemerisStore::build(&sampled_sats(0xC15, sats_n)?, &grid, &cfg);
    let steps = store.steps();

    let cities = geodata::paper_cities();
    let gateways = traffic_crate::gateways_every_nth(&cities, stride);
    let parties: Vec<mpleo::party::PartyId> =
        (0..n_parties).map(|p| mpleo::party::PartyId::new(format!("party-{p}"))).collect();
    let sat_party: Vec<usize> = (0..store.sat_count()).map(|s| s % n_parties).collect();
    let city_party: Vec<usize> = (0..cities.len()).map(|c| c % n_parties).collect();

    // The campaign's timeline mirrors the `churn_withdrawal` experiment:
    // failures at 25% of the horizon healing at 60%, the withdrawal at 40%
    // rejoining at 75%.
    let mut schedule = traffic_crate::ChurnSchedule::new().fail_random_sats(
        0xC15,
        store.sat_count(),
        fail_fraction,
        steps / 4,
        Some(3 * steps / 5),
    );
    if let Some(p) = withdraw {
        schedule = schedule
            .at(2 * steps / 5, traffic_crate::ChurnEvent::PartyWithdraw { party: p })
            .at(3 * steps / 4, traffic_crate::ChurnEvent::PartyRejoin { party: p });
    }
    let ccfg = traffic_crate::CampaignConfig {
        traffic: traffic_crate::TrafficConfig {
            demand_scale: scale,
            ..traffic_crate::TrafficConfig::default()
        },
        schedule,
        epoch_steps: ((6.0 * 3600.0 / step).round() as usize).max(1),
        key_seed: b"mpleo-churn-cli".to_vec(),
        ..traffic_crate::CampaignConfig::default()
    };
    let report = traffic_crate::run_campaign(
        &store,
        &cities,
        &gateways,
        &cfg,
        &ccfg,
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
        "campaign: {:.0}% of satellites fail at step {}, heal at step {}{}",
        fail_fraction * 100.0,
        steps / 4,
        3 * steps / 5,
        match withdraw {
            Some(p) => format!(
                "; party-{p} withdraws at step {} and rejoins at step {}",
                2 * steps / 5,
                3 * steps / 4
            ),
            None => String::new(),
        }
    );
    println!();
    println!(
        "served under churn: {:.1}% of offered (baseline {:.1}%)",
        report.churn.served_ratio() * 100.0,
        report.baseline.served_ratio() * 100.0
    );
    println!(
        "deficit vs baseline: worst {:.2}%, mean {:.2}% of offered per step",
        report.worst_deficit() * 100.0,
        report.mean_deficit() * 100.0
    );
    println!(
        "reroutes: {} city-steps; satellites down at peak: {}",
        report.reroutes_total(),
        report.down_sats.iter().copied().max().unwrap_or(0)
    );
    match report.time_to_recover_steps {
        Some(ttr) => println!("recovery: back at baseline {ttr} step(s) after the last event"),
        None => println!("recovery: NOT reached within the horizon"),
    }
    for notice in &report.notices {
        println!(
            "withdrawal notice: {} releases {} satellites effective {}",
            notice.party,
            notice.sat_ids.len(),
            format_duration(notice.effective_s)
        );
    }
    println!();
    let net = report.settlement_net();
    println!(
        "capacity market under churn: {} orders, {} trades (settlement net {net:+.2e})",
        report.orders.len(),
        report.trades
    );
    for (party, credits) in &report.settlement {
        println!("  {party}: {credits:+.2} credits");
    }
    Ok(())
}
