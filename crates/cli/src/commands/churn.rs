//! The `churn` command: a timed failure/withdrawal campaign over the
//! traffic stack with graceful-degradation and market summaries.

use super::common::{CmdResult, TrafficScene};
use crate::args::Args;
use orbital::time::format_duration;
use traffic as traffic_crate;

/// `mpleo churn` — run a timed churn campaign over the traffic stack:
/// mid-run satellite failures plus an optional party withdrawal, with the
/// graceful-degradation summary and the censored capacity-market
/// settlement (the `traffic::churn` engine, the CLI-sized cousin of the
/// `churn_withdrawal` experiment).
pub fn churn(args: &Args) -> CmdResult {
    let scene = TrafficScene::from_args(args, &["fail-fraction", "withdraw"], 0xC15)?;
    let fail_fraction = args.get_f64("fail-fraction", 0.1)?;
    if !(0.0..=1.0).contains(&fail_fraction) {
        return Err("--fail-fraction must be in [0, 1]".into());
    }
    let n_parties = scene.parties.len();
    let withdraw: Option<usize> = match args.get_str("withdraw", "1").as_str() {
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
    let steps = scene.store.steps();

    // The campaign's timeline mirrors the `churn_withdrawal` experiment:
    // failures at 25% of the horizon healing at 60%, the withdrawal at 40%
    // rejoining at 75%.
    let mut schedule = traffic_crate::ChurnSchedule::new().fail_random_sats(
        0xC15,
        scene.store.sat_count(),
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
            demand_scale: scene.scale,
            ..traffic_crate::TrafficConfig::default()
        },
        schedule,
        epoch_steps: scene.epoch_steps,
        key_seed: b"mpleo-churn-cli".to_vec(),
        ..traffic_crate::CampaignConfig::default()
    };
    let report = traffic_crate::run_campaign(
        &scene.store,
        &scene.cities,
        &scene.gateways,
        &scene.cfg,
        &ccfg,
        &scene.sat_party,
        &scene.city_party,
        &scene.parties,
    );

    scene.print_header();
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
