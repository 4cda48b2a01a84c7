//! Protocol demos: the live TCP `node` and the orbit-determination
//! `audit`.

use super::common::{epoch, CmdResult};
use crate::args::Args;
use orbital::ground::GroundSite;

/// `mpleo node` — run a live coordination-protocol node over TCP.
///
/// Several invocations on one machine (or across machines) form a real
/// gossip mesh: point later nodes at earlier ones with `--peers`. Dials
/// retry with capped exponential backoff and dropped peers are redialed,
/// so start order does not matter.
pub fn node(args: &Args) -> CmdResult {
    args.expect_only(&[
        "id",
        "listen",
        "peers",
        "parties",
        "secret",
        "anti-entropy-ms",
        "retry-initial-ms",
        "retry-max-ms",
        "retry-attempts",
        "status-secs",
    ])?;
    let id = args.get_str("id", "alpha");
    let listen: std::net::SocketAddr = {
        let s = args.get_str("listen", "127.0.0.1:0");
        s.parse().map_err(|_| format!("--listen={s} is not a socket address"))?
    };
    let mut peers = Vec::new();
    for p in args.get_str("peers", "").split(',').filter(|p| !p.trim().is_empty()) {
        let addr: std::net::SocketAddr =
            p.trim().parse().map_err(|_| format!("--peers entry '{p}' is not a socket address"))?;
        peers.push(addr);
    }
    // Every process derives the same per-party keys from the shared secret,
    // standing in for pre-distributed credentials.
    let secret = args.get_str("secret", "mpleo-demo");
    let mut keys = dcp::crypto::KeyDirectory::new();
    for p in args.get_str("parties", "alpha,beta,gamma").split(',') {
        keys.register_derived(p.trim(), secret.as_bytes());
    }
    let mut cfg = dcp::node::NodeConfig::local(id.as_str(), keys);
    cfg.listen = listen;
    cfg.advertise = true;
    cfg.anti_entropy =
        std::time::Duration::from_millis(args.get_usize("anti-entropy-ms", 1000)? as u64);
    cfg.backoff = dcp::node::BackoffConfig {
        initial: std::time::Duration::from_millis(args.get_usize("retry-initial-ms", 100)? as u64),
        max: std::time::Duration::from_millis(args.get_usize("retry-max-ms", 5000)? as u64),
        max_attempts: args.get_usize("retry-attempts", 0)? as u32,
    };
    let status_every = std::time::Duration::from_secs(args.get_usize("status-secs", 5)? as u64);

    let rt = tokio::runtime::Builder::new_multi_thread().enable_all().build()?;
    rt.block_on(async move {
        let handle = dcp::node::Node::start(cfg).await?;
        println!("node '{}' listening on {}", handle.node_id(), handle.local_addr);
        for addr in peers {
            match handle.connect(addr).await {
                Ok(()) => println!("connected to {addr}"),
                Err(e) => eprintln!("warning: could not reach {addr}: {e}"),
            }
        }
        println!("press ctrl-c to stop");
        let mut ticker = tokio::time::interval(status_every);
        ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Skip);
        ticker.tick().await; // the first tick fires immediately; skip it
        loop {
            tokio::select! {
                _ = tokio::signal::ctrl_c() => break,
                _ = ticker.tick() => {
                    println!(
                        "peers={} items={} confirmed={} settlements={} rejected={}",
                        handle.peer_count(),
                        handle.item_count(),
                        handle.confirmed_count(),
                        handle.settlements_applied(),
                        handle.rejected_count(),
                    );
                }
            }
        }
        handle.shutdown();
        println!("node stopped");
        Ok(())
    })
}

/// `mpleo audit` — orbit-determination audit demo.
pub fn audit(args: &Args) -> CmdResult {
    args.expect_only(&["forge-raan"])?;
    let forge = args.get_f64("forge-raan", 0.0)?;
    let truth = orbital::kepler::ClassicalElements::circular(
        550.0,
        53f64.to_radians(),
        120f64.to_radians(),
        30f64.to_radians(),
    );
    let site = GroundSite::from_degrees("audit-station", 25.03, 121.56);
    let obs =
        orbital::od::synthesize_observations(&truth, epoch(), &site, 43_200.0, 30.0, 10.0, 0.1, 11);
    println!("ranging log: {} measurements over half a day", obs.len());
    let published = orbital::kepler::ClassicalElements {
        raan_rad: truth.raan_rad + forge.to_radians(),
        ..truth
    };
    let mut sc = dcp::poc::Scenario::new(epoch());
    sc.add_satellite(1, published);
    sc.add_ground_station("auditor", site);
    match dcp::poc::audit_published_elements(&sc, 1, "auditor", &obs, 1.0).expect("ids registered")
    {
        dcp::poc::ElementAudit::Consistent { rms_km } => {
            println!("published elements CONSISTENT with observations (rms {rms_km:.3} km)");
        }
        dcp::poc::ElementAudit::Forged { published_rms_km, fitted, fitted_rms_km } => {
            println!("published elements MISFIT by {published_rms_km:.0} km rms");
            println!(
                "independent fit: RAAN {:.2} deg (published {:.2}), residual {fitted_rms_km:.3} km",
                fitted.raan_rad.to_degrees(),
                published.raan_rad.to_degrees()
            );
            println!("verdict: FORGED publication exposed by ranging + orbit determination");
        }
        dcp::poc::ElementAudit::Inconclusive => println!("audit inconclusive"),
    }
    Ok(())
}
