//! `dcp_gossip`: the protocol crate under a scripted load on the simulated
//! network.
//!
//! Set-up starts 8 nodes on a seeded `SimNet` (ring plus four chords;
//! every link drops 5 % of frames and delays the rest by 5 ms plus up to
//! 10 ms of jitter), with `auto_attest` over a shared proof-of-coverage
//! scenario, on a current-thread runtime with the clock frozen, and signs
//! every item the script will publish.
//!
//! The body is an **open loop on the virtual clock**: a standing set of
//! orders goes out on node 0 at t = 0 (so that the periodic full-set
//! announces are large), then a fixed schedule publishes receipts, crossing
//! buy/sell orders, settlement notes and one withdrawal notice at a fixed
//! rate on seeded nodes, whatever the network is doing. A two-way partition
//! opens at one third of the script and heals at one half. The script ends
//! at a fixed virtual time. Traffic crosses no real link: the delay and
//! loss are the ones injected above, and wall time is processor time only.

use super::dcp_probes::micro_probes;
use crate::digest;
use crate::harness::{Checks, Metrics, Size, Workload};
use crate::probes;
use crate::stats;
use crate::trace::{span_if, Tracer};
use dcp::ledger::LedgerConfig;
use dcp::market::make_order;
use dcp::messages::{GossipItem, SettlementNote, WithdrawalNotice};
use dcp::node::{Node, NodeConfig};
use dcp::poc::{CoverageReceipt, Scenario};
use dcp::testkit::TestNet;
use dcp::transport::{FaultPlan, SimNet};
use dcp::KeyDirectory;
use orbital::constellation::single_plane;
use orbital::frames::{subpoint, Geodetic};
use orbital::ground::GroundSite;
use orbital::propagator::{KeplerJ2, Propagator};
use orbital::time::Epoch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tokio::runtime::{Builder, Runtime};

/// Seconds between a node's full-set anti-entropy announces.
const ANTI_ENTROPY: Duration = Duration::from_millis(1000);

/// Scale of the script.
#[derive(Debug, Clone, Copy)]
struct Scale {
    nodes: usize,
    /// Orders published on node 0 at t = 0.
    standing: usize,
    /// Scheduled items per virtual second.
    rate_per_s: u64,
    /// Virtual seconds over which scheduled items are published.
    publish_s: u64,
    /// Virtual second at which the script ends.
    end_s: u64,
}

impl Scale {
    fn of(size: Size) -> Scale {
        match size {
            Size::Full => {
                Scale { nodes: 8, standing: 1000, rate_per_s: 20, publish_s: 24, end_s: 30 }
            }
            Size::Smoke => Scale { nodes: 4, standing: 20, rate_per_s: 10, publish_s: 2, end_s: 6 },
        }
    }
}

enum Action {
    Publish(usize, GossipItem),
    Partition,
    Heal,
}

/// Everything the body takes as given.
struct Prepared {
    // Declared before `rt`: the nodes' tasks live on the runtime and must
    // be signalled to stop before it drops them.
    net: TestNet,
    standing: Vec<GossipItem>,
    /// `(due, action)`, ascending by due time.
    schedule: Vec<(Duration, Action)>,
    /// Distinct items every node must hold at the end.
    expected_items: usize,
    scenario: Arc<Scenario>,
    rt: Runtime,
}

/// What a body leaves behind, read from the node handles afterwards.
#[derive(Debug, Serialize)]
struct Outcome {
    ledger_digests: Vec<String>,
    item_counts: Vec<usize>,
    confirmed: Vec<usize>,
    frames_delivered: u64,
    frames_dropped: u64,
    /// Digest of the SimNet event log (every frame's virtual time, link,
    /// kind and fate): equal digests mean the repetitions replayed the same
    /// network, frame for frame.
    log: String,
}

/// See the module documentation.
pub struct DcpGossip {
    seed: u64,
    scale: Scale,
    prepared: Option<Prepared>,
}

fn party_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("party-{i}")).collect()
}

fn scenario_epoch() -> Epoch {
    Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0)
}

/// One satellite per party, and each party's ground station under its own
/// satellite at the scenario epoch, so that honest receipts verify.
fn poc_scenario(parties: &[String]) -> Scenario {
    let epoch = scenario_epoch();
    let mut sc = Scenario::new(epoch);
    let sats = single_plane(parties.len() as u32, 550.0, 53.0, epoch);
    for (sat, party) in sats.iter().zip(parties) {
        sc.add_satellite(sat.id, sat.elements);
        let prop = KeplerJ2::from_elements(&sat.elements, epoch);
        let sub = subpoint(prop.position_at(epoch), epoch.gmst());
        sc.add_ground_station(
            party.clone(),
            GroundSite::new(
                format!("gs-{party}"),
                Geodetic::from_degrees(sub.latitude_deg(), sub.longitude_deg(), 0.0),
            ),
        );
    }
    sc
}

/// The items of the script, signed: the standing set and the timed
/// schedule. Returns them with the number of receipts scheduled.
fn script(
    seed: u64,
    scale: &Scale,
    parties: &[String],
    keys: &KeyDirectory,
    scenario: &Scenario,
) -> (Vec<GossipItem>, Vec<(Duration, Action)>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = parties.len();
    let sat_ids: Vec<u32> =
        single_plane(n as u32, 550.0, 53.0, scenario_epoch()).iter().map(|s| s.id).collect();

    // Standing set: resting orders that do not cross (bids below asks).
    let standing = (0..scale.standing)
        .map(|i| {
            let party = &parties[rng.gen_range(0..n)];
            let is_bid = i % 2 == 0;
            let price: f64 = if is_bid { rng.gen_range(1.0..2.0) } else { rng.gen_range(8.0..9.0) };
            let price = (price * 100.0).round() / 100.0;
            let order = make_order(keys, party, is_bid, price, rng.gen_range(1..50), i as u64)
                .expect("script parties are registered");
            GossipItem::Order(order)
        })
        .collect();

    let total = scale.rate_per_s * scale.publish_s;
    let mut schedule = Vec::with_capacity(total as usize + 2);
    let mut receipts = 0;
    let mut sequence = scale.standing as u64;
    for i in 0..total {
        let due = Duration::from_micros(i * 1_000_000 / scale.rate_per_s);
        let node = rng.gen_range(0..n);
        let item = if i == total / 2 {
            let party = &parties[node];
            let sat_ids = vec![sat_ids[node]];
            let effective_s = due.as_secs_f64();
            let bytes = WithdrawalNotice::signing_bytes(party, &sat_ids, effective_s);
            let signature = keys.sign(party, &bytes).expect("script parties are registered");
            GossipItem::Withdrawal(WithdrawalNotice {
                party: party.clone(),
                sat_ids,
                effective_s,
                signature,
            })
        } else if i % 20 == 7 {
            // A zero-sum settlement between two parties.
            let (a, b) = (node, (node + 1 + rng.gen_range(0..n - 1)) % n);
            let amount = (rng.gen_range(1.0..100.0f64) * 100.0).round() / 100.0;
            let transfers: BTreeMap<String, f64> =
                [(parties[a].clone(), amount), (parties[b].clone(), -amount)].into_iter().collect();
            GossipItem::Settlement(
                SettlementNote::create(keys, i, &parties[a], transfers)
                    .expect("script parties are registered"),
            )
        } else if i % 4 == 0 {
            // An honest receipt: the verifier's own satellite, seconds
            // after it stood overhead, at the elevation physics gives.
            let verifier = node;
            let owner = (node + 1 + rng.gen_range(0..n - 1)) % n;
            let t_offset_s: f64 = receipts as f64 * 0.25 + rng.gen_range(0.0..0.2);
            let t_offset_s = (t_offset_s * 1000.0).round() / 1000.0;
            let el = scenario
                .computed_elevation_deg(sat_ids[verifier], &parties[verifier], t_offset_s)
                .expect("scenario knows the script's satellites");
            receipts += 1;
            GossipItem::Receipt(
                CoverageReceipt::create(
                    keys,
                    sat_ids[verifier],
                    &parties[verifier],
                    &parties[owner],
                    t_offset_s,
                    el,
                )
                .expect("script parties are registered"),
            )
        } else {
            // Crossing orders: alternate a bid and an ask at one price, so
            // each pair trades wherever both have arrived.
            sequence += 1;
            let is_bid = sequence.is_multiple_of(2);
            let order =
                make_order(keys, &parties[node], is_bid, 5.0, rng.gen_range(1..20), sequence)
                    .expect("script parties are registered");
            GossipItem::Order(order)
        };
        schedule.push((due, Action::Publish(node, item)));
    }
    let end = Duration::from_secs(scale.end_s);
    schedule.push((end / 3, Action::Partition));
    schedule.push((end / 2, Action::Heal));
    schedule.sort_by_key(|(due, _)| *due);
    (standing, schedule, receipts)
}

async fn start_net(seed: u64, parties: &[String], scenario: Arc<Scenario>) -> TestNet {
    let names: Vec<&str> = parties.iter().map(String::as_str).collect();
    let quorum = 2.min(parties.len());
    let net = TestNet::with_config(seed, &names, move |_, mut cfg| {
        cfg.scenario = Some(scenario.clone());
        cfg.auto_attest = true;
        cfg.ledger = LedgerConfig { quorum, ..LedgerConfig::default() };
        cfg.anti_entropy = ANTI_ENTROPY;
        cfg
    })
    .await
    .expect("sim nodes start");
    net.net.set_default_fault(FaultPlan {
        drop_probability: 0.05,
        delay: Duration::from_millis(5),
        jitter: Duration::from_millis(10),
    });
    // Ring plus the four diameters.
    net.connect_ring().await.expect("ring links dial");
    let n = parties.len();
    for i in 0..n / 2 {
        if n > 3 {
            net.connect(i, i + n / 2).await.expect("chord links dial");
        }
    }
    net
}

impl DcpGossip {
    /// The workload at `size`, with inputs made from `seed`.
    pub fn new(seed: u64, size: Size) -> DcpGossip {
        DcpGossip { seed, scale: Scale::of(size), prepared: None }
    }

    fn prepared(&self) -> &Prepared {
        self.prepared.as_ref().expect("set-up ran")
    }

    fn outcome(&self) -> Outcome {
        let p = self.prepared();
        let (frames_delivered, frames_dropped) = p.net.net.stats();
        Outcome {
            ledger_digests: {
                let mut d: Vec<String> = p.net.nodes.iter().map(|n| n.ledger_digest()).collect();
                d.sort();
                d
            },
            item_counts: p.net.nodes.iter().map(|n| n.item_count()).collect(),
            confirmed: p.net.nodes.iter().map(|n| n.confirmed_count()).collect(),
            frames_delivered,
            frames_dropped,
            log: digest::of(&p.net.net.log_snapshot()),
        }
    }

    /// Run the script; `tracer` wraps its two stages in spans when given.
    fn run_script(&self, mut tracer: Option<&mut Tracer>) {
        let p = self.prepared();
        let end = Duration::from_secs(self.scale.end_s);
        let half = p.net.nodes.len() / 2;
        let (left, right): (Vec<usize>, Vec<usize>) =
            ((0..half).collect(), (half..p.net.nodes.len()).collect());
        span_if(tracer.as_deref_mut(), "dcp.publish_standing", || {
            for item in &p.standing {
                p.net.nodes[0].publish(item.clone());
            }
        });
        span_if(tracer, "dcp.script", || {
            p.rt.block_on(async {
                let start = tokio::time::Instant::now();
                for (due, action) in &p.schedule {
                    tokio::time::sleep_until(start + *due).await;
                    match action {
                        Action::Publish(node, item) => p.net.nodes[*node].publish(item.clone()),
                        Action::Partition => p.net.partition(&left, &right),
                        Action::Heal => p.net.heal(),
                    }
                }
                tokio::time::sleep_until(start + end).await;
            });
        });
    }
}

impl Workload for DcpGossip {
    fn name(&self) -> &'static str {
        "dcp_gossip"
    }

    fn sim_span_s(&self) -> f64 {
        self.scale.end_s as f64
    }

    fn consumes_setup(&self) -> bool {
        true
    }

    fn uses_pool(&self) -> bool {
        false
    }

    fn setup(&mut self) {
        if let Some(old) = self.prepared.take() {
            old.net.shutdown_all();
        }
        let parties = party_names(self.scale.nodes);
        let scenario = Arc::new(poc_scenario(&parties));
        let rt = Builder::new_current_thread()
            .enable_time()
            .start_paused(true)
            .build()
            .expect("runtime builds");
        let net = rt.block_on(start_net(self.seed, &parties, scenario.clone()));
        let (standing, schedule, receipts) =
            script(self.seed, &self.scale, &parties, &net.keys, &scenario);
        let published = standing.len()
            + schedule.iter().filter(|(_, a)| matches!(a, Action::Publish(..))).count();
        // Every node attests every receipt it learns of.
        let expected_items = published + receipts * parties.len();
        self.prepared = Some(Prepared { net, standing, schedule, expected_items, scenario, rt });
    }

    fn body(&mut self) {
        self.run_script(None);
    }

    fn digest(&mut self) -> String {
        digest::of(&self.outcome())
    }

    fn check(&mut self, checks: &mut Checks) {
        let p = self.prepared();
        checks.check("ledgers agree", p.net.ledgers_agree(), || {
            format!("{:?}", p.net.nodes.iter().map(|n| n.ledger_digest()).collect::<Vec<_>>())
        });
        let counts: Vec<usize> = p.net.nodes.iter().map(|n| n.item_count()).collect();
        checks.check(
            "every node holds every item",
            counts.iter().all(|&c| c == p.expected_items),
            || format!("expected {} everywhere, found {counts:?}", p.expected_items),
        );
        for node in &p.net.nodes {
            let net: f64 = node.account_balances().values().sum();
            checks.check("account balances are zero-sum", net.abs() < 1e-6, || {
                format!("{} nets {net}", node.node_id())
            });
            checks.check("no item was rejected", node.rejected_count() == 0, || {
                format!("{} rejected {}", node.node_id(), node.rejected_count())
            });
        }
    }

    fn traced_body(&mut self, tracer: &mut Tracer) {
        self.run_script(Some(tracer));
    }

    fn layer_metrics(&mut self, tracer: &mut Tracer, m: &mut Metrics, checks: &mut Checks) {
        // Frame accounting of one full body.
        self.run_script(None);
        let p = self.prepared();
        let (delivered, dropped) = p.net.net.stats();
        let log = p.net.net.log_snapshot();
        let frames = (delivered + dropped) as f64;
        let kind =
            |k: &str| log.iter().filter(|l| l.split(' ').rev().nth(1) == Some(k)).count() as f64;
        m.set("dcp.frames_delivered", delivered as f64);
        m.set("dcp.frames_dropped", dropped as f64);
        m.set("dcp.frames_per_item", frames / p.expected_items as f64);
        m.set("dcp.announce_frame_share", kind("announce") / frames);
        m.set("dcp.payload_frame_share", kind("payload") / frames);
        m.set(
            "dcp.rejected_items",
            p.net.nodes.iter().map(|n| n.rejected_count()).sum::<u64>() as f64,
        );

        // The script's item stream, for the per-call probes.
        let items: Vec<GossipItem> = p
            .standing
            .iter()
            .chain(p.schedule.iter().filter_map(|(_, a)| match a {
                Action::Publish(_, item) => Some(item),
                _ => None,
            }))
            .cloned()
            .collect();
        micro_probes(tracer, m, &p.net.keys, &p.scenario, &items);
        convergence_probe(self.seed, &self.scale, tracer, m, checks);
        single_node_probes(tracer, m, &p.net.keys, &p.scenario, &items);
    }
}

/// `dcp.converge_virtual_ms_*`: orders published open loop on a fresh
/// network of the same shape; the k-th due time is matched with the first
/// poll at which every node holds k items (orders trigger no attestations,
/// so counts and items correspond).
fn convergence_probe(
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let parties = party_names(scale.nodes);
    let scenario = Arc::new(poc_scenario(&parties));
    let rt = Builder::new_current_thread()
        .enable_time()
        .start_paused(true)
        .build()
        .expect("runtime builds");
    let items = (scale.rate_per_s * scale.publish_s).min(200) as usize;
    let period = Duration::from_micros(1_000_000 / scale.rate_per_s);
    let latencies_ms: Vec<f64> = tracer.span("dcp.convergence_probe", |_| {
        rt.block_on(async {
            let net = start_net(seed ^ 0xC0FFEE, &parties, scenario).await;
            let start = tokio::time::Instant::now();
            let deadline = start + period * items as u32 + Duration::from_secs(30);
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut published, mut converged) = (0usize, 0usize);
            let mut out = Vec::with_capacity(items);
            while converged < items && tokio::time::Instant::now() < deadline {
                let now = tokio::time::Instant::now();
                while published < items && start + period * published as u32 <= now {
                    let node = rng.gen_range(0..parties.len());
                    let order =
                        make_order(&net.keys, &parties[node], true, 1.0, 1, published as u64)
                            .expect("probe parties are registered");
                    net.nodes[node].publish(GossipItem::Order(order));
                    published += 1;
                }
                let everywhere = net.nodes.iter().map(|n| n.item_count()).min().unwrap_or(0);
                while converged < everywhere.min(published) {
                    let due = start + period * converged as u32;
                    out.push(now.duration_since(due).as_secs_f64() * 1e3);
                    converged += 1;
                }
                tokio::time::sleep(Duration::from_millis(5)).await;
            }
            net.shutdown_all();
            out
        })
    });
    checks.check("convergence probe converged", latencies_ms.len() == items, || {
        format!("{} of {items} items reached every node", latencies_ms.len())
    });
    if !latencies_ms.is_empty() {
        m.set("dcp.converge_virtual_ms_p50", stats::median(&latencies_ms));
        m.set("dcp.converge_virtual_ms_p99", stats::quantile(&latencies_ms, 0.99));
    }
}

/// `dcp.node_start_ms` and `dcp.single_node_us_per_item`: one node, the
/// script's item stream, no peers.
fn single_node_probes(
    tracer: &mut Tracer,
    m: &mut Metrics,
    keys: &KeyDirectory,
    scenario: &Arc<Scenario>,
    items: &[GossipItem],
) {
    let rt = Builder::new_current_thread()
        .enable_time()
        .start_paused(true)
        .build()
        .expect("runtime builds");
    let config = |net: &Arc<SimNet>| {
        let mut cfg = NodeConfig::sim("party-0", keys.clone(), net);
        cfg.scenario = Some(scenario.clone());
        cfg.auto_attest = true;
        cfg
    };
    let start_s = probes::median_s(tracer, "dcp.node_start", 20, |i| {
        let net = SimNet::new(i as u64);
        rt.block_on(Node::start(config(&net))).expect("sim node starts")
    });
    m.set("dcp.node_start_ms", start_s * 1e3);
    let per_stream = probes::median_s(tracer, "dcp.single_node_stream", 3, |i| {
        let net = SimNet::new(i as u64);
        let node = rt.block_on(Node::start(config(&net))).expect("sim node starts");
        for item in items {
            node.publish(item.clone());
        }
        node.item_count()
    });
    m.set("dcp.single_node_us_per_item", per_stream / items.len() as f64 * 1e6);
}
