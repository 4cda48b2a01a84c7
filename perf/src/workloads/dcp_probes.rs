//! `dcp.*` micro-probes: direct calls into the protocol crate's public
//! functions, on items of the script the `dcp_gossip` workload publishes.

use crate::harness::Metrics;
use crate::probes;
use crate::trace::Tracer;
use bytes::BytesMut;
use dcp::crypto::sha256;
use dcp::gossip::GossipState;
use dcp::ledger::{Ledger, LedgerConfig};
use dcp::market::{make_order, verify_order, OrderBook};
use dcp::messages::{GossipItem, Message, SettlementNote};
use dcp::poc::{verify_receipt, Attestation, Scenario};
use dcp::{wire, KeyDirectory};
use std::collections::BTreeMap;

/// Items per timed batch, for calls too short to time alone.
const BATCH: usize = 64;

/// Standing-set size the announce probes are taken at.
const ANNOUNCE_IDS: usize = 2000;

/// Measure every `dcp.*` per-call metric. `items` is the script's item
/// stream (orders, receipts, settlement notes, a withdrawal).
pub fn micro_probes(
    tracer: &mut Tracer,
    m: &mut Metrics,
    keys: &KeyDirectory,
    scenario: &Scenario,
    items: &[GossipItem],
) {
    let orders: Vec<_> = items
        .iter()
        .filter_map(|i| match i {
            GossipItem::Order(o) => Some(o.clone()),
            _ => None,
        })
        .collect();
    let receipts: Vec<_> = items
        .iter()
        .filter_map(|i| match i {
            GossipItem::Receipt(r) => Some(r.clone()),
            _ => None,
        })
        .collect();
    let party = orders[0].party.clone();

    // crypto
    let block = vec![0xA5u8; 1 << 20];
    let sha_s = probes::median_s(tracer, "dcp.sha256", 10, |_| sha256(&block));
    m.set("dcp.sha256_mib_s", 1.0 / sha_s);
    m.set(
        "dcp.sign_us",
        probes::median_batched_s(tracer, "dcp.make_order", 20, BATCH, |i| {
            make_order(keys, &party, true, 1.0, 1, i as u64)
        }) * 1e6,
    );
    m.set(
        "dcp.verify_order_us",
        probes::median_batched_s(tracer, "dcp.verify_order", 20, BATCH, |i| {
            verify_order(keys, &orders[i % orders.len()])
        }) * 1e6,
    );
    m.set(
        "dcp.poc_verify_us",
        probes::median_batched_s(tracer, "dcp.verify_receipt", 20, BATCH, |i| {
            verify_receipt(&receipts[i % receipts.len()], scenario, keys)
        }) * 1e6,
    );

    // wire: a one-receipt payload.
    let payload = Message::GossipPayload { items: vec![GossipItem::Receipt(receipts[0].clone())] };
    let frame = wire::encode(&payload).expect("payload encodes");
    m.set("dcp.frame_bytes", frame.len() as f64);
    m.set(
        "dcp.encode_us",
        probes::median_batched_s(tracer, "dcp.wire_encode", 20, BATCH, |_| wire::encode(&payload))
            * 1e6,
    );
    m.set(
        "dcp.decode_us",
        probes::median_batched_s(tracer, "dcp.wire_decode", 20, BATCH, |_| {
            wire::decode(&mut BytesMut::from(&frame[..]))
        }) * 1e6,
    );

    // gossip: inserts, and the full-set announce at a 2000-item set.
    m.set(
        "dcp.gossip_insert_us",
        probes::median_s(tracer, "dcp.gossip_insert", 10, |_| {
            let mut state = GossipState::new();
            for item in items {
                state.insert(item.clone());
            }
            state.len()
        }) / items.len() as f64
            * 1e6,
    );
    let mut full = GossipState::new();
    for i in 0..ANNOUNCE_IDS {
        let order = make_order(keys, &party, i % 2 == 0, 1.0 + i as f64, 1, i as u64)
            .expect("probe party is registered");
        full.insert(GossipItem::Order(order));
    }
    let announce = full.anti_entropy_announce().expect("the set is not empty");
    let Message::GossipAnnounce { ids } = &announce else {
        unreachable!("announce is an announce")
    };
    m.set(
        "dcp.announce_bytes_at_2000",
        wire::encode(&announce).expect("announce encodes").len() as f64,
    );
    m.set(
        "dcp.announce_encode_us_at_2000",
        probes::median_s(tracer, "dcp.announce_encode", 20, |_| {
            wire::encode(&full.anti_entropy_announce().expect("the set is not empty"))
        }) * 1e6,
    );
    m.set(
        "dcp.gossip_on_announce_us_at_2000",
        probes::median_s(tracer, "dcp.gossip_on_announce", 20, |_| full.on_announce(ids)) * 1e6,
    );

    // ledger
    let ids: Vec<String> = receipts.iter().map(|r| GossipItem::Receipt(r.clone()).id()).collect();
    let attestations: Vec<Attestation> = ids
        .iter()
        .flat_map(|id| {
            ["party-0", "party-1"].map(|a| {
                Attestation::create(keys, id, a, true).expect("probe parties are registered")
            })
        })
        .collect();
    let fill = |ledger: &mut Ledger| {
        for (id, r) in ids.iter().zip(&receipts) {
            ledger.insert_receipt(id.clone(), r.clone());
        }
    };
    let config = LedgerConfig { quorum: 2, ..LedgerConfig::default() };
    m.set(
        "dcp.ledger_receipt_us",
        probes::median_s(tracer, "dcp.ledger_insert_receipt", 20, |_| {
            let mut ledger = Ledger::new(config);
            fill(&mut ledger);
            ledger.len()
        }) / receipts.len() as f64
            * 1e6,
    );
    let mut confirmed = Ledger::new(config);
    fill(&mut confirmed);
    // One pre-filled ledger per timed call, so that the clone is not timed.
    let mut fresh: Vec<Ledger> = (0..20).map(|_| confirmed.clone()).collect();
    m.set(
        "dcp.ledger_attest_us",
        probes::median_s(tracer, "dcp.ledger_insert_attestation", fresh.len(), |i| {
            let ledger = &mut fresh[i];
            for att in &attestations {
                ledger.insert_attestation(att);
            }
            ledger.len()
        }) / attestations.len() as f64
            * 1e6,
    );
    for att in &attestations {
        confirmed.insert_attestation(att);
    }
    m.set(
        "dcp.ledger_digest_us",
        probes::median_s(tracer, "dcp.ledger_confirmed_digest", 20, |_| {
            confirmed.confirmed_digest()
        }) * 1e6,
    );
    let notes: Vec<SettlementNote> = (0..BATCH as u64)
        .map(|epoch| {
            let transfers: BTreeMap<String, f64> =
                [("party-0".to_string(), 1.5), ("party-1".to_string(), -1.5)].into_iter().collect();
            SettlementNote::create(keys, epoch, "party-0", transfers)
                .expect("probe party is registered")
        })
        .collect();
    m.set(
        "dcp.ledger_settlement_us",
        probes::median_s(tracer, "dcp.ledger_apply_settlement", 20, |_| {
            let mut ledger = Ledger::new(config);
            for note in &notes {
                ledger.apply_settlement_note(note);
            }
            ledger.accounts().settlements_applied()
        }) / notes.len() as f64
            * 1e6,
    );

    // market
    m.set(
        "dcp.book_submit_us",
        probes::median_s(tracer, "dcp.book_submit", 10, |_| {
            let mut book = OrderBook::new();
            for order in &orders {
                book.submit(order.clone());
            }
            book.trades().len()
        }) / orders.len() as f64
            * 1e6,
    );
}
