//! The protocol message set.
//!
//! Messages fall into three groups: connection management (hello / ping),
//! epidemic gossip (announce / request / payload), and the application
//! items riding the gossip layer ([`GossipItem`]). Item IDs are content
//! hashes, so duplicate suppression and integrity come for free.

use crate::crypto::{hex, sha256, KeyDirectory, Signature};
use crate::poc::{Attestation, CoverageReceipt};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a protocol node (one per party in the prototype).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub String);

impl NodeId {
    /// Construct from anything string-like.
    pub fn new(id: impl Into<String>) -> Self {
        NodeId(id.into())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId(s.to_string())
    }
}

/// Content identifier of a gossip item (hex SHA-256 of its JSON encoding).
pub type ItemId = String;

/// A capacity-market order gossiped through the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketOrder {
    /// Issuing party.
    pub party: String,
    /// True for a bid (buy capacity), false for an ask (sell capacity).
    pub is_bid: bool,
    /// Price per terminal-step, credits.
    pub price: f64,
    /// Quantity, terminal-steps.
    pub quantity: u64,
    /// Issuer-local sequence number (disambiguates otherwise-equal orders).
    pub sequence: u64,
    /// HMAC tag over the canonical order bytes.
    pub signature: Signature,
}

impl MarketOrder {
    /// The bytes covered by the order signature.
    pub fn signing_bytes(party: &str, is_bid: bool, price: f64, quantity: u64, sequence: u64) -> Vec<u8> {
        format!("order|{party}|{is_bid}|{price:.6}|{quantity}|{sequence}").into_bytes()
    }
}

/// Announcement that a party is withdrawing its satellites from the
/// constellation (the robustness scenarios of §3.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WithdrawalNotice {
    /// Withdrawing party.
    pub party: String,
    /// Satellite IDs being withdrawn.
    pub sat_ids: Vec<u32>,
    /// Effective time (seconds since the scenario epoch).
    pub effective_s: f64,
    /// HMAC tag.
    pub signature: Signature,
}

impl WithdrawalNotice {
    /// The bytes covered by the withdrawal signature.
    pub fn signing_bytes(party: &str, sat_ids: &[u32], effective_s: f64) -> Vec<u8> {
        format!("withdraw|{party}|{sat_ids:?}|{effective_s:.3}").into_bytes()
    }
}

/// An epoch settlement: a zero-sum batch of balance transfers proposed by
/// one party, applied at most once per `(epoch, proposer)` by every
/// replica's account book (see [`crate::ledger::Accounts`]). Replaying a
/// duplicate note is a no-op, so settlement survives at-least-once gossip
/// delivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SettlementNote {
    /// Settlement epoch this note closes.
    pub epoch: u64,
    /// Proposing (and signing) party.
    pub proposer: String,
    /// Party -> signed balance delta; deltas must sum to zero.
    pub transfers: BTreeMap<String, f64>,
    /// HMAC tag over the canonical note bytes.
    pub signature: Signature,
}

impl SettlementNote {
    /// The bytes covered by the settlement signature.
    pub fn signing_bytes(epoch: u64, proposer: &str, transfers: &BTreeMap<String, f64>) -> Vec<u8> {
        let body: Vec<String> = transfers.iter().map(|(p, d)| format!("{p}:{d:.6}")).collect();
        format!("settle|{epoch}|{proposer}|{}", body.join(",")).into_bytes()
    }

    /// Create and sign a note (None if the proposer's key is unknown).
    pub fn create(
        keys: &KeyDirectory,
        epoch: u64,
        proposer: &str,
        transfers: BTreeMap<String, f64>,
    ) -> Option<SettlementNote> {
        let bytes = Self::signing_bytes(epoch, proposer, &transfers);
        let signature = keys.sign(proposer, &bytes)?;
        Some(SettlementNote { epoch, proposer: proposer.to_string(), transfers, signature })
    }

    /// Replay-protection key: one application per `(epoch, proposer)`.
    pub fn settlement_id(&self) -> String {
        format!("{}|{}", self.epoch, self.proposer)
    }
}

/// An application item carried by the gossip layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GossipItem {
    /// A proof-of-coverage receipt.
    Receipt(CoverageReceipt),
    /// An attestation of a receipt by a verifier.
    Attestation(Attestation),
    /// A capacity-market order.
    Order(MarketOrder),
    /// A party withdrawal notice.
    Withdrawal(WithdrawalNotice),
    /// A multi-party control-plane event (proposal or vote).
    Control(crate::control::ControlEvent),
    /// An epoch settlement note (zero-sum balance transfers).
    Settlement(SettlementNote),
}

impl GossipItem {
    /// Content id: SHA-256 over the canonical JSON encoding.
    pub fn id(&self) -> ItemId {
        let bytes = serde_json::to_vec(self).expect("gossip items are serializable");
        hex(&sha256(&bytes))
    }
}

/// A wire message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// First message on a connection, both directions.
    Hello {
        /// The sender's node id.
        node_id: NodeId,
        /// The sender's listening address, if it accepts inbound dials
        /// (used for mesh discovery).
        listen_addr: Option<String>,
    },
    /// Liveness probe.
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Peer-exchange: listening addresses the sender knows.
    PeerExchange {
        /// `host:port` strings (invalid entries are ignored by receivers).
        addrs: Vec<String>,
    },
    /// "I have these items" — sent on new-item arrival, as the first
    /// message of a session (everything held) and on every anti-entropy
    /// tick (what the receiver has not proven it holds: possibly nothing,
    /// and the frame is sent all the same).
    GossipAnnounce {
        /// Item ids the sender holds — not necessarily all of them.
        ids: Vec<ItemId>,
    },
    /// "Send me these items."
    GossipRequest {
        /// Item ids the receiver is missing.
        ids: Vec<ItemId>,
    },
    /// Item bodies.
    GossipPayload {
        /// The items.
        items: Vec<GossipItem>,
    },
}

impl Message {
    /// Short tag for logging/metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Ping { .. } => "ping",
            Message::Pong { .. } => "pong",
            Message::PeerExchange { .. } => "pex",
            Message::GossipAnnounce { .. } => "announce",
            Message::GossipRequest { .. } => "request",
            Message::GossipPayload { .. } => "payload",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poc::CoverageReceipt;

    fn receipt() -> CoverageReceipt {
        CoverageReceipt {
            sat_id: 7,
            verifier: "gs-taipei".into(),
            owner: "party-a".into(),
            t_offset_s: 1234.0,
            elevation_deg: 44.0,
            signature: "aa".into(),
        }
    }

    #[test]
    fn item_ids_are_content_hashes() {
        let a = GossipItem::Receipt(receipt());
        let b = GossipItem::Receipt(receipt());
        assert_eq!(a.id(), b.id());
        let mut r2 = receipt();
        r2.sat_id = 8;
        assert_ne!(a.id(), GossipItem::Receipt(r2).id());
        assert_eq!(a.id().len(), 64);
    }

    #[test]
    fn message_roundtrip_json() {
        let msgs = vec![
            Message::Hello { node_id: "n1".into(), listen_addr: Some("127.0.0.1:0".into()) },
            Message::Ping { nonce: 42 },
            Message::Pong { nonce: 42 },
            Message::GossipAnnounce { ids: vec!["ab".into()] },
            Message::GossipRequest { ids: vec![] },
            Message::GossipPayload { items: vec![GossipItem::Receipt(receipt())] },
        ];
        for m in msgs {
            let bytes = serde_json::to_vec(&m).unwrap();
            let back: Message = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(back, m);
            assert!(!m.kind().is_empty());
        }
    }

    #[test]
    fn order_signing_bytes_canonical() {
        let a = MarketOrder::signing_bytes("p", true, 1.5, 100, 1);
        let b = MarketOrder::signing_bytes("p", true, 1.5, 100, 1);
        let c = MarketOrder::signing_bytes("p", true, 1.5, 100, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn withdrawal_signing_bytes_cover_sats() {
        let a = WithdrawalNotice::signing_bytes("p", &[1, 2], 10.0);
        let b = WithdrawalNotice::signing_bytes("p", &[1, 3], 10.0);
        assert_ne!(a, b);
    }
}
