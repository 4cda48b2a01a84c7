//! # dcp — decentralized coordination protocol for MP-LEO
//!
//! The paper argues (§1, §3.2, §4) that a multi-party constellation needs
//! decentralized machinery: no single party may control admission, billing,
//! or service records. This crate prototypes that machinery as a real
//! network protocol over TCP (tokio):
//!
//! * [`crypto`] — SHA-256 and HMAC-SHA256 implemented from the FIPS 180-4 /
//!   RFC 2104 specifications (no external crypto dependency), plus a shared
//!   key directory. HMAC tags stand in for asymmetric signatures; the
//!   protocol treats them as opaque and a real deployment would swap in
//!   Ed25519 without protocol changes.
//! * [`wire`] — a length-prefixed JSON frame codec with size limits.
//! * [`transport`] — pluggable transports behind one abstraction: real TCP
//!   for production, and an in-process fault-injecting simulator
//!   ([`transport::SimNet`]) with a seeded drop/delay/jitter plan,
//!   partition/heal, and connection kill for deterministic protocol tests.
//! * [`testkit`] — the deterministic multi-node harness: N nodes on a
//!   seeded `SimNet` under paused tokio time, with topology wiring,
//!   `converge_until`, and partition scripting.
//! * [`messages`] — the protocol message set: handshake, ping, epidemic
//!   gossip (announce / request / payload), and the gossiped items
//!   (coverage receipts, attestations, market orders, withdrawals).
//! * [`poc`] — proof-of-coverage: ground stations sign receipts for
//!   satellites they observe overhead; any party *independently verifies* a
//!   claim by re-propagating the satellite's published orbit with the
//!   `orbital` crate — coverage fraud is detectable from physics alone.
//! * [`ledger`] — the replicated receipt ledger: quorum attestation,
//!   reward accounting, epoch settlement (idempotent zero-sum batches
//!   against the party account book), party balances.
//! * [`gossip`] — the item store and anti-entropy state machine (pure
//!   logic, unit-testable without sockets): an id-ordered store with, beside
//!   each item, what every peer session has proven it holds, so a periodic
//!   announce lists only what the peer is not known to hold.
//! * [`node`] — the async node runtime: listener, per-peer reader/writer
//!   tasks and gossip sessions, the periodic anti-entropy tick, graceful
//!   shutdown.
//! * [`market`] — a capacity order book with price-time priority matching.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod control;
pub mod crypto;
pub mod discovery;
pub mod gossip;
pub mod ledger;
pub mod market;
pub mod messages;
pub mod node;
pub mod poc;
pub mod testkit;
pub mod transport;
pub mod wire;

pub use crypto::{hmac_sha256, sha256, KeyDirectory};
pub use ledger::{Accounts, Ledger, SettlementOutcome};
pub use messages::{GossipItem, Message, NodeId, SettlementNote};
pub use node::{BackoffConfig, Node, NodeConfig, NodeHandle};
pub use transport::{FaultPlan, SimNet, Transport};
