//! Peer discovery: address book + peer-exchange (PEX) policy.
//!
//! Nodes advertise their listening addresses in the handshake and exchange
//! known addresses periodically, so a new party only needs one bootstrap
//! address to reach the whole MP-LEO mesh. This module is the pure policy
//! side (what to remember, whom to dial); the socket side lives in
//! [`crate::node`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::SocketAddr;

/// The address book of known peers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AddressBook {
    known: BTreeSet<SocketAddr>,
    connected: BTreeSet<SocketAddr>,
    self_addr: Option<SocketAddr>,
}

impl AddressBook {
    /// Empty book; `self_addr` is excluded from dialing suggestions.
    pub fn new(self_addr: Option<SocketAddr>) -> Self {
        AddressBook { known: BTreeSet::new(), connected: BTreeSet::new(), self_addr }
    }

    /// Learn addresses (from a handshake or a PEX message). Returns how
    /// many were new.
    pub fn learn(&mut self, addrs: impl IntoIterator<Item = SocketAddr>) -> usize {
        let mut fresh = 0;
        for a in addrs {
            if Some(a) == self.self_addr {
                continue;
            }
            if self.known.insert(a) {
                fresh += 1;
            }
        }
        fresh
    }

    /// Record an established outbound/inbound session address.
    pub fn mark_connected(&mut self, addr: SocketAddr) {
        self.known.insert(addr);
        self.connected.insert(addr);
    }

    /// Record a closed session.
    pub fn mark_disconnected(&mut self, addr: SocketAddr) {
        self.connected.remove(&addr);
    }

    /// Addresses worth dialing to reach `target_degree` connections,
    /// deterministic order (sorted), excluding self and already-connected.
    pub fn dial_candidates(&self, target_degree: usize) -> Vec<SocketAddr> {
        if self.connected.len() >= target_degree {
            return Vec::new();
        }
        let need = target_degree - self.connected.len();
        self.known
            .iter()
            .filter(|a| !self.connected.contains(a) && Some(**a) != self.self_addr)
            .take(need)
            .cloned()
            .collect()
    }

    /// Addresses to share in a PEX message (everything known; small
    /// networks — cap at 64 for frame hygiene).
    pub fn shareable(&self) -> Vec<SocketAddr> {
        self.known.iter().take(64).cloned().collect()
    }

    /// Number of known addresses.
    pub fn known_count(&self) -> usize {
        self.known.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn learn_dedups_and_skips_self() {
        let mut book = AddressBook::new(Some(addr(1000)));
        assert_eq!(book.learn([addr(1001), addr(1002), addr(1000)]), 2);
        assert_eq!(book.learn([addr(1001)]), 0);
        assert_eq!(book.known_count(), 2);
    }

    #[test]
    fn dial_candidates_respect_degree() {
        let mut book = AddressBook::new(None);
        book.learn([addr(1), addr(2), addr(3), addr(4)]);
        assert_eq!(book.dial_candidates(2).len(), 2);
        book.mark_connected(addr(1));
        book.mark_connected(addr(2));
        assert!(book.dial_candidates(2).is_empty(), "degree satisfied");
        let more = book.dial_candidates(3);
        assert_eq!(more.len(), 1);
        assert!(!more.contains(&addr(1)) && !more.contains(&addr(2)));
    }

    #[test]
    fn disconnect_reopens_slots() {
        let mut book = AddressBook::new(None);
        book.learn([addr(1), addr(2)]);
        book.mark_connected(addr(1));
        book.mark_disconnected(addr(1));
        // The address stays known and becomes dialable again.
        assert_eq!(book.dial_candidates(1), vec![addr(1)]);
    }

    #[test]
    fn shareable_is_bounded() {
        let mut book = AddressBook::new(None);
        book.learn((0..200u16).map(|p| addr(10_000 + p)));
        assert_eq!(book.shareable().len(), 64);
    }

    #[test]
    fn deterministic_ordering() {
        let mut a = AddressBook::new(None);
        let mut b = AddressBook::new(None);
        a.learn([addr(5), addr(3), addr(9)]);
        b.learn([addr(9), addr(5), addr(3)]);
        assert_eq!(a.dial_candidates(3), b.dial_candidates(3));
    }
}
