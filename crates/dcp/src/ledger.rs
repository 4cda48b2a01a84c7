//! The replicated receipt ledger: quorum attestation and reward accounting.
//!
//! Every node holds a full copy of the ledger, fed by gossip. A coverage
//! receipt becomes *confirmed* once a quorum of distinct parties has
//! attested it valid; confirmed receipts mint rewards to the satellite
//! owner and the verifying ground station. Because items arrive via gossip
//! in arbitrary order, the ledger accepts attestations before their receipt
//! and re-evaluates confirmation as pieces arrive. All operations are
//! idempotent, which makes ledger state a CRDT (grow-only maps) — two nodes
//! that have seen the same item set hold identical ledgers regardless of
//! arrival order.

use crate::messages::{ItemId, SettlementNote};
use crate::poc::{Attestation, CoverageReceipt};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Implicit counterparty for credit/debit: minting credits `credit`s from
/// the treasury, burning `debit`s back into it, so the signed sum over all
/// accounts (treasury included) is an invariant zero.
pub const TREASURY: &str = "__treasury";

/// Numerical slack for zero-sum checks on f64 credit amounts.
const CONSERVATION_EPS: f64 = 1e-6;

/// Outcome of applying a settlement batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettlementOutcome {
    /// The batch was applied for the first time.
    Applied,
    /// The batch id was seen before; nothing changed (idempotent replay).
    Duplicate,
    /// The batch violates conservation (non-zero-sum) and was refused.
    Rejected,
}

/// The party account book: double-entry balances fed by credits, debits,
/// and idempotent settlement batches.
///
/// Invariant: the signed sum of every balance (treasury included) is zero,
/// no matter how credit/debit/settle calls interleave — each operation is
/// itself zero-sum, and non-conserving settlements are refused.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Accounts {
    balances: BTreeMap<String, f64>,
    applied: BTreeSet<String>,
}

impl Accounts {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move `amount` credits from `from` to `to` (negative amounts flip the
    /// direction; the move is always zero-sum).
    pub fn transfer(&mut self, from: &str, to: &str, amount: f64) {
        *self.balances.entry(from.to_string()).or_default() -= amount;
        *self.balances.entry(to.to_string()).or_default() += amount;
    }

    /// Mint `amount` credits to `party` from the treasury.
    pub fn credit(&mut self, party: &str, amount: f64) {
        self.transfer(TREASURY, party, amount);
    }

    /// Burn `amount` credits from `party` back into the treasury.
    pub fn debit(&mut self, party: &str, amount: f64) {
        self.transfer(party, TREASURY, amount);
    }

    /// Apply a zero-sum settlement batch exactly once per `id`. Duplicates
    /// are no-ops; batches whose deltas do not sum to ~0 are refused.
    pub fn apply_settlement(
        &mut self,
        id: &str,
        transfers: &BTreeMap<String, f64>,
    ) -> SettlementOutcome {
        let net: f64 = transfers.values().sum();
        if net.abs() > CONSERVATION_EPS {
            return SettlementOutcome::Rejected;
        }
        if !self.applied.insert(id.to_string()) {
            return SettlementOutcome::Duplicate;
        }
        for (party, delta) in transfers {
            *self.balances.entry(party.clone()).or_default() += delta;
        }
        SettlementOutcome::Applied
    }

    /// Balance of one party (0 if never touched).
    pub fn balance(&self, party: &str) -> f64 {
        self.balances.get(party).copied().unwrap_or(0.0)
    }

    /// All balances (treasury included), sorted for determinism.
    pub fn balances(&self) -> &BTreeMap<String, f64> {
        &self.balances
    }

    /// Signed sum over every account — always ~0 (the conservation
    /// invariant).
    pub fn total_imbalance(&self) -> f64 {
        self.balances.values().sum()
    }

    /// Number of settlement batches applied so far.
    pub fn settlements_applied(&self) -> usize {
        self.applied.len()
    }
}

/// Ledger policy parameters (network-wide constants in the prototype).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerConfig {
    /// Number of distinct valid attestations required to confirm a receipt.
    pub quorum: usize,
    /// Credits minted per confirmed receipt.
    pub reward_per_receipt: f64,
    /// Fraction of the reward paid to the verifier (rest to the owner).
    pub verifier_share: f64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig { quorum: 2, reward_per_receipt: 1.0, verifier_share: 0.2 }
    }
}

/// A receipt plus the attestations seen for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiptEntry {
    /// The receipt body (may lag its attestations during gossip).
    pub receipt: Option<CoverageReceipt>,
    /// Attestor -> verdict.
    pub attestations: BTreeMap<String, bool>,
}

impl ReceiptEntry {
    fn new() -> Self {
        ReceiptEntry { receipt: None, attestations: BTreeMap::new() }
    }

    /// Count of attestations that deemed the receipt valid.
    pub fn valid_votes(&self) -> usize {
        self.attestations.values().filter(|&&v| v).count()
    }
}

/// The replicated ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// Policy parameters.
    pub config: LedgerConfig,
    entries: HashMap<ItemId, ReceiptEntry>,
    #[serde(default)]
    accounts: Accounts,
}

impl Ledger {
    /// Empty ledger with the given policy.
    pub fn new(config: LedgerConfig) -> Self {
        Ledger { config, entries: HashMap::new(), accounts: Accounts::new() }
    }

    /// Apply a gossiped settlement note to the account book. The note's
    /// `(epoch, proposer)` id makes replays idempotent; non-zero-sum notes
    /// are refused. Signature verification is the caller's job (the node
    /// checks it before applying).
    pub fn apply_settlement_note(&mut self, note: &SettlementNote) -> SettlementOutcome {
        self.accounts.apply_settlement(&note.settlement_id(), &note.transfers)
    }

    /// The party account book (settled balances).
    pub fn accounts(&self) -> &Accounts {
        &self.accounts
    }

    /// Record a receipt under its content id. Idempotent.
    pub fn insert_receipt(&mut self, id: ItemId, receipt: CoverageReceipt) {
        let entry = self.entries.entry(id).or_insert_with(ReceiptEntry::new);
        if entry.receipt.is_none() {
            entry.receipt = Some(receipt);
        }
    }

    /// Record an attestation (receipt body may not have arrived yet).
    /// Idempotent per (receipt, attestor); a attestor's first verdict wins.
    pub fn insert_attestation(&mut self, att: &Attestation) {
        let entry = self.entries.entry(att.receipt_id.clone()).or_insert_with(ReceiptEntry::new);
        entry.attestations.entry(att.attestor.clone()).or_insert(att.valid);
    }

    /// Whether a receipt is confirmed (body present + quorum of valid
    /// votes).
    pub fn is_confirmed(&self, id: &str) -> bool {
        self.entries
            .get(id)
            .map(|e| e.receipt.is_some() && e.valid_votes() >= self.config.quorum)
            .unwrap_or(false)
    }

    /// Number of receipts tracked (confirmed or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids of all confirmed receipts, sorted (deterministic across nodes).
    pub fn confirmed_ids(&self) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = self
            .entries
            .iter()
            .filter(|(id, _)| self.is_confirmed(id))
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// Look up an entry.
    pub fn entry(&self, id: &str) -> Option<&ReceiptEntry> {
        self.entries.get(id)
    }

    /// Mint rewards for all confirmed receipts: per receipt, the owner
    /// earns `reward * (1 - verifier_share)` and the verifier earns
    /// `reward * verifier_share`. Returns party -> credits, sorted map for
    /// determinism.
    pub fn reward_balances(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for id in self.confirmed_ids() {
            let entry = &self.entries[&id];
            let receipt = entry.receipt.as_ref().expect("confirmed implies body");
            let reward = self.config.reward_per_receipt;
            *out.entry(receipt.owner.clone()).or_default() +=
                reward * (1.0 - self.config.verifier_share);
            *out.entry(receipt.verifier.clone()).or_default() +=
                reward * self.config.verifier_share;
        }
        out
    }

    /// Digest of the confirmed set (equal across converged nodes).
    pub fn confirmed_digest(&self) -> String {
        let joined = self.confirmed_ids().join(",");
        crate::crypto::hex(&crate::crypto::sha256(joined.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyDirectory;

    fn keys() -> KeyDirectory {
        let mut k = KeyDirectory::new();
        for p in ["a", "b", "c", "owner", "gs"] {
            k.register_derived(p, b"seed");
        }
        k
    }

    fn receipt() -> CoverageReceipt {
        CoverageReceipt::create(&keys(), 1, "gs", "owner", 100.0, 45.0).unwrap()
    }

    fn attest(id: &str, who: &str, valid: bool) -> Attestation {
        Attestation::create(&keys(), id, who, valid).unwrap()
    }

    #[test]
    fn confirmation_requires_quorum_and_body() {
        let mut l = Ledger::new(LedgerConfig { quorum: 2, ..Default::default() });
        let id = "r1".to_string();
        l.insert_attestation(&attest(&id, "a", true));
        assert!(!l.is_confirmed(&id), "no body yet");
        l.insert_receipt(id.clone(), receipt());
        assert!(!l.is_confirmed(&id), "one vote < quorum");
        l.insert_attestation(&attest(&id, "b", true));
        assert!(l.is_confirmed(&id));
    }

    #[test]
    fn invalid_votes_dont_count() {
        let mut l = Ledger::new(LedgerConfig { quorum: 2, ..Default::default() });
        let id = "r1".to_string();
        l.insert_receipt(id.clone(), receipt());
        l.insert_attestation(&attest(&id, "a", false));
        l.insert_attestation(&attest(&id, "b", false));
        l.insert_attestation(&attest(&id, "c", true));
        assert!(!l.is_confirmed(&id));
        assert_eq!(l.entry(&id).unwrap().valid_votes(), 1);
    }

    #[test]
    fn duplicate_attestor_counted_once() {
        let mut l = Ledger::new(LedgerConfig { quorum: 2, ..Default::default() });
        let id = "r1".to_string();
        l.insert_receipt(id.clone(), receipt());
        l.insert_attestation(&attest(&id, "a", true));
        l.insert_attestation(&attest(&id, "a", true));
        assert!(!l.is_confirmed(&id), "same attestor twice is one vote");
        // First verdict wins: a later contradictory vote is ignored.
        l.insert_attestation(&attest(&id, "a", false));
        assert_eq!(l.entry(&id).unwrap().valid_votes(), 1);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn order_independence_crdt() {
        let id = "r1".to_string();
        let ops: Vec<Box<dyn Fn(&mut Ledger)>> = vec![
            Box::new({
                let id = id.clone();
                move |l: &mut Ledger| l.insert_receipt(id.clone(), receipt())
            }),
            Box::new({
                let id = id.clone();
                move |l: &mut Ledger| l.insert_attestation(&attest(&id, "a", true))
            }),
            Box::new({
                let id = id.clone();
                move |l: &mut Ledger| l.insert_attestation(&attest(&id, "b", true))
            }),
        ];
        // All 6 permutations converge to the same digest.
        let mut digests = std::collections::HashSet::new();
        for perm in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut l = Ledger::new(LedgerConfig::default());
            for &i in &perm {
                ops[i](&mut l);
            }
            digests.insert(l.confirmed_digest());
            assert!(l.is_confirmed(&id));
        }
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn rewards_split_owner_verifier() {
        let cfg = LedgerConfig { quorum: 1, reward_per_receipt: 10.0, verifier_share: 0.3 };
        let mut l = Ledger::new(cfg);
        l.insert_receipt("r1".into(), receipt());
        l.insert_attestation(&attest("r1", "a", true));
        let b = l.reward_balances();
        assert!((b["owner"] - 7.0).abs() < 1e-12);
        assert!((b["gs"] - 3.0).abs() < 1e-12);
        let total: f64 = b.values().sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn settlement_note_applies_once() {
        let k = keys();
        let mut l = Ledger::new(LedgerConfig::default());
        let mut transfers = BTreeMap::new();
        transfers.insert("a".to_string(), 3.0);
        transfers.insert("b".to_string(), -3.0);
        let note = crate::messages::SettlementNote::create(&k, 1, "a", transfers).unwrap();
        assert_eq!(l.apply_settlement_note(&note), SettlementOutcome::Applied);
        assert_eq!(l.apply_settlement_note(&note), SettlementOutcome::Duplicate);
        assert!((l.accounts().balance("a") - 3.0).abs() < 1e-9);
        assert!((l.accounts().balance("b") + 3.0).abs() < 1e-9);
        assert!(l.accounts().total_imbalance().abs() < 1e-9);
    }

    #[test]
    fn non_zero_sum_settlement_refused() {
        let mut acc = Accounts::new();
        let mut transfers = BTreeMap::new();
        transfers.insert("a".to_string(), 1.0);
        transfers.insert("b".to_string(), -0.5);
        assert_eq!(acc.apply_settlement("s1", &transfers), SettlementOutcome::Rejected);
        assert_eq!(acc.settlements_applied(), 0);
        assert_eq!(acc.balance("a"), 0.0);
    }

    #[test]
    fn credit_debit_round_trip_conserves() {
        let mut acc = Accounts::new();
        acc.credit("a", 10.0);
        acc.debit("a", 4.0);
        acc.transfer("a", "b", 2.5);
        assert!((acc.balance("a") - 3.5).abs() < 1e-9);
        assert!((acc.balance("b") - 2.5).abs() < 1e-9);
        assert!((acc.balance(TREASURY) + 6.0).abs() < 1e-9);
        assert!(acc.total_imbalance().abs() < 1e-9);
    }

    #[test]
    fn unconfirmed_receipts_mint_nothing() {
        let mut l = Ledger::new(LedgerConfig { quorum: 3, ..Default::default() });
        l.insert_receipt("r1".into(), receipt());
        l.insert_attestation(&attest("r1", "a", true));
        assert!(l.reward_balances().is_empty());
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }
}

#[cfg(test)]
mod settlement_proptests {
    use super::*;
    use proptest::prelude::*;

    /// One step of an arbitrary account-book workload.
    #[derive(Debug, Clone)]
    enum Op {
        Credit(u8, f64),
        Debit(u8, f64),
        Settle { id: u8, a: u8, b: u8, amount: f64 },
    }

    fn party(i: u8) -> String {
        format!("p{}", i % 5)
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), 0.0..100.0f64).prop_map(|(p, x)| Op::Credit(p, x)),
            (any::<u8>(), 0.0..100.0f64).prop_map(|(p, x)| Op::Debit(p, x)),
            (any::<u8>(), any::<u8>(), any::<u8>(), 0.0..100.0f64)
                .prop_map(|(id, a, b, x)| Op::Settle { id, a, b, amount: x }),
        ]
    }

    fn apply(acc: &mut Accounts, op: &Op) {
        match op {
            Op::Credit(p, x) => acc.credit(&party(*p), *x),
            Op::Debit(p, x) => acc.debit(&party(*p), *x),
            Op::Settle { id, a, b, amount } => {
                let mut transfers = BTreeMap::new();
                // A two-party zero-sum batch (a == b degenerates to a
                // self-transfer of 0, still zero-sum).
                *transfers.entry(party(*a)).or_insert(0.0) += *amount;
                *transfers.entry(party(*b)).or_insert(0.0) -= *amount;
                acc.apply_settlement(&format!("s{id}"), &transfers);
            }
        }
    }

    proptest! {
        /// Conservation: any interleaving of credit/debit/settle keeps the
        /// signed total at zero.
        #[test]
        fn arbitrary_interleavings_conserve(ops in proptest::collection::vec(op_strategy(), 0..64)) {
            let mut acc = Accounts::new();
            for op in &ops {
                apply(&mut acc, op);
                prop_assert!(acc.total_imbalance().abs() < 1e-6, "imbalance after {op:?}");
            }
        }

        /// Replaying every settlement a second time (in any position) must
        /// not change any balance: settlement application is idempotent.
        #[test]
        fn duplicate_settlement_replay_is_noop(ops in proptest::collection::vec(op_strategy(), 1..48)) {
            let mut reference = Accounts::new();
            for op in &ops {
                apply(&mut reference, op);
            }
            let mut replayed = Accounts::new();
            for op in &ops {
                apply(&mut replayed, op);
                if matches!(op, Op::Settle { .. }) {
                    apply(&mut replayed, op); // immediate replay
                }
            }
            // And a full tail replay of all settlements.
            for op in &ops {
                if matches!(op, Op::Settle { .. }) {
                    apply(&mut replayed, op);
                }
            }
            for (party, bal) in reference.balances() {
                prop_assert!((replayed.balance(party) - bal).abs() < 1e-6, "{party} diverged");
            }
            prop_assert_eq!(reference.settlements_applied(), replayed.settlements_applied());
        }
    }
}
