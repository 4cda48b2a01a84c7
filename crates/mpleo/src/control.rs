//! Multi-party satellite control: m-of-n threshold command approval.
//!
//! The paper's §4 "Multi-party control" open question: space-based trusted
//! execution environments "can potentially be utilized to provide
//! cryptographic guarantees on what runs on the satellite and how they are
//! controlled (e.g., by consensus from multiple parties)". This module is
//! the control-plane state machine such a TEE would enforce: sensitive
//! commands (deorbit, safe-mode, beam shutdown over a region) execute only
//! after a quorum of parties approves; routine commands need only the
//! owner. The machine is deterministic and replayable, so every party can
//! audit the command history.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Commands a party can issue to a satellite.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Command {
    /// Routine station-keeping / telemetry adjustments (owner-only).
    Routine {
        /// Opaque description of the adjustment.
        description: String,
    },
    /// Enter safe mode (quorum: it silences the satellite for everyone).
    SafeMode,
    /// Stop serving a geographic region (quorum: this is exactly the
    /// "operator shuts down connectivity over a region" abuse the paper is
    /// designed to prevent).
    RegionShutdown {
        /// Region name being denied service.
        region: String,
    },
    /// Deorbit the satellite (quorum; irreversible).
    Deorbit,
}

impl Command {
    /// Whether this command requires a multi-party quorum.
    pub fn requires_quorum(&self) -> bool {
        !matches!(self, Command::Routine { .. })
    }
}

/// Lifecycle of a proposed command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProposalState {
    /// Collecting approvals.
    Pending,
    /// Approved by quorum and executed.
    Executed,
    /// Rejected by enough parties to make quorum impossible.
    Rejected,
}

/// A command proposal with its votes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Proposal {
    /// Proposal id (caller-assigned, unique).
    pub id: u64,
    /// Target satellite.
    pub sat_id: u32,
    /// The proposing party.
    pub proposer: String,
    /// The command.
    pub command: Command,
    /// Approvals (party -> true) and rejections (party -> false).
    pub votes: BTreeMap<String, bool>,
    /// Current state.
    pub state: ProposalState,
}

/// Errors from the control state machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlError {
    /// Proposal id already used.
    DuplicateProposal(u64),
    /// Unknown proposal id.
    UnknownProposal(u64),
    /// The voting party is not a member of the control group.
    UnknownParty(String),
    /// The proposal is no longer pending.
    Closed(u64),
    /// Only the satellite owner may issue routine commands.
    NotOwner {
        /// The party that tried.
        party: String,
        /// The actual owner.
        owner: String,
    },
}

/// The control group for one constellation: member parties, satellite
/// ownership, and the quorum threshold enforced on sensitive commands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlGroup {
    members: BTreeSet<String>,
    /// Satellite id -> owning party.
    owners: BTreeMap<u32, String>,
    /// Approvals required for quorum commands (m of n).
    pub quorum: usize,
    proposals: BTreeMap<u64, Proposal>,
    /// Executed commands, in execution order (the auditable log).
    pub executed: Vec<u64>,
}

impl ControlGroup {
    /// Create a group. `quorum` must be achievable (`<= members`) and
    /// non-trivial (`>= 2`) so no single party controls shared satellites.
    pub fn new(members: impl IntoIterator<Item = String>, quorum: usize) -> Self {
        let members: BTreeSet<String> = members.into_iter().collect();
        assert!(quorum >= 2, "quorum below 2 defeats multi-party control");
        assert!(quorum <= members.len(), "quorum unachievable");
        ControlGroup {
            members,
            owners: BTreeMap::new(),
            quorum,
            proposals: BTreeMap::new(),
            executed: Vec::new(),
        }
    }

    /// Register a satellite's owner.
    pub fn register_satellite(&mut self, sat_id: u32, owner: impl Into<String>) {
        let owner = owner.into();
        assert!(self.members.contains(&owner), "owner must be a member");
        self.owners.insert(sat_id, owner);
    }

    /// Propose a command. Routine commands from the owner execute
    /// immediately; quorum commands enter the pending state with the
    /// proposer's implicit approval.
    pub fn propose(
        &mut self,
        id: u64,
        sat_id: u32,
        proposer: &str,
        command: Command,
    ) -> Result<ProposalState, ControlError> {
        if self.proposals.contains_key(&id) {
            return Err(ControlError::DuplicateProposal(id));
        }
        if !self.members.contains(proposer) {
            return Err(ControlError::UnknownParty(proposer.to_string()));
        }
        let mut proposal = Proposal {
            id,
            sat_id,
            proposer: proposer.to_string(),
            command,
            votes: BTreeMap::new(),
            state: ProposalState::Pending,
        };
        if !proposal.command.requires_quorum() {
            let owner = self.owners.get(&sat_id).cloned().unwrap_or_default();
            if owner != proposer {
                return Err(ControlError::NotOwner { party: proposer.to_string(), owner });
            }
            proposal.state = ProposalState::Executed;
            self.executed.push(id);
            self.proposals.insert(id, proposal);
            return Ok(ProposalState::Executed);
        }
        proposal.votes.insert(proposer.to_string(), true);
        let state = self.evaluate(&mut proposal);
        self.proposals.insert(id, proposal);
        Ok(state)
    }

    /// Cast a vote on a pending proposal. Idempotent per party (first vote
    /// wins). Returns the proposal's state after the vote.
    pub fn vote(
        &mut self,
        id: u64,
        party: &str,
        approve: bool,
    ) -> Result<ProposalState, ControlError> {
        if !self.members.contains(party) {
            return Err(ControlError::UnknownParty(party.to_string()));
        }
        let members = self.members.len();
        let quorum = self.quorum;
        let executed = &mut self.executed;
        let proposal = self.proposals.get_mut(&id).ok_or(ControlError::UnknownProposal(id))?;
        if proposal.state != ProposalState::Pending {
            return Err(ControlError::Closed(id));
        }
        proposal.votes.entry(party.to_string()).or_insert(approve);
        let approvals = proposal.votes.values().filter(|&&v| v).count();
        let rejections = proposal.votes.values().filter(|&&v| !v).count();
        if approvals >= quorum {
            proposal.state = ProposalState::Executed;
            executed.push(id);
        } else if members - rejections < quorum {
            proposal.state = ProposalState::Rejected;
        }
        Ok(proposal.state)
    }

    fn evaluate(&mut self, proposal: &mut Proposal) -> ProposalState {
        let approvals = proposal.votes.values().filter(|&&v| v).count();
        if approvals >= self.quorum {
            proposal.state = ProposalState::Executed;
            self.executed.push(proposal.id);
        }
        proposal.state
    }

    /// Look up a proposal.
    pub fn proposal(&self, id: u64) -> Option<&Proposal> {
        self.proposals.get(&id)
    }

    /// Digest of the executed-command log (for cross-replica comparison).
    pub fn log_digest(&self) -> u64 {
        // FNV-1a over the executed ids: cheap and deterministic.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in &self.executed {
            for b in id.to_be_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> ControlGroup {
        let mut g = ControlGroup::new(["a", "b", "c", "d", "e"].map(String::from), 3);
        g.register_satellite(1, "a");
        g.register_satellite(2, "b");
        g
    }

    #[test]
    fn routine_owner_executes_immediately() {
        let mut g = group();
        let st =
            g.propose(1, 1, "a", Command::Routine { description: "trim attitude".into() }).unwrap();
        assert_eq!(st, ProposalState::Executed);
        assert_eq!(g.executed, vec![1]);
    }

    #[test]
    fn routine_non_owner_rejected() {
        let mut g = group();
        let err =
            g.propose(1, 1, "b", Command::Routine { description: "hijack".into() }).unwrap_err();
        assert_eq!(err, ControlError::NotOwner { party: "b".into(), owner: "a".into() });
        assert!(g.executed.is_empty());
    }

    #[test]
    fn quorum_command_needs_m_approvals() {
        let mut g = group();
        // Even the owner cannot unilaterally shut down a region — the
        // paper's core trust property.
        let st = g.propose(1, 1, "a", Command::RegionShutdown { region: "Taiwan".into() }).unwrap();
        assert_eq!(st, ProposalState::Pending);
        assert_eq!(g.vote(1, "b", true).unwrap(), ProposalState::Pending);
        assert_eq!(g.vote(1, "c", true).unwrap(), ProposalState::Executed);
        assert_eq!(g.executed, vec![1]);
    }

    #[test]
    fn rejection_closes_when_quorum_impossible() {
        let mut g = group();
        g.propose(1, 1, "a", Command::Deorbit).unwrap();
        // 3 of 5 must approve; after 3 rejections only 2 possible approvers
        // remain (incl. proposer's yes) -> impossible.
        g.vote(1, "b", false).unwrap();
        g.vote(1, "c", false).unwrap();
        let st = g.vote(1, "d", false).unwrap();
        assert_eq!(st, ProposalState::Rejected);
        // Further votes are refused.
        assert_eq!(g.vote(1, "e", true).unwrap_err(), ControlError::Closed(1));
        assert!(g.executed.is_empty());
    }

    #[test]
    fn duplicate_votes_dont_stack() {
        let mut g = group();
        g.propose(1, 1, "a", Command::SafeMode).unwrap();
        g.vote(1, "b", true).unwrap();
        // b votes again (and even flips): first vote stands, still pending.
        let st = g.vote(1, "b", false).unwrap();
        assert_eq!(st, ProposalState::Pending);
        assert!(g.proposal(1).unwrap().votes["b"]);
    }

    #[test]
    fn duplicate_proposal_id_rejected() {
        let mut g = group();
        g.propose(1, 1, "a", Command::SafeMode).unwrap();
        assert_eq!(
            g.propose(1, 2, "b", Command::SafeMode).unwrap_err(),
            ControlError::DuplicateProposal(1)
        );
    }

    #[test]
    fn outsiders_cannot_propose_or_vote() {
        let mut g = group();
        assert_eq!(
            g.propose(1, 1, "mallory", Command::Deorbit).unwrap_err(),
            ControlError::UnknownParty("mallory".into())
        );
        g.propose(2, 1, "a", Command::Deorbit).unwrap();
        assert_eq!(
            g.vote(2, "mallory", true).unwrap_err(),
            ControlError::UnknownParty("mallory".into())
        );
    }

    #[test]
    fn replicas_replaying_same_events_agree() {
        let events = |g: &mut ControlGroup| {
            g.propose(1, 1, "a", Command::SafeMode).unwrap();
            g.vote(1, "b", true).unwrap();
            g.vote(1, "c", true).unwrap();
            g.propose(2, 2, "b", Command::Routine { description: "x".into() }).unwrap();
        };
        let mut g1 = group();
        let mut g2 = group();
        events(&mut g1);
        events(&mut g2);
        assert_eq!(g1.log_digest(), g2.log_digest());
        assert_eq!(g1.executed, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "quorum below 2")]
    fn single_party_quorum_forbidden() {
        ControlGroup::new(["a", "b"].map(String::from), 1);
    }
}
