//! One validator's round state machine: no clock, no queue, no network.
//!
//! [`RoundMachine`] holds what a single validator knows — the height it
//! wants to commit, the votes it has counted, the (kind, height) pairs
//! it has voted at and the heights it has started executing — and maps
//! one [`Input`] to an ordered list of [`Output`]s. It never reads a
//! clock, schedules an event, samples a link or calls the application:
//! the driver (`Harness`, in `engine.rs`) does all of that, carrying
//! the outputs out in the order they are listed. This is the Round
//! State Machine / Vote Keeper half of malachite's split; the driver is
//! its Executor. Rounds live in the inputs: a timeout names the round
//! that expired, so the machine keeps no round counter.
//!
//! Prevotes and precommits are one [`Vote`] message in one sorted vote
//! set, and `RoundMachine::tally` is the one quorum check for both.

use scdb_sim::NodeId;
use std::collections::{BTreeSet, HashSet};

/// Index into the driver's block registry.
pub(crate) type BlockId = usize;

/// The proposer of `round` at `height` in a cluster of `nodes`.
pub(crate) fn proposer(nodes: usize, height: u64, round: u32) -> NodeId {
    ((height + round as u64) % nodes as u64) as usize
}

/// The two voting phases. Prevotes sort first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum VoteKind {
    Prevote,
    Precommit,
}

/// `from`'s vote of `kind` for `block` at `height`. Votes sort by
/// kind, height and block, so one block's voters are one range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Vote {
    pub(crate) kind: VoteKind,
    pub(crate) height: u64,
    pub(crate) block: BlockId,
    pub(crate) from: NodeId,
}

impl Vote {
    /// The same vote cast by `from`.
    fn by(self, from: NodeId) -> Vote {
        Vote { from, ..self }
    }
}

/// A proposed block at a height and round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Proposal {
    pub(crate) height: u64,
    pub(crate) round: u32,
    pub(crate) block: BlockId,
}

impl Proposal {
    /// `from`'s prevote for this proposal's block.
    fn prevote(self, from: NodeId) -> Vote {
        Vote {
            kind: VoteKind::Prevote,
            height: self.height,
            block: self.block,
            from,
        }
    }
}

/// What validators send one another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Message {
    Proposal(Proposal),
    Vote(Vote),
}

/// One thing that happened to this validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Input {
    /// A message from a peer arrived.
    Receive(Message),
    /// This node formed `Proposal`; it carries the node's own prevote.
    Proposed(Proposal),
    /// The proposer-failure timer of `round` at `height` fired.
    Timeout { height: u64, round: u32 },
    /// This node finished executing its block at `height`.
    Executed { height: u64 },
    /// Block sync: the chain decided `block` at `height`.
    Decided { height: u64, block: BlockId },
}

/// One thing the driver must do, in list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Output {
    /// Run CheckTx over the block's members; the prevote that follows
    /// leaves once that work is done.
    Check(BlockId),
    /// Send to every peer.
    Broadcast(Message),
    /// Execute the block (DeliverTx, then the commit hook).
    Execute { height: u64, block: BlockId },
    /// Form and propose a block for this round.
    Propose { height: u64, round: u32 },
    /// Start the proposal pacing of this height.
    NextHeight(u64),
}

/// One validator's round state.
#[derive(Debug, Default)]
pub(crate) struct RoundMachine {
    id: NodeId,
    nodes: usize,
    quorum: usize,
    /// Anchor the next height at the prevote quorum (§2.2) instead of
    /// the end of execution.
    pipelined: bool,
    /// Next height this node wants to commit.
    height: u64,
    /// Every vote this node has counted, its own included.
    votes: BTreeSet<Vote>,
    /// The (kind, height) pairs this node has voted at, once each.
    voted: HashSet<(VoteKind, u64)>,
    /// Heights whose block this node has started executing.
    executing: HashSet<u64>,
}

impl RoundMachine {
    pub(crate) fn new(id: NodeId, nodes: usize, quorum: usize, pipelined: bool) -> RoundMachine {
        RoundMachine {
            id,
            nodes,
            quorum,
            pipelined,
            ..RoundMachine::default()
        }
    }

    /// Next height this node wants to commit.
    pub(crate) fn height(&self) -> u64 {
        self.height
    }

    /// Every vote this node has counted, its own included.
    pub(crate) fn votes(&self) -> &BTreeSet<Vote> {
        &self.votes
    }

    pub(crate) fn handle(&mut self, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        match input {
            Input::Receive(Message::Proposal(p)) => {
                // One prevote per height: a second proposal — a later
                // round's, or an equivocating proposer's — gets none.
                if !self.voted.insert((VoteKind::Prevote, p.height)) {
                    return out;
                }
                out.push(Output::Check(p.block));
                // The proposal carries its proposer's implicit prevote;
                // without crediting it, two live validators plus the
                // proposer stall one short of quorum when a fourth node
                // is down.
                self.tally(p.prevote(proposer(self.nodes, p.height, p.round)), &mut out);
                let own = p.prevote(self.id);
                out.push(Output::Broadcast(Message::Vote(own)));
            }
            Input::Receive(Message::Vote(vote)) => self.tally(vote, &mut out),
            Input::Proposed(p) => {
                self.voted.insert((VoteKind::Prevote, p.height));
                self.tally(p.prevote(self.id), &mut out);
                out.push(Output::Broadcast(Message::Proposal(p)));
            }
            Input::Timeout { height, round } => {
                // Rotate the proposer.
                let round = round + 1;
                if proposer(self.nodes, height, round) == self.id {
                    out.push(Output::Propose { height, round });
                }
            }
            Input::Executed { height } => {
                self.height = self.height.max(height + 1);
                // Unpipelined, the next proposal waits for the commit.
                if !self.pipelined {
                    out.push(Output::NextHeight(height + 1));
                }
            }
            Input::Decided { height, block } => {
                if self.executing.insert(height) {
                    out.push(Output::Execute { height, block });
                }
            }
        }
        out
    }

    /// Counts `vote` and acts on the quorum it completes: a prevote
    /// quorum sends this node's one precommit for the height, a
    /// precommit quorum executes the block unless this node already
    /// executes that height or has moved past it. Counting a prevote
    /// also counts this node's own prevote for the same block, whether
    /// or not it sent one — the engine's rule since its first version,
    /// which the simulated timeline depends on.
    fn tally(&mut self, vote: Vote, out: &mut Vec<Output>) {
        self.votes.insert(vote);
        if vote.kind == VoteKind::Prevote {
            self.votes.insert(vote.by(self.id));
        }
        let voters = self.votes.range(vote.by(0)..=vote.by(NodeId::MAX));
        if voters.count() < self.quorum {
            return;
        }
        let Vote { height, block, .. } = vote;
        match vote.kind {
            VoteKind::Prevote => {
                if !self.voted.insert((VoteKind::Precommit, height)) {
                    return;
                }
                if self.pipelined {
                    out.push(Output::NextHeight(height + 1));
                }
                let own = Vote {
                    kind: VoteKind::Precommit,
                    ..vote.by(self.id)
                };
                out.push(Output::Broadcast(Message::Vote(own)));
                self.tally(own, out);
            }
            VoteKind::Precommit => {
                if self.height <= height && self.executing.insert(height) {
                    out.push(Output::Execute { height, block });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: BlockId = 7;
    const B: BlockId = 8;

    /// Node 0 of four (quorum 3), pipelined like the Tendermint profile.
    fn machine() -> RoundMachine {
        RoundMachine::new(0, 4, 3, true)
    }

    fn vote(kind: VoteKind, from: NodeId, block: BlockId) -> Input {
        Input::Receive(Message::Vote(Vote {
            kind,
            from,
            height: 0,
            block,
        }))
    }

    fn proposal(round: u32, block: BlockId) -> Input {
        Input::Receive(Message::Proposal(Proposal {
            height: 0,
            round,
            block,
        }))
    }

    fn broadcasts(outputs: &[Output], kind: VoteKind) -> Vec<Vote> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Broadcast(Message::Vote(v)) if v.kind == kind => Some(*v),
                _ => None,
            })
            .collect()
    }

    fn executes(outputs: &[Output]) -> Vec<Output> {
        outputs
            .iter()
            .filter(|o| matches!(o, Output::Execute { .. }))
            .copied()
            .collect()
    }

    #[test]
    fn equivocating_proposals_get_one_prevote_for_the_first() {
        let mut m = machine();
        let first = m.handle(proposal(0, A));
        let second = m.handle(proposal(0, B));
        assert_eq!(first.first(), Some(&Output::Check(A)));
        let prevotes = broadcasts(&first, VoteKind::Prevote);
        assert_eq!(prevotes.len(), 1);
        assert_eq!((prevotes[0].from, prevotes[0].block), (0, A));
        assert!(second.is_empty(), "{second:?}");
    }

    #[test]
    fn a_duplicated_vote_counts_once() {
        let mut m = machine();
        let mut outputs = Vec::new();
        for from in [1, 1, 2] {
            outputs.extend(m.handle(vote(VoteKind::Precommit, from, A)));
        }
        assert!(outputs.is_empty(), "two voters are short of 3: {outputs:?}");
        let third = m.handle(vote(VoteKind::Precommit, 3, A));
        assert_eq!(
            executes(&third),
            vec![Output::Execute {
                height: 0,
                block: A
            }]
        );
    }

    #[test]
    fn votes_before_their_proposal_still_form_the_quorum() {
        let mut m = machine();
        let mut outputs = m.handle(vote(VoteKind::Prevote, 1, A));
        outputs.extend(m.handle(vote(VoteKind::Prevote, 2, A)));
        outputs.extend(m.handle(proposal(0, A)));
        let precommits = broadcasts(&outputs, VoteKind::Precommit);
        assert_eq!(precommits.len(), 1, "{outputs:?}");
        assert_eq!((precommits[0].from, precommits[0].block), (0, A));
        // The late proposal is still checked and prevoted.
        assert_eq!(broadcasts(&outputs, VoteKind::Prevote).len(), 1);
        assert!(outputs.contains(&Output::Check(A)));
    }

    #[test]
    fn two_precommit_quorums_at_one_height_execute_once() {
        let mut m = machine();
        let mut outputs = Vec::new();
        for block in [A, B] {
            for from in 1..4 {
                outputs.extend(m.handle(vote(VoteKind::Precommit, from, block)));
            }
        }
        assert_eq!(
            executes(&outputs),
            vec![Output::Execute {
                height: 0,
                block: A
            }]
        );
        // Block sync of the same height executes nothing more.
        assert!(m
            .handle(Input::Decided {
                height: 0,
                block: B
            })
            .is_empty());
    }

    #[test]
    fn a_timeout_proposes_only_on_the_next_rounds_proposer() {
        // Height 2, round 0 times out: round 1's proposer is (2 + 1) % 4.
        for id in 0..4 {
            let mut m = RoundMachine::new(id, 4, 3, true);
            let outputs = m.handle(Input::Timeout {
                height: 2,
                round: 0,
            });
            if id == 3 {
                assert_eq!(
                    outputs,
                    vec![Output::Propose {
                        height: 2,
                        round: 1
                    }]
                );
            } else {
                assert!(outputs.is_empty(), "node {id}: {outputs:?}");
            }
        }
    }

    #[test]
    fn the_next_height_is_anchored_by_the_profile() {
        let quorum = |m: &mut RoundMachine| {
            let mut outputs = m.handle(proposal(0, A));
            for from in [1, 2] {
                outputs.extend(m.handle(vote(VoteKind::Prevote, from, A)));
            }
            outputs
        };
        let mut pipelined = machine();
        let outputs = quorum(&mut pipelined);
        assert!(outputs.contains(&Output::NextHeight(1)));
        assert!(pipelined.handle(Input::Executed { height: 0 }).is_empty());
        assert_eq!(pipelined.height(), 1);

        let mut sequential = RoundMachine::new(0, 4, 3, false);
        let outputs = quorum(&mut sequential);
        assert!(!outputs.contains(&Output::NextHeight(1)));
        assert_eq!(
            sequential.handle(Input::Executed { height: 0 }),
            vec![Output::NextHeight(1)]
        );
    }
}
