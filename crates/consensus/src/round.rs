//! One validator's round state machine: Tendermint's Algorithm 1
//! (Buchman, Kwon & Milosevic, arXiv 1807.04938) with no clock, no
//! queue and no network.
//!
//! [`RoundMachine`] holds what a single validator knows and maps one
//! [`Input`] to an ordered list of [`Output`]s. It never reads a clock,
//! schedules an event, samples a link or calls the application: the
//! driver (`Harness`, in `engine.rs`) does all of that, carrying the
//! outputs out in the order they are listed. This is the Round State
//! Machine / Vote Keeper half of malachite's split; the driver is its
//! Executor.
//!
//! Each undecided height runs its own instance of Algorithm 1 (round,
//! step, locked and valid value and round, the proposals and votes it
//! heard), so a pipelined cluster votes on the next height before it
//! decides this one. Decided heights execute in height order, and a
//! height's instance is dropped once it has executed. The comments on
//! the rule arms cite the algorithm's line numbers; DESIGN-consensus.md
//! has the table.
//!
//! Messages carry no voter. The driver passes the link sender with
//! every message, and a vote counts only as that sender's vote; a
//! proposal is accepted only from its round's proposer and counts as
//! the proposer's prevote for its block. `valid(v)` is always true:
//! CheckTx prices a block but never vetoes it, and a member that fails
//! is rejected at delivery, as before.

use scdb_sim::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A block's identity: the digest of its body.
pub(crate) type BlockId = u64;

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

/// A vote of `kind` at `height` and `round` for `block`, or for nil.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Vote {
    pub(crate) kind: VoteKind,
    pub(crate) height: u64,
    pub(crate) round: u32,
    pub(crate) block: Option<BlockId>,
}

/// `block` proposed at `height` and `round`. `valid_round` is the round
/// of the prevote quorum a re-proposed block carries (the algorithm's
/// `vr`; `None` is −1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Proposal {
    pub(crate) height: u64,
    pub(crate) round: u32,
    pub(crate) block: BlockId,
    pub(crate) valid_round: Option<u32>,
}

/// What validators send one another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Message {
    Proposal(Proposal),
    Vote(Vote),
}

impl Message {
    pub(crate) fn height(&self) -> u64 {
        match self {
            Message::Proposal(p) => p.height,
            Message::Vote(v) => v.height,
        }
    }
}

/// The three steps of a round, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Step {
    #[default]
    Propose,
    Prevote,
    Precommit,
}

/// A timeout: the `step` of `round` at `height` waited too long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Timer {
    pub(crate) height: u64,
    pub(crate) round: u32,
    pub(crate) step: Step,
}

/// One thing that happened to this validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Input {
    /// `msg` arrived over the link from `from`.
    Receive { from: NodeId, msg: Message },
    /// The pacing of `height` is due: round 0's proposer proposes.
    Start { height: u64 },
    /// This node formed the proposal it was asked for.
    Proposed(Proposal),
    /// A timer this node armed fired.
    Timeout(Timer),
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
    Check { height: u64, block: BlockId },
    /// Send to every peer.
    Broadcast(Message),
    /// Execute the block (DeliverTx, then the commit hook).
    Execute { height: u64, block: BlockId },
    /// Form a new block and propose it for this round.
    Propose { height: u64, round: u32 },
    /// Arm a timer for one round timeout.
    Arm(Timer),
    /// Start the proposal pacing of this height.
    NextHeight(u64),
}

/// The fixed facts every instance decides by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Cluster {
    id: NodeId,
    nodes: usize,
    /// Votes for a quorum: more than two thirds (2f + 1 at n = 3f + 1).
    quorum: usize,
    /// f + 1.
    skip: usize,
    /// Anchor the next height at the prevote quorum (§2.2) instead of
    /// the end of execution.
    pipelined: bool,
}

/// Algorithm 1's state for one height.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Instance {
    height: u64,
    round: u32,
    step: Step,
    locked: Option<(u32, BlockId)>,
    valid: Option<(u32, BlockId)>,
    decision: Option<BlockId>,
    /// Every proposal accepted from its round's proposer.
    proposals: BTreeSet<Proposal>,
    /// Every (round, kind, block, voter) heard, this node's own votes
    /// included, so one block's voters are one range.
    votes: BTreeSet<(u32, VoteKind, Option<BlockId>, NodeId)>,
    /// Lines 34, 36 and 47 fire once per round; set for `round`.
    fired: [bool; 3],
    /// What this node sent at this height, for re-sending on recovery.
    sent: Vec<Message>,
}

const PREVOTE_TIMER: usize = 0;
const POLKA: usize = 1;
const PRECOMMIT_TIMER: usize = 2;

impl Instance {
    /// Voters for `block` in `round`.
    fn count(&self, round: u32, kind: VoteKind, block: Option<BlockId>) -> usize {
        let (lo, hi) = ((round, kind, block, 0), (round, kind, block, NodeId::MAX));
        self.votes.range(lo..=hi).count()
    }

    /// Whether `quorum` distinct nodes voted `kind` in `round`, for
    /// whatever block.
    fn quorate(&self, round: u32, kind: VoteKind, quorum: usize) -> bool {
        let (lo, hi) = (
            (round, kind, None, 0),
            (round, kind, Some(BlockId::MAX), NodeId::MAX),
        );
        let votes = self.votes.range(lo..=hi);
        votes.clone().count() >= quorum
            && votes.map(|v| v.3).collect::<BTreeSet<_>>().len() >= quorum
    }

    fn at(&self, round: u32) -> impl Iterator<Item = Proposal> + '_ {
        self.proposals
            .iter()
            .copied()
            .filter(move |p| p.round == round)
    }

    fn send(&mut self, c: &Cluster, msg: Message, out: &mut Vec<Output>) {
        if let Message::Vote(v) = msg {
            self.votes.insert((v.round, v.kind, v.block, c.id));
        }
        self.sent.push(msg);
        out.push(Output::Broadcast(msg));
    }

    fn vote(&mut self, c: &Cluster, kind: VoteKind, block: Option<BlockId>, out: &mut Vec<Output>) {
        if let (VoteKind::Prevote, Some(block)) = (kind, block) {
            out.push(Output::Check {
                height: self.height,
                block,
            });
        }
        let (height, round) = (self.height, self.round);
        let vote = Vote {
            kind,
            height,
            round,
            block,
        };
        self.step = match kind {
            VoteKind::Prevote => Step::Prevote,
            VoteKind::Precommit => Step::Precommit,
        };
        self.send(c, Message::Vote(vote), out);
    }

    /// A proposal sent or heard; it counts as its proposer's prevote.
    fn accept(&mut self, p: Proposal, from: NodeId) {
        self.proposals.insert(p);
        self.votes
            .insert((p.round, VoteKind::Prevote, Some(p.block), from));
    }

    /// Lines 11–21: StartRound.
    fn start_round(&mut self, c: &Cluster, round: u32, out: &mut Vec<Output>) {
        let height = self.height;
        self.round = round;
        self.step = Step::Propose;
        self.fired = [false; 3];
        if proposer(c.nodes, height, round) == c.id {
            match self.valid {
                // Lines 15–16, 19: re-propose the valid value.
                Some((valid_round, block)) => self.propose(
                    c,
                    Proposal {
                        height,
                        round,
                        block,
                        valid_round: Some(valid_round),
                    },
                    out,
                ),
                // Line 18: getValue() is the driver's block forming.
                None => out.push(Output::Propose { height, round }),
            }
        }
        // Line 21, armed on the proposer too: one with nothing to
        // propose then prevotes nil like its peers.
        out.push(Output::Arm(Timer {
            height,
            round,
            step: Step::Propose,
        }));
    }

    /// Line 19: broadcast this node's proposal, its implicit prevote.
    fn propose(&mut self, c: &Cluster, p: Proposal, out: &mut Vec<Output>) {
        if p.round != self.round || self.step != Step::Propose {
            return;
        }
        self.accept(p, c.id);
        self.step = Step::Prevote;
        self.send(c, Message::Proposal(p), out);
    }

    /// Fires the first rule whose condition holds; false when none does.
    fn rule(&mut self, c: &Cluster, out: &mut Vec<Output>) -> bool {
        let (height, round) = (self.height, self.round);
        // Line 49: a proposal with 2f+1 precommits, in any round.
        let decided = self
            .proposals
            .iter()
            .find(|p| self.count(p.round, VoteKind::Precommit, Some(p.block)) >= c.quorum)
            .map(|p| p.block);
        if decided.is_some() {
            self.decision = decided;
            return true;
        }
        // Line 55: f+1 senders of any message in a later round.
        let later = self.votes.range((round + 1, VoteKind::Prevote, None, 0)..);
        if later.clone().next().is_some() {
            let mut senders: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
            for &(r, _, _, from) in later {
                senders.entry(r).or_default().insert(from);
            }
            if let Some((&skip, _)) = senders.iter().rev().find(|(_, s)| s.len() >= c.skip) {
                self.start_round(c, skip, out);
                return true;
            }
        }
        if self.step == Step::Propose {
            let locked = self.locked;
            let prevote = self.at(round).find_map(|p| match p.valid_round {
                // Lines 22–23: a fresh proposal.
                None => Some(locked.is_none_or(|(_, v)| v == p.block).then_some(p.block)),
                // Lines 28–29: a re-proposal with its prevote quorum.
                Some(vr)
                    if vr < round
                        && self.count(vr, VoteKind::Prevote, Some(p.block)) >= c.quorum =>
                {
                    let allowed = locked.is_none_or(|(lr, v)| lr <= vr || v == p.block);
                    Some(allowed.then_some(p.block))
                }
                _ => None,
            });
            // Lines 24/26 and 30/32.
            if let Some(block) = prevote {
                self.vote(c, VoteKind::Prevote, block, out);
                return true;
            }
        }
        if self.step >= Step::Prevote && !self.fired[POLKA] {
            let polka = self
                .at(round)
                .find(|p| self.count(round, VoteKind::Prevote, Some(p.block)) >= c.quorum);
            // Lines 36–43: a proposal with 2f+1 prevotes.
            if let Some(p) = polka {
                self.fired[POLKA] = true;
                if self.step == Step::Prevote {
                    self.locked = Some((round, p.block));
                    if c.pipelined {
                        out.push(Output::NextHeight(height + 1));
                    }
                    self.vote(c, VoteKind::Precommit, Some(p.block), out);
                }
                self.valid = Some((round, p.block));
                return true;
            }
        }
        if self.step == Step::Prevote {
            // Lines 44–46: 2f+1 nil prevotes.
            if self.count(round, VoteKind::Prevote, None) >= c.quorum {
                self.vote(c, VoteKind::Precommit, None, out);
                return true;
            }
            // Lines 34–35: 2f+1 prevotes of any kind.
            if !self.fired[PREVOTE_TIMER] && self.quorate(round, VoteKind::Prevote, c.quorum) {
                self.fired[PREVOTE_TIMER] = true;
                out.push(Output::Arm(Timer {
                    height,
                    round,
                    step: Step::Prevote,
                }));
                return true;
            }
        }
        // Lines 47–48: 2f+1 precommits of any kind.
        if !self.fired[PRECOMMIT_TIMER] && self.quorate(round, VoteKind::Precommit, c.quorum) {
            self.fired[PRECOMMIT_TIMER] = true;
            out.push(Output::Arm(Timer {
                height,
                round,
                step: Step::Precommit,
            }));
            return true;
        }
        false
    }

    /// Lines 57–67: a timeout of the current round and step.
    fn timeout(&mut self, c: &Cluster, timer: Timer, out: &mut Vec<Output>) {
        if timer.round != self.round {
            return;
        }
        match (timer.step, self.step) {
            // Lines 57–60.
            (Step::Propose, Step::Propose) => self.vote(c, VoteKind::Prevote, None, out),
            // Lines 61–64.
            (Step::Prevote, Step::Prevote) => self.vote(c, VoteKind::Precommit, None, out),
            // Lines 65–67.
            (Step::Precommit, _) => self.start_round(c, self.round + 1, out),
            _ => {}
        }
    }
}

/// One validator's round state.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RoundMachine {
    cluster: Cluster,
    /// Next height this node will execute; every lower one has
    /// started executing.
    height: u64,
    /// Algorithm 1 for each height this node has heard of and not yet
    /// finished executing; a decided one ignores further input.
    instances: BTreeMap<u64, Instance>,
}

impl RoundMachine {
    pub(crate) fn new(
        id: NodeId,
        nodes: usize,
        quorum: usize,
        faults: usize,
        pipelined: bool,
    ) -> RoundMachine {
        RoundMachine {
            cluster: Cluster {
                id,
                nodes,
                quorum,
                skip: faults + 1,
                pipelined,
            },
            ..RoundMachine::default()
        }
    }

    /// Next height this node will execute.
    pub(crate) fn height(&self) -> u64 {
        self.height
    }

    /// Every proposal and vote this node sent at a height it has not
    /// finished executing, in height order.
    pub(crate) fn sent(&self) -> impl Iterator<Item = Message> + '_ {
        self.instances.values().flat_map(|i| i.sent.iter().copied())
    }

    /// The undecided instance of `height`, created on first use; `None`
    /// once the height is decided.
    fn instance(&mut self, height: u64) -> Option<&mut Instance> {
        if height < self.height {
            return None;
        }
        let instance = self.instances.entry(height).or_insert_with(|| Instance {
            height,
            ..Instance::default()
        });
        instance.decision.is_none().then_some(instance)
    }

    pub(crate) fn handle(&mut self, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        let c = self.cluster;
        let height = match input {
            Input::Receive { from, msg } => {
                let Some(i) = self.instance(msg.height()) else {
                    return out;
                };
                match msg {
                    Message::Proposal(p) if from == proposer(c.nodes, p.height, p.round) => {
                        i.accept(p, from)
                    }
                    Message::Proposal(_) => return out,
                    Message::Vote(v) => {
                        i.votes.insert((v.round, v.kind, v.block, from));
                    }
                }
                msg.height()
            }
            Input::Start { height } => {
                let Some(i) = self.instance(height) else {
                    return out;
                };
                if i.round == 0 && i.step == Step::Propose && proposer(c.nodes, height, 0) == c.id {
                    out.push(Output::Propose { height, round: 0 });
                }
                return out;
            }
            Input::Proposed(p) => {
                let Some(i) = self.instance(p.height) else {
                    return out;
                };
                i.propose(&c, p, &mut out);
                p.height
            }
            Input::Timeout(timer) => {
                let Some(i) = self.instance(timer.height) else {
                    return out;
                };
                i.timeout(&c, timer, &mut out);
                timer.height
            }
            Input::Executed { height } => {
                // Bounded state: an executed height's votes, rounds and
                // lock are never read again.
                self.instances.remove(&height);
                if !c.pipelined {
                    out.push(Output::NextHeight(height + 1));
                }
                return out;
            }
            Input::Decided { height, block } => {
                if let Some(i) = self.instance(height) {
                    i.decision = Some(block);
                }
                height
            }
        };
        if let Some(i) = self.instance(height) {
            while i.rule(&c, &mut out) && i.decision.is_none() {}
        }
        self.execute_decided(&mut out);
        out
    }

    /// Executes decided heights in order, from the next one on.
    fn execute_decided(&mut self, out: &mut Vec<Output>) {
        while let Some(block) = self.instances.get(&self.height).and_then(|i| i.decision) {
            out.push(Output::Execute {
                height: self.height,
                block,
            });
            self.height += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: BlockId = 0xA;
    const B: BlockId = 0xB;

    /// Node `id` of four (quorum 3, f = 1), pipelined like the
    /// Tendermint profile.
    fn machine(id: NodeId) -> RoundMachine {
        RoundMachine::new(id, 4, 3, 1, true)
    }

    fn proposal(round: u32, block: BlockId, valid_round: Option<u32>) -> Message {
        Message::Proposal(Proposal {
            height: 0,
            round,
            block,
            valid_round,
        })
    }

    fn vote(kind: VoteKind, round: u32, block: Option<BlockId>) -> Message {
        Message::Vote(Vote {
            kind,
            height: 0,
            round,
            block,
        })
    }

    fn hear(m: &mut RoundMachine, from: NodeId, msg: Message) -> Vec<Output> {
        m.handle(Input::Receive { from, msg })
    }

    fn sent(outputs: &[Output]) -> Vec<Message> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Broadcast(msg) => Some(*msg),
                _ => None,
            })
            .collect()
    }

    fn timeout(round: u32, step: Step) -> Input {
        Input::Timeout(Timer {
            height: 0,
            round,
            step,
        })
    }

    /// Node 2 prevotes A on the round-0 proposal (node 0's prevote)
    /// and sees node 1 prevote A: it locks A and precommits it.
    fn locked_on_a() -> RoundMachine {
        let mut m = machine(2);
        hear(&mut m, 0, proposal(0, A, None));
        let outputs = hear(&mut m, 1, vote(VoteKind::Prevote, 0, Some(A)));
        assert_eq!(sent(&outputs), [vote(VoteKind::Precommit, 0, Some(A))]);
        m
    }

    /// `locked_on_a`, moved to round 1 by nil precommits and the
    /// precommit timeout.
    fn locked_on_a_in_round_1() -> RoundMachine {
        let mut m = locked_on_a();
        hear(&mut m, 1, vote(VoteKind::Precommit, 0, None));
        let outputs = hear(&mut m, 3, vote(VoteKind::Precommit, 0, None));
        let timer = Timer {
            height: 0,
            round: 0,
            step: Step::Precommit,
        };
        assert_eq!(outputs, [Output::Arm(timer)]);
        m.handle(Input::Timeout(timer));
        m
    }

    /// A vote counts only as its link sender's: three precommits over
    /// one link are one voter's.
    #[test]
    fn a_duplicated_vote_counts_once() {
        let mut m = machine(1);
        let outputs = hear(&mut m, 0, proposal(0, A, None));
        assert_eq!(
            outputs[0],
            Output::Check {
                height: 0,
                block: A
            }
        );
        assert_eq!(sent(&outputs), [vote(VoteKind::Prevote, 0, Some(A))]);
        for _ in 0..3 {
            assert!(hear(&mut m, 2, vote(VoteKind::Precommit, 0, Some(A))).is_empty());
        }
        assert!(hear(&mut m, 3, vote(VoteKind::Precommit, 0, Some(A))).is_empty());
        let third = hear(&mut m, 0, vote(VoteKind::Precommit, 0, Some(A)));
        assert_eq!(
            third,
            [Output::Execute {
                height: 0,
                block: A
            }]
        );
    }

    #[test]
    fn a_proposal_counts_only_from_its_rounds_proposer() {
        let mut m = machine(1);
        assert!(hear(&mut m, 2, proposal(0, A, None)).is_empty());
        // Nor does it count as node 2's prevote: with node 0's and its
        // own, node 1 would precommit.
        let outputs = hear(&mut m, 0, proposal(0, A, None));
        assert_eq!(sent(&outputs), [vote(VoteKind::Prevote, 0, Some(A))]);
    }

    #[test]
    fn equivocating_proposals_get_one_prevote_for_the_first() {
        let mut m = machine(1);
        let first = hear(&mut m, 0, proposal(0, A, None));
        let second = hear(&mut m, 0, proposal(0, B, None));
        assert_eq!(sent(&first), [vote(VoteKind::Prevote, 0, Some(A))]);
        assert!(second.is_empty(), "{second:?}");
    }

    #[test]
    fn votes_before_their_proposal_still_form_the_quorum() {
        let mut m = machine(1);
        assert!(hear(&mut m, 2, vote(VoteKind::Prevote, 0, Some(A))).is_empty());
        assert!(hear(&mut m, 3, vote(VoteKind::Prevote, 0, Some(A))).is_empty());
        let outputs = hear(&mut m, 0, proposal(0, A, None));
        assert_eq!(
            sent(&outputs),
            [
                vote(VoteKind::Prevote, 0, Some(A)),
                vote(VoteKind::Precommit, 0, Some(A))
            ]
        );
    }

    #[test]
    fn two_precommit_quorums_at_one_height_execute_once() {
        let mut m = machine(2);
        hear(&mut m, 0, proposal(0, A, None));
        hear(&mut m, 1, proposal(1, B, None));
        let mut outputs = Vec::new();
        for (round, block) in [(0, A), (1, B)] {
            for from in [0, 1, 3] {
                let precommit = vote(VoteKind::Precommit, round, Some(block));
                outputs.extend(hear(&mut m, from, precommit));
            }
        }
        let executes: Vec<Output> = outputs
            .into_iter()
            .filter(|o| matches!(o, Output::Execute { .. }))
            .collect();
        assert_eq!(
            executes,
            [Output::Execute {
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
    fn a_locked_node_prevotes_nil_on_another_block() {
        let mut m = locked_on_a_in_round_1();
        let outputs = hear(&mut m, 1, proposal(1, B, None));
        assert_eq!(sent(&outputs), [vote(VoteKind::Prevote, 1, None)]);
    }

    #[test]
    fn a_reproposal_with_its_prevote_quorum_is_prevoted() {
        let mut m = locked_on_a_in_round_1();
        let outputs = hear(&mut m, 1, proposal(1, A, Some(0)));
        assert_eq!(sent(&outputs), [vote(VoteKind::Prevote, 1, Some(A))]);
        // Without the quorum at its valid round a node waits.
        let mut fresh = machine(3);
        assert!(hear(&mut fresh, 1, proposal(1, A, Some(0))).is_empty());
    }

    #[test]
    fn the_round_1_proposer_re_proposes_its_valid_value() {
        let mut m = machine(1);
        hear(&mut m, 0, proposal(0, A, None));
        hear(&mut m, 2, vote(VoteKind::Prevote, 0, Some(A)));
        hear(&mut m, 3, vote(VoteKind::Prevote, 0, Some(A)));
        hear(&mut m, 2, vote(VoteKind::Precommit, 0, None));
        hear(&mut m, 3, vote(VoteKind::Precommit, 0, None));
        let outputs = m.handle(timeout(0, Step::Precommit));
        assert_eq!(sent(&outputs), [proposal(1, A, Some(0))]);
    }

    /// Round 0 of height 0 times out step by step on every honest
    /// node; only round 1's proposer, node 1, proposes.
    #[test]
    fn a_timeout_proposes_only_on_the_next_rounds_proposer() {
        for id in 1..4 {
            let mut m = machine(id);
            let prevote = m.handle(timeout(0, Step::Propose));
            assert_eq!(sent(&prevote), [vote(VoteKind::Prevote, 0, None)]);
            let peers: Vec<NodeId> = (1..4).filter(|p| *p != id).collect();
            hear(&mut m, peers[0], vote(VoteKind::Prevote, 0, None));
            let precommit = hear(&mut m, peers[1], vote(VoteKind::Prevote, 0, None));
            assert_eq!(sent(&precommit), [vote(VoteKind::Precommit, 0, None)]);
            hear(&mut m, peers[0], vote(VoteKind::Precommit, 0, None));
            hear(&mut m, peers[1], vote(VoteKind::Precommit, 0, None));
            let next = m.handle(timeout(0, Step::Precommit));
            let propose = Timer {
                height: 0,
                round: 1,
                step: Step::Propose,
            };
            let expected = match id {
                1 => vec![
                    Output::Propose {
                        height: 0,
                        round: 1,
                    },
                    Output::Arm(propose),
                ],
                _ => vec![Output::Arm(propose)],
            };
            assert_eq!(next, expected, "node {id}");
            // A stale timeout changes nothing.
            assert!(m.handle(timeout(0, Step::Propose)).is_empty());
        }
    }

    #[test]
    fn f_plus_one_later_messages_skip_the_round() {
        let mut m = machine(2);
        assert!(hear(&mut m, 1, vote(VoteKind::Prevote, 1, None)).is_empty());
        let skip = hear(&mut m, 3, vote(VoteKind::Precommit, 1, None));
        let propose = Timer {
            height: 0,
            round: 1,
            step: Step::Propose,
        };
        assert_eq!(skip, [Output::Arm(propose)]);
    }

    #[test]
    fn the_next_height_is_anchored_by_the_profile() {
        let quorum = |m: &mut RoundMachine| {
            let mut outputs = hear(m, 0, proposal(0, A, None));
            outputs.extend(hear(m, 2, vote(VoteKind::Prevote, 0, Some(A))));
            outputs
        };
        let mut pipelined = machine(1);
        assert!(quorum(&mut pipelined).contains(&Output::NextHeight(1)));
        assert!(pipelined.handle(Input::Executed { height: 0 }).is_empty());

        let mut sequential = RoundMachine::new(1, 4, 3, 1, false);
        assert!(!quorum(&mut sequential).contains(&Output::NextHeight(1)));
        assert_eq!(
            sequential.handle(Input::Executed { height: 0 }),
            [Output::NextHeight(1)]
        );
    }

    #[test]
    fn decided_heights_execute_in_order_and_are_then_dropped() {
        let mut m = machine(2);
        let next = Message::Proposal(Proposal {
            height: 1,
            round: 0,
            block: B,
            valid_round: None,
        });
        hear(&mut m, 1, next);
        for from in [0, 1, 3] {
            let precommit = Vote {
                kind: VoteKind::Precommit,
                height: 1,
                round: 0,
                block: Some(B),
            };
            assert!(hear(&mut m, from, Message::Vote(precommit)).is_empty());
        }
        let outputs = m.handle(Input::Decided {
            height: 0,
            block: A,
        });
        assert_eq!(
            outputs,
            [
                Output::Execute {
                    height: 0,
                    block: A
                },
                Output::Execute {
                    height: 1,
                    block: B
                }
            ]
        );
        m.handle(Input::Executed { height: 0 });
        m.handle(Input::Executed { height: 1 });
        assert!(m.instances.is_empty());
        assert_eq!(m.height(), 2);
        assert!(hear(&mut m, 0, proposal(0, A, None)).is_empty());
        assert!(m.instances.is_empty());
    }
}
