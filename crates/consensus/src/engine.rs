//! The event driver of the BFT consensus engine.
//!
//! Message flow (per height): the round's proposer batches transactions
//! from its mempool and broadcasts a *proposal*; nodes validate and
//! broadcast *prevotes*; on a >2/3 prevote quorum they broadcast
//! *precommits*; on a >2/3 precommit quorum each node executes the block
//! (`DeliverTx` per transaction, then the commit hook) — the three
//! validation touchpoints of the paper's Fig. 4. Round timeouts rotate
//! the proposer so the chain survives proposer crashes, and the
//! pipelining option anchors the next proposal at the previous block's
//! prevote quorum ("nodes proceed with voting without waiting for a
//! decision on the previous block", §2.2). A submission is decoded once,
//! on its receiver (`App::decode`); the engine keeps the decoded value
//! and lends it to every later application call.
//!
//! Each validator's vote rules live in its clock-free [`RoundMachine`].
//! [`Harness`] is the driver: it owns the event queue, the network, the
//! transaction table, the block registry and the application, feeds
//! each machine its inputs and carries out the outputs in order. It also
//! keeps what no single validator can know: the decided chain recovering
//! nodes sync from, the proposer-loop pacing, the live-work counters,
//! the re-gossip of stranded transactions and the vote re-delivery.

use crate::app::{App, BlockAnnotations, BlockView};
use crate::config::BftConfig;
use crate::round::{
    proposer, BlockId, Input, Message, Output, Proposal, RoundMachine, Vote, VoteKind,
};
use crate::TxId;
use scdb_sim::{Network, NodeId, SimTime, Simulation};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Life-cycle status of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxStatus {
    /// In a mempool or in flight.
    Pending,
    /// Rejected during CheckTx (never entered a block) or DeliverTx.
    Rejected(String),
    /// Committed at the given simulated time.
    Committed(SimTime),
}

struct TxRecord<T> {
    /// The receiver's decoding of the payload, kept once it passed the
    /// receiver's CheckTx. A transaction without one was rejected on
    /// arrival and never reached a mempool, so every mempool entry and
    /// block member holds its value.
    decoded: Option<T>,
    submitted_at: SimTime,
    status: TxStatus,
}

/// Lends the application the decoded members of `ids`, in order. Takes
/// the transaction table rather than `&self` so the caller can hand the
/// result to `&mut self.app` — the two are disjoint fields.
fn members<'a, T>(txs: &'a [TxRecord<T>], ids: &[TxId]) -> Vec<(TxId, &'a T)> {
    ids.iter()
        .map(|id| match &txs[*id as usize].decoded {
            Some(decoded) => (*id, decoded),
            None => unreachable!("a mempool entry passed its receiver's CheckTx"),
        })
        .collect()
}

/// A proposed block: the transaction list plus the proposer's
/// self-describing annotations (execution schedule, state digest),
/// gossiped with the proposal and handed untouched to every replica's
/// `deliver_block`.
#[derive(Debug, Clone)]
struct Block {
    height: u64,
    round: u32,
    txs: Vec<TxId>,
    annotations: BlockAnnotations,
}

/// Simulation events.
#[derive(Debug)]
enum Event {
    /// Client payload arrives at the receiver node, which decodes it.
    Submit {
        node: NodeId,
        tx: TxId,
        payload: String,
    },
    /// Mempool gossip of a checked transaction.
    Gossip {
        to: NodeId,
        tx: TxId,
    },
    /// A node should propose (or re-poll) round 0 of the given height.
    StartHeight {
        node: NodeId,
        height: u64,
    },
    /// A consensus message arrives at `to`.
    Deliver {
        to: NodeId,
        msg: Message,
    },
    /// Block execution finished on a node.
    Executed {
        node: NodeId,
        height: u64,
        block: BlockId,
    },
    /// Proposer-failure timeout.
    RoundTimeout {
        node: NodeId,
        height: u64,
        round: u32,
    },
    /// Fault injection.
    Crash(NodeId),
    Recover(NodeId),
}

/// A node's mempool: the transactions it may propose.
#[derive(Default)]
struct NodeState {
    mempool: VecDeque<TxId>,
    seen: HashSet<TxId>,
}

/// The consensus harness: the driver of every node's round machine,
/// over the network and the application.
pub struct Harness<A: App> {
    config: BftConfig,
    sim: Simulation<Event>,
    net: Network,
    app: A,
    nodes: Vec<NodeState>,
    machines: Vec<RoundMachine>,
    txs: Vec<TxRecord<A::Tx>>,
    blocks: Vec<Block>,
    /// Height -> decided block (first quorum execution): the simulated
    /// chain a recovering node syncs from.
    decided: HashMap<u64, BlockId>,
    /// (height, round) pairs already proposed, to avoid duplicates.
    proposed: HashSet<(u64, u32)>,
    /// Heights whose proposal + failure timers have been scheduled.
    height_started: HashSet<u64>,
    /// Whether the proposer loop is scheduled.
    loop_active: bool,
    /// Transactions submitted but not yet decided.
    undecided: usize,
    /// Submit events scheduled but not yet processed.
    scheduled_submits: usize,
    /// Pending non-timer events (everything except StartHeight /
    /// RoundTimeout). `run` stops when no live work and no such events
    /// remain, leaving inert failure timers queued rather than letting
    /// them drag the clock past the last meaningful event.
    pending_real: usize,
    first_submit: Option<SimTime>,
    last_commit: SimTime,
    committed_count: u64,
}

/// Events that are pure failure-detection timers: processing them when
/// the chain is idle changes nothing.
fn is_timer(event: &Event) -> bool {
    matches!(
        event,
        Event::StartHeight { .. } | Event::RoundTimeout { .. }
    )
}

impl<A: App> Harness<A> {
    pub fn new(config: BftConfig, app: A) -> Harness<A> {
        let net = Network::new(config.nodes, config.latency, config.seed);
        let nodes = (0..config.nodes).map(|_| NodeState::default()).collect();
        let machines = (0..config.nodes)
            .map(|id| RoundMachine::new(id, config.nodes, config.quorum(), config.pipelined))
            .collect();
        Harness {
            net,
            app,
            nodes,
            machines,
            sim: Simulation::new(),
            txs: Vec::new(),
            blocks: Vec::new(),
            decided: HashMap::new(),
            proposed: HashSet::new(),
            height_started: HashSet::new(),
            loop_active: false,
            undecided: 0,
            scheduled_submits: 0,
            pending_real: 0,
            first_submit: None,
            last_commit: SimTime::ZERO,
            committed_count: 0,
            config,
        }
    }

    /// The application (one value holding all per-node replicas).
    pub fn app(&self) -> &A {
        &self.app
    }

    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    pub fn config(&self) -> &BftConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Submits a payload at `at` to a randomly chosen receiver node
    /// (§4: "one of the validator nodes is chosen at random to act as
    /// the receiver node"). Returns the transaction handle.
    pub fn submit_at(&mut self, at: SimTime, payload: String) -> TxId {
        let receiver = self.net.pick(self.config.nodes);
        self.submit_at_node(at, receiver, payload)
    }

    /// Submits to a specific receiver node.
    pub fn submit_at_node(&mut self, at: SimTime, node: NodeId, payload: String) -> TxId {
        let tx = self.txs.len() as TxId;
        self.txs.push(TxRecord {
            decoded: None,
            submitted_at: at,
            status: TxStatus::Pending,
        });
        self.scheduled_submits += 1;
        self.schedule_abs(at, Event::Submit { node, tx, payload });
        tx
    }

    /// Schedules a crash fault.
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule_abs(at, Event::Crash(node));
    }

    /// Schedules a recovery.
    pub fn recover_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule_abs(at, Event::Recover(node));
    }

    /// Status of a transaction.
    pub fn status(&self, tx: TxId) -> &TxStatus {
        &self.txs[tx as usize].status
    }

    /// Commit latency of a transaction, when committed.
    pub fn latency(&self, tx: TxId) -> Option<SimTime> {
        match &self.txs[tx as usize].status {
            TxStatus::Committed(at) => Some(at.saturating_sub(self.txs[tx as usize].submitted_at)),
            _ => None,
        }
    }

    /// Runs until nothing meaningful can happen any more: all submitted
    /// work decided (or definitively rejected) and every consequential
    /// event processed. Inert failure timers may remain queued — they
    /// no-op when they fire — so the clock ends at the last meaningful
    /// event instead of drifting through timeout drain.
    pub fn run(&mut self) {
        while self.has_live_work() && self.step() {}
    }

    /// Runs until simulated time passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.sim.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
    }

    /// Processes one event; false when idle.
    pub fn step(&mut self) -> bool {
        let Some((now, event)) = self.sim.next() else {
            return false;
        };
        if !is_timer(&event) {
            self.pending_real -= 1;
        }
        if matches!(event, Event::Submit { .. }) {
            self.scheduled_submits -= 1;
        }
        self.handle(now, event);
        true
    }

    /// Committed-transaction count.
    pub fn committed_count(&self) -> u64 {
        self.committed_count
    }

    /// Simulated time of the most recent commit (ZERO before any).
    /// Prefer this over [`Harness::now`] for pacing follow-up
    /// submissions: `now` also advances over stale failure timers that
    /// drain after the chain went idle.
    pub fn last_commit_time(&self) -> SimTime {
        self.last_commit
    }

    /// Throughput per the paper's §5.1.4: committed transactions divided
    /// by the span from first reception to last commitment.
    pub fn throughput_tps(&self) -> f64 {
        let Some(first) = self.first_submit else {
            return 0.0;
        };
        let span = self.last_commit.saturating_sub(first).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.committed_count as f64 / span
    }

    /// Latencies of all committed transactions (simulated seconds).
    pub fn latencies_secs(&self) -> Vec<f64> {
        self.txs
            .iter()
            .filter_map(|t| match t.status {
                TxStatus::Committed(at) => Some(at.saturating_sub(t.submitted_at).as_secs_f64()),
                _ => None,
            })
            .collect()
    }

    /// Total messages the network carried.
    pub fn messages_sent(&self) -> u64 {
        self.net.messages_sent()
    }

    /// Highest decided height.
    pub fn decided_height(&self) -> u64 {
        self.decided.keys().copied().max().unwrap_or(0)
    }

    /// Schedules an event `delay` from now.
    fn schedule(&mut self, delay: SimTime, event: Event) {
        self.schedule_abs(self.sim.now() + delay, event);
    }

    /// Schedules an event at an absolute time, tracking whether it is a
    /// consequential (non-timer) event.
    fn schedule_abs(&mut self, at: SimTime, event: Event) {
        if !is_timer(&event) {
            self.pending_real += 1;
        }
        self.sim.schedule_at(at, event);
    }

    /// Whether anything meaningful can still happen without new input.
    pub fn has_live_work(&self) -> bool {
        self.scheduled_submits > 0 || self.undecided > 0 || self.pending_real > 0
    }

    /// Sends `mk(peer)` to every reachable peer, each `after` plus its
    /// link delay from now.
    fn broadcast(&mut self, from: NodeId, after: SimTime, mk: impl Fn(NodeId) -> Event) {
        for (to, delay) in self.net.broadcast(from) {
            self.schedule(after + delay, mk(to));
        }
    }

    /// Feeds `input` to `node`'s round machine and carries out its
    /// outputs in order.
    fn step_node(&mut self, node: NodeId, input: Input) {
        let outputs = self.machines[node].handle(input);
        let mut check_cost = SimTime::ZERO;
        for output in outputs {
            match output {
                Output::Check(block) => {
                    // CheckTx at the validator (Fig. 4's second set), the
                    // block in one call: the cost of the members that pass.
                    let members = members(&self.txs, &self.blocks[block].txs);
                    check_cost = self
                        .app
                        .check_block(node, &members)
                        .into_iter()
                        .flatten()
                        .fold(SimTime::ZERO, |sum, c| sum + c);
                }
                Output::Broadcast(msg) => {
                    // A prevote is the verdict on the proposal just
                    // checked, so it leaves after the validation work.
                    let prevote = matches!(msg, Message::Vote(v) if v.kind == VoteKind::Prevote);
                    let after = if prevote { check_cost } else { SimTime::ZERO };
                    self.broadcast(node, after, |to| Event::Deliver { to, msg });
                }
                Output::Execute { height, block } => self.execute_block(node, height, block),
                Output::Propose { height, round } => self.try_propose(node, height, round),
                Output::NextHeight(height) => self.schedule_height_start(height),
            }
        }
    }

    fn activate_loop(&mut self, height: u64) {
        if self.loop_active {
            return;
        }
        self.loop_active = true;
        // The caller's node-local height can be stale (a node that has
        // not executed recent blocks yet); advance to the first
        // undecided height or the loop would wedge with pending work.
        let mut height = height;
        while self.decided.contains_key(&height) {
            height += 1;
        }
        self.height_started.remove(&height);
        self.schedule_height_start(height);
    }

    /// Schedules the proposal for a height and arms every node's
    /// proposer-failure timeout, so a crashed proposer is rotated out
    /// even when it never produced a proposal.
    fn schedule_height_start(&mut self, height: u64) {
        if self.decided.contains_key(&height) || !self.height_started.insert(height) {
            return;
        }
        let proposer = proposer(self.config.nodes, height, 0);
        self.schedule(
            self.config.block_interval,
            Event::StartHeight {
                node: proposer,
                height,
            },
        );
        for peer in 0..self.config.nodes {
            self.schedule(
                self.config.block_interval + self.config.round_timeout,
                Event::RoundTimeout {
                    node: peer,
                    height,
                    round: 0,
                },
            );
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Crash(node) => self.net.crash(node),
            Event::Recover(node) => {
                self.net.recover(node);
                // Rejoin protocol (the §4.2.1 "process will resume as
                // soon as sufficient voting power is attained"): first
                // catch up on blocks decided while down, then have the
                // network re-deliver proposals and votes for undecided
                // heights (Tendermint-style vote gossip), then restart
                // the proposer loop if work is outstanding.
                self.catch_up(node);
                self.resync_votes(node);
                let height = self.machines[node].height();
                if self.undecided > 0 {
                    self.loop_active = false;
                    self.activate_loop(height);
                }
            }
            Event::Submit { node, tx, payload } => {
                if self.first_submit.is_none() {
                    self.first_submit = Some(now);
                }
                if !self.net.is_up(node) {
                    // Receiver down: the driver layer is responsible for
                    // retries; mark rejected here.
                    self.txs[tx as usize].status =
                        TxStatus::Rejected("receiver node offline".to_owned());
                    return;
                }
                let verdict = self.app.decode(&payload).and_then(|decoded| {
                    let cost = self.app.check_tx(node, tx, &decoded)?;
                    self.txs[tx as usize].decoded = Some(decoded);
                    Ok(cost)
                });
                match verdict {
                    Err(reason) => {
                        self.txs[tx as usize].status = TxStatus::Rejected(reason);
                    }
                    Ok(_cost) => {
                        self.undecided += 1;
                        self.enqueue(node, tx);
                        // Gossip to the other validators' mempools.
                        self.broadcast(node, SimTime::ZERO, |to| Event::Gossip { to, tx });
                        let height = self.machines[node].height();
                        self.activate_loop(height);
                    }
                }
            }
            Event::Gossip { to, tx } => {
                if !self.net.is_up(to)
                    || matches!(self.txs[tx as usize].status, TxStatus::Rejected(_))
                {
                    return;
                }
                self.enqueue(to, tx);
            }
            Event::StartHeight { node, height } => self.try_propose(node, height, 0),
            Event::RoundTimeout {
                node,
                height,
                round,
            } => {
                if self.decided.contains_key(&height)
                    || !self.net.is_up(node)
                    || self.undecided == 0
                {
                    return;
                }
                // The machine rotates the proposer; the driver keeps the
                // failure timer armed while work is outstanding.
                self.step_node(node, Input::Timeout { height, round });
                self.schedule(
                    self.config.round_timeout,
                    Event::RoundTimeout {
                        node,
                        height,
                        round: round + 1,
                    },
                );
            }
            Event::Deliver { to, msg } => {
                if !self.net.is_up(to) {
                    return;
                }
                // A proposal for a height the chain already decided is
                // stale everywhere.
                if let Message::Proposal(p) = msg {
                    if self.decided.contains_key(&p.height) {
                        return;
                    }
                }
                self.step_node(to, Input::Receive(msg));
            }
            Event::Executed {
                node,
                height,
                block,
            } => self.finish_execution(node, height, block),
        }
    }

    /// The still-pending members of every block proposed at `height`,
    /// in registry order.
    fn stranded(&self, height: u64) -> Vec<TxId> {
        self.blocks
            .iter()
            .filter(|b| b.height == height)
            .flat_map(|b| b.txs.iter().copied())
            .filter(|tx| matches!(self.txs[*tx as usize].status, TxStatus::Pending))
            .collect()
    }

    fn enqueue(&mut self, node: NodeId, tx: TxId) {
        let state = &mut self.nodes[node];
        if state.seen.insert(tx) {
            state.mempool.push_back(tx);
        }
    }

    fn try_propose(&mut self, node: NodeId, height: u64, round: u32) {
        if self.decided.contains_key(&height) || !self.net.is_up(node) {
            return;
        }
        if !self.proposed.insert((height, round)) {
            return;
        }
        // Re-proposals (round > 0) first reclaim transactions stranded
        // in earlier-round blocks of this height: they left mempools
        // when first proposed and would otherwise never commit if that
        // round failed to quorate.
        let mut batch = Vec::new();
        let mut in_batch = HashSet::new();
        if round > 0 {
            for tx in self.stranded(height) {
                if batch.len() >= self.config.max_block_txs {
                    break;
                }
                if in_batch.insert(tx) {
                    batch.push(tx);
                }
            }
        }
        // Then form the rest of the block from the proposer's standing
        // mempool: the application selects and orders the candidates
        // (FIFO by default; the SmartchainDB cluster packs them into
        // conflict-free waves). Unselected candidates return to the
        // mempool in arrival order.
        let capacity = self.config.max_block_txs.saturating_sub(batch.len());
        let mut candidates: Vec<TxId> = Vec::new();
        while let Some(tx) = self.nodes[node].mempool.pop_front() {
            if matches!(self.txs[tx as usize].status, TxStatus::Pending) && !in_batch.contains(&tx)
            {
                candidates.push(tx);
            }
        }
        let mut annotations = BlockAnnotations::default();
        if !candidates.is_empty() && capacity > 0 {
            let formed = self
                .app
                .form_block(node, &members(&self.txs, &candidates), capacity);
            // Sanitize the application's picks: in-range, unique,
            // capped at capacity.
            let mut chosen: HashSet<usize> = HashSet::new();
            let mut selected: Vec<usize> = Vec::new();
            for pick in &formed.picks {
                if *pick < candidates.len() && selected.len() < capacity && chosen.insert(*pick) {
                    selected.push(*pick);
                }
            }
            // The annotations describe exactly the app's selection:
            // gossip them only when the block body will be precisely
            // those picks in that order — no stranded-transaction
            // prefix, nothing dropped by sanitization. A mismatched
            // schedule would fail verification on every replica anyway;
            // dropping it here saves the bytes and the fallback.
            if batch.is_empty() && selected == formed.picks {
                annotations = formed.annotations;
            }
            for &pick in &selected {
                let tx = candidates[pick];
                if in_batch.insert(tx) {
                    batch.push(tx);
                }
            }
            for (position, tx) in candidates.iter().enumerate() {
                if !chosen.contains(&position) {
                    self.nodes[node].mempool.push_back(*tx);
                }
            }
        } else {
            for tx in candidates {
                self.nodes[node].mempool.push_back(tx);
            }
        }
        if batch.is_empty() {
            // Idle: deactivate the loop; the next submission reactivates.
            self.proposed.remove(&(height, round));
            self.height_started.remove(&height);
            self.loop_active = false;
            return;
        }
        let block = self.blocks.len();
        self.blocks.push(Block {
            height,
            round,
            txs: batch,
            annotations,
        });
        // The proposer prevotes its own block implicitly.
        self.step_node(
            node,
            Input::Proposed(Proposal {
                height,
                round,
                block,
            }),
        );
    }

    /// Executes a block on one node: the whole block, exactly as its
    /// proposer formed it, goes through `App::deliver_block` (third
    /// validation set — applications may validate non-conflicting
    /// transactions in parallel), summing the simulated costs of the
    /// members that pass; the node reports completion after that much
    /// simulated work. A member an earlier replica already rejected is
    /// delivered again — every replica executes the same block, and
    /// the repeated rejection costs nothing and changes no status.
    fn execute_block(&mut self, node: NodeId, height: u64, block: BlockId) {
        let Block {
            txs, annotations, ..
        } = &self.blocks[block];
        let members = members(&self.txs, txs);
        let verdicts = self.app.deliver_block(
            node,
            BlockView {
                txs: &members,
                annotations,
            },
        );
        debug_assert_eq!(verdicts.len(), members.len(), "one verdict per member");

        let mut cost = SimTime::ZERO;
        let mut committed = Vec::new();
        let mut rejected = Vec::new();
        for (member, verdict) in members.iter().zip(verdicts) {
            match verdict {
                Ok(c) => {
                    cost += c;
                    committed.push(*member);
                }
                Err(reason) => rejected.push((member.0, reason)),
            }
        }
        cost += self.app.on_commit(node, height, &committed, self.sim.now());
        for (tx, reason) in rejected {
            let record = &mut self.txs[tx as usize];
            if matches!(record.status, TxStatus::Pending) {
                record.status = TxStatus::Rejected(reason);
                self.undecided = self.undecided.saturating_sub(1);
            }
        }
        self.schedule(
            cost,
            Event::Executed {
                node,
                height,
                block,
            },
        );
    }

    /// State sync for a recovered node: execute, in height order, every
    /// decided block it missed while down.
    fn catch_up(&mut self, node: NodeId) {
        let mut decided: Vec<(u64, BlockId)> = self.decided.iter().map(|(h, b)| (*h, *b)).collect();
        decided.sort_unstable();
        for (height, block) in decided {
            self.step_node(node, Input::Decided { height, block });
        }
    }

    /// Vote gossip for a recovered node: re-deliver every proposal and
    /// every vote any node counted for undecided heights, so partially
    /// quorate rounds can complete once enough voting power is back.
    /// Proposals go first, in registry order, then the votes, prevotes
    /// before precommits.
    fn resync_votes(&mut self, node: NodeId) {
        let proposals = self
            .blocks
            .iter()
            .enumerate()
            .map(|(block, b)| Proposal {
                height: b.height,
                round: b.round,
                block,
            })
            .filter(|p| !self.decided.contains_key(&p.height))
            .map(Message::Proposal);
        let votes: BTreeSet<Vote> = self
            .machines
            .iter()
            .flat_map(RoundMachine::votes)
            .copied()
            .filter(|v| v.from != node && !self.decided.contains_key(&v.height))
            .collect();
        let messages: Vec<Message> = proposals
            .chain(votes.into_iter().map(Message::Vote))
            .collect();
        for msg in messages {
            self.schedule(SimTime::from_micros(200), Event::Deliver { to: node, msg });
        }
    }

    fn finish_execution(&mut self, node: NodeId, height: u64, block: BlockId) {
        let now = self.sim.now();
        let newly_decided = !self.decided.contains_key(&height);
        if newly_decided {
            self.decided.insert(height, block);
            // First node to finish execution fixes the commit timestamps.
            let tx_ids = self.blocks[block].txs.clone();
            for tx in tx_ids {
                if matches!(self.txs[tx as usize].status, TxStatus::Pending) {
                    self.txs[tx as usize].status = TxStatus::Committed(now);
                    self.committed_count += 1;
                    self.undecided = self.undecided.saturating_sub(1);
                    self.last_commit = now;
                }
            }
            // Transactions stranded in competing (non-decided) blocks of
            // this height go back into every live mempool so the next
            // height re-proposes them.
            for tx in self.stranded(height) {
                for peer in 0..self.config.nodes {
                    if self.net.is_up(peer) && !self.nodes[peer].mempool.contains(&tx) {
                        self.nodes[peer].seen.insert(tx);
                        self.nodes[peer].mempool.push_back(tx);
                    }
                }
            }
        }
        self.step_node(node, Input::Executed { height });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppResult, CountingApp};
    use crate::config::BftConfig;

    fn harness(nodes: usize) -> Harness<CountingApp> {
        Harness::new(BftConfig::tendermint(nodes), CountingApp::new(nodes))
    }

    #[test]
    fn single_tx_commits() {
        let mut h = harness(4);
        let tx = h.submit_at(SimTime::from_millis(1), "payload".to_owned());
        h.run();
        assert!(
            matches!(h.status(tx), TxStatus::Committed(_)),
            "{:?}",
            h.status(tx)
        );
        assert!(h.latency(tx).unwrap() > SimTime::ZERO);
        assert_eq!(h.committed_count(), 1);
    }

    #[test]
    fn many_txs_commit_in_batches() {
        let mut h = harness(4);
        let txs: Vec<TxId> = (0..50)
            .map(|i| h.submit_at(SimTime::from_millis(i), format!("tx{i}")))
            .collect();
        h.run();
        for tx in txs {
            assert!(
                matches!(h.status(tx), TxStatus::Committed(_)),
                "tx {tx}: {:?}",
                h.status(tx)
            );
        }
        assert!(
            h.decided_height() >= 5,
            "batching cap forces multiple blocks"
        );
        assert!(h.throughput_tps() > 1.0);
    }

    #[test]
    fn rejected_txs_never_commit() {
        let mut h = harness(4);
        h.app_mut().reject_marker = Some("bad".to_owned());
        let good = h.submit_at(SimTime::from_millis(1), "good tx".to_owned());
        let bad = h.submit_at(SimTime::from_millis(1), "bad tx".to_owned());
        h.run();
        assert!(matches!(h.status(good), TxStatus::Committed(_)));
        assert!(matches!(h.status(bad), TxStatus::Rejected(_)));
    }

    #[test]
    fn all_nodes_execute_committed_blocks() {
        let mut h = harness(4);
        for i in 0..10 {
            h.submit_at(SimTime::from_millis(i), format!("tx{i}"));
        }
        h.run();
        // Every live node executed every transaction (full replication).
        for node in 0..4 {
            assert_eq!(h.app().delivered[node].len(), 10, "node {node}");
        }
    }

    #[test]
    fn minority_crash_does_not_stop_the_chain() {
        let mut h = harness(4);
        h.crash_at(SimTime::ZERO, 3);
        let txs: Vec<TxId> = (0..12)
            .map(|i| h.submit_at(SimTime::from_millis(10 + i), format!("tx{i}")))
            .collect();
        h.run();
        for tx in txs {
            // Receiver selection may land on the dead node; those are
            // rejected, all others must commit.
            match h.status(tx) {
                TxStatus::Committed(_) => {}
                TxStatus::Rejected(r) => assert!(r.contains("offline"), "{r}"),
                TxStatus::Pending => panic!("tx {tx} still pending"),
            }
        }
    }

    #[test]
    fn crashed_proposer_is_rotated_out() {
        let mut h = harness(4);
        // Heights start at 0 with proposer 0; crash node 0 before any
        // submission so the first proposal must come from a rotation.
        h.crash_at(SimTime::ZERO, 0);
        let tx = h.submit_at_node(SimTime::from_millis(5), 1, "tx".to_owned());
        h.run();
        assert!(
            matches!(h.status(tx), TxStatus::Committed(_)),
            "{:?}",
            h.status(tx)
        );
    }

    #[test]
    fn supermajority_crash_stalls_until_recovery() {
        let mut h = harness(4);
        // 2 of 4 down: quorum of 3 is unreachable.
        h.crash_at(SimTime::ZERO, 2);
        h.crash_at(SimTime::ZERO, 3);
        let tx = h.submit_at_node(SimTime::from_millis(5), 0, "tx".to_owned());
        h.run_until(SimTime::from_secs(10));
        assert!(
            matches!(h.status(tx), TxStatus::Pending),
            "no quorum, must stall"
        );
        // Recovery restores quorum and the chain resumes (§4.2.1: "the
        // process will resume as soon as sufficient voting power is
        // attained").
        h.recover_at(SimTime::from_secs(11), 2);
        h.run();
        assert!(
            matches!(h.status(tx), TxStatus::Committed(_)),
            "{:?}",
            h.status(tx)
        );
    }

    #[test]
    fn ibft_profile_commits_with_higher_latency() {
        let mut t = harness(4);
        let mut q = Harness::new(BftConfig::ibft(4), CountingApp::new(4));
        let a = t.submit_at_node(SimTime::from_millis(1), 0, "tx".to_owned());
        let b = q.submit_at_node(SimTime::from_millis(1), 0, "tx".to_owned());
        t.run();
        q.run();
        let lat_t = t.latency(a).expect("committed");
        let lat_q = q.latency(b).expect("committed");
        assert!(
            lat_q > lat_t,
            "IBFT block cadence must dominate: {lat_q} vs {lat_t}"
        );
    }

    #[test]
    fn determinism_same_seed_same_timeline() {
        let run = || {
            let mut h = harness(4);
            for i in 0..20 {
                h.submit_at(SimTime::from_millis(i * 3), format!("tx{i}"));
            }
            h.run();
            (h.committed_count(), h.now(), h.decided_height())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_nonproposer_with_single_tx_commits() {
        // Regression (proptest shrink: arrivals = [1], crash_node = 1):
        // node 1 down from t=0, one tx to node 2 must still commit and
        // the event queue must drain.
        let mut h = harness(4);
        h.crash_at(SimTime::ZERO, 1);
        let tx = h.submit_at_node(SimTime::from_millis(1), 2, "tx".to_owned());
        let mut steps = 0u64;
        while h.step() {
            steps += 1;
            assert!(
                steps < 2_000_000,
                "event queue must drain, status {:?}",
                h.status(tx)
            );
        }
        assert!(
            matches!(h.status(tx), TxStatus::Committed(_)),
            "{:?}",
            h.status(tx)
        );
    }

    /// An app that forms blocks adversarially: picks candidates in
    /// reverse arrival order, takes fewer than allowed, and salts the
    /// picks with out-of-range and duplicate indices the engine must
    /// ignore.
    struct PickyApp {
        inner: CountingApp,
        take: usize,
    }

    impl App for PickyApp {
        type Tx = String;

        fn decode(&self, payload: &str) -> Result<String, String> {
            self.inner.decode(payload)
        }

        fn check_tx(&mut self, node: NodeId, id: TxId, tx: &String) -> AppResult {
            self.inner.check_tx(node, id, tx)
        }

        fn deliver_tx(&mut self, node: NodeId, id: TxId, tx: &String) -> AppResult {
            self.inner.deliver_tx(node, id, tx)
        }

        fn form_block(
            &mut self,
            _node: NodeId,
            candidates: &[(TxId, &String)],
            max: usize,
        ) -> crate::app::FormedBlock {
            let mut picks = vec![usize::MAX, 0, 0]; // garbage + duplicate
            picks.extend((0..candidates.len()).rev().take(self.take.min(max)));
            crate::app::FormedBlock {
                picks,
                annotations: BlockAnnotations {
                    schedule: Some("bogus schedule".to_owned()),
                    state_digest: None,
                },
            }
        }
    }

    #[test]
    fn custom_block_forming_requeues_unselected_and_drains() {
        let config = BftConfig::tendermint(4);
        let app = PickyApp {
            inner: CountingApp::new(4),
            take: 2,
        };
        let mut h = Harness::new(config, app);
        let txs: Vec<TxId> = (0..9)
            .map(|i| h.submit_at(SimTime::from_millis(1 + i), format!("tx{i}")))
            .collect();
        h.run();
        // Every transaction commits even though each block takes at
        // most two (reverse-order) picks: unselected candidates return
        // to the mempool and ride later proposals.
        for tx in txs {
            assert!(
                matches!(h.status(tx), TxStatus::Committed(_)),
                "tx {tx}: {:?}",
                h.status(tx)
            );
        }
        // At most 3 picks survive sanitization per block (index 0 once
        // plus two reverse picks), so 9 txs need several heights.
        assert!(h.decided_height() >= 2, "small picks force many blocks");
    }

    /// An app that annotates every well-formed selection and records
    /// the annotations each delivery carried.
    struct AnnotatingApp {
        inner: CountingApp,
        delivered_annotations: Vec<BlockAnnotations>,
    }

    impl App for AnnotatingApp {
        type Tx = String;

        fn decode(&self, payload: &str) -> Result<String, String> {
            self.inner.decode(payload)
        }

        fn check_tx(&mut self, node: NodeId, id: TxId, tx: &String) -> AppResult {
            self.inner.check_tx(node, id, tx)
        }

        fn deliver_tx(&mut self, node: NodeId, id: TxId, tx: &String) -> AppResult {
            self.inner.deliver_tx(node, id, tx)
        }

        fn form_block(
            &mut self,
            _node: NodeId,
            candidates: &[(TxId, &String)],
            max: usize,
        ) -> crate::app::FormedBlock {
            let picks: Vec<usize> = (0..candidates.len().min(max)).collect();
            crate::app::FormedBlock {
                annotations: BlockAnnotations {
                    schedule: Some(format!("schedule-over-{}", picks.len())),
                    state_digest: Some("digest".to_owned()),
                },
                picks,
            }
        }

        fn deliver_block(&mut self, node: NodeId, block: BlockView<'_, String>) -> Vec<AppResult> {
            if node == 0 {
                self.delivered_annotations.push(block.annotations.clone());
            }
            block
                .txs
                .iter()
                .map(|(id, tx)| self.deliver_tx(node, *id, tx))
                .collect()
        }
    }

    #[test]
    fn annotations_ride_the_block_from_proposer_to_delivery() {
        let app = AnnotatingApp {
            inner: CountingApp::new(4),
            delivered_annotations: Vec::new(),
        };
        let mut h = Harness::new(BftConfig::tendermint(4), app);
        let txs: Vec<TxId> = (0..6)
            .map(|i| h.submit_at(SimTime::from_millis(1 + i), format!("tx{i}")))
            .collect();
        h.run();
        for tx in txs {
            assert!(matches!(h.status(tx), TxStatus::Committed(_)));
        }
        let delivered = &h.app().delivered_annotations;
        assert!(!delivered.is_empty());
        for annotations in delivered {
            assert!(
                annotations
                    .schedule
                    .as_deref()
                    .is_some_and(|s| s.starts_with("schedule-over-")),
                "{annotations:?}"
            );
            assert_eq!(annotations.state_digest.as_deref(), Some("digest"));
        }
    }

    #[test]
    fn sanitized_picks_drop_the_annotations() {
        // PickyApp returns garbage + duplicate picks, so the engine's
        // sanitized selection differs from the returned picks and its
        // bogus schedule must NOT ride the proposal.
        struct Recorder {
            inner: PickyApp,
            saw_annotation: bool,
        }
        impl App for Recorder {
            type Tx = String;
            fn decode(&self, payload: &str) -> Result<String, String> {
                self.inner.decode(payload)
            }
            fn check_tx(&mut self, node: NodeId, id: TxId, tx: &String) -> AppResult {
                self.inner.check_tx(node, id, tx)
            }
            fn deliver_tx(&mut self, node: NodeId, id: TxId, tx: &String) -> AppResult {
                self.inner.deliver_tx(node, id, tx)
            }
            fn form_block(
                &mut self,
                node: NodeId,
                candidates: &[(TxId, &String)],
                max: usize,
            ) -> crate::app::FormedBlock {
                self.inner.form_block(node, candidates, max)
            }
            fn deliver_block(
                &mut self,
                node: NodeId,
                block: BlockView<'_, String>,
            ) -> Vec<AppResult> {
                self.saw_annotation |= !block.annotations.is_empty();
                block
                    .txs
                    .iter()
                    .map(|(id, tx)| self.deliver_tx(node, *id, tx))
                    .collect()
            }
        }
        let app = Recorder {
            inner: PickyApp {
                inner: CountingApp::new(4),
                take: 2,
            },
            saw_annotation: false,
        };
        let mut h = Harness::new(BftConfig::tendermint(4), app);
        for i in 0..6 {
            h.submit_at(SimTime::from_millis(1 + i), format!("tx{i}"));
        }
        h.run();
        assert!(
            !h.app().saw_annotation,
            "a sanitized selection must never carry the app's annotations"
        );
    }

    #[test]
    fn app_costs_delay_commits() {
        let mut cheap = harness(4);
        cheap.app_mut().cost = SimTime::ZERO;
        let mut costly = harness(4);
        costly.app_mut().cost = SimTime::from_millis(50);
        let a = cheap.submit_at_node(SimTime::ZERO, 0, "tx".to_owned());
        let b = costly.submit_at_node(SimTime::ZERO, 0, "tx".to_owned());
        cheap.run();
        costly.run();
        assert!(costly.latency(b).unwrap() > cheap.latency(a).unwrap());
    }
}
