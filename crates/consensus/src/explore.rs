//! An exhaustive small-scope explorer for the round machine.
//!
//! The machine is clock-free and maps one input to ordered outputs, so
//! the whole behaviour of a small cluster can be walked, not sampled.
//! The scope:
//!
//! * four machines, height 0, rounds 0–1, quorum 3 (f = 1);
//! * node 0 is Byzantine and is the round-0 proposer. It may send each
//!   honest peer either of two blocks, A or B, or nothing, at any
//!   moment; its prevote rides the proposal. It sends no other vote;
//! * node 1, the honest round-1 proposer, proposes a fresh block C;
//! * honest messages are delivered in every order. Timers fire by
//!   timeout period: a timer armed in one period fires in the next,
//!   and only once no honest message is in flight, since timeouts are
//!   long next to link delays, as in the simulated cluster. Timers that
//!   would start round 2 never fire: the scope ends with round 1.
//!
//! Every reached state is checked for **agreement**: no two honest
//! nodes execute different blocks. A quiescent state (no honest message
//! in flight, no timer left to fire) is checked for **bounded
//! liveness**: every honest node has executed, provided the Byzantine
//! node's proposal reached every undecided honest node, the same block
//! to each, within the period it was first delivered. Without relayed,
//! signed messages that premise is what an equivocating proposer can
//! break; DESIGN-consensus.md has the schedule. Repeated states are
//! pruned by hashing the whole world, and a state where every honest
//! node has executed is not expanded.

use crate::round::{BlockId, Input, Message, Output, Proposal, RoundMachine, Step, Timer};
use scdb_sim::NodeId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

const NODES: usize = 4;
const BYZANTINE: NodeId = 0;
const HONEST: [NodeId; 3] = [1, 2, 3];
/// The Byzantine proposer's two blocks.
const A: BlockId = 0xA;
const B: BlockId = 0xB;
/// The honest round-1 proposer's block.
const C: BlockId = 0xC;
/// States the search may visit before it gives up.
const BUDGET: usize = 1_000_000;

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// An honest message in flight reaches `to`.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Message,
    },
    /// The Byzantine proposer's proposal of `block` reaches `to`.
    Forge { to: NodeId, block: BlockId },
    /// A timer armed at `node` fires.
    Fire { node: NodeId, timer: Timer },
}

/// What a counterexample breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Violation {
    /// Two honest nodes executed different blocks.
    Agreement,
    /// The honest nodes are quiescent and one has not executed.
    Liveness,
}

/// The result of a search.
struct Outcome {
    /// Distinct states visited.
    states: usize,
    /// False when the budget cut the search short.
    complete: bool,
    /// The first violation found and the schedule that reaches it.
    counterexample: Option<(Violation, Vec<Action>)>,
}

/// Everything the explorer tracks: the honest machines, the honest
/// messages in flight, the armed timers, what each node executed and
/// which block the Byzantine proposer sent each.
#[derive(Clone)]
struct World {
    machines: Vec<Rc<RoundMachine>>,
    /// The hash of each machine, kept beside it.
    prints: [u64; NODES],
    /// (to, from, message), sorted: a multiset.
    in_flight: Vec<(NodeId, NodeId, Message)>,
    /// The timeout period the world is in.
    now: u8,
    /// Armed timers in scope with the period they fire in, sorted.
    timers: Vec<(u8, NodeId, Timer)>,
    executed: [Option<BlockId>; NODES],
    /// The block the Byzantine proposer sent each node.
    proposed: [Option<BlockId>; NODES],
    /// Time moved on while the proposals were not consistent.
    late: bool,
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A timer in scope: any but the one that would start round 2.
fn in_scope(timer: Timer) -> bool {
    timer.round == 0 || timer.step != Step::Precommit
}

impl World {
    fn new() -> World {
        let machines: Vec<Rc<RoundMachine>> = (0..NODES)
            .map(|id| Rc::new(RoundMachine::new(id, NODES, 3, 1, true)))
            .collect();
        let round0 = Timer {
            height: 0,
            round: 0,
            step: Step::Propose,
        };
        World {
            prints: [0, 1, 2, 3].map(|n| hash_of(&machines[n])),
            machines,
            in_flight: Vec::new(),
            now: 1,
            timers: HONEST.map(|node| (1, node, round0)).to_vec(),
            executed: [None; NODES],
            proposed: [None; NODES],
            late: false,
        }
    }

    fn fingerprint(&self) -> u64 {
        hash_of(&(
            &self.prints,
            &self.in_flight,
            self.now,
            &self.timers,
            &self.executed,
            &self.proposed,
            self.late,
        ))
    }

    /// Feeds `input` to `node` and carries out its outputs.
    fn feed(&mut self, node: NodeId, input: Input) {
        let outputs = Rc::make_mut(&mut self.machines[node]).handle(input);
        for output in outputs {
            match output {
                Output::Broadcast(msg) => {
                    for to in HONEST.into_iter().filter(|to| *to != node) {
                        self.in_flight.push((to, node, msg));
                    }
                }
                Output::Execute { block, .. } => {
                    self.executed[node].get_or_insert(block);
                }
                Output::Propose { height, round } => self.feed(
                    node,
                    Input::Proposed(Proposal {
                        height,
                        round,
                        block: C,
                        valid_round: None,
                    }),
                ),
                Output::Arm(timer) => {
                    let armed = (self.now + 1, node, timer);
                    if in_scope(timer) && !self.timers.contains(&armed) {
                        self.timers.push(armed);
                    }
                }
                Output::Check { .. } | Output::NextHeight(_) => {}
            }
        }
        self.in_flight.sort_unstable();
        self.timers.sort_unstable();
    }

    fn apply(&mut self, action: Action) {
        let node = match action {
            Action::Deliver { to, from, msg } => {
                let at = self
                    .in_flight
                    .iter()
                    .position(|m| *m == (to, from, msg))
                    .expect("a delivered message is in flight");
                self.in_flight.remove(at);
                self.feed(to, Input::Receive { from, msg });
                to
            }
            Action::Forge { to, block } => {
                self.proposed[to] = Some(block);
                let msg = Message::Proposal(Proposal {
                    height: 0,
                    round: 0,
                    block,
                    valid_round: None,
                });
                self.feed(
                    to,
                    Input::Receive {
                        from: BYZANTINE,
                        msg,
                    },
                );
                to
            }
            Action::Fire { node, timer } => {
                self.timers.retain(|t| (t.1, t.2) != (node, timer));
                self.feed(node, Input::Timeout(timer));
                node
            }
        };
        self.prints[node] = hash_of(&self.machines[node]);
        // Time moves on once nothing is in flight and nothing is due.
        let due = self.timers.iter().any(|t| t.0 == self.now);
        if let (true, false, Some(next)) = (self.in_flight.is_empty(), due, self.timers.first()) {
            self.late |= !self.consistent();
            self.now = next.0;
        }
    }

    /// The actions that can be taken from here.
    fn actions(&self) -> Vec<Action> {
        let mut actions: Vec<Action> = Vec::new();
        for &(to, from, msg) in &self.in_flight {
            let action = Action::Deliver { to, from, msg };
            if actions.last() != Some(&action) {
                actions.push(action);
            }
        }
        if self.in_flight.is_empty() {
            let due = self.timers.iter().filter(|t| t.0 == self.now);
            actions.extend(due.map(|&(_, node, timer)| Action::Fire { node, timer }));
        }
        for to in HONEST {
            if self.executed[to].is_none() && self.proposed[to].is_none() {
                actions.extend([A, B].map(|block| Action::Forge { to, block }));
            }
        }
        actions
    }

    fn all_executed(&self) -> bool {
        HONEST.iter().all(|n| self.executed[*n].is_some())
    }

    fn quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.timers.is_empty()
    }

    /// No proposal was sent, or one block reached every honest node
    /// still undecided and no other block was sent.
    fn consistent(&self) -> bool {
        let mut sent = HONEST.iter().filter_map(|n| self.proposed[*n]);
        let Some(block) = sent.next() else {
            return true;
        };
        let undecided = HONEST.into_iter().filter(|n| self.executed[*n].is_none());
        sent.all(|b| b == block)
            && undecided
                .into_iter()
                .all(|n| self.proposed[n] == Some(block))
    }

    fn violation(&self) -> Option<Violation> {
        let mut decided = HONEST.iter().filter_map(|n| self.executed[*n]);
        if let Some(first) = decided.next() {
            if decided.any(|b| b != first) {
                return Some(Violation::Agreement);
            }
        }
        if self.quiescent() && !self.late && self.consistent() && !self.all_executed() {
            return Some(Violation::Liveness);
        }
        None
    }

    /// Delivers every honest message in order, firing timers whenever
    /// none is in flight, until the world is quiescent.
    fn settle(&mut self) {
        loop {
            let action = match (self.in_flight.first(), self.timers.first()) {
                (Some(&(to, from, msg)), _) => Action::Deliver { to, from, msg },
                (None, Some(&(_, node, timer))) => Action::Fire { node, timer },
                (None, None) => return,
            };
            self.apply(action);
        }
    }
}

/// Walks every schedule in scope, depth first, up to `budget` states.
fn explore(budget: usize) -> Outcome {
    let root = World::new();
    let mut visited = HashSet::from([root.fingerprint()]);
    let mut path: Vec<Action> = Vec::new();
    let mut stack = vec![(root.actions(), 0usize, root)];
    while let Some((actions, next, world)) = stack.last_mut() {
        let Some(action) = actions.get(*next).copied() else {
            stack.pop();
            path.pop();
            continue;
        };
        *next += 1;
        let mut successor = world.clone();
        successor.apply(action);
        if !visited.insert(successor.fingerprint()) {
            continue;
        }
        path.push(action);
        if let Some(violation) = successor.violation() {
            return Outcome {
                states: visited.len(),
                complete: false,
                counterexample: Some((violation, path)),
            };
        }
        if visited.len() >= budget {
            return Outcome {
                states: visited.len(),
                complete: false,
                counterexample: None,
            };
        }
        let actions = match successor.all_executed() {
            true => Vec::new(),
            false => successor.actions(),
        };
        stack.push((actions, 0, successor));
    }
    Outcome {
        states: visited.len(),
        complete: true,
        counterexample: None,
    }
}

#[test]
fn the_explorer_finds_no_counterexample() {
    let outcome = explore(BUDGET);
    println!("explored {} states", outcome.states);
    if let Some((violation, schedule)) = &outcome.counterexample {
        for action in schedule {
            println!("  {action:?}");
        }
        panic!("{violation:?} after {} steps", schedule.len());
    }
    assert!(outcome.complete, "the budget cut the search short");
}

/// The explorer's counterexample at the parent of this machine, whose
/// nodes voted once per height with no round: the proposer is slow,
/// node 1 times out and proposes C in round 1 and node 2 prevotes it,
/// then proposal A reaches nodes 1, 2 and 3 and node 3 prevotes A. No
/// block could reach a quorum again and the height was stuck. Here the
/// same schedule decides by round 1.
#[test]
fn a_late_proposal_after_a_timeout_no_longer_stalls_the_height() {
    let mut world = World::new();
    let round0 = |node| Action::Fire {
        node,
        timer: Timer {
            height: 0,
            round: 0,
            step: Step::Propose,
        },
    };
    world.apply(round0(1));
    while let Some(&(to, from, msg)) = world.in_flight.first() {
        world.apply(Action::Deliver { to, from, msg });
    }
    for to in HONEST {
        world.apply(Action::Forge { to, block: A });
    }
    world.apply(round0(2));
    world.apply(round0(3));
    world.settle();
    assert!(world.quiescent() && !world.late);
    assert_eq!(world.violation(), None);
    assert!(world.all_executed(), "executed: {:?}", world.executed);
}
