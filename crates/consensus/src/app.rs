//! The application interface driven by the consensus engine.
//!
//! Mirrors the ABCI split the paper describes in Fig. 4: `CheckTx`
//! ("verify that the validator node did not tamper the transaction and
//! add valid transactions to the local mempool") and `DeliverTx` (the
//! "final, third set of validation checks … before mutating the state"),
//! plus the commit hook where ACCEPT_BID children are enqueued
//! (Algorithm 3's `Commit(BlockTxs)`). The seam is typed: the receiver
//! decodes a payload once into the application's [`App::Tx`], and
//! every later call borrows that value.

use crate::TxId;
use scdb_sim::{NodeId, SimTime};

/// Outcome of a validation step: accepted with a simulated CPU cost, or
/// rejected with a reason. The cost is what couples application work
/// (schema checks, signature verification, contract gas) into the
/// simulated timeline.
pub type AppResult = Result<SimTime, String>;

/// Application-supplied, engine-opaque metadata a proposer gossips
/// *with* its block — what makes a block self-describing instead of a
/// bare transaction list. The engine carries these bytes untouched from
/// `form_block` to every replica's `deliver_block`; their meaning
/// belongs entirely to the application (the SmartchainDB cluster ships
/// its serialized conflict-wave schedule and the committed state digest
/// it formed the block against). Replicas MUST treat the contents as
/// untrusted input: an adversarial proposer controls them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockAnnotations {
    /// The proposer's serialized execution schedule over the block's
    /// transactions (the SmartchainDB wave plan), if it attached one.
    pub schedule: Option<String>,
    /// The proposer's committed state digest when it formed the block
    /// (wire form), if it attached one: the digest of the state the
    /// block executes from, so a replica compares it with its own
    /// *before* executing and a difference means the two disagree on
    /// the chain up to this block, whatever this block's verdicts.
    pub state_digest: Option<String>,
}

impl BlockAnnotations {
    /// True when no annotation was attached.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_none() && self.state_digest.is_none()
    }
}

/// What [`App::form_block`] returns: the selected candidate indices
/// plus the annotations to gossip alongside exactly that selection.
/// The engine attaches the annotations to the proposal only when the
/// block body ends up being precisely the picked candidates in the
/// picked order — if sanitization drops a pick, or a re-proposal
/// prepends stranded transactions, the annotations no longer describe
/// the block and are discarded (replicas would reject them anyway).
#[derive(Debug, Clone, Default)]
pub struct FormedBlock {
    /// Indices into the candidate slice, in proposal order.
    pub picks: Vec<usize>,
    /// Metadata describing exactly `picks`.
    pub annotations: BlockAnnotations,
}

impl FormedBlock {
    /// A selection with no annotations (the FIFO default).
    pub fn from_picks(picks: Vec<usize>) -> FormedBlock {
        FormedBlock {
            picks,
            annotations: BlockAnnotations::default(),
        }
    }
}

/// A structured, self-describing block as delivered to the
/// application: the decoded transactions in block order plus the
/// proposer's annotations.
#[derive(Debug)]
pub struct BlockView<'a, Tx> {
    /// The block's transactions, in block order, as the application
    /// decoded them at submission.
    pub txs: &'a [(TxId, &'a Tx)],
    /// The proposer's gossiped annotations (untrusted).
    pub annotations: &'a BlockAnnotations,
}

impl<Tx> Clone for BlockView<'_, Tx> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Tx> Copy for BlockView<'_, Tx> {}

impl<'a, Tx> BlockView<'a, Tx> {
    /// A bare block with no annotations (single-tx delivery, tests).
    pub fn bare(txs: &'a [(TxId, &'a Tx)]) -> BlockView<'a, Tx> {
        const NONE: &BlockAnnotations = &BlockAnnotations {
            schedule: None,
            state_digest: None,
        };
        BlockView {
            txs,
            annotations: NONE,
        }
    }
}

/// A replicated state machine running on every validator node.
///
/// The engine calls each method with the node id so one `App` value can
/// hold per-node state (each node has its own database replica).
///
/// Payloads are decoded once: the receiver's [`App::decode`] turns the
/// client's bytes into the application's own [`App::Tx`] when the
/// submission arrives, and the engine keeps that value, lending `&Tx`
/// to every later call — CheckTx on the receiver and on every
/// validator, block forming, delivery and the commit hook — so no
/// application re-parses, or caches a parse, per stage (the typed seam
/// of malachite's consensus, generic over the application's value).
pub trait App {
    /// The application's decoded transaction.
    type Tx;

    /// Decodes a client payload, once, on the receiver. An error
    /// rejects the submission with that reason before CheckTx runs.
    fn decode(&self, payload: &str) -> Result<Self::Tx, String>;

    /// Admission validation before a transaction enters `node`'s mempool.
    fn check_tx(&mut self, node: NodeId, id: TxId, tx: &Self::Tx) -> AppResult;

    /// CheckTx for a whole proposed block on `node` (Fig. 4's second
    /// validation set): one verdict per transaction, aligned with
    /// `txs`, each what [`App::check_tx`] would return for that member
    /// in block order. The engine re-checks every proposal through this
    /// method; the default is that loop. Applications whose stateless
    /// checks amortize over a block (the SmartchainDB cluster pools a
    /// block's signature verification across its workers) override it —
    /// the verdicts must not depend on the strategy.
    fn check_block(&mut self, node: NodeId, txs: &[(TxId, &Self::Tx)]) -> Vec<AppResult> {
        txs.iter()
            .map(|(id, tx)| self.check_tx(node, *id, tx))
            .collect()
    }

    /// Execution during block commit on `node`; mutates node-local state.
    fn deliver_tx(&mut self, node: NodeId, id: TxId, tx: &Self::Tx) -> AppResult;

    /// Block forming: selects and orders up to `max` of the proposer's
    /// mempool candidates into the next proposal, returning indices
    /// into `candidates` plus optional [`BlockAnnotations`] describing
    /// exactly that selection. The default is FIFO (the first `max` in
    /// arrival order, unannotated). Applications with a conflict-aware
    /// scheduler (the SmartchainDB cluster packs candidates into wide
    /// conflict-free waves over their footprints and interleaves wave
    /// members across UTXO shards) override it so proposed blocks
    /// arrive at `deliver_block` already shaped for parallel
    /// validation — and gossip the wave schedule itself with the block,
    /// so replicas verify rather than re-derive it. The engine ignores
    /// out-of-range and duplicate indices, caps the selection at `max`,
    /// drops the annotations whenever the final block body is not
    /// exactly the returned picks, and returns every unselected
    /// candidate to the proposer's mempool in arrival order — an
    /// abandoned selection is indistinguishable from never having been
    /// formed.
    fn form_block(
        &mut self,
        node: NodeId,
        candidates: &[(TxId, &Self::Tx)],
        max: usize,
    ) -> FormedBlock {
        let _ = node;
        FormedBlock::from_picks((0..candidates.len().min(max)).collect())
    }

    /// Executes one whole block on `node`, returning a verdict per
    /// transaction, aligned with `block.txs`. The engine always
    /// delivers through this method, the block exactly as its proposer
    /// formed it on every replica; the default loops
    /// [`App::deliver_tx`] in block order and ignores the annotations.
    /// Applications with a batch execution path (the SmartchainDB
    /// cluster's conflict-aware validation pipeline) override it to
    /// validate — and, over the hash-sharded UTXO set, apply —
    /// non-conflicting transactions concurrently, while keeping
    /// replica-identical results: the contract
    /// is that a block's verdicts and post-state depend only on the
    /// block's content and the pre-block state, never on the delivery
    /// strategy a replica chose — in particular, never on the
    /// (untrusted) annotations, which may only shape *how* the block is
    /// executed, not what it decides.
    fn deliver_block(&mut self, node: NodeId, block: BlockView<'_, Self::Tx>) -> Vec<AppResult> {
        block
            .txs
            .iter()
            .map(|(id, tx)| self.deliver_tx(node, *id, tx))
            .collect()
    }

    /// Called after `node` finishes executing a block. Returns extra
    /// simulated work triggered by the commit (e.g. determining and
    /// enqueueing RETURN children). `committed` lists the members whose
    /// delivery succeeded, in block order.
    fn on_commit(
        &mut self,
        node: NodeId,
        height: u64,
        committed: &[(TxId, &Self::Tx)],
        now: SimTime,
    ) -> SimTime {
        let _ = (node, height, committed, now);
        SimTime::ZERO
    }
}

/// A trivial app for engine tests: accepts everything at a fixed cost
/// and counts deliveries per node.
#[derive(Debug, Default)]
pub struct CountingApp {
    /// `delivered[node]` = tx ids executed on that node, in order.
    pub delivered: Vec<Vec<TxId>>,
    /// Payload substring that triggers a check-time rejection.
    pub reject_marker: Option<String>,
    /// Fixed per-tx validation cost.
    pub cost: SimTime,
}

impl CountingApp {
    pub fn new(nodes: usize) -> CountingApp {
        CountingApp {
            delivered: vec![Vec::new(); nodes],
            reject_marker: None,
            cost: SimTime::ZERO,
        }
    }
}

impl App for CountingApp {
    type Tx = String;

    fn decode(&self, payload: &str) -> Result<String, String> {
        Ok(payload.to_owned())
    }

    fn check_tx(&mut self, _node: NodeId, _id: TxId, payload: &String) -> AppResult {
        if let Some(marker) = &self.reject_marker {
            if payload.contains(marker.as_str()) {
                return Err(format!("payload contains {marker:?}"));
            }
        }
        Ok(self.cost)
    }

    fn deliver_tx(&mut self, node: NodeId, id: TxId, _payload: &String) -> AppResult {
        self.delivered[node].push(id);
        Ok(self.cost)
    }
}
