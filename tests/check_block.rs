//! Pooled CheckTx ≡ the per-transaction loop.
//!
//! `SmartchainCluster::check_block` verifies the stateless part of a
//! proposed block — its members as the receivers decoded them — as one
//! pool before running `check_tx` per member; `App::check_block`'s
//! default is the plain loop over `check_tx`. The two must be
//! indistinguishable from outside.
//!
//! **Differentially**: the same submissions go through a cluster whose
//! `check_block` is forwarded and through one behind a wrapper that
//! omits it (so the engine gets the trait's default loop), at workers 1
//! and 2 — every CheckTx and DeliverTx verdict in call order, every
//! replica's digest at every height, final statuses and the simulated
//! timeline (messages, decided height, latencies) must be equal.
//!
//! **Adversarially**: one named case per way a block member can fail,
//! handed to `check_block` directly, next to the loop on a twin cluster
//! and the sequential oracle.

use proptest::prelude::*;
use smartchaindb::consensus::{
    App, AppResult, BftConfig, BlockView, FormedBlock, Harness, TxId, TxStatus,
};
use smartchaindb::core::validate::validate_transaction;
use smartchaindb::json::{arr, obj};
use smartchaindb::server::DecodedTx;
use smartchaindb::sim::{NodeId, SimTime};
use smartchaindb::store::StateDigest;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{
    KeyPair, LedgerState, PipelineOptions, SmartchainCluster, Telemetry, Transaction, TxBuilder,
};

const NODES: usize = 4;

/// Everything a run shows the engine and an observer, in call order.
#[derive(Debug, Default, PartialEq)]
struct Log {
    /// Every CheckTx verdict (Submit-time and Proposal-time alike).
    checks: Vec<(NodeId, TxId, AppResult)>,
    /// Every DeliverTx verdict.
    delivered: Vec<(NodeId, TxId, AppResult)>,
    /// Each replica's digest after each height it executed.
    digests: Vec<(NodeId, u64, StateDigest)>,
}

/// A cluster that forwards every `App` method, `check_block` included,
/// and writes down what crossed the interface.
struct Pooled {
    cluster: SmartchainCluster,
    log: Log,
    /// Verified-set misses that happened inside `check_block` and
    /// `deliver_block` calls.
    block_misses: u64,
}

impl Pooled {
    fn new(workers: usize, telemetry: Telemetry) -> Pooled {
        // Telemetry is named explicitly: with it off each ledger counts
        // its own verified-set traffic (the default reads the env).
        let options = PipelineOptions::with_workers(workers)
            .durable(false)
            .with_telemetry(telemetry);
        Pooled {
            cluster: SmartchainCluster::with_options(NODES, options),
            log: Log::default(),
            block_misses: 0,
        }
    }

    fn misses(&self) -> u64 {
        (0..NODES)
            .map(|node| self.cluster.ledger(node).verified_stats().misses)
            .sum()
    }

    fn hits(&self) -> u64 {
        (0..NODES)
            .map(|node| self.cluster.ledger(node).verified_stats().hits)
            .sum()
    }
}

impl App for Pooled {
    type Tx = DecodedTx;

    fn decode(&self, payload: &str) -> Result<DecodedTx, String> {
        self.cluster.decode(payload)
    }

    fn check_tx(&mut self, node: NodeId, id: TxId, tx: &DecodedTx) -> AppResult {
        let verdict = self.cluster.check_tx(node, id, tx);
        self.log.checks.push((node, id, verdict.clone()));
        verdict
    }

    fn check_block(&mut self, node: NodeId, txs: &[(TxId, &DecodedTx)]) -> Vec<AppResult> {
        let before = self.misses();
        let verdicts = self.cluster.check_block(node, txs);
        self.block_misses += self.misses() - before;
        for ((id, _), verdict) in txs.iter().zip(&verdicts) {
            self.log.checks.push((node, *id, verdict.clone()));
        }
        verdicts
    }

    fn deliver_tx(&mut self, node: NodeId, id: TxId, tx: &DecodedTx) -> AppResult {
        self.cluster.deliver_tx(node, id, tx)
    }

    fn form_block(
        &mut self,
        node: NodeId,
        candidates: &[(TxId, &DecodedTx)],
        max: usize,
    ) -> FormedBlock {
        self.cluster.form_block(node, candidates, max)
    }

    fn deliver_block(&mut self, node: NodeId, block: BlockView<'_, DecodedTx>) -> Vec<AppResult> {
        let before = self.misses();
        let verdicts = self.cluster.deliver_block(node, block);
        self.block_misses += self.misses() - before;
        for ((tx, _), verdict) in block.txs.iter().zip(&verdicts) {
            self.log.delivered.push((node, *tx, verdict.clone()));
        }
        verdicts
    }

    fn on_commit(
        &mut self,
        node: NodeId,
        height: u64,
        committed: &[(TxId, &DecodedTx)],
        now: SimTime,
    ) -> SimTime {
        let extra = self.cluster.on_commit(node, height, committed, now);
        let digest = self.cluster.state_digest(node);
        self.log.digests.push((node, height, digest));
        extra
    }
}

/// The same cluster behind an `App` that does not know `check_block`:
/// the engine's Proposal handler gets the trait's default loop.
struct Looped(Pooled);

impl App for Looped {
    type Tx = DecodedTx;

    fn decode(&self, payload: &str) -> Result<DecodedTx, String> {
        self.0.decode(payload)
    }

    fn check_tx(&mut self, node: NodeId, id: TxId, tx: &DecodedTx) -> AppResult {
        self.0.check_tx(node, id, tx)
    }

    fn deliver_tx(&mut self, node: NodeId, id: TxId, tx: &DecodedTx) -> AppResult {
        self.0.deliver_tx(node, id, tx)
    }

    fn form_block(
        &mut self,
        node: NodeId,
        candidates: &[(TxId, &DecodedTx)],
        max: usize,
    ) -> FormedBlock {
        self.0.form_block(node, candidates, max)
    }

    fn deliver_block(&mut self, node: NodeId, block: BlockView<'_, DecodedTx>) -> Vec<AppResult> {
        self.0.deliver_block(node, block)
    }

    fn on_commit(
        &mut self,
        node: NodeId,
        height: u64,
        committed: &[(TxId, &DecodedTx)],
        now: SimTime,
    ) -> SimTime {
        self.0.on_commit(node, height, committed, now)
    }
}

/// Access to the recording cluster under either wrapper.
trait Probe: App<Tx = DecodedTx> {
    fn probe(&mut self) -> &mut Pooled;
}

impl Probe for Pooled {
    fn probe(&mut self) -> &mut Pooled {
        self
    }
}

impl Probe for Looped {
    fn probe(&mut self) -> &mut Pooled {
        &mut self.0
    }
}

/// Retry budget for child settlements, as in `SmartchainHarness`.
const CHILD_RETRY_LIMIT: u32 = 8;

/// A consensus harness plus `SmartchainHarness::run`'s settlement pump,
/// over either wrapper.
struct Run<A: Probe> {
    harness: Harness<A>,
    handles: Vec<TxId>,
    children: Vec<(TxId, String, u32)>,
}

impl<A: Probe> Run<A> {
    fn new(app: A, max_block_txs: usize) -> Run<A> {
        let config = BftConfig {
            max_block_txs,
            ..BftConfig::tendermint(NODES)
        };
        Run {
            harness: Harness::new(config, app),
            handles: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Submits one phase `spacing_us` apart and runs to quiescence,
    /// pumping determined children back into consensus and retrying the
    /// ones a lagging receiver rejected.
    fn phase(&mut self, payloads: &[String], spacing_us: u64) {
        let h = &mut self.harness;
        let base = h.now().as_micros();
        for (k, payload) in payloads.iter().enumerate() {
            let at = SimTime::from_micros(base + k as u64 * spacing_us);
            self.handles.push(h.submit_at(at, payload.clone()));
        }
        loop {
            let progressed = h.has_live_work() && h.step();
            let children = h.app_mut().probe().cluster.drain_outbox();
            if !children.is_empty() {
                let now = h.now();
                for payload in children {
                    let handle = h.submit_at(now, payload.clone());
                    self.children.push((handle, payload, 0));
                }
                continue;
            }
            if progressed {
                continue;
            }
            let retry_at = h.now() + h.config().block_interval;
            let mut resubmitted = false;
            for child in &mut self.children {
                if child.2 < CHILD_RETRY_LIMIT && matches!(h.status(child.0), TxStatus::Rejected(_))
                {
                    child.0 = h.submit_at(retry_at, child.1.clone());
                    child.2 += 1;
                    resubmitted = true;
                }
            }
            if !resubmitted {
                break;
            }
        }
    }

    fn finish(mut self) -> Outcome {
        let statuses = self
            .handles
            .iter()
            .chain(self.children.iter().map(|(handle, _, _)| handle))
            .map(|handle| self.harness.status(*handle).clone())
            .collect();
        let messages = self.harness.messages_sent();
        let height = self.harness.decided_height();
        let latencies = self.harness.latencies_secs();
        let probe = self.harness.app_mut().probe();
        Outcome {
            statuses,
            messages,
            height,
            latencies,
            committed: probe.cluster.ledger(0).committed_ids().to_vec(),
            final_digests: (0..NODES).map(|n| probe.cluster.state_digest(n)).collect(),
            log: std::mem::take(&mut probe.log),
            block_misses: probe.block_misses,
            misses: probe.misses(),
            hits: probe.hits(),
        }
    }
}

/// What a finished run is compared on — everything but the
/// verified-set traffic, which is where the two strategies differ.
#[derive(Debug)]
struct Outcome {
    log: Log,
    statuses: Vec<TxStatus>,
    messages: u64,
    height: u64,
    latencies: Vec<f64>,
    committed: Vec<String>,
    final_digests: Vec<StateDigest>,
    block_misses: u64,
    misses: u64,
    hits: u64,
}

impl Outcome {
    fn assert_same_as(&self, other: &Outcome, what: &str) {
        // Field by field, so a failure names what diverged.
        assert_eq!(
            self.log.checks, other.log.checks,
            "{what}: CheckTx verdicts"
        );
        assert_eq!(self.log.delivered, other.log.delivered, "{what}: DeliverTx");
        assert_eq!(self.log.digests, other.log.digests, "{what}: per-height");
        assert_eq!(self.statuses, other.statuses, "{what}: statuses");
        assert_eq!(self.messages, other.messages, "{what}: messages_sent");
        assert_eq!(self.height, other.height, "{what}: decided_height");
        assert_eq!(self.latencies, other.latencies, "{what}: latencies_secs");
        assert_eq!(self.committed, other.committed, "{what}: commit order");
        assert_eq!(self.final_digests, other.final_digests, "{what}: digests");
    }
}

fn run_phases<A: Probe>(app: A, phases: &[Vec<String>], max_block: usize, spacing: u64) -> Outcome {
    let mut run = Run::new(app, max_block);
    for phase in phases {
        run.phase(phase, spacing);
    }
    run.finish()
}

/// The four runs of the differential: pooled and looped, at workers 1
/// and 2. Returns them pooled-first for the callers' own assertions.
fn assert_pooled_equals_looped(
    phases: &[Vec<String>],
    max_block: usize,
    spacing: u64,
) -> (Outcome, Outcome) {
    let off = Telemetry::disabled;
    let pooled = run_phases(Pooled::new(2, off()), phases, max_block, spacing);
    let looped = run_phases(Looped(Pooled::new(2, off())), phases, max_block, spacing);
    pooled.assert_same_as(&looped, "pooled vs looped, workers=2");
    let pooled_1 = run_phases(Pooled::new(1, off()), phases, max_block, spacing);
    pooled.assert_same_as(&pooled_1, "pooled, workers=2 vs 1");
    let looped_1 = run_phases(Looped(Pooled::new(1, off())), phases, max_block, spacing);
    pooled.assert_same_as(&looped_1, "pooled vs looped, workers=1");
    // Replicas agree, whatever happened.
    let first = pooled.final_digests[0];
    assert!(pooled.final_digests.iter().all(|d| *d == first));
    (pooled, looped)
}

fn escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

fn seed_key(tag: u8, index: u8) -> KeyPair {
    let mut seed = [0u8; 32];
    seed[0] = tag;
    seed[1] = index;
    seed[31] = 0xCB;
    KeyPair::from_seed(seed)
}

fn create(owner: &KeyPair, nonce: u64) -> Transaction {
    TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(owner.public_hex(), 1)
        .nonce(nonce)
        .sign(&[owner])
}

fn transfer(asset: &Transaction, from: &KeyPair, to: &KeyPair, n: u64) -> Transaction {
    TxBuilder::transfer(asset.id.clone())
        .input(asset.id.clone(), 0, vec![from.public_hex()])
        .output_with_prev(to.public_hex(), 1, vec![from.public_hex()])
        .metadata(obj! { "n" => n })
        .sign(&[from])
}

/// Flips one bit of the first input's signature and re-seals: shape and
/// id stay clean, so only the signature check can tell.
fn with_flipped_signature(tx: &Transaction) -> Transaction {
    let mut forged = tx.clone();
    let wire = &mut forged.inputs[0].fulfillment;
    let last = wire.pop().and_then(|c| c.to_digit(16));
    let last = last.expect("a fulfillment ends in signature hex");
    wire.push(char::from_digit(last ^ 1, 16).expect("a hex digit"));
    forged.seal();
    assert!(forged.id_is_consistent());
    forged
}

/// The auction phases of a generated plan: CREATEs, REQUESTs, BIDs,
/// ACCEPT_BIDs.
fn auction_phases(requests: usize, bidders: usize, seed: u64) -> [Vec<String>; 4] {
    scdb_plan(
        &ScenarioConfig {
            requests,
            bidders_per_request: bidders,
            capability_count: 2,
            capability_bytes: 16,
            seed,
        },
        &escrow().public_hex(),
    )
    .phases()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence, over flat (many small auctions) and
    /// contended (few auctions, many bidders each) mixes with tampered,
    /// duplicated, malformed and double-spending submissions sprinkled
    /// into the phases.
    #[test]
    fn pooled_check_block_equals_the_default_loop(
        requests in 1usize..4,
        bidders in 1usize..5,
        seed in any::<u64>(),
        block in 0usize..3,
        spacing in 0usize..2,
        corruptions in prop::collection::vec(
            (0u8..6, 0usize..3, any::<prop::sample::Index>()),
            0..5,
        ),
    ) {
        let max_block = [2usize, 9, 64][block];
        let spacing = [0u64, 500][spacing];
        let mallory = seed_key(0x66, 0);
        let mut phases = auction_phases(requests, bidders, seed).to_vec();
        for (round, (kind, phase, at)) in corruptions.iter().enumerate() {
            let round = round as u8;
            let payloads = &mut phases[*phase];
            let at = at.index(payloads.len());
            match kind {
                // Garbage that fails to parse.
                0 => payloads.insert(at, format!("{{corrupt #{round}")),
                // A re-sealed forgery only the signature check catches.
                1 => {
                    let genuine = create(&seed_key(0x67, round), 0xBAD0 + round as u64);
                    payloads.insert(at, with_flipped_signature(&genuine).to_payload());
                }
                // A byte-identical resubmission.
                2 => payloads.insert(at, payloads[at].clone()),
                // An id tampered in transit.
                3 => {
                    let mut flipped = payloads[at].clone();
                    if let Some(pos) = flipped.find("\"id\"") {
                        let range = pos + 7..pos + 11;
                        if flipped.is_char_boundary(range.end) {
                            flipped.replace_range(range, "0000");
                        }
                    }
                    payloads.insert(at, flipped);
                }
                // A double spend racing through different receivers:
                // the mint now, both spends in the next phase.
                4 => {
                    let owner = seed_key(0x68, round);
                    let minted = create(&owner, 0xD500 + round as u64);
                    payloads.insert(at, minted.to_payload());
                    let next = &mut phases[*phase + 1];
                    next.push(transfer(&minted, &owner, &mallory, 1).to_payload());
                    next.push(transfer(&minted, &owner, &owner, 2).to_payload());
                }
                // A shape the template rejects (CREATE with no outputs).
                5 => {
                    let mut hollow = create(&seed_key(0x69, round), 0x5C00 + round as u64);
                    hollow.outputs.clear();
                    hollow.seal();
                    payloads.insert(at, hollow.to_payload());
                }
                _ => unreachable!(),
            }
        }
        assert_pooled_equals_looped(&phases, max_block, spacing);
    }
}

/// Honest traffic: every validation inside a Proposal-time `check_block`
/// and inside `deliver_block` is a verified-set hit — the only full
/// checks left are the Submit-time ones.
#[test]
fn honest_blocks_validate_on_hits_only() {
    let phases = auction_phases(3, 3, 0xC4);
    let (pooled, looped) = assert_pooled_equals_looped(&phases, 9, 500);
    let accepted = pooled
        .statuses
        .iter()
        .filter(|s| matches!(s, TxStatus::Committed(_)))
        .count();
    assert_eq!(accepted, 3 * (3 + 1 + 3 + 1) + 3 * 3, "clients + children");

    assert_eq!(pooled.block_misses, 0, "a block in hand never misses");
    assert!(pooled.hits > 0);
    // One full check per Submit event (lagging-receiver retries
    // included) and nothing else.
    assert_eq!(pooled.misses, submit_checks(&pooled.log));
    // The loop verified the same members one at a time instead.
    assert_eq!(looped.block_misses, 0, "delivery pools under either App");
    assert!(looped.misses > pooled.misses, "{looped:?}");
}

/// The pool's counters and span observe only: a traced cluster decides
/// what an untraced one does, and the counters add up to the members
/// the engine handed over.
#[test]
fn telemetry_on_cluster_equals_telemetry_off() {
    let phases = auction_phases(2, 3, 0x7E1E);
    let telemetry = Telemetry::enabled();
    let off = run_phases(Pooled::new(2, Telemetry::disabled()), &phases, 9, 500);
    let on = run_phases(Pooled::new(2, telemetry.clone()), &phases, 9, 500);
    on.assert_same_as(&off, "telemetry on vs off");

    let snapshot = telemetry.snapshot().expect("telemetry is on");
    let sum = |stage: &str| -> u64 {
        ["pooled", "already_verified", "failed_stateless"]
            .iter()
            .map(|what| snapshot.counters[&format!("cluster.{stage}.{what}")])
            .sum()
    };
    let proposal_checks = on.log.checks.len() as u64 - submit_checks(&on.log);
    assert_eq!(sum("check_block"), proposal_checks);
    assert_eq!(sum("deliver_block"), on.log.delivered.len() as u64);
    assert_eq!(snapshot.counters["cluster.check_block.failed_stateless"], 0);
    assert!(snapshot.histograms["cluster.check_block_ns"].count > 0);
}

/// Submit-time CheckTx calls: every submission is checked once by its
/// receiver before any proposal can carry it.
fn submit_checks(log: &Log) -> u64 {
    let submitted: std::collections::HashSet<TxId> =
        log.checks.iter().map(|(_, tx, _)| *tx).collect();
    submitted.len() as u64
}

/// A hand-made block decoded the way the engine decodes a submission:
/// members numbered from `first`, and a payload that does not decode
/// rejected on arrival with the decoder's reason — it never reaches a
/// block.
type Decoded = Vec<Result<(TxId, DecodedTx), String>>;

fn decode_block(cluster: &SmartchainCluster, first: TxId, block: &[String]) -> Decoded {
    (first..)
        .zip(block)
        .map(|(id, payload)| Ok((id, cluster.decode(payload)?)))
        .collect()
}

/// The members that decoded, in block order.
fn members(decoded: &Decoded) -> Vec<(TxId, &DecodedTx)> {
    decoded.iter().flatten().map(|(id, tx)| (*id, tx)).collect()
}

/// One verdict per payload: the block's verdicts in member order, each
/// decode failure in its own slot.
fn in_payload_order(decoded: &Decoded, verdicts: Vec<AppResult>) -> Vec<AppResult> {
    let mut verdicts = verdicts.into_iter();
    decoded
        .iter()
        .map(|member| match member {
            Ok(_) => verdicts.next().expect("one verdict per member"),
            Err(reason) => Err(reason.clone()),
        })
        .collect()
}

/// One cluster under each wrapper with the same committed prefix, for
/// handing hand-made blocks to `check_block` directly.
struct Twins {
    pooled: Pooled,
    looped: Looped,
    oracle: LedgerState,
    next_tx: TxId,
}

impl Twins {
    fn new(telemetry: Telemetry) -> Twins {
        let mut oracle = LedgerState::new();
        oracle.add_reserved_account(escrow().public_hex());
        Twins {
            pooled: Pooled::new(2, telemetry),
            looped: Looped(Pooled::new(2, Telemetry::disabled())),
            oracle,
            next_tx: 0,
        }
    }

    /// Delivers `block` on every replica of both clusters and applies
    /// it to the sequential oracle; returns the (agreed) verdicts.
    fn deliver(&mut self, block: &[String]) -> Vec<Result<(), String>> {
        let decoded = decode_block(&self.pooled.cluster, self.next_tx, block);
        let members = members(&decoded);
        self.next_tx += block.len() as TxId;
        let expected: Vec<Result<(), String>> = block
            .iter()
            .map(|payload| {
                let tx = Transaction::from_payload(payload).map_err(|e| e.to_string())?;
                validate_transaction(&tx, &self.oracle).map_err(|e| e.to_string())?;
                self.oracle.apply(&tx).expect("validated spends apply");
                Ok(())
            })
            .collect();
        for node in 0..NODES {
            for app in [
                &mut self.pooled as &mut dyn App<Tx = DecodedTx>,
                &mut self.looped,
            ] {
                let verdicts = app.deliver_block(node, BlockView::bare(&members));
                let committed: Vec<(TxId, &DecodedTx)> = members
                    .iter()
                    .zip(&verdicts)
                    .filter_map(|(member, v)| v.is_ok().then_some(*member))
                    .collect();
                app.on_commit(node, 1, &committed, SimTime::ZERO);
                let got: Vec<Result<(), String>> = in_payload_order(&decoded, verdicts)
                    .into_iter()
                    .map(|v| v.map(|_| ()))
                    .collect();
                assert_eq!(got, expected, "node {node}: delivery ≡ sequential");
            }
        }
        for node in 0..NODES {
            let digest = self.oracle.state_digest();
            assert_eq!(self.pooled.cluster.state_digest(node), digest);
            assert_eq!(self.looped.0.cluster.state_digest(node), digest);
        }
        expected
    }

    /// Hands `block` to `check_block` on `node` of both clusters — the
    /// pool on one, the trait's loop on the other — and returns the
    /// (agreed) verdicts, simulated costs included.
    fn check(&mut self, node: NodeId, block: &[String]) -> Vec<AppResult> {
        let decoded = decode_block(&self.pooled.cluster, self.next_tx, block);
        let members = members(&decoded);
        let pooled = in_payload_order(&decoded, self.pooled.check_block(node, &members));
        let looped = in_payload_order(&decoded, self.looped.check_block(node, &members));
        assert_eq!(pooled, looped, "check_block ≡ loop over check_tx");
        // What CheckTx says is what the sequential check says.
        for (payload, verdict) in block.iter().zip(&pooled) {
            let expected = Transaction::from_payload(payload)
                .map_err(|e| e.to_string())
                .and_then(|tx| validate_transaction(&tx, &self.oracle).map_err(|e| e.to_string()));
            assert_eq!(verdict.clone().map(|_| ()), expected);
        }
        pooled
    }
}

/// A committed auction up to its bids, the pending accept, and spare
/// mints for the adversaries to spend.
struct Stage {
    twins: Twins,
    requester: KeyPair,
    request: Transaction,
    accept: Transaction,
    owner: KeyPair,
    mints: Vec<Transaction>,
}

fn stage(telemetry: Telemetry) -> Stage {
    let escrow = escrow();
    let requester = seed_key(0x50, 0);
    let owner = seed_key(0xA1, 0);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
        .output(requester.public_hex(), 1)
        .sign(&[&requester]);
    let suppliers: Vec<KeyPair> = (0..2).map(|b| seed_key(0x10, b)).collect();
    let assets: Vec<Transaction> = suppliers
        .iter()
        .enumerate()
        .map(|(b, s)| create(s, b as u64))
        .collect();
    let bids: Vec<Transaction> = assets
        .iter()
        .zip(&suppliers)
        .map(|(asset, supplier)| {
            TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
                .sign(&[supplier])
        })
        .collect();
    let accept = accept_for(&request, &bids, &suppliers, &requester, &requester);
    let mints: Vec<Transaction> = (0..4).map(|n| create(&owner, 100 + n)).collect();

    let mut twins = Twins::new(telemetry);
    let prefix: Vec<String> = assets
        .iter()
        .chain([&request])
        .chain(&bids)
        .chain(&mints)
        .map(Transaction::to_payload)
        .collect();
    assert!(twins.deliver(&prefix).iter().all(Result::is_ok));
    Stage {
        twins,
        requester,
        request,
        accept,
        owner,
        mints,
    }
}

/// The ACCEPT_BID of `bids[0]`, settling to `requester`, signed by
/// `signer`.
fn accept_for(
    request: &Transaction,
    bids: &[Transaction],
    suppliers: &[KeyPair],
    requester: &KeyPair,
    signer: &KeyPair,
) -> Transaction {
    let escrow_pk = escrow().public_hex();
    let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
        .output_with_prev(requester.public_hex(), 1, vec![escrow_pk.clone()]);
    for bid in bids {
        accept = accept.input(bid.id.clone(), 0, vec![escrow_pk.clone()]);
    }
    for supplier in suppliers.iter().skip(1) {
        accept = accept.output_with_prev(supplier.public_hex(), 1, vec![escrow_pk.clone()]);
    }
    accept.sign(&[signer])
}

/// Checks `block` on node 1 (pool vs loop vs sequential), requires the
/// member at `at` to be rejected with `needle` in its reason and every
/// other member accepted, then delivers the block everywhere.
fn assert_adversary_named(stage: &mut Stage, block: Vec<Transaction>, at: usize, needle: &str) {
    let payloads: Vec<String> = block.iter().map(Transaction::to_payload).collect();
    let verdicts = stage.twins.check(1, &payloads);
    for (i, verdict) in verdicts.iter().enumerate() {
        match verdict {
            Err(reason) if i == at => assert!(reason.contains(needle), "{reason}"),
            Ok(_) if i != at => {}
            other => panic!("member {i}: {other:?}"),
        }
    }
    stage.twins.deliver(&payloads);
}

#[test]
fn resealed_signature_bit_flip_is_named_by_the_signature_check() {
    let mut s = stage(Telemetry::disabled());
    let spend = transfer(&s.mints[0], &s.owner, &seed_key(0xB0, 0), 1);
    let block = vec![
        create(&s.owner, 1),
        with_flipped_signature(&spend),
        create(&s.owner, 2),
    ];
    assert_adversary_named(&mut s, block, 1, "fulfillment does not cover owners_before");
}

#[test]
fn id_mismatch_inside_a_block_is_named() {
    let mut s = stage(Telemetry::disabled());
    let mut tampered = create(&s.owner, 1);
    tampered.id = "0".repeat(64);
    let block = vec![create(&s.owner, 2), tampered];
    assert_adversary_named(&mut s, block, 1, "id mismatch");
}

#[test]
fn schema_violation_inside_a_block_is_named() {
    let mut s = stage(Telemetry::disabled());
    let mut hollow = create(&s.owner, 1);
    hollow.outputs.clear();
    hollow.seal();
    let block = vec![hollow, create(&s.owner, 2)];
    assert_adversary_named(&mut s, block, 0, "schema validation failed");
}

#[test]
fn resubmission_of_a_committed_id_is_a_duplicate() {
    let mut s = stage(Telemetry::disabled());
    let block = vec![create(&s.owner, 1), s.mints[2].clone()];
    assert_adversary_named(&mut s, block, 1, "DuplicateTransactionError");
}

#[test]
fn accept_bid_signed_by_a_non_requester_is_rejected() {
    let mut s = stage(Telemetry::disabled());
    let mallory = seed_key(0x66, 0);
    let mut forged = s.accept.clone();
    smartchaindb::core::sign_transaction(&mut forged, &[&mallory]);
    forged.seal();
    let block = vec![create(&s.owner, 1), forged];
    assert_adversary_named(&mut s, block, 1, "not signed by the required account set");
    // The requester's own accept then passes, through the pool, against
    // the requester keys its REQUEST resolves to.
    let genuine = vec![s.accept.clone()];
    assert_adversary_named(&mut s, genuine, usize::MAX, "");
    assert!(s.requester.public_hex() == s.request.inputs[0].owners_before[0]);
}

#[test]
fn accept_bid_whose_request_is_not_committed_is_left_to_the_serial_check() {
    let mut s = stage(Telemetry::disabled());
    // A whole second auction in one block: at CheckTx nothing of it is
    // committed, so the accept's REQUEST does not resolve and the pool
    // cannot vouch for it; the serial check names the missing input.
    let requester = seed_key(0x51, 0);
    let supplier = seed_key(0x11, 0);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
        .output(requester.public_hex(), 1)
        .nonce(7)
        .sign(&[&requester]);
    let asset = create(&supplier, 70);
    let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
        .input(asset.id.clone(), 0, vec![supplier.public_hex()])
        .output_with_prev(escrow().public_hex(), 1, vec![supplier.public_hex()])
        .sign(&[&supplier]);
    let accept = accept_for(
        &request,
        std::slice::from_ref(&bid),
        std::slice::from_ref(&supplier),
        &requester,
        &requester,
    );
    let payloads: Vec<String> = [&asset, &request, &accept]
        .map(Transaction::to_payload)
        .to_vec();
    let recorded = |s: &Stage, node| {
        s.twins
            .pooled
            .cluster
            .ledger(node)
            .verified_stats()
            .recorded
    };
    let before = recorded(&s, 2);
    let verdicts = s.twins.check(2, &payloads);
    assert!(verdicts[0].is_ok() && verdicts[1].is_ok());
    assert!(
        verdicts[2].as_ref().is_err_and(|e| e.contains(&request.id)),
        "{verdicts:?}"
    );
    assert_eq!(
        recorded(&s, 2) - before,
        2,
        "the unresolved accept was not recorded"
    );
    s.twins.deliver(&payloads);
}

#[test]
fn in_block_double_spend_passes_check_and_loses_at_delivery() {
    let mut s = stage(Telemetry::disabled());
    let first = transfer(&s.mints[1], &s.owner, &seed_key(0xB0, 0), 1);
    let second = transfer(&s.mints[1], &s.owner, &seed_key(0xB1, 0), 2);
    let payloads = vec![first.to_payload(), second.to_payload()];
    // CheckTx sees each spend alone against committed state.
    assert!(s.twins.check(3, &payloads).iter().all(Result::is_ok));
    let delivered = s.twins.deliver(&payloads);
    assert!(delivered[0].is_ok());
    assert!(
        delivered[1].as_ref().is_err_and(|e| e.contains("spent")),
        "{delivered:?}"
    );
}

/// Garbage is rejected by the receiver's decode with the parser's
/// reason — the same verdict the sequential check gives — and its
/// neighbours decide as if it had never been sent.
#[test]
fn unparseable_payload_mid_block_rejects_only_itself() {
    let mut s = stage(Telemetry::disabled());
    let payloads = vec![
        create(&s.owner, 1).to_payload(),
        "{not a transaction".to_owned(),
        create(&s.owner, 2).to_payload(),
    ];
    let verdicts = s.twins.check(0, &payloads);
    assert!(verdicts[0].is_ok() && verdicts[1].is_err() && verdicts[2].is_ok());
    let delivered = s.twins.deliver(&payloads);
    assert!(delivered[0].is_ok() && delivered[1].is_err() && delivered[2].is_ok());
}

#[test]
fn all_invalid_block_bisects_to_one_verdict_per_member() {
    let mut s = stage(Telemetry::disabled());
    // Every member re-sealed over a broken signature: the chunk's
    // pooled equation fails and bisects down to each one.
    let block: Vec<String> = (0..6)
        .map(|n| with_flipped_signature(&create(&s.owner, 10 + n)).to_payload())
        .collect();
    let recorded = |s: &Stage| s.twins.pooled.cluster.ledger(1).verified_stats().recorded;
    let before = recorded(&s);
    let verdicts = s.twins.check(1, &block);
    assert!(verdicts.iter().all(|v| v
        .as_ref()
        .is_err_and(|e| e.contains("fulfillment does not cover owners_before"))));
    assert_eq!(recorded(&s), before, "nothing in the block was vouched for");
    assert!(s.twins.deliver(&block).iter().all(Result::is_err));
}

#[test]
fn block_mixing_verified_and_fresh_members_pools_only_the_fresh() {
    let telemetry = Telemetry::enabled();
    let mut s = stage(telemetry.clone());
    let counter = |name: &str| {
        let counters = telemetry.snapshot().expect("telemetry is on").counters;
        counters.get(name).copied().unwrap_or(0)
    };
    let block: Vec<Transaction> = (0..6).map(|n| create(&s.owner, 20 + n)).collect();
    let payloads: Vec<String> = block.iter().map(Transaction::to_payload).collect();
    // Node 1 received two of them itself (Submit-time CheckTx)...
    let base = s.twins.next_tx;
    let cluster = &mut s.twins.pooled.cluster;
    for i in [1usize, 4] {
        let decoded = cluster.decode(&payloads[i]).expect("decodes");
        cluster
            .check_tx(1, base + i as TxId, &decoded)
            .expect("Submit-time CheckTx passes");
    }
    let hits_before = counter("verified.hits");
    let misses_before = counter("verified.misses");
    // ...and one member is a forgery.
    let mut mixed = payloads.clone();
    mixed[3] = with_flipped_signature(&block[3]).to_payload();
    let decoded = decode_block(&s.twins.pooled.cluster, base, &mixed);
    let pooled = s.twins.pooled.check_block(1, &members(&decoded));
    assert_eq!(
        pooled.iter().map(Result::is_ok).collect::<Vec<_>>(),
        [true, true, true, false, true, true]
    );
    assert_eq!(counter("cluster.check_block.pooled"), 3);
    assert_eq!(counter("cluster.check_block.already_verified"), 2);
    assert_eq!(counter("cluster.check_block.failed_stateless"), 1);
    // Five hits (two carried from Submit, three from the pool); the
    // forgery alone took the full check.
    assert_eq!(counter("verified.hits") - hits_before, 5);
    assert_eq!(counter("verified.misses") - misses_before, 1);
    let snapshot = telemetry.snapshot().expect("telemetry is on");
    assert_eq!(snapshot.histograms["cluster.check_block_ns"].count, 1);
}
