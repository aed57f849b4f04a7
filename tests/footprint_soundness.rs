//! Footprint soundness: transactions whose footprints do not conflict
//! commute.
//!
//! The scheduler puts two transactions in one wave exactly when their
//! footprints do not conflict, and a wave validates its members against
//! one state. That is sound only if such a pair is *swappable*, after
//! Bartoletti, Galletta & Murgia ("A theory of transaction parallelism",
//! PAPERS.md): validated and applied as t₁;t₂ or as t₂;t₁ on one ledger,
//! each member gets the same verdict — the whole `Result`, message
//! included — and the ledger ends in the same state (UTXO digest,
//! committed count, every REQUEST's bids, locked bids and accept). So,
//! for every pair checked here:
//!
//! * footprints that do not conflict ⇒ the pair commutes;
//! * a pair that does not commute ⇒ `schedule_waves` put its members in
//!   different waves.
//!
//! A case cuts an auction stream — each auction's CREATEs, REQUEST, BIDs,
//! ACCEPT_BID and settlement children, in arrival order — builds the
//! ledger of the prefix, and checks every pair among the next arrivals
//! plus structurally mutated instances of them (inputs, outputs,
//! references and asset retargeted, dropped or repeated), re-signed by the
//! right accounts so the stateful rules, not the signature check, decide.
//! Streams come from `scdb_plan` and from a fixture whose keys the test
//! holds (the mutants need them).

use proptest::prelude::*;
use smartchaindb::core::validate::{
    record_validated, record_validated_batch, validate_transaction,
};
use smartchaindb::core::{
    derive_footprints, determine_children, footprints_conflict, schedule_waves, sign_transaction,
    AssetRef, InputRef, ValidationError,
};
use smartchaindb::json::{arr, obj};
use smartchaindb::store::StateDigest;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, LedgerState, LedgerView, Operation, Transaction, TxBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// An auction stream in arrival order, and the accounts that can sign
/// mutants of it.
struct Stream {
    txs: Vec<Transaction>,
    escrow: KeyPair,
    /// Every key the test holds, escrow first. Empty past the escrow for
    /// `scdb_plan` streams, whose keys the generator keeps.
    keys: Vec<KeyPair>,
    requests: Vec<String>,
}

fn escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

/// Appends an ACCEPT_BID's settlement children, determined on the ledger
/// the stream built so far.
fn settle(txs: &mut Vec<Transaction>, escrow: &KeyPair) {
    let ledger = ledger_of(txs, escrow);
    let accept = txs.last().expect("an accept");
    let children = determine_children(&ledger, accept, escrow).expect("children");
    txs.extend(children);
}

/// `scdb_plan`'s contended (auction-major) stream with each auction's
/// settlement children after its ACCEPT_BID.
fn plan_stream(requests: usize, bidders: usize) -> Stream {
    let escrow = escrow();
    let config = ScenarioConfig {
        requests,
        bidders_per_request: bidders,
        capability_count: 2,
        capability_bytes: 16,
        seed: 0x5A7,
    };
    let mut txs = Vec::new();
    for auction in scdb_plan(&config, &escrow.public_hex()).auctions {
        txs.extend(auction.creates);
        txs.push(auction.request);
        txs.extend(auction.bids);
        txs.push(auction.accept);
        settle(&mut txs, &escrow);
    }
    let requests = requests_of(&txs);
    Stream {
        txs,
        keys: vec![escrow.clone()],
        escrow,
        requests,
    }
}

/// Two auctions of three bidders each, shaped as `scdb_plan`'s, signed
/// by keys the test holds.
fn own_stream() -> Stream {
    let escrow = escrow();
    let hex = KeyPair::public_hex;
    let keys: Vec<KeyPair> = [0xE5u8, 0x50, 0x51, 0xB0, 0xB1, 0xB2]
        .iter()
        .map(|tag| KeyPair::from_seed([*tag; 32]))
        .collect();
    let bidders = &keys[3..];
    let mut txs = Vec::new();
    for (auction, requester) in keys[1..3].iter().enumerate() {
        let nonce = 10 * auction as u64;
        let creates: Vec<Transaction> = bidders
            .iter()
            .zip(nonce..)
            .map(|(bidder, nonce)| {
                TxBuilder::create(obj! { "capabilities" => arr!["cnc", "3d-print"] })
                    .output(hex(bidder), 1)
                    .nonce(nonce)
                    .sign(&[bidder])
            })
            .collect();
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(hex(requester), 1)
            .nonce(nonce)
            .sign(&[requester]);
        let bids: Vec<Transaction> = creates
            .iter()
            .zip(bidders)
            .map(|(asset, bidder)| {
                TxBuilder::bid(asset.id.clone(), request.id.clone())
                    .input(asset.id.clone(), 0, vec![hex(bidder)])
                    .output_with_prev(hex(&escrow), 1, vec![hex(bidder)])
                    .sign(&[bidder])
            })
            .collect();
        let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
            .output_with_prev(hex(requester), 1, vec![hex(&escrow)]);
        for bid in &bids {
            accept = accept.input(bid.id.clone(), 0, vec![hex(&escrow)]);
        }
        for bidder in &bidders[1..] {
            accept = accept.output_with_prev(hex(bidder), 1, vec![hex(&escrow)]);
        }
        txs.extend(creates);
        txs.push(request);
        txs.extend(bids);
        txs.push(accept.sign(&[requester]));
        settle(&mut txs, &escrow);
    }
    let requests = requests_of(&txs);
    Stream {
        txs,
        escrow,
        keys,
        requests,
    }
}

fn requests_of(txs: &[Transaction]) -> Vec<String> {
    let requests = txs.iter().filter(|tx| tx.operation == Operation::Request);
    requests.map(|tx| tx.id.clone()).collect()
}

fn ledger_of(txs: &[Transaction], escrow: &KeyPair) -> LedgerState {
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(escrow.public_hex());
    for tx in txs {
        ledger.apply(tx).expect("the stream applies in order");
    }
    ledger
}

/// `stream`, once its unmutated transactions validate in arrival order.
fn checked(stream: Stream) -> Stream {
    let mut ledger = ledger_of(&[], &stream.escrow);
    for tx in &stream.txs {
        assert_eq!(
            validate_transaction(tx, &ledger),
            Ok(()),
            "{}",
            tx.operation
        );
        ledger.apply(tx).expect("applies");
    }
    stream
}

/// A small `scdb_plan` stream, and the stream whose keys the test holds.
fn streams() -> &'static [Stream; 2] {
    static STREAMS: OnceLock<[Stream; 2]> = OnceLock::new();
    STREAMS.get_or_init(|| [checked(plan_stream(2, 3)), checked(own_stream())])
}

type Verdict = Result<(), ValidationError>;

/// What a ledger holds that a verdict can depend on.
#[derive(Debug, PartialEq)]
struct State {
    digest: StateDigest,
    committed: usize,
    /// Per REQUEST: its bids, its locked bids, its accept.
    markets: Vec<(Vec<String>, Vec<String>, Option<String>)>,
}

fn state(ledger: &LedgerState, requests: &[String]) -> State {
    let ids = |txs: Vec<&Transaction>| txs.iter().map(|tx| tx.id.clone()).collect();
    let markets = requests.iter().map(|request| {
        (
            ids(ledger.bids_for_request(request)),
            ids(ledger.locked_bids_for_request(request)),
            ledger.accept_for_request(request).map(|tx| tx.id.clone()),
        )
    });
    State {
        digest: ledger.state_digest(),
        committed: ledger.len(),
        markets: markets.collect(),
    }
}

/// One case: a ledger prefix of a stream and the transactions whose
/// pairs are checked on it.
struct Case<'s> {
    stream: &'s Stream,
    prefix: usize,
    members: Vec<Transaction>,
    /// Members that pass schema, id and signatures. Each fresh ledger's
    /// verified set vouches for them, so only the stateful rules — what
    /// footprints answer for — run per order (a verified-set hit decides
    /// what a miss decides: tests/rule_mutations.rs).
    clean: Vec<bool>,
}

impl Case<'_> {
    fn new(stream: &Stream, prefix: usize, members: Vec<Transaction>) -> Case<'_> {
        let everything = ledger_of(&stream.txs, &stream.escrow);
        let batch: Vec<Arc<Transaction>> = members.iter().cloned().map(Arc::new).collect();
        record_validated_batch(&batch, &everything, 1);
        let clean = members.iter().map(|tx| everything.is_verified_id(&tx.id));
        Case {
            clean: clean.collect(),
            stream,
            prefix,
            members,
        }
    }

    fn ledger(&self) -> LedgerState {
        let ledger = ledger_of(&self.stream.txs[..self.prefix], &self.stream.escrow);
        for (tx, _) in self
            .members
            .iter()
            .zip(&self.clean)
            .filter(|(_, clean)| **clean)
        {
            record_validated(&Arc::new(tx.clone()), &ledger);
        }
        ledger
    }

    /// Validates and, when valid, applies member `first` then member
    /// `second` on a fresh ledger of the prefix.
    fn run(&self, first: usize, second: usize) -> (Verdict, Verdict, State) {
        let mut ledger = self.ledger();
        let mut step = |tx: &Transaction| {
            let verdict = validate_transaction(tx, &ledger);
            if verdict.is_ok() {
                ledger.apply(tx).expect("a valid transaction applies");
            }
            verdict
        };
        let (a, b) = (step(&self.members[first]), step(&self.members[second]));
        (a, b, state(&ledger, &self.stream.requests))
    }

    /// Checks every pair of members; `Err` names a pair that breaks
    /// soundness.
    fn check_pairs(&self) -> Result<Tally, String> {
        let (batch, ledger) = (self.members.iter().cloned().map(Arc::new), self.ledger());
        let footprints = derive_footprints(&batch.collect::<Vec<_>>(), &ledger);
        let live: Vec<bool> = (self.members.iter())
            .map(|tx| validate_transaction(tx, &ledger).is_ok())
            .collect();
        let mut tally = Tally::default();
        for i in 0..self.members.len() {
            for j in i + 1..self.members.len() {
                let (t1, t2) = (&self.members[i], &self.members[j]);
                let conflict = footprints_conflict(&footprints[i], &footprints[j]);
                let (v1, v2, forward) = self.run(i, j);
                let (w2, w1, backward) = self.run(j, i);
                let commutes = v1 == w1 && v2 == w2 && forward == backward;
                let pair = [footprints[i].clone(), footprints[j].clone()];
                let waves = schedule_waves(&pair);
                if !conflict && !commutes {
                    return Err(format!(
                        "disjoint footprints, yet the order matters after {} of the stream:\n  \
                         t1 {} {}: {v1:?} first, {w1:?} second\n  \
                         t2 {} {}: {v2:?} second, {w2:?} first\n  \
                         states equal: {}\n  footprints: {pair:?}",
                        self.prefix,
                        t1.operation,
                        t1.id,
                        t2.operation,
                        t2.id,
                        forward == backward,
                    ));
                }
                if !commutes && waves[0] == waves[1] {
                    return Err(format!(
                        "a pair that does not commute shares wave {}",
                        waves[0]
                    ));
                }
                if live[i] || live[j] {
                    let commute = smartchaindb::core::Access::Commute;
                    let shared_commuting = (footprints[i].accesses().iter()).any(|(key, a)| {
                        *a == commute && footprints[j].access(key) == Some(commute)
                    });
                    tally.pairs += 1;
                    tally.conflicts += usize::from(conflict);
                    tally.real += usize::from(conflict && !commutes);
                    tally.commuting += usize::from(!conflict && shared_commuting);
                }
            }
        }
        Ok(tally)
    }
}

/// Conflict edges among the live pairs checked — at least one member
/// valid on the prefix; two invalid ones commute whatever their keys —
/// how many of them join a pair that does not commute, and how many
/// pairs share a wave only because their writes to a key commute.
#[derive(Debug, Default)]
struct Tally {
    pairs: usize,
    conflicts: usize,
    real: usize,
    commuting: usize,
}

/// Every output of the stream, plus one past a transaction's last and one
/// of a transaction that does not exist: what a mutated input spends.
fn outputs(stream: &Stream) -> Vec<InputRef> {
    let at = |tx_id: &str, output_index| InputRef {
        tx_id: tx_id.to_owned(),
        output_index,
    };
    let mut outputs: Vec<InputRef> = (stream.txs.iter())
        .flat_map(|tx| (0..tx.outputs.len() as u32).map(|i| at(&tx.id, i)))
        .collect();
    outputs.push(at(&stream.txs[0].id, 7));
    outputs.push(at(&"9".repeat(64), 0));
    outputs
}

/// Removes, repeats or — `edit` — rewrites element `at` (modulo the
/// length; an empty list is left alone).
fn mutate<T: Clone>(list: &mut Vec<T>, how: usize, at: usize, edit: impl FnOnce(&mut T)) {
    if list.is_empty() {
        return;
    }
    let at = at % list.len();
    match how {
        0 => {
            list.remove(at);
        }
        1 => list.insert(at, list[at].clone()),
        _ => edit(&mut list[at]),
    }
}

/// `tx` under stacked structural mutations `(what, how, at, to)` —
/// one input, every input, an output, a reference or the asset
/// rewritten, dropped or repeated — re-signed by the accounts its row
/// asks for: a requester-signed row by the requester of the REQUEST it
/// names, any other by every key held.
fn mutant(
    stream: &Stream,
    tx: &Transaction,
    mutations: &[(usize, usize, usize, usize)],
) -> Transaction {
    let mut tx = tx.clone();
    let outputs = outputs(stream);
    let ids: Vec<&String> = stream.txs.iter().map(|tx| &tx.id).collect();
    for &(what, how, at, to) in mutations {
        let id = ids[to % ids.len()].clone();
        match what {
            0 => mutate(&mut tx.inputs, how, at, |input| {
                input.fulfills = Some(outputs[to % outputs.len()].clone());
            }),
            1 if how == 0 => tx.inputs.clear(),
            1 => {
                for (k, input) in tx.inputs.iter_mut().enumerate() {
                    input.fulfills = Some(outputs[(to + 7 * k) % outputs.len()].clone());
                }
            }
            2 => mutate(&mut tx.outputs, how, at, |output| match to % 2 {
                0 => output.public_keys = vec![stream.keys[to % stream.keys.len()].public_hex()],
                _ => output.amount = [0, 1, 2][to % 3],
            }),
            3 => mutate(&mut tx.references, how, at, |r| *r = id),
            _ => {
                tx.asset = match how {
                    0 => AssetRef::Id(id),
                    1 => AssetRef::WinBid(id),
                    _ => AssetRef::Data(obj! { "capabilities" => arr!["cnc"] }),
                }
            }
        }
    }
    let requester = |request: &String| {
        let index = stream.requests.iter().position(|r| r == request)?;
        stream.keys.get(1 + index)
    };
    match tx.operation {
        Operation::AcceptBid => {
            let signer = tx.references.first().and_then(requester);
            sign_transaction(&mut tx, &[signer.unwrap_or(&stream.keys[1])]);
        }
        _ => sign_transaction(&mut tx, &stream.keys.iter().collect::<Vec<_>>()),
    }
    tx
}

/// Every pair within windows of 16 consecutive arrivals, one starting at
/// every 8th, of a 16-bidder `scdb_plan` auction (`auction_contended`'s
/// shape), on the ledger the stream before the window built. Prints the
/// footprint's precision there, the share of conflict edges between live
/// pairs whose pair does not commute, and requires it to be 1: every
/// conflict edge is real.
#[test]
fn contended_plan_pairs_commute_unless_they_conflict() {
    let stream = checked(plan_stream(1, 16));
    let mut total = Tally::default();
    for prefix in (0..stream.txs.len()).step_by(8) {
        let members = stream.txs[prefix..].iter().take(16).cloned().collect();
        let case = Case::new(&stream, prefix, members);
        let tally = case.check_pairs().unwrap_or_else(|why| panic!("{why}"));
        total.pairs += tally.pairs;
        total.conflicts += tally.conflicts;
        total.real += tally.real;
    }
    println!(
        "{} pairs, {} conflict edges, {} of them between pairs that do not commute \
         (precision {:.2})",
        total.pairs,
        total.conflicts,
        total.real,
        total.real as f64 / total.conflicts as f64
    );
    assert!(total.conflicts > 0, "{total:?}");
    assert_eq!(
        total.real, total.conflicts,
        "false conflict edges: {total:?}"
    );
}

/// A window of the next arrivals after a cut of a stream, each with one
/// mutant beside it on the stream whose keys the test holds. The cases
/// must meet pairs whose only shared write commutes (two bids on one
/// request, two settlement children), or the check would be vacuous for
/// the commuting writes.
#[test]
fn disjoint_footprints_commute() {
    static COMMUTING: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        fn cases(
            source in 0usize..4,
            cut in any::<prop::sample::Index>(),
            window in 2usize..6,
            mutations in prop::collection::vec(
                prop::collection::vec((0usize..5, 0usize..3, 0usize..4, 0usize..64), 1..3),
                6,
            ),
        ) {
            let own = source != 0;
            let stream = &streams()[usize::from(own)];
            let prefix = cut.index(stream.txs.len());
            let mut members: Vec<Transaction> =
                stream.txs[prefix..].iter().take(window).cloned().collect();
            if own {
                let mutants: Vec<Transaction> = (members.iter().zip(&mutations))
                    .map(|(tx, mutations)| mutant(stream, tx, mutations))
                    .collect();
                members.extend(mutants);
            }
            match Case::new(stream, prefix, members).check_pairs() {
                Ok(tally) => {
                    COMMUTING.fetch_add(tally.commuting, Ordering::Relaxed);
                }
                Err(why) => prop_assert!(false, "{why}"),
            }
        }
    }
    cases();
    let commuting = COMMUTING.load(Ordering::Relaxed);
    println!("{commuting} live pairs share a wave only because their writes commute");
    assert!(
        commuting > 0,
        "no case met a pair whose only shared write commutes"
    );
}
