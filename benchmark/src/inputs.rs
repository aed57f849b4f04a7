//! Workload inputs, generated from the seed at set-up, and the
//! correctness oracle: a sequential `validate_transaction` +
//! `LedgerState::apply` replay of the arrival order that fixes every
//! expected verdict and the expected final state digest before the
//! program sees a single payload.

use scdb_core::validate::validate_transaction;
use scdb_core::{determine_children, LedgerState, Operation, Transaction, TxBuilder};
use scdb_crypto::KeyPair;
use scdb_json::{obj, Value};
use scdb_store::StateDigest;
use scdb_workload::{scdb_plan, PayloadGen, ScenarioConfig};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// The four workloads. Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AuctionFlat,
    AuctionContended,
    OpenLoopMixed,
    Cluster4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AuctionFlat,
        Workload::AuctionContended,
        Workload::OpenLoopMixed,
        Workload::Cluster4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AuctionFlat => "auction_flat",
            Workload::AuctionContended => "auction_contended",
            Workload::OpenLoopMixed => "open_loop_mixed",
            Workload::Cluster4 => "cluster4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Auction counts per workload. `full` is what `BENCHMARK.json` runs;
/// `tiny` keeps the package's smoke tests under a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub flat_requests: usize,
    pub contended_requests: usize,
    pub contended_bidders: usize,
    pub open_requests: usize,
    pub cluster_requests: usize,
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            flat_requests: 400,
            contended_requests: 48,
            contended_bidders: 16,
            open_requests: 42,
            cluster_requests: 100,
        }
    }

    #[cfg(test)]
    pub const fn tiny() -> Scale {
        Scale {
            flat_requests: 6,
            contended_requests: 3,
            contended_bidders: 4,
            open_requests: 8,
            cluster_requests: 4,
        }
    }
}

/// Why a write is in the stream, which fixes the stage that must
/// decide it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Scenario traffic: must commit.
    Plain,
    /// A second BID spending an already-bid asset: admitted (flagged at
    /// most), rejected by the validator at commit.
    DoubleSpend,
    /// A byte-identical resubmission: rejected at admission.
    Duplicate,
    /// A payload with one fulfillment byte flipped: rejected at
    /// admission.
    Tampered,
}

/// One submitted payload and the verdict the oracle fixed for it.
#[derive(Debug, Clone)]
pub struct Write {
    pub payload: String,
    /// The id the payload declares (verdicts at commit are keyed by it).
    pub id: String,
    /// What the generator built it as; the oracle confirms that exactly
    /// the plain writes commit.
    pub kind: Kind,
}

/// A read the harness issues between writes.
#[derive(Debug, Clone)]
pub enum Query {
    /// `Collection::get` of a committed transaction by id.
    GetById(String),
    /// `LedgerView::locked_bids_for_request`.
    LockedBids(String),
    /// `count(operation = BID ∧ references.0 = request)`: answered from
    /// the operation index, then filtered.
    CountBids(String),
    /// `find(operation = REQUEST ∧ capabilities contains c)`: a scan of
    /// every committed REQUEST.
    FindRequests(String),
}

impl Query {
    /// The query `query_scan_p50_ms` times. One kind only: the median
    /// of two kinds with different prices sits on the step between
    /// them and moves with the mix, not with the program.
    pub fn is_scan(&self) -> bool {
        matches!(self, Query::FindRequests(_))
    }
}

/// Everything one workload run needs, fixed at set-up.
pub struct Inputs {
    pub workload: Workload,
    pub escrow: KeyPair,
    /// Writes in arrival order.
    pub writes: Vec<Write>,
    /// Submission groups: the closed loops submit one group at a time
    /// and never let a group straddle a dependency phase.
    pub groups: Vec<Range<usize>>,
    /// Reads, issued round-robin.
    pub queries: Vec<Query>,
    /// Bytes of every submitted payload.
    pub payload_bytes: u64,
    /// Nested children the committed ACCEPT_BIDs must settle.
    pub expected_children: usize,
    /// The oracle's final ledger, children settled: its state digest
    /// and query answers are what every run must reproduce.
    pub oracle: LedgerState,
    /// The oracle's committed set in commit order, children included —
    /// the layer probes replay it.
    pub oracle_committed: Vec<Arc<Transaction>>,
}

impl Inputs {
    /// Writes the oracle expects to commit.
    pub fn expected_commits(&self) -> usize {
        self.writes.iter().filter(|w| w.kind == Kind::Plain).count()
    }

    /// The final UTXO state digest every run must land on.
    pub fn oracle_digest(&self) -> StateDigest {
        self.oracle.state_digest()
    }
}

/// Payloads submitted per closed-loop round (the client's window).
pub const IN_FLIGHT: usize = 256;

/// The escrow account every `SmartchainCluster` is built with.
fn cluster_escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

fn derived_key(seed: u64, lane: u8, index: u64) -> KeyPair {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&index.to_le_bytes());
    bytes[16] = lane;
    bytes[17] = 0xBE;
    KeyPair::from_seed(bytes)
}

/// SplitMix64: the harness's own deterministic choice stream, so the
/// adversarial placement depends on the seed and nothing else.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn plain(payload: String) -> Write {
    Write {
        id: declared_id(&payload),
        payload,
        kind: Kind::Plain,
    }
}

fn declared_id(payload: &str) -> String {
    Transaction::from_payload(payload)
        .map(|tx| tx.id)
        .unwrap_or_default()
}

/// Flips one hex digit inside the first fulfillment of a payload.
fn flip_fulfillment_byte(payload: &str, offset: usize) -> String {
    const KEY: &str = "\"fulfillment\":\"";
    let start = payload.find(KEY).expect("payload carries a fulfillment") + KEY.len();
    let len = payload[start..]
        .find('"')
        .expect("fulfillment string terminates");
    let at = start + offset % len;
    let mut bytes = payload.as_bytes().to_vec();
    // ':' and ';' separate keys from signatures; step off them.
    let at = if bytes[at].is_ascii_hexdigit() {
        at
    } else {
        at - 1
    };
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).expect("hex digits are ASCII")
}

/// One self-contained adversarial auction: an attacker mints an asset,
/// opens a request, bids the asset, then bids it again. The first three
/// are valid; the second BID double-spends the asset's only output.
fn double_spend_unit(seed: u64, unit: u64, escrow_pk: &str) -> [Transaction; 4] {
    let attacker = derived_key(seed, 0xAD, unit);
    let caps = || Value::Array(vec![Value::from("3d-print")]);
    let create = TxBuilder::create(obj! { "capabilities" => caps() })
        .output(attacker.public_hex(), 1)
        .metadata(obj! { "adversary" => unit, "nonce" => 1u64 })
        .sign(&[&attacker]);
    let request = TxBuilder::request(obj! { "capabilities" => caps() })
        .output(attacker.public_hex(), 1)
        .metadata(obj! { "adversary" => unit, "nonce" => 2u64 })
        .sign(&[&attacker]);
    let bid = |nonce: u64| {
        TxBuilder::bid(create.id.clone(), request.id.clone())
            .input(create.id.clone(), 0, vec![attacker.public_hex()])
            .output_with_prev(escrow_pk.to_owned(), 1, vec![attacker.public_hex()])
            .metadata(obj! { "adversary" => unit, "nonce" => nonce })
            .sign(&[&attacker])
    };
    let (first, second) = (bid(3), bid(4));
    [create, request, first, second]
}

/// Adds ~10 % adversarial traffic to an auction-major stream: double
/// spends (a third in the same arrival window as their victim, so both
/// sit in one pool; the rest after it committed), byte-identical
/// resubmissions and tampered payloads.
fn add_adversaries(stream: Vec<String>, seed: u64, escrow_pk: &str) -> Vec<Write> {
    let mut mix = Mix(seed ^ 0xAD5E_ED00);
    let base = stream.len();
    let extras_each = (base / 30).max(1);
    // (arrival position in the base stream, write) — stable-sorted in
    // after the base so relative order among extras at one position is
    // generation order.
    let mut inserts: Vec<(usize, Write)> = Vec::new();

    for unit in 0..extras_each as u64 {
        let [create, request, first, second] = double_spend_unit(seed, unit, escrow_pk);
        let at = mix.below(base);
        let late = if unit % 3 == 0 {
            at
        } else {
            (at + 2 * IN_FLIGHT).min(base)
        };
        for tx in [create, request, first] {
            inserts.push((at, plain(tx.to_payload())));
        }
        inserts.push((
            late,
            Write {
                kind: Kind::DoubleSpend,
                ..plain(second.to_payload())
            },
        ));
    }
    for _ in 0..extras_each {
        let victim = mix.below(base);
        let at = (victim + 1 + mix.below(2 * IN_FLIGHT)).min(base);
        inserts.push((
            at,
            Write {
                kind: Kind::Duplicate,
                ..plain(stream[victim].clone())
            },
        ));
    }
    for n in 0..extras_each {
        let victim = mix.below(base);
        let offset = 70 + mix.below(100);
        let flipped = flip_fulfillment_byte(&stream[victim], offset);
        // Even: the flipped bytes alone (the id no longer matches the
        // content). Odd: flipped and re-sealed, so only the signature
        // check can catch it — except on ACCEPT_BID, whose signer set
        // admission cannot know.
        let payload = match Transaction::from_payload(&flipped) {
            Ok(mut tx) if n % 2 == 1 && tx.operation != Operation::AcceptBid => {
                tx.seal();
                tx.to_payload()
            }
            _ => flipped,
        };
        inserts.push((
            victim + 1,
            Write {
                kind: Kind::Tampered,
                ..plain(payload)
            },
        ));
    }

    inserts.sort_by_key(|(at, _)| *at);
    let mut inserts = inserts.into_iter().peekable();
    let mut out = Vec::with_capacity(base + 6 * extras_each);
    for (position, payload) in stream.into_iter().enumerate() {
        while inserts.peek().is_some_and(|(at, _)| *at <= position) {
            out.push(inserts.next().expect("peeked").1);
        }
        out.push(plain(payload));
    }
    out.extend(inserts.map(|(_, write)| write));
    out
}

/// The sequential oracle. Replays the arrival order through
/// `validate_transaction` + `LedgerState::apply`, settling each
/// ACCEPT_BID's children as it commits, and
/// confirms each write's kind: exactly the plain ones commit. Panics
/// when the generator and the oracle disagree — a bug in the benchmark,
/// not in the program.
fn run_oracle(writes: &[Write], escrow: &KeyPair) -> (LedgerState, usize, Vec<Arc<Transaction>>) {
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(escrow.public_hex());
    let mut seen_payloads: HashSet<&str> = HashSet::new();
    let first_sightings: Vec<bool> = writes
        .iter()
        .map(|w| seen_payloads.insert(w.payload.as_str()))
        .collect();
    let mut committed = Vec::new();
    let mut children = 0;
    for (position, (write, first_sighting)) in writes.iter().zip(first_sightings).enumerate() {
        let verdict = Transaction::from_payload(&write.payload)
            .map_err(|e| e.to_string())
            .and_then(|tx| {
                if !first_sighting {
                    return Err("byte-identical resubmission".to_owned());
                }
                validate_transaction(&tx, &ledger).map_err(|e| e.to_string())?;
                let tx = Arc::new(tx);
                ledger.apply_shared(&tx).map_err(|e| e.to_string())?;
                Ok(tx)
            });
        assert_eq!(
            verdict.is_ok(),
            write.kind == Kind::Plain,
            "oracle and generator disagree on write {position} ({:?}): {:?}",
            write.kind,
            verdict.as_ref().map(|tx| &tx.id),
        );
        let Ok(tx) = verdict else { continue };
        if tx.operation == Operation::AcceptBid {
            let settled = determine_children(&ledger, &tx, escrow)
                .expect("a committed ACCEPT_BID determines its children");
            committed.push(tx);
            for child in settled {
                ledger.apply(&child).expect("children settle");
                committed.push(Arc::new(child));
                children += 1;
            }
        } else {
            committed.push(tx);
        }
    }
    (ledger, children, committed)
}

/// Chunks of at most [`IN_FLIGHT`] writes that never straddle a phase.
fn groups_within(phases: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    for phase in phases {
        let mut start = phase.start;
        while start < phase.end {
            let end = (start + IN_FLIGHT).min(phase.end);
            groups.push(start..end);
            start = end;
        }
    }
    groups
}

/// Round-robin reads over the committed scenario: ids and capabilities
/// the queries can actually hit.
fn queries_for(plan: &scdb_workload::ScdbPlan, capability: &str) -> Vec<Query> {
    let mut queries = Vec::new();
    for auction in plan.auctions.iter().take(64) {
        queries.push(Query::GetById(auction.creates[0].id.clone()));
        queries.push(Query::LockedBids(auction.request.id.clone()));
        queries.push(Query::CountBids(auction.request.id.clone()));
        queries.push(Query::FindRequests(capability.to_owned()));
    }
    queries
}

/// Generates a workload's inputs from the seed and runs the oracle.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let escrow = match workload {
        Workload::Cluster4 => cluster_escrow(),
        _ => derived_key(seed, 0xE5, 0),
    };
    let escrow_pk = escrow.public_hex();
    let (requests, bidders) = match workload {
        Workload::AuctionFlat => (scale.flat_requests, 2),
        Workload::AuctionContended => (scale.contended_requests, scale.contended_bidders),
        Workload::OpenLoopMixed => (scale.open_requests, 2),
        Workload::Cluster4 => (scale.cluster_requests, 2),
    };
    let defaults = ScenarioConfig::default();
    let config = ScenarioConfig {
        requests,
        bidders_per_request: bidders,
        // Payload sizes follow the seed too, so byte counts are a
        // property of the inputs; by a dozen bytes at most, so that every
        // seed asks for the same amount of work.
        capability_bytes: defaults.capability_bytes + 4 * (seed % 4) as usize,
        seed,
        ..defaults
    };
    let plan = scdb_plan(&config, &escrow_pk);
    let capability =
        PayloadGen::matched_capabilities(config.capability_count, config.capability_len())
            .swap_remove(0);

    let (writes, phases): (Vec<Write>, Vec<Range<usize>>) = match workload {
        Workload::AuctionFlat | Workload::Cluster4 => {
            let mut writes = Vec::new();
            let mut phases = Vec::new();
            for phase in plan.phases() {
                let start = writes.len();
                writes.extend(phase.into_iter().map(plain));
                phases.push(start..writes.len());
            }
            (writes, phases)
        }
        Workload::AuctionContended => {
            let writes = add_adversaries(plan.contended_payloads(), seed, &escrow_pk);
            let all = 0..writes.len();
            (writes, vec![all])
        }
        Workload::OpenLoopMixed => {
            let writes: Vec<Write> = plan.contended_payloads().into_iter().map(plain).collect();
            let all = 0..writes.len();
            (writes, vec![all])
        }
    };
    let (oracle, expected_children, oracle_committed) = run_oracle(&writes, &escrow);
    Inputs {
        workload,
        groups: groups_within(&phases),
        queries: queries_for(&plan, &capability),
        payload_bytes: writes.iter().map(|w| w.payload.len() as u64).sum(),
        expected_children,
        oracle,
        oracle_committed,
        escrow,
        writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let a = generate(Workload::AuctionContended, 7, Scale::tiny());
        let b = generate(Workload::AuctionContended, 7, Scale::tiny());
        let c = generate(Workload::AuctionContended, 8, Scale::tiny());
        let payloads = |i: &Inputs| {
            i.writes
                .iter()
                .map(|w| w.payload.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(payloads(&a), payloads(&b));
        assert_eq!(a.oracle_digest(), b.oracle_digest());
        assert_ne!(payloads(&a), payloads(&c));
    }

    #[test]
    fn adversarial_pairs_get_the_expected_verdicts() {
        let inputs = generate(Workload::AuctionContended, 11, Scale::tiny());
        let count = |kind: Kind| inputs.writes.iter().filter(|w| w.kind == kind).count();
        assert!(count(Kind::DoubleSpend) >= 1);
        assert!(count(Kind::Duplicate) >= 1);
        assert!(count(Kind::Tampered) >= 1);
        // `generate` ran the oracle, which panics unless exactly the
        // plain traffic commits: of every double-spend pair, the first
        // BID and never the second.
        assert_eq!(
            inputs.expected_commits(),
            inputs.writes.len()
                - count(Kind::DoubleSpend)
                - count(Kind::Duplicate)
                - count(Kind::Tampered)
        );
        // Every double spend names an asset an earlier committed BID
        // already spent.
        for (position, write) in inputs.writes.iter().enumerate() {
            if write.kind != Kind::DoubleSpend {
                continue;
            }
            let second = Transaction::from_payload(&write.payload).unwrap();
            let spent = &second.inputs[0].fulfills.as_ref().unwrap().tx_id;
            let rival = inputs.writes[..position].iter().any(|earlier| {
                earlier.kind == Kind::Plain
                    && Transaction::from_payload(&earlier.payload).is_ok_and(|tx| {
                        tx.operation == Operation::Bid
                            && tx.inputs[0].fulfills.as_ref().map(|f| &f.tx_id) == Some(spent)
                    })
            });
            assert!(rival, "double spend at {position} has no committed rival");
        }
        // 4 bidders: one winner transfer + 3 returns per auction.
        assert_eq!(inputs.expected_children, 3 * 4);
    }

    #[test]
    fn tampering_changes_exactly_one_byte_of_the_fulfillment() {
        let inputs = generate(Workload::AuctionFlat, 3, Scale::tiny());
        let original = &inputs.writes[0].payload;
        let flipped = flip_fulfillment_byte(original, 90);
        assert_eq!(original.len(), flipped.len());
        let differing = original
            .bytes()
            .zip(flipped.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1);
        let tx = Transaction::from_payload(&flipped).expect("still parses");
        assert!(!tx.id_is_consistent());
    }

    #[test]
    fn groups_respect_phases_and_the_window() {
        let groups = groups_within(&[0..300, 300..310]);
        assert_eq!(groups, vec![0..256, 256..300, 300..310]);
        let inputs = generate(Workload::Cluster4, 5, Scale::tiny());
        assert_eq!(inputs.groups.len(), 4, "one group per small phase");
        assert_eq!(inputs.writes.len(), 4 * 6);
        assert_eq!(inputs.expected_commits(), inputs.writes.len());
    }
}
