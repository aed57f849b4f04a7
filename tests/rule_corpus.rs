//! The recorded verdicts of the per-type rules `C_α`.
//!
//! One populated ledger, and for each of the six operations a valid
//! instance plus one row per fault the rules distinguish — every way
//! CREATE, REQUEST, TRANSFER, BID, ACCEPT_BID and RETURN validation can
//! say no, and a few two-fault rows that pin which fault is named
//! first. Each row states the whole `Result<(), ValidationError>`,
//! variant and message, and is checked with `==` twice: on the miss
//! path (nothing vouches for the transaction, so schema, id digest and
//! signatures run first) and with the ledger's verified set vouching
//! for it, where only the duplicate check and the stateful rules run.
//!
//! The second reading is forced (`record_validated` on a transaction
//! that did not necessarily validate), which is how the rules the
//! schema shadows on the miss path — empty inputs, a wrong asset kind,
//! a reference vector of the wrong length — are reached at all, and
//! how the corpus shows that a vouched-for signer set skips exactly the
//! signature step and nothing else.
//!
//! The expectations were written against the hand-written validators
//! and are the oracle for whatever evaluates the rules afterwards: a
//! change that edits this file is changing verdicts.

use smartchaindb::core::validate::{record_validated, validate_transaction};
use smartchaindb::core::{sign_transaction, AssetRef, Input, VerifiedSigners};
use smartchaindb::crypto::MultiSignature;
use smartchaindb::json::{arr, obj, Value};
use smartchaindb::store::OutputRef;
use smartchaindb::{KeyPair, LedgerState, LedgerView, Transaction, TxBuilder, ValidationError};
use std::sync::Arc;

fn key(tag: u8) -> KeyPair {
    KeyPair::from_seed([tag; 32])
}

fn hex(k: &KeyPair) -> String {
    k.public_hex()
}

fn semantic(message: impl Into<String>) -> Expect {
    Expect::Err(ValidationError::Semantic(message.into()))
}

fn missing(id: &str) -> Expect {
    Expect::Err(ValidationError::InputDoesNotExist(id.to_owned()))
}

fn bad_signature(message: &str) -> Expect {
    Expect::Err(ValidationError::InvalidSignature(message.to_owned()))
}

fn mismatch(inputs: u64, outputs: u64) -> Expect {
    Expect::Err(ValidationError::AmountMismatch { inputs, outputs })
}

fn out(tx: &Transaction, index: u32) -> String {
    OutputRef::new(tx.id.clone(), index).to_string()
}

/// What one reading of a row must return.
#[derive(Debug, Clone)]
enum Expect {
    Ok,
    Err(ValidationError),
    /// Algorithm 1 refuses the shape: whatever violations the schema
    /// validator lists for this payload (the schema crate is not what
    /// this corpus pins), and it must list some.
    Schema,
}

impl Expect {
    fn resolve(&self, tx: &Transaction) -> Result<(), ValidationError> {
        match self {
            Expect::Ok => Ok(()),
            Expect::Err(e) => Err(e.clone()),
            Expect::Schema => Err(ValidationError::Schema(
                smartchaindb::schema::validate_transaction_schema(&tx.to_value())
                    .expect_err("row expects a schema violation"),
            )),
        }
    }
}

/// The second reading: with the verified set vouching for the row.
#[derive(Debug, Clone)]
enum Vouched {
    /// The entry hits and the verdict is the miss path's.
    Same,
    /// The entry hits and the stateful rules alone say this — the miss
    /// path stopped earlier, at the schema or at a signature.
    Stateful(Expect),
    /// Nothing can vouch for this transaction (its id does not match
    /// its content, or it is an ACCEPT_BID whose REQUEST does not
    /// resolve): the second reading is the miss path again.
    NoEntry,
    /// The entry names this signer set instead of the one
    /// `record_validated` would resolve; the verdict is the miss path's.
    As(VerifiedSigners),
}

struct Row {
    name: String,
    tx: Transaction,
    miss: Expect,
    vouched: Vouched,
}

fn row(name: impl Into<String>, tx: Transaction, miss: Expect) -> Row {
    Row {
        name: name.into(),
        tx,
        miss,
        vouched: Vouched::Same,
    }
}

impl Row {
    fn vouched(mut self, vouched: Vouched) -> Row {
        self.vouched = vouched;
        self
    }

    /// The schema refuses the shape; vouched for, the stateful rules say
    /// `stateful`.
    fn shadowed(self, stateful: Expect) -> Row {
        self.vouched(Vouched::Stateful(stateful))
    }
}

/// The populated ledger every row is read against. Four auctions, all
/// requested by `sally`:
///
/// 1. open — two locked bids (`bid_a`, `bid_b`);
/// 2. accepted — `accept2` chose `bid_a2`, no child committed yet, so
///    `bid_b2` is returnable;
/// 3. open and irregular — `bid_two` holds two escrow outputs, the
///    first already spent; `bid_loose` pays a bidder instead of escrow;
///    `bid_gone`'s only escrow output is spent;
/// 4. accepted and irregular — `accept4` chose `bid_w4`; `bid_loose4`
///    pays a bidder instead of escrow; `bid_spent4` is already settled.
///
/// The irregular states are applied without validation: they are the
/// ledgers the rules must still refuse on, not ledgers the rules allow.
struct Market {
    ledger: LedgerState,
    escrow: KeyPair,
    sally: KeyPair,
    alice: KeyPair,
    bob: KeyPair,
    carol: KeyPair,
    mallory: KeyPair,
    /// alice's, amount 1, spent by `bid_a`.
    asset_a: Transaction,
    /// alice's, amount 5, unspent.
    spare: Transaction,
    /// alice's second unspent asset (amount 1), capabilities as `spare`.
    spare2: Transaction,
    /// carol's, amount 1, unspent, offers everything `request1` asks.
    asset_c: Transaction,
    /// carol's, unspent, lacks "3d-print".
    weak: Transaction,
    /// carol's, holds an output of zero shares.
    zero: Transaction,
    request1: Transaction,
    request2: Transaction,
    request3: Transaction,
    bid_a: Transaction,
    bid_b: Transaction,
    bid_a2: Transaction,
    bid_b2: Transaction,
    accept2: Transaction,
    bid_two: Transaction,
    bid_two_spender: Transaction,
    bid_loose: Transaction,
    bid_gone: Transaction,
    bid_loose4: Transaction,
    bid_spent4: Transaction,
    bid_spent4_spender: Transaction,
}

const CAPS: [&str; 2] = ["3d-print", "cnc"];

fn caps_value(caps: &[&str]) -> Value {
    Value::Array(caps.iter().map(|c| Value::from(*c)).collect())
}

impl Market {
    fn commit(ledger: &mut LedgerState, tx: &Transaction) {
        validate_transaction(tx, &*ledger).unwrap_or_else(|e| panic!("fixture {}: {e}", tx.id));
        ledger.apply(tx).expect("fixture applies");
    }

    fn mint(
        ledger: &mut LedgerState,
        owner: &KeyPair,
        caps: &[&str],
        amount: u64,
        nonce: u64,
    ) -> Transaction {
        let tx = TxBuilder::create(obj! { "capabilities" => caps_value(caps) })
            .output(hex(owner), amount)
            .nonce(nonce)
            .sign(&[owner]);
        Market::commit(ledger, &tx);
        tx
    }

    fn post_request(ledger: &mut LedgerState, sally: &KeyPair, nonce: u64) -> Transaction {
        let tx = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
            .output(hex(sally), 1)
            .nonce(nonce)
            .sign(&[sally]);
        Market::commit(ledger, &tx);
        tx
    }

    /// A BID of the whole of `asset` (amount 1 per output) into `to`.
    fn bid_tx(
        bidder: &KeyPair,
        asset: &Transaction,
        request: &Transaction,
        to: &KeyPair,
        outputs: usize,
    ) -> Transaction {
        let mut b = TxBuilder::bid(asset.id.clone(), request.id.clone()).input(
            asset.id.clone(),
            0,
            vec![hex(bidder)],
        );
        for _ in 0..outputs {
            b = b.output_with_prev(hex(to), 1, vec![hex(bidder)]);
        }
        b.sign(&[bidder])
    }

    /// The escrow-signed spend of `bid`'s output `index` back to `to`.
    fn settle_tx(
        escrow: &KeyPair,
        asset: &Transaction,
        bid: &Transaction,
        index: u32,
        to: &KeyPair,
    ) -> Transaction {
        TxBuilder::bid_return(asset.id.clone(), bid.id.clone())
            .input(bid.id.clone(), index, vec![hex(escrow)])
            .output_with_prev(hex(to), 1, vec![hex(escrow)])
            .sign(&[escrow])
    }

    fn new() -> Market {
        let (escrow, sally, alice, bob, carol, mallory) = (
            key(0xE5),
            key(0x5A),
            key(0xA1),
            key(0xB0),
            key(0xCA),
            key(0x66),
        );
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(hex(&escrow));
        let l = &mut ledger;

        let asset_a = Market::mint(l, &alice, &CAPS, 1, 1);
        let asset_b = Market::mint(l, &bob, &CAPS, 1, 2);
        let spare = Market::mint(l, &alice, &CAPS, 5, 3);
        let spare2 = Market::mint(l, &alice, &CAPS, 1, 4);
        let asset_c = Market::mint(l, &carol, &CAPS, 1, 5);
        let weak = Market::mint(l, &carol, &["cnc"], 1, 6);
        // An output of zero shares: the schema forbids it, so it is
        // applied, not validated.
        let zero = TxBuilder::create(obj! { "capabilities" => caps_value(&CAPS) })
            .output(hex(&carol), 0)
            .nonce(7)
            .sign(&[&carol]);
        l.apply(&zero).expect("applies");

        let request1 = Market::post_request(l, &sally, 101);
        let request2 = Market::post_request(l, &sally, 102);
        let request3 = Market::post_request(l, &sally, 103);
        let request4 = Market::post_request(l, &sally, 104);

        // Auction 1: open.
        let bid_a = Market::bid_tx(&alice, &asset_a, &request1, &escrow, 1);
        let bid_b = Market::bid_tx(&bob, &asset_b, &request1, &escrow, 1);
        Market::commit(l, &bid_a);
        Market::commit(l, &bid_b);

        // Auction 2: accepted, nothing settled.
        let asset_a2 = Market::mint(l, &alice, &CAPS, 1, 21);
        let asset_b2 = Market::mint(l, &bob, &CAPS, 1, 22);
        let bid_a2 = Market::bid_tx(&alice, &asset_a2, &request2, &escrow, 1);
        let bid_b2 = Market::bid_tx(&bob, &asset_b2, &request2, &escrow, 1);
        Market::commit(l, &bid_a2);
        Market::commit(l, &bid_b2);
        let accept2 = TxBuilder::accept_bid(bid_a2.id.clone(), request2.id.clone())
            .input(bid_a2.id.clone(), 0, vec![hex(&escrow)])
            .input(bid_b2.id.clone(), 0, vec![hex(&escrow)])
            .output_with_prev(hex(&sally), 1, vec![hex(&escrow)])
            .output_with_prev(hex(&bob), 1, vec![hex(&escrow)])
            .sign(&[&sally]);
        Market::commit(l, &accept2);

        // Auction 3: open, irregular.
        let asset_c3 = Market::mint(l, &carol, &CAPS, 2, 31);
        let asset_a3 = Market::mint(l, &alice, &CAPS, 1, 32);
        let asset_b3 = Market::mint(l, &bob, &CAPS, 1, 33);
        let bid_two = Market::bid_tx(&carol, &asset_c3, &request3, &escrow, 2);
        Market::commit(l, &bid_two);
        let bid_two_spender = Market::settle_tx(&escrow, &asset_c3, &bid_two, 0, &carol);
        l.apply(&bid_two_spender).expect("applies");
        let bid_loose = Market::bid_tx(&alice, &asset_a3, &request3, &alice, 1);
        l.apply(&bid_loose).expect("applies");
        let bid_gone = Market::bid_tx(&bob, &asset_b3, &request3, &escrow, 1);
        Market::commit(l, &bid_gone);
        l.apply(&Market::settle_tx(&escrow, &asset_b3, &bid_gone, 0, &bob))
            .expect("applies");

        // Auction 4: accepted, irregular.
        let asset_a4 = Market::mint(l, &alice, &CAPS, 1, 41);
        let asset_c4 = Market::mint(l, &carol, &CAPS, 1, 42);
        let asset_b4 = Market::mint(l, &bob, &CAPS, 1, 43);
        let bid_w4 = Market::bid_tx(&alice, &asset_a4, &request4, &escrow, 1);
        Market::commit(l, &bid_w4);
        let bid_loose4 = Market::bid_tx(&carol, &asset_c4, &request4, &carol, 1);
        l.apply(&bid_loose4).expect("applies");
        let bid_spent4 = Market::bid_tx(&bob, &asset_b4, &request4, &escrow, 1);
        Market::commit(l, &bid_spent4);
        let bid_spent4_spender = Market::settle_tx(&escrow, &asset_b4, &bid_spent4, 0, &bob);
        l.apply(&bid_spent4_spender).expect("applies");
        let accept4 = TxBuilder::accept_bid(bid_w4.id.clone(), request4.id.clone())
            .input(bid_w4.id.clone(), 0, vec![hex(&escrow)])
            .output_with_prev(hex(&sally), 1, vec![hex(&escrow)])
            .sign(&[&sally]);
        l.apply(&accept4).expect("applies");

        Market {
            ledger,
            escrow,
            sally,
            alice,
            bob,
            carol,
            mallory,
            asset_a,
            spare,
            spare2,
            asset_c,
            weak,
            zero,
            request1,
            request2,
            request3,
            bid_a,
            bid_b,
            bid_a2,
            bid_b2,
            accept2,
            bid_two,
            bid_two_spender,
            bid_loose,
            bid_gone,
            bid_loose4,
            bid_spent4,
            bid_spent4_spender,
        }
    }

    // ---- builders the rows mutate --------------------------------------

    fn create(&self) -> TxBuilder {
        TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(hex(&self.mallory), 3)
            .nonce(900)
    }

    fn request(&self, data: Value) -> TxBuilder {
        TxBuilder::request(data)
            .output(hex(&self.sally), 1)
            .nonce(901)
    }

    /// alice moves all five shares of `spare` to bob.
    fn transfer(&self) -> TxBuilder {
        TxBuilder::transfer(self.spare.id.clone())
            .input(self.spare.id.clone(), 0, vec![hex(&self.alice)])
            .output_with_prev(hex(&self.bob), 5, vec![hex(&self.alice)])
    }

    /// carol bids `asset_c` on auction 1.
    fn bid(&self) -> TxBuilder {
        self.bid_on(&[&self.request1.id])
    }

    fn bid_on(&self, references: &[&String]) -> TxBuilder {
        let mut b = TxBuilder::bid(self.asset_c.id.clone(), references[0].clone())
            .input(self.asset_c.id.clone(), 0, vec![hex(&self.carol)])
            .output_with_prev(hex(&self.escrow), 1, vec![hex(&self.carol)]);
        for r in &references[1..] {
            b = b.reference((*r).clone());
        }
        b
    }

    /// sally accepts `bid_a` on auction 1: both locked bids in, the
    /// winner's share to sally, bob's back to bob.
    fn accept(&self) -> TxBuilder {
        self.accept_with(
            &self.bid_a,
            &self.request1,
            &[(&self.bid_a, 0), (&self.bid_b, 0)],
            &[&self.sally, &self.bob],
        )
    }

    fn accept_with(
        &self,
        win: &Transaction,
        request: &Transaction,
        inputs: &[(&Transaction, u32)],
        outputs: &[&KeyPair],
    ) -> TxBuilder {
        let mut b = TxBuilder::accept_bid(win.id.clone(), request.id.clone());
        for (bid, index) in inputs {
            b = b.input(bid.id.clone(), *index, vec![hex(&self.escrow)]);
        }
        for owner in outputs {
            b = b.output_with_prev(hex(owner), 1, vec![hex(&self.escrow)]);
        }
        b
    }

    /// escrow returns `bid_b2` (auction 2, unaccepted) to bob.
    fn bid_return(&self) -> TxBuilder {
        self.return_of(&self.bid_b2, &self.bid_b2, &self.escrow, &self.bob, 1)
    }

    /// A RETURN referencing `bid`, spending `spent`'s output 0 as
    /// `owner`, paying `to`.
    fn return_of(
        &self,
        bid: &Transaction,
        spent: &Transaction,
        owner: &KeyPair,
        to: &KeyPair,
        amount: u64,
    ) -> TxBuilder {
        let AssetRef::Id(asset_id) = &bid.asset else {
            panic!("a bid names an asset id");
        };
        TxBuilder::bid_return(asset_id.clone(), bid.id.clone())
            .input(spent.id.clone(), 0, vec![hex(owner)])
            .output_with_prev(hex(to), amount, vec![hex(owner)])
    }
}

/// Signs, then applies `edit` and re-seals: the id stays consistent
/// and every fulfillment is over the *unedited* body.
fn resealed(
    builder: TxBuilder,
    signers: &[&KeyPair],
    edit: impl FnOnce(&mut Transaction),
) -> Transaction {
    let mut tx = builder.sign(signers);
    edit(&mut tx);
    tx.seal();
    tx
}

/// Applies `edit` to the unsigned transaction, then signs the result.
fn edited(
    builder: TxBuilder,
    signers: &[&KeyPair],
    edit: impl FnOnce(&mut Transaction),
) -> Transaction {
    let mut tx = builder.build_unsigned();
    edit(&mut tx);
    sign_transaction(&mut tx, signers);
    tx
}

/// Replaces every fulfillment with `forger`'s signature over the real
/// signing payload: well-formed, and by the wrong account.
fn forged(builder: TxBuilder, signers: &[&KeyPair], forger: &KeyPair) -> Transaction {
    resealed(builder, signers, |tx| {
        let wire = MultiSignature::create(&[forger], tx.signing_payload().as_bytes()).to_wire();
        for input in &mut tx.inputs {
            input.fulfillment = wire.clone();
        }
    })
}

fn retarget(tx: &mut Transaction, input: usize, to: &Transaction, index: u32) {
    let fulfills = tx.inputs[input].fulfills.as_mut().expect("a spend input");
    fulfills.tx_id = to.id.clone();
    fulfills.output_index = index;
}

fn null_input(owner: &KeyPair) -> Input {
    Input {
        owners_before: vec![hex(owner)],
        fulfills: None,
        fulfillment: String::new(),
    }
}

const UNCOVERED: &str = "input 0: fulfillment does not cover owners_before";
const MALFORMED: &str = "input 0: malformed fulfillment";
const NOT_REQUESTER: &str = "input 0: not signed by the required account set";

fn create_rows(m: &Market) -> Vec<Row> {
    let signers = [&m.mallory];
    vec![
        row("CREATE valid", m.create().sign(&signers), Expect::Ok),
        row(
            "CREATE spends an output",
            m.create()
                .input(m.spare.id.clone(), 0, vec![hex(&m.mallory)])
                .sign(&signers),
            semantic("CREATE inputs must not spend outputs"),
        ),
        row(
            "CREATE re-sealed after an edit",
            resealed(m.create(), &signers, |tx| tx.outputs[0].amount = 1_000),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "CREATE stripped fulfillment",
            resealed(m.create(), &signers, |tx| {
                tx.inputs[0].fulfillment = String::new()
            }),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "CREATE fulfillment that is not a signature list",
            resealed(m.create(), &signers, |tx| {
                tx.inputs[0].fulfillment = "not-a-wire-string".to_owned()
            }),
            bad_signature(MALFORMED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "CREATE signed by a stranger",
            forged(m.create(), &signers, &m.alice),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "CREATE spends an output and is forged: the spend is named",
            forged(
                m.create()
                    .input(m.spare.id.clone(), 0, vec![hex(&m.mallory)]),
                &signers,
                &m.alice,
            ),
            semantic("CREATE inputs must not spend outputs"),
        ),
        row(
            "CREATE id does not match its content",
            {
                let mut tx = m.create().sign(&signers);
                tx.id = "0".repeat(64);
                tx
            },
            Expect::Err(ValidationError::IdMismatch {
                declared: "0".repeat(64),
                computed: m.create().sign(&signers).id,
            }),
        )
        .vouched(Vouched::NoEntry),
        row(
            "CREATE already committed",
            m.spare.clone(),
            Expect::Err(ValidationError::DuplicateTransaction(m.spare.id.clone())),
        ),
        row(
            "CREATE with a reference",
            m.create().reference(m.spare.id.clone()).sign(&signers),
            Expect::Schema,
        )
        .shadowed(Expect::Ok),
        row(
            "CREATE by two owners",
            m.create().sign(&[&m.mallory, &m.alice]),
            Expect::Ok,
        ),
        row(
            "CREATE by two owners, entries swapped and re-sealed",
            resealed(m.create(), &[&m.mallory, &m.alice], |tx| {
                let signed = MultiSignature::from_wire(&tx.inputs[0].fulfillment).expect("wire");
                let mut swapped = MultiSignature::empty();
                for (public, signature) in signed.entries().iter().rev() {
                    swapped.push(*public, *signature);
                }
                tx.inputs[0].fulfillment = swapped.to_wire();
            }),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
    ]
}

fn request_rows(m: &Market) -> Vec<Row> {
    let signers = [&m.sally];
    let wanted = || obj! { "capabilities" => arr!["cnc"] };
    let declares_none = "REQUEST asset data must declare a non-empty capabilities list";
    vec![
        row(
            "REQUEST valid",
            m.request(wanted()).sign(&signers),
            Expect::Ok,
        ),
        row(
            "REQUEST spends an output",
            m.request(wanted())
                .input(m.spare.id.clone(), 0, vec![hex(&m.sally)])
                .sign(&signers),
            semantic("REQUEST inputs must not spend outputs"),
        ),
        row(
            "REQUEST without capabilities",
            m.request(obj! { "quantity" => 5 }).sign(&signers),
            semantic(declares_none),
        ),
        row(
            "REQUEST with an empty capabilities list",
            m.request(obj! { "capabilities" => Value::array() })
                .sign(&signers),
            semantic(declares_none),
        ),
        row(
            "REQUEST forged",
            forged(m.request(wanted()), &signers, &m.mallory),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "REQUEST without capabilities and forged: capabilities are named",
            forged(m.request(obj! { "quantity" => 5 }), &signers, &m.mallory),
            semantic(declares_none),
        ),
        row(
            "REQUEST spends and declares nothing: the spend is named",
            m.request(obj! { "quantity" => 5 })
                .input(m.spare.id.clone(), 0, vec![hex(&m.sally)])
                .sign(&signers),
            semantic("REQUEST inputs must not spend outputs"),
        ),
    ]
}

/// The faults of the shared spend resolution (`validateTransferInputs`),
/// as `(name, edit, verdict)` over a transaction whose input 0 is a
/// valid spend signed by `signer`. Used for TRANSFER, BID and RETURN.
type SpendFault<'a> = (&'static str, Box<dyn Fn(&mut Transaction) + 'a>, Expect);

fn spend_faults<'a>(m: &'a Market, operation: &str, spent: OutputRef) -> Vec<SpendFault<'a>> {
    let ghost = "9".repeat(64);
    let ghost_id = ghost.clone();
    vec![
        (
            "input spends nothing",
            Box::new(|tx: &mut Transaction| tx.inputs[0].fulfills = None),
            semantic(format!("input 0: {operation} inputs must spend an output")),
        ),
        (
            "input spends an uncommitted transaction",
            Box::new(move |tx: &mut Transaction| {
                tx.inputs[0].fulfills.as_mut().expect("spend").tx_id = ghost_id.clone()
            }),
            missing(&ghost),
        ),
        (
            "input listed twice",
            Box::new(|tx: &mut Transaction| {
                let again = tx.inputs[0].clone();
                tx.inputs.push(again);
            }),
            Expect::Err(ValidationError::DoubleSpend(format!(
                "input 1 spends {spent} twice within one transaction"
            ))),
        ),
        (
            "input names an output index that does not exist",
            Box::new(|tx: &mut Transaction| {
                tx.inputs[0].fulfills.as_mut().expect("spend").output_index = 7
            }),
            missing(&OutputRef::new(spent.tx_id.clone(), 7).to_string()),
        ),
        (
            "input spends an output that is already spent",
            Box::new(|tx: &mut Transaction| retarget(tx, 0, &m.asset_a, 0)),
            Expect::Err(ValidationError::DoubleSpend(format!(
                "{} already spent by {}",
                out(&m.asset_a, 0),
                m.bid_a.id
            ))),
        ),
    ]
}

fn transfer_rows(m: &Market) -> Vec<Row> {
    let signers = [&m.alice];
    let spent = OutputRef::new(m.spare.id.clone(), 0);
    let mut rows = vec![
        row("TRANSFER valid", m.transfer().sign(&signers), Expect::Ok),
        row(
            "TRANSFER forged",
            forged(m.transfer(), &signers, &m.mallory),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "TRANSFER stripped fulfillment",
            resealed(m.transfer(), &signers, |tx| {
                tx.inputs[0].fulfillment = String::new()
            }),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "TRANSFER fulfillment that is not a signature list",
            resealed(m.transfer(), &signers, |tx| {
                tx.inputs[0].fulfillment = "not-a-wire-string".to_owned()
            }),
            bad_signature(MALFORMED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "TRANSFER fulfillment re-spelled in upper case",
            resealed(m.transfer(), &signers, |tx| {
                tx.inputs[0].fulfillment = tx.inputs[0].fulfillment.to_uppercase()
            }),
            bad_signature(MALFORMED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "TRANSFER by a stranger claiming the output",
            edited(m.transfer(), &[&m.mallory], |tx| {
                tx.inputs[0].owners_before = vec![hex(&m.mallory)]
            }),
            bad_signature(&format!(
                "input 0: owners_before does not match the current owners of {spent}"
            )),
        ),
        row(
            "TRANSFER outputs exceed inputs",
            m.transfer()
                .output_with_prev(hex(&m.bob), 1, vec![hex(&m.alice)])
                .sign(&signers),
            mismatch(5, 6),
        ),
        row(
            "TRANSFER declares another asset than it spends",
            edited(m.transfer(), &signers, |tx| {
                tx.asset = AssetRef::Id(m.spare2.id.clone())
            }),
            semantic(format!(
                "input spends asset {} but the transaction declares {}",
                m.spare.id, m.spare2.id
            )),
        ),
        row(
            "TRANSFER of two assets under one declaration",
            m.transfer()
                .input(m.spare2.id.clone(), 0, vec![hex(&m.alice)])
                .output_with_prev(hex(&m.bob), 1, vec![hex(&m.alice)])
                .sign(&signers),
            semantic(format!(
                "input spends asset {} but the transaction declares {}",
                m.spare2.id, m.spare.id
            )),
        ),
        row(
            "TRANSFER unbalanced and of the wrong asset: the amount is named",
            edited(
                m.transfer()
                    .output_with_prev(hex(&m.bob), 1, vec![hex(&m.alice)]),
                &signers,
                |tx| tx.asset = AssetRef::Id(m.spare2.id.clone()),
            ),
            mismatch(5, 6),
        ),
        row(
            "TRANSFER with inline asset data",
            edited(m.transfer(), &signers, |tx| {
                tx.asset = AssetRef::Data(obj! { "kind" => "x" })
            }),
            Expect::Schema,
        )
        .shadowed(semantic("TRANSFER must reference an asset id")),
        row(
            "TRANSFER without inputs",
            resealed(m.transfer(), &signers, |tx| tx.inputs.clear()),
            Expect::Schema,
        )
        .shadowed(mismatch(0, 5)),
        row(
            "TRANSFER with a reference",
            m.transfer().reference(m.spare.id.clone()).sign(&signers),
            Expect::Schema,
        )
        .shadowed(Expect::Ok),
    ];
    // 5 in, u64::MAX + 6 out: the sum wraps to 5 and must not balance.
    rows.push(row(
        "TRANSFER whose outputs wrap around to the input amount",
        m.transfer()
            .output_with_prev(hex(&m.bob), 6, vec![hex(&m.alice)])
            .output_with_prev(hex(&m.bob), u64::MAX - 5, vec![hex(&m.alice)])
            .sign(&signers),
        semantic("TRANSFER output amounts overflow u64"),
    ));
    for (name, edit, verdict) in spend_faults(m, "TRANSFER", spent) {
        let tx = edited(m.transfer(), &signers, |tx| edit(tx));
        rows.push(row(format!("TRANSFER {name}"), tx, verdict));
    }
    rows
}

fn bid_rows(m: &Market) -> Vec<Row> {
    let signers = [&m.carol];
    let spent = OutputRef::new(m.asset_c.id.clone(), 0);
    let ghost = "9".repeat(64);
    let first = "BID must name its REQUEST as the first reference";
    let mut rows = vec![
        row("BID valid", m.bid().sign(&signers), Expect::Ok),
        row(
            "BID with a second, non-REQUEST reference after its REQUEST",
            m.bid_on(&[&m.request1.id, &m.asset_a.id]).sign(&signers),
            Expect::Ok,
        ),
        row(
            "BID without inputs",
            resealed(m.bid(), &signers, |tx| tx.inputs.clear()),
            Expect::Schema,
        )
        .shadowed(semantic("BID requires at least one input")),
        row(
            "BID without references",
            edited(m.bid(), &signers, |tx| tx.references.clear()),
            Expect::Schema,
        )
        .shadowed(semantic("BID must reference a REQUEST")),
        row(
            "BID references an uncommitted transaction",
            m.bid_on(&[&ghost]).sign(&signers),
            missing(&ghost),
        ),
        row(
            "BID references its REQUEST and an uncommitted transaction",
            m.bid_on(&[&m.request1.id, &ghost]).sign(&signers),
            missing(&ghost),
        ),
        row(
            "BID references two REQUESTs",
            m.bid_on(&[&m.request1.id, &m.request2.id]).sign(&signers),
            semantic("BID must reference exactly one REQUEST"),
        ),
        row(
            "BID references no REQUEST",
            m.bid_on(&[&m.asset_a.id]).sign(&signers),
            semantic("BID reference vector contains no REQUEST"),
        ),
        row(
            "BID whose REQUEST is not the first reference",
            m.bid_on(&[&m.asset_a.id, &m.request1.id]).sign(&signers),
            semantic(first),
        ),
        row(
            "BID with inline asset data",
            edited(m.bid(), &signers, |tx| {
                tx.asset = AssetRef::Data(obj! { "capabilities" => arr!["3d-print"] })
            }),
            Expect::Schema,
        )
        .shadowed(semantic("BID must reference an asset id")),
        row(
            "BID of an uncommitted asset",
            edited(m.bid(), &signers, |tx| {
                tx.asset = AssetRef::Id(ghost.clone())
            }),
            missing(&ghost),
        ),
        row(
            "BID forged",
            forged(m.bid(), &signers, &m.mallory),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "BID output not to escrow",
            edited(m.bid(), &signers, |tx| {
                tx.outputs[0].public_keys = vec![hex(&m.carol)]
            }),
            Expect::Err(ValidationError::NotEscrowOutput { output_index: 0 }),
        ),
        row(
            "BID second output shared between escrow and the bidder",
            edited(m.bid(), &signers, |tx| {
                let mut second = tx.outputs[0].clone();
                second.public_keys.push(hex(&m.carol));
                tx.outputs.push(second);
            }),
            Expect::Err(ValidationError::NotEscrowOutput { output_index: 1 }),
        ),
        row(
            "BID asset lacks a requested capability",
            edited(m.bid(), &signers, |tx| {
                tx.asset = AssetRef::Id(m.weak.id.clone());
                retarget(tx, 0, &m.weak, 0);
            }),
            Expect::Err(ValidationError::InsufficientCapabilities {
                missing: vec!["3d-print".to_owned()],
            }),
        ),
        row(
            "BID by a stranger claiming the output",
            edited(m.bid(), &[&m.mallory], |tx| {
                tx.inputs[0].owners_before = vec![hex(&m.mallory)]
            }),
            bad_signature(&format!(
                "input 0: owners_before does not match the current owners of {spent}"
            )),
        ),
        row(
            "BID of zero shares",
            edited(m.bid(), &signers, |tx| {
                tx.asset = AssetRef::Id(m.zero.id.clone());
                retarget(tx, 0, &m.zero, 0);
            }),
            semantic("BID requires at least one input with a non-null asset"),
        ),
        row(
            "BID outputs exceed inputs",
            edited(m.bid(), &signers, |tx| tx.outputs[0].amount = 5),
            mismatch(1, 5),
        ),
        // Precedence: the order the checks run in is the order faults
        // are named in.
        row(
            "BID misplaced REQUEST and uncommitted asset: the reference is named",
            edited(m.bid_on(&[&m.asset_a.id, &m.request1.id]), &signers, |tx| {
                tx.asset = AssetRef::Id(ghost.clone())
            }),
            semantic(first),
        ),
        row(
            "BID uncommitted asset and forged: the asset is named",
            forged(
                TxBuilder::bid(ghost.clone(), m.request1.id.clone())
                    .input(m.asset_c.id.clone(), 0, vec![hex(&m.carol)])
                    .output_with_prev(hex(&m.escrow), 1, vec![hex(&m.carol)]),
                &signers,
                &m.mallory,
            ),
            missing(&ghost),
        ),
        row(
            "BID forged and not to escrow: the signature is named",
            forged(
                TxBuilder::bid(m.asset_c.id.clone(), m.request1.id.clone())
                    .input(m.asset_c.id.clone(), 0, vec![hex(&m.carol)])
                    .output_with_prev(hex(&m.carol), 1, vec![hex(&m.carol)]),
                &signers,
                &m.mallory,
            ),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Err(
            ValidationError::NotEscrowOutput { output_index: 0 },
        ))),
        row(
            "BID not to escrow and lacking a capability: the output is named",
            edited(m.bid(), &signers, |tx| {
                tx.asset = AssetRef::Id(m.weak.id.clone());
                retarget(tx, 0, &m.weak, 0);
                tx.outputs[0].public_keys = vec![hex(&m.carol)];
            }),
            Expect::Err(ValidationError::NotEscrowOutput { output_index: 0 }),
        ),
        row(
            "BID lacking a capability and spending a spent output: the capability is named",
            edited(m.bid(), &signers, |tx| {
                tx.asset = AssetRef::Id(m.weak.id.clone());
                retarget(tx, 0, &m.asset_a, 0);
            }),
            Expect::Err(ValidationError::InsufficientCapabilities {
                missing: vec!["3d-print".to_owned()],
            }),
        ),
    ];
    rows.push(row(
        "BID whose outputs wrap around to the input amount",
        m.bid()
            .output_with_prev(hex(&m.escrow), u64::MAX, vec![hex(&m.carol)])
            .output_with_prev(hex(&m.escrow), 1, vec![hex(&m.carol)])
            .sign(&signers),
        semantic("BID output amounts overflow u64"),
    ));
    for (name, edit, verdict) in spend_faults(m, "BID", spent) {
        let tx = edited(m.bid(), &signers, |tx| edit(tx));
        rows.push(row(format!("BID {name}"), tx, verdict));
    }
    rows
}

fn accept_rows(m: &Market) -> Vec<Row> {
    let signers = [&m.sally];
    let ghost = "9".repeat(64);
    let ghost_tx = {
        let mut tx = m.create().sign(&[&m.mallory]);
        tx.id = ghost.clone();
        tx
    };
    // Auction 3's locked set is [bid_two, bid_loose].
    let accept3 = |inputs: &[(&Transaction, u32)]| {
        m.accept_with(&m.bid_two, &m.request3, inputs, &[&m.sally, &m.alice])
            .sign(&signers)
    };
    let neither = |index: usize| {
        semantic(format!(
            "ACCEPT_BID output {index} settles to neither the requester nor an unaccepted bidder"
        ))
    };
    vec![
        row("ACCEPT_BID valid", m.accept().sign(&signers), Expect::Ok),
        row(
            "ACCEPT_BID with two references",
            m.accept().reference(m.request2.id.clone()).sign(&signers),
            Expect::Schema,
        )
        .shadowed(semantic("ACCEPT_BID must reference exactly one REQUEST")),
        row(
            "ACCEPT_BID without references",
            edited(m.accept(), &signers, |tx| tx.references.clear()),
            Expect::Schema,
        )
        .vouched(Vouched::NoEntry),
        row(
            "ACCEPT_BID of an uncommitted REQUEST",
            m.accept_with(
                &m.bid_a,
                &ghost_tx,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.bob],
            )
            .sign(&signers),
            missing(&ghost),
        )
        .vouched(Vouched::NoEntry),
        row(
            "ACCEPT_BID whose reference is not a REQUEST",
            m.accept_with(
                &m.bid_a,
                &m.asset_a,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.bob],
            )
            .sign(&signers),
            semantic(format!(
                "ACCEPT_BID reference {} is not a REQUEST",
                m.asset_a.id
            )),
        ),
        row(
            "ACCEPT_BID naming an asset id, not a winning bid",
            edited(m.accept(), &signers, |tx| {
                tx.asset = AssetRef::Id(m.bid_a.id.clone())
            }),
            Expect::Schema,
        )
        .shadowed(semantic("ACCEPT_BID asset must name the winning bid")),
        row(
            "ACCEPT_BID of an uncommitted bid",
            m.accept_with(
                &ghost_tx,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.bob],
            )
            .sign(&signers),
            missing(&ghost),
        ),
        row(
            "ACCEPT_BID whose winner is not a BID",
            m.accept_with(
                &m.asset_a,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.bob],
            )
            .sign(&signers),
            semantic(format!(
                "winning bid {} is not a BID for request {}",
                m.asset_a.id, m.request1.id
            )),
        ),
        row(
            "ACCEPT_BID whose winner bid on another REQUEST",
            m.accept_with(
                &m.bid_a2,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.bob],
            )
            .sign(&signers),
            semantic(format!(
                "winning bid {} is not a BID for request {}",
                m.bid_a2.id, m.request1.id
            )),
        ),
        row(
            "ACCEPT_BID signed by a stranger",
            m.accept().sign(&[&m.mallory]),
            bad_signature(NOT_REQUESTER),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "ACCEPT_BID signed by a stranger, vouched for against the stranger",
            m.accept().nonce(1).sign(&[&m.mallory]),
            bad_signature(NOT_REQUESTER),
        )
        .vouched(Vouched::As(VerifiedSigners::Explicit(vec![
            hex(&m.mallory),
        ]))),
        row(
            "ACCEPT_BID valid, vouched for against another signer set",
            m.accept().nonce(2).sign(&signers),
            Expect::Ok,
        )
        .vouched(Vouched::As(VerifiedSigners::Explicit(vec![
            hex(&m.mallory),
        ]))),
        row(
            "ACCEPT_BID valid, vouched for against the inputs' own owners",
            m.accept().nonce(3).sign(&signers),
            Expect::Ok,
        )
        .vouched(Vouched::As(VerifiedSigners::InputOwners)),
        row(
            "ACCEPT_BID stripped fulfillment",
            resealed(m.accept(), &signers, |tx| {
                tx.inputs[0].fulfillment = String::new()
            }),
            bad_signature(NOT_REQUESTER),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "ACCEPT_BID fulfillment that is not a signature list",
            resealed(m.accept(), &signers, |tx| {
                tx.inputs[0].fulfillment = "not-a-wire-string".to_owned()
            }),
            bad_signature(MALFORMED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "ACCEPT_BID second for its REQUEST",
            m.accept_with(
                &m.bid_b2,
                &m.request2,
                &[(&m.bid_a2, 0), (&m.bid_b2, 0)],
                &[&m.alice, &m.sally],
            )
            .sign(&signers),
            Expect::Err(ValidationError::DuplicateTransaction(m.accept2.id.clone())),
        ),
        row(
            "ACCEPT_BID second for its REQUEST and forged: the signature is named",
            m.accept_with(
                &m.bid_b2,
                &m.request2,
                &[(&m.bid_a2, 0), (&m.bid_b2, 0)],
                &[&m.alice, &m.sally],
            )
            .sign(&[&m.mallory]),
            bad_signature(NOT_REQUESTER),
        )
        .vouched(Vouched::Stateful(Expect::Err(
            ValidationError::DuplicateTransaction(m.accept2.id.clone()),
        ))),
        row(
            "ACCEPT_BID whose winner is no longer locked",
            m.accept_with(
                &m.bid_gone,
                &m.request3,
                &[(&m.bid_two, 1), (&m.bid_loose, 0)],
                &[&m.sally, &m.carol],
            )
            .sign(&signers),
            semantic(format!(
                "winning bid {} is not escrow-held for request {}",
                m.bid_gone.id, m.request3.id
            )),
        ),
        row(
            "ACCEPT_BID leaves a locked bid out",
            m.accept_with(&m.bid_a, &m.request1, &[(&m.bid_a, 0)], &[&m.sally])
                .sign(&signers),
            semantic("ACCEPT_BID must take all 2 locked bids as inputs, found 1"),
        ),
        row(
            "ACCEPT_BID takes an input too many",
            m.accept_with(
                &m.bid_a,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0), (&m.bid_a2, 0)],
                &[&m.sally, &m.bob],
            )
            .sign(&signers),
            semantic("ACCEPT_BID must take all 2 locked bids as inputs, found 3"),
        ),
        row(
            "ACCEPT_BID input spends nothing",
            edited(m.accept(), &signers, |tx| tx.inputs[1].fulfills = None),
            semantic("ACCEPT_BID input 1 must spend a bid output"),
        ),
        row(
            "ACCEPT_BID input retargeted at another auction's bid",
            edited(m.accept(), &signers, |tx| retarget(tx, 1, &m.bid_b2, 0)),
            semantic("ACCEPT_BID input 1 does not spend a locked bid of this request"),
        ),
        row(
            "ACCEPT_BID input retargeted at a foreign output",
            edited(m.accept(), &signers, |tx| retarget(tx, 0, &m.spare, 0)),
            semantic("ACCEPT_BID input 0 does not spend a locked bid of this request"),
        ),
        row(
            "ACCEPT_BID input names an output index that does not exist",
            accept3(&[(&m.bid_two, 7), (&m.bid_loose, 0)]),
            missing(&out(&m.bid_two, 7)),
        ),
        row(
            "ACCEPT_BID input spends a spent escrow output",
            accept3(&[(&m.bid_two, 0), (&m.bid_loose, 0)]),
            Expect::Err(ValidationError::DoubleSpend(format!(
                "{} already spent by {}",
                out(&m.bid_two, 0),
                m.bid_two_spender.id
            ))),
        ),
        row(
            "ACCEPT_BID input spends a bid output escrow does not hold",
            accept3(&[(&m.bid_two, 1), (&m.bid_loose, 0)]),
            semantic("ACCEPT_BID input 1 does not spend an escrow-held output"),
        ),
        row(
            "ACCEPT_BID takes one bid twice",
            accept3(&[(&m.bid_two, 1), (&m.bid_two, 1)]),
            semantic(format!(
                "ACCEPT_BID input 1 duplicates bid {}",
                m.bid_two.id
            )),
        ),
        row(
            "ACCEPT_BID pays the requester nothing",
            m.accept_with(
                &m.bid_a,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.bob],
            )
            .sign(&signers),
            semantic("ACCEPT_BID must have exactly one output to the requester, found 0"),
        ),
        row(
            "ACCEPT_BID pays the requester twice",
            m.accept_with(
                &m.bid_a,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.sally],
            )
            .sign(&signers),
            semantic("ACCEPT_BID must have exactly one output to the requester, found 2"),
        ),
        row(
            "ACCEPT_BID pays a stranger",
            m.accept_with(
                &m.bid_a,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.sally, &m.mallory],
            )
            .sign(&signers),
            neither(1),
        ),
        row(
            "ACCEPT_BID returns the winner's shares to the winner",
            m.accept_with(
                &m.bid_a,
                &m.request1,
                &[(&m.bid_a, 0), (&m.bid_b, 0)],
                &[&m.alice, &m.sally],
            )
            .sign(&signers),
            neither(0),
        ),
        row(
            "ACCEPT_BID leaves a bid out and pays a stranger: the inputs are named",
            m.accept_with(
                &m.bid_a,
                &m.request1,
                &[(&m.bid_a, 0)],
                &[&m.sally, &m.mallory],
            )
            .sign(&signers),
            semantic("ACCEPT_BID must take all 2 locked bids as inputs, found 1"),
        ),
    ]
}

fn return_rows(m: &Market) -> Vec<Row> {
    let signers = [&m.escrow];
    let spent = OutputRef::new(m.bid_b2.id.clone(), 0);
    let ghost = "9".repeat(64);
    let back = "RETURN outputs must go back to the original bidder";
    let mut rows = vec![
        row("RETURN valid", m.bid_return().sign(&signers), Expect::Ok),
        row(
            "RETURN with two references",
            m.bid_return().reference(m.bid_a2.id.clone()).sign(&signers),
            Expect::Schema,
        )
        .shadowed(semantic("RETURN must reference exactly one BID")),
        row(
            "RETURN without references",
            edited(m.bid_return(), &signers, |tx| tx.references.clear()),
            Expect::Schema,
        )
        .shadowed(semantic("RETURN must reference exactly one BID")),
        row(
            "RETURN of an uncommitted bid",
            edited(m.bid_return(), &signers, |tx| {
                tx.references = vec![ghost.clone()]
            }),
            missing(&ghost),
        ),
        row(
            "RETURN whose reference is not a BID",
            edited(m.bid_return(), &signers, |tx| {
                tx.references = vec![m.request2.id.clone()]
            }),
            semantic(format!("RETURN reference {} is not a BID", m.request2.id)),
        ),
        row(
            "RETURN before its REQUEST has an ACCEPT_BID",
            m.return_of(&m.bid_b, &m.bid_b, &m.escrow, &m.bob, 1)
                .sign(&signers),
            semantic(format!(
                "RETURN of bid {} has no committed ACCEPT_BID for its request",
                m.bid_b.id
            )),
        ),
        row(
            "RETURN of the winning bid",
            m.return_of(&m.bid_a2, &m.bid_a2, &m.escrow, &m.alice, 1)
                .sign(&signers),
            semantic("the winning bid is transferred to the requester, not returned"),
        ),
        row(
            "RETURN forged",
            forged(m.bid_return(), &signers, &m.mallory),
            bad_signature(UNCOVERED),
        )
        .vouched(Vouched::Stateful(Expect::Ok)),
        row(
            "RETURN by the bidder claiming the escrow output",
            edited(m.bid_return(), &[&m.bob], |tx| {
                tx.inputs[0].owners_before = vec![hex(&m.bob)]
            }),
            bad_signature(&format!(
                "input 0: owners_before does not match the current owners of {spent}"
            )),
        ),
        row(
            "RETURN spends another bid than it references",
            m.return_of(&m.bid_b2, &m.bid_a2, &m.escrow, &m.bob, 1)
                .sign(&signers),
            semantic("RETURN input 0 does not spend the referenced bid"),
        ),
        row(
            "RETURN of a bid output escrow does not hold",
            m.return_of(&m.bid_loose4, &m.bid_loose4, &m.carol, &m.carol, 1)
                .sign(&[&m.carol]),
            semantic("RETURN input 0 does not spend an escrow-held output"),
        ),
        row(
            "RETURN of an already settled bid",
            m.return_of(&m.bid_spent4, &m.bid_spent4, &m.escrow, &m.bob, 1)
                .nonce(1)
                .sign(&signers),
            Expect::Err(ValidationError::DoubleSpend(format!(
                "{} already spent by {}",
                out(&m.bid_spent4, 0),
                m.bid_spent4_spender.id
            ))),
        ),
        row(
            "RETURN to someone other than the bidder",
            m.return_of(&m.bid_b2, &m.bid_b2, &m.escrow, &m.mallory, 1)
                .sign(&signers),
            semantic(back),
        ),
        row(
            "RETURN second output to someone other than the bidder",
            m.bid_return()
                .output_with_prev(hex(&m.mallory), 1, vec![hex(&m.escrow)])
                .sign(&signers),
            semantic(back),
        ),
        row(
            "RETURN outputs exceed inputs",
            m.return_of(&m.bid_b2, &m.bid_b2, &m.escrow, &m.bob, 2)
                .sign(&signers),
            mismatch(1, 2),
        ),
        row(
            "RETURN to a stranger and unbalanced: the recipient is named",
            m.return_of(&m.bid_b2, &m.bid_b2, &m.escrow, &m.mallory, 2)
                .sign(&signers),
            semantic(back),
        ),
        row(
            "RETURN of the winner and forged: the trigger rule is named",
            forged(
                m.return_of(&m.bid_a2, &m.bid_a2, &m.escrow, &m.alice, 1),
                &signers,
                &m.mallory,
            ),
            semantic("the winning bid is transferred to the requester, not returned"),
        ),
        row(
            "RETURN with a null input beside its spend",
            edited(m.bid_return(), &signers, |tx| {
                tx.inputs.push(null_input(&m.escrow))
            }),
            semantic("input 1: RETURN inputs must spend an output"),
        ),
        row(
            "RETURN with inline asset data",
            edited(m.bid_return(), &signers, |tx| {
                tx.asset = AssetRef::Data(obj! { "kind" => "x" })
            }),
            Expect::Schema,
        )
        .shadowed(Expect::Ok),
        row(
            "RETURN without inputs",
            resealed(m.bid_return(), &signers, |tx| tx.inputs.clear()),
            Expect::Schema,
        )
        .shadowed(mismatch(0, 1)),
    ];
    rows.push(row(
        "RETURN whose outputs wrap around to the input amount",
        m.bid_return()
            .output_with_prev(hex(&m.bob), u64::MAX, vec![hex(&m.escrow)])
            .output_with_prev(hex(&m.bob), 1, vec![hex(&m.escrow)])
            .sign(&signers),
        semantic("RETURN output amounts overflow u64"),
    ));
    for (name, edit, verdict) in spend_faults(m, "RETURN", spent) {
        let tx = edited(m.bid_return(), &signers, |tx| edit(tx));
        rows.push(row(format!("RETURN {name}"), tx, verdict));
    }
    rows
}

#[test]
fn recorded_verdicts_hold_on_the_miss_path_and_when_vouched_for() {
    let m = Market::new();
    let mut rows = create_rows(&m);
    rows.extend(request_rows(&m));
    rows.extend(transfer_rows(&m));
    rows.extend(bid_rows(&m));
    rows.extend(accept_rows(&m));
    rows.extend(return_rows(&m));

    // Ids are unique, so one row's verified-set entry never serves
    // another.
    let mut ids: Vec<&str> = rows.iter().map(|r| r.tx.id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), rows.len(), "two rows share an id");

    // Every row is read before anything is reported, so one run lists
    // every verdict that moved.
    let mut moved: Vec<String> = Vec::new();
    let mut check =
        |name: &str, reading: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            let (got, want) = (format!("{got:?}"), format!("{want:?}"));
            if got != want {
                moved.push(format!(
                    "{name} ({reading})\n    got  {got}\n    want {want}"
                ));
            }
        };
    for row in &rows {
        let miss = row.miss.resolve(&row.tx);
        check(
            &row.name,
            "miss path",
            &validate_transaction(&row.tx, &m.ledger),
            &miss,
        );

        match &row.vouched {
            Vouched::As(signers) => m
                .ledger
                .record_verified(&Arc::new(row.tx.clone()), signers.clone()),
            _ => record_validated(&Arc::new(row.tx.clone()), &m.ledger),
        }
        let hits = m.ledger.verified_stats().hits;
        let second = validate_transaction(&row.tx, &m.ledger);
        let hit = m.ledger.verified_stats().hits > hits;
        let (expected, expect_hit) = match &row.vouched {
            Vouched::Same | Vouched::As(_) => (miss, true),
            Vouched::Stateful(stateful) => (stateful.resolve(&row.tx), true),
            Vouched::NoEntry => (miss, false),
        };
        check(&row.name, "was the entry used?", &hit, &expect_hit);
        check(&row.name, "vouched for", &second, &expected);
    }
    assert!(
        moved.is_empty(),
        "{} of {} rows moved:\n{}",
        moved.len(),
        rows.len(),
        moved.join("\n")
    );
}

/// The rows above are read against one ledger; these read the two
/// verdicts that depend on *which* ledger: the same ACCEPT_BID and
/// RETURN before and after the state they wait for exists.
#[test]
fn verdicts_follow_the_ledger() {
    let mut m = Market::new();
    let accept = m.accept().sign(&[&m.sally]);
    let early_return = m
        .return_of(&m.bid_b, &m.bid_b, &m.escrow, &m.bob, 1)
        .sign(&[&m.escrow]);
    assert_eq!(validate_transaction(&accept, &m.ledger), Ok(()));
    assert!(validate_transaction(&early_return, &m.ledger).is_err());

    m.ledger.apply(&accept).expect("applies");
    assert_eq!(validate_transaction(&early_return, &m.ledger), Ok(()));
    assert_eq!(
        validate_transaction(&accept, &m.ledger),
        Err(ValidationError::DuplicateTransaction(accept.id.clone()))
    );
    let second = m
        .accept_with(
            &m.bid_b,
            &m.request1,
            &[(&m.bid_a, 0), (&m.bid_b, 0)],
            &[&m.alice, &m.sally],
        )
        .sign(&[&m.sally]);
    assert_eq!(
        validate_transaction(&second, &m.ledger),
        Err(ValidationError::DuplicateTransaction(accept.id.clone()))
    );

    // Settled: the RETURN's own resubmission is a duplicate, a second
    // RETURN of the same bid a double spend.
    m.ledger.apply(&early_return).expect("applies");
    let again = m
        .return_of(&m.bid_b, &m.bid_b, &m.escrow, &m.bob, 1)
        .nonce(1)
        .sign(&[&m.escrow]);
    assert_eq!(
        validate_transaction(&again, &m.ledger),
        Err(ValidationError::DoubleSpend(format!(
            "{} already spent by {}",
            out(&m.bid_b, 0),
            early_return.id
        )))
    );
}
