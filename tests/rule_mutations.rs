//! Structural mutations of valid transactions never panic the rules,
//! and a verified-set hit decides what a miss decides.
//!
//! A valid instance of each of the six operations, against a ledger
//! holding an open auction and an accepted one, is put through one to
//! three stacked mutations — inputs, outputs and references dropped,
//! duplicated and retargeted (at spent, foreign, escrow-held and
//! non-existent outputs; at transactions of every operation), the asset
//! kind swapped, amounts zeroed and maxed out — then re-signed by the right accounts,
//! re-sealed with stale signatures, or left with a stale id, with or
//! without a stripped fulfillment. Whatever comes out,
//! `validate_transaction` must *return*; and after the block pre-pass
//! (`record_validated_batch`, which vouches for exactly the members
//! whose schema, id and signatures pass) it must return the same
//! `Result` again, entry or no entry. More than half the mutants break
//! the schema, which would shield the stateful rules from them, so each
//! is read a third time with an entry forced (`record_validated`): the
//! rules alone must return too, whatever they say.

use proptest::prelude::*;
use smartchaindb::core::validate::{
    record_validated, record_validated_batch, validate_transaction,
};
use smartchaindb::core::{sign_transaction, AssetRef, InputRef};
use smartchaindb::json::{arr, obj};
use smartchaindb::{KeyPair, LedgerState, Operation, Transaction, TxBuilder};
use std::sync::{Arc, OnceLock};

struct Fixture {
    ledger: LedgerState,
    /// Every account, escrow first, the requester second.
    keys: Vec<KeyPair>,
    /// One valid transaction per operation.
    valid: Vec<Transaction>,
    /// Outputs to retarget a spend at: spent, foreign, escrow-held,
    /// of an uncommitted transaction, past the last index.
    outputs: Vec<InputRef>,
    /// Ids to retarget a reference or an asset at: an asset, both
    /// REQUESTs, open and accepted bids, an ACCEPT_BID, nothing.
    ids: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

fn build_fixture() -> Fixture {
    let keys: Vec<KeyPair> = [0xE5u8, 0x5A, 0xA1, 0xB0, 0xCA, 0x66]
        .iter()
        .map(|tag| KeyPair::from_seed([*tag; 32]))
        .collect();
    let [escrow, sally, alice, bob, carol, mallory] = &keys[..] else {
        unreachable!("six keys");
    };
    let hex = KeyPair::public_hex;
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(hex(escrow));
    let mut commit = |tx: Transaction| {
        validate_transaction(&tx, &ledger).expect("fixture validates");
        ledger.apply(&tx).expect("fixture applies");
        tx
    };

    let mut mint = |owner: &KeyPair, amount: u64, nonce: u64| {
        commit(
            TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
                .output(hex(owner), amount)
                .nonce(nonce)
                .sign(&[owner]),
        )
    };
    let spare = mint(alice, 5, 0);
    let asset_c = mint(carol, 1, 1);
    let assets: Vec<Transaction> = [alice, bob, alice, bob]
        .iter()
        .zip(2..)
        .map(|(owner, nonce)| mint(owner, 1, nonce))
        .collect();
    let mut post = |nonce: u64| {
        commit(
            TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
                .output(hex(sally), 1)
                .nonce(nonce)
                .sign(&[sally]),
        )
    };
    let (open, accepted) = (post(10), post(11));
    let mut bid = |bidder: &KeyPair, asset: &Transaction, request: &Transaction| {
        commit(
            TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![hex(bidder)])
                .output_with_prev(hex(escrow), 1, vec![hex(bidder)])
                .sign(&[bidder]),
        )
    };
    let bid_a = bid(alice, &assets[0], &open);
    let bid_b = bid(bob, &assets[1], &open);
    let bid_a2 = bid(alice, &assets[2], &accepted);
    let bid_b2 = bid(bob, &assets[3], &accepted);
    let accept = |win: &Transaction, lose: &Transaction, request: &Transaction| {
        TxBuilder::accept_bid(win.id.clone(), request.id.clone())
            .input(win.id.clone(), 0, vec![hex(escrow)])
            .input(lose.id.clone(), 0, vec![hex(escrow)])
            .output_with_prev(hex(sally), 1, vec![hex(escrow)])
            .output_with_prev(hex(bob), 1, vec![hex(escrow)])
            .sign(&[sally])
    };
    let accept2 = commit(accept(&bid_a2, &bid_b2, &accepted));

    let valid = vec![
        TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(hex(mallory), 3)
            .sign(&[mallory]),
        TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(hex(sally), 1)
            .nonce(12)
            .sign(&[sally]),
        TxBuilder::transfer(spare.id.clone())
            .input(spare.id.clone(), 0, vec![hex(alice)])
            .output_with_prev(hex(bob), 5, vec![hex(alice)])
            .sign(&[alice]),
        TxBuilder::bid(asset_c.id.clone(), open.id.clone())
            .input(asset_c.id.clone(), 0, vec![hex(carol)])
            .output_with_prev(hex(escrow), 1, vec![hex(carol)])
            .sign(&[carol]),
        accept(&bid_a, &bid_b, &open),
        TxBuilder::bid_return(assets[3].id.clone(), bid_b2.id.clone())
            .input(bid_b2.id.clone(), 0, vec![hex(escrow)])
            .output_with_prev(hex(bob), 1, vec![hex(escrow)])
            .sign(&[escrow]),
    ];
    let ghost = "9".repeat(64);
    let at = |tx_id: &String, output_index| InputRef {
        tx_id: tx_id.clone(),
        output_index,
    };
    let outputs = vec![
        at(&assets[0].id, 0),
        at(&spare.id, 0),
        at(&bid_a.id, 0),
        at(&bid_b2.id, 0),
        at(&ghost, 0),
        at(&spare.id, 9),
    ];
    let ids = vec![
        spare.id.clone(),
        open.id.clone(),
        accepted.id.clone(),
        bid_a.id.clone(),
        bid_a2.id.clone(),
        bid_b2.id.clone(),
        accept2.id.clone(),
        ghost,
    ];
    Fixture {
        ledger,
        keys,
        valid,
        outputs,
        ids,
    }
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

/// One structural mutation, chosen by `(what, how, at, to)`.
fn apply(f: &Fixture, tx: &mut Transaction, (what, how, at, to): (usize, usize, usize, usize)) {
    let id = &f.ids[to % f.ids.len()];
    match what {
        0 => mutate(&mut tx.inputs, how, at, |input| {
            // One slot past the pool spends nothing.
            input.fulfills = f.outputs.get(to % (f.outputs.len() + 1)).cloned();
        }),
        1 => mutate(&mut tx.outputs, how, at, |output| match how {
            2 => output.public_keys = vec![f.keys[to % f.keys.len()].public_hex()],
            3 => output.previous_owners = vec![f.keys[to % f.keys.len()].public_hex()],
            _ => output.amount = [0, 1, 7, u64::MAX][to % 4],
        }),
        2 => mutate(&mut tx.references, how, at, |r| *r = id.clone()),
        3 => tx.references.push(id.clone()),
        _ => {
            tx.asset = match how {
                0 => AssetRef::Id(id.clone()),
                1 => AssetRef::WinBid(id.clone()),
                _ => AssetRef::Data(obj! { "capabilities" => arr!["3d-print"] }),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_transactions_never_panic_and_a_hit_decides_what_a_miss_does(
        base in 0usize..6,
        mutations in prop::collection::vec((0usize..5, 0usize..5, 0usize..4, 0usize..16), 1..4),
        finish in 0usize..3,
        strip in 0usize..4,
    ) {
        let f = fixture();
        let mut tx = f.valid[base].clone();
        for mutation in mutations {
            apply(f, &mut tx, mutation);
        }
        match finish {
            // Signed afresh by whoever should: the stateless checks pass
            // (shape permitting) and the stateful rules decide.
            0 if !tx.inputs.is_empty() => {
                let signers: Vec<&KeyPair> = match tx.operation {
                    Operation::AcceptBid => vec![&f.keys[1]],
                    _ => f.keys.iter().collect(),
                };
                sign_transaction(&mut tx, &signers);
            }
            // Id consistent, signatures over the unmutated body.
            0 | 1 => tx.seal(),
            // The unmutated id.
            _ => {}
        }
        if let Some(input) = tx.inputs.get_mut(strip) {
            input.fulfillment = String::new();
            if finish != 2 {
                tx.seal();
            }
        }

        let miss = validate_transaction(&tx, &f.ledger);
        record_validated_batch(&[Arc::new(tx.clone())], &f.ledger, 1);
        prop_assert_eq!(validate_transaction(&tx, &f.ledger), miss);
        record_validated(&Arc::new(tx.clone()), &f.ledger);
        let _returned = validate_transaction(&tx, &f.ledger);
    }
}

/// The property above is not vacuous: the unmutated instances are
/// valid, the pre-pass vouches for each, and the second validation is a
/// hit.
#[test]
fn the_valid_instances_validate_and_hit() {
    // Its own ledger: the hit counter is compared exactly.
    let f = &build_fixture();
    for tx in &f.valid {
        assert_eq!(
            validate_transaction(tx, &f.ledger),
            Ok(()),
            "{}",
            tx.operation
        );
        let hits = f.ledger.verified_stats().hits;
        let report = record_validated_batch(&[Arc::new(tx.clone())], &f.ledger, 1);
        assert_eq!(
            report.pooled + report.already_verified,
            1,
            "{}",
            tx.operation
        );
        assert_eq!(
            validate_transaction(tx, &f.ledger),
            Ok(()),
            "{}",
            tx.operation
        );
        assert_eq!(f.ledger.verified_stats().hits, hits + 1, "{}", tx.operation);
    }
}

/// Amounts are untrusted: sums that overflow `u64` are refused by name,
/// in release and debug alike — never wrapped into a balance (which
/// would mint shares), never a panic.
#[test]
fn overflowing_amounts_are_refused_not_wrapped() {
    let f = &mut build_fixture();
    let (alice, bob) = (&f.keys[2], &f.keys[3]);
    let hex = KeyPair::public_hex;

    // Outputs: 5 shares in, u64::MAX + 6 out — wraps to 5.
    let mut minting = f.valid[2].clone();
    let mut extra = minting.outputs[0].clone();
    extra.amount = 6;
    minting.outputs.push(extra.clone());
    extra.amount = u64::MAX - 5;
    minting.outputs.push(extra);
    sign_transaction(&mut minting, &[alice]);
    let refused = validate_transaction(&minting, &f.ledger).expect_err("wrapping outputs");
    assert!(
        refused.to_string().contains("output amounts overflow"),
        "{refused}"
    );

    // Inputs: two committed u64::MAX outputs spent together — wraps to
    // u64::MAX - 1.
    let rich = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(hex(alice), u64::MAX)
        .output(hex(alice), u64::MAX)
        .nonce(77)
        .sign(&[alice]);
    validate_transaction(&rich, &f.ledger).expect("a CREATE mints what it likes");
    f.ledger.apply(&rich).expect("applies");
    let spend = TxBuilder::transfer(rich.id.clone())
        .input(rich.id.clone(), 0, vec![hex(alice)])
        .input(rich.id.clone(), 1, vec![hex(alice)])
        .output_with_prev(hex(bob), u64::MAX - 1, vec![hex(alice)])
        .sign(&[alice]);
    let refused = validate_transaction(&spend, &f.ledger).expect_err("wrapping inputs");
    assert!(
        refused.to_string().contains("input amounts overflow"),
        "{refused}"
    );
}
