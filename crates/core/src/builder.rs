//! Declarative transaction construction — the driver-side "templates
//! customized to each transaction type" of Fig. 4's Prepare-and-Sign
//! stage.
//!
//! Builders assemble an unsigned transaction, then [`TxBuilder::sign`]
//! fulfills every input with a multi-signature over the signing payload
//! and seals the content-addressed id.

use crate::conditions::{row, Signers};
use crate::model::{AssetRef, Input, InputRef, Operation, Output, Transaction};
use scdb_crypto::KeyPair;
use scdb_json::Value;

/// Fluent builder for native transactions.
pub struct TxBuilder {
    operation: Operation,
    asset: AssetRef,
    inputs: Vec<Input>,
    outputs: Vec<Output>,
    metadata: Value,
    references: Vec<String>,
}

impl TxBuilder {
    /// A transaction of any catalogue type over `asset`, with no inputs,
    /// outputs, metadata or references yet.
    pub fn new(operation: Operation, asset: AssetRef) -> TxBuilder {
        TxBuilder {
            operation,
            asset,
            inputs: Vec::new(),
            outputs: Vec::new(),
            metadata: Value::Null,
            references: Vec::new(),
        }
    }

    /// CREATE: mint a new asset described by `data`.
    pub fn create(data: Value) -> TxBuilder {
        TxBuilder::new(Operation::Create, AssetRef::Data(data))
    }

    /// TRANSFER: move shares of the asset minted by `asset_id`.
    pub fn transfer(asset_id: impl Into<String>) -> TxBuilder {
        TxBuilder::new(Operation::Transfer, AssetRef::Id(asset_id.into()))
    }

    /// REQUEST: post a request-for-quotes whose asset data carries the
    /// requested capabilities.
    pub fn request(data: Value) -> TxBuilder {
        TxBuilder::new(Operation::Request, AssetRef::Data(data))
    }

    /// BID: offer the asset minted by `asset_id` against `request_id`.
    pub fn bid(asset_id: impl Into<String>, request_id: impl Into<String>) -> TxBuilder {
        TxBuilder::new(Operation::Bid, AssetRef::Id(asset_id.into())).reference(request_id)
    }

    /// RETURN: move an unaccepted bid back to its original owner.
    pub fn bid_return(asset_id: impl Into<String>, bid_id: impl Into<String>) -> TxBuilder {
        TxBuilder::new(Operation::Return, AssetRef::Id(asset_id.into())).reference(bid_id)
    }

    /// ACCEPT_BID: the nested acceptance of `win_bid_id` for
    /// `request_id`.
    pub fn accept_bid(win_bid_id: impl Into<String>, request_id: impl Into<String>) -> TxBuilder {
        TxBuilder::new(Operation::AcceptBid, AssetRef::WinBid(win_bid_id.into()))
            .reference(request_id)
    }

    /// Adds an output granting `amount` shares to `owner` (hex key).
    pub fn output(mut self, owner: impl Into<String>, amount: u64) -> TxBuilder {
        self.outputs.push(Output::new(owner, amount));
        self
    }

    /// Adds an output with explicit previous owners (`pb_prev`).
    pub fn output_with_prev(
        mut self,
        owner: impl Into<String>,
        amount: u64,
        previous: Vec<String>,
    ) -> TxBuilder {
        self.outputs
            .push(Output::new(owner, amount).with_previous(previous));
        self
    }

    /// Adds a multi-owner output.
    pub fn multi_output(mut self, owners: Vec<String>, amount: u64) -> TxBuilder {
        self.outputs.push(Output {
            public_keys: owners,
            amount,
            previous_owners: Vec::new(),
        });
        self
    }

    /// Adds an input spending `tx_id`'s output `index`, owned by
    /// `owners` (hex keys; all must sign).
    pub fn input(mut self, tx_id: impl Into<String>, index: u32, owners: Vec<String>) -> TxBuilder {
        self.inputs.push(Input {
            owners_before: owners,
            fulfills: Some(InputRef {
                tx_id: tx_id.into(),
                output_index: index,
            }),
            fulfillment: String::new(),
        });
        self
    }

    /// Sets the metadata object.
    pub fn metadata(mut self, metadata: Value) -> TxBuilder {
        self.metadata = metadata;
        self
    }

    /// Appends to the reference vector `R`.
    pub fn reference(mut self, tx_id: impl Into<String>) -> TxBuilder {
        self.references.push(tx_id.into());
        self
    }

    /// Inserts a uniqueness nonce into the metadata, so two otherwise
    /// identical mints get distinct content-addressed ids.
    pub fn nonce(mut self, nonce: u64) -> TxBuilder {
        if self.metadata.is_null() {
            self.metadata = Value::object();
        }
        self.metadata.insert("nonce", nonce);
        self
    }

    /// Finishes an *unsigned* transaction (no fulfillments, id unset).
    /// CREATE/REQUEST get a self-input for each signer at signing time;
    /// other types must have spend inputs already.
    pub fn build_unsigned(self) -> Transaction {
        Transaction {
            id: String::new(),
            operation: self.operation,
            asset: self.asset,
            inputs: self.inputs,
            outputs: self.outputs,
            metadata: self.metadata,
            children: Vec::new(),
            references: self.references,
        }
    }

    /// Signs with `signers` and seals the id. For CREATE/REQUEST
    /// transactions with no inputs yet, a self-input owned by the
    /// signers is synthesized (the BigchainDB convention).
    pub fn sign(self, signers: &[&KeyPair]) -> Transaction {
        let mut tx = self.build_unsigned();
        sign_transaction(&mut tx, signers);
        tx
    }
}

/// Fulfills every input of `tx` with a multi-signature from `signers`
/// over the signing payload, then seals the id. Each input is signed by
/// the `signers` matching its `owners_before`, in `owners_before` order
/// (the one order validation accepts); a CREATE-style transaction with
/// no inputs gets one synthesized self-input owned by `signers` in the
/// order given.
///
/// ACCEPT_BID — the type whose row names the requester as signer — is
/// the exception: its inputs spend escrow-held bid outputs
/// (`owners_before` names `PBPK-ℛℯ𝓈`), but the *requester* authorizes
/// the settlement — "the signer of the ACCEPT_BID transaction [must not
/// be] different from the signer of REQUEST" (Algorithm 3). Every
/// ACCEPT_BID input is therefore fulfilled by the full signer set, as
/// given, and validation checks it against the REQUEST's signers rather
/// than the escrow account: pass them in the REQUEST's order.
pub fn sign_transaction(tx: &mut Transaction, signers: &[&KeyPair]) {
    if tx.inputs.is_empty() {
        tx.inputs.push(Input {
            owners_before: signers.iter().map(|k| k.public_hex()).collect(),
            fulfills: None,
            fulfillment: String::new(),
        });
    }
    let message = tx.signing_payload();
    for input in &mut tx.inputs {
        let input_signers: Vec<&KeyPair> = if row(tx.operation).signers == Signers::Requester {
            signers.to_vec()
        } else {
            input
                .owners_before
                .iter()
                .filter_map(|owner| signers.iter().copied().find(|k| k.public_hex() == *owner))
                .collect()
        };
        let ms = scdb_crypto::MultiSignature::create(&input_signers, message.as_bytes());
        input.fulfillment = ms.to_wire();
    }
    tx.seal();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::verify_input_signatures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scdb_json::obj;

    fn keys(n: usize) -> Vec<KeyPair> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n).map(|_| KeyPair::generate(&mut rng)).collect()
    }

    #[test]
    fn create_builder_signs_and_seals() {
        let ks = keys(1);
        let tx = TxBuilder::create(obj! { "kind" => "printer" })
            .output(ks[0].public_hex(), 10)
            .nonce(7)
            .sign(&[&ks[0]]);
        assert_eq!(tx.operation, Operation::Create);
        assert!(tx.id_is_consistent());
        assert_eq!(tx.inputs.len(), 1, "self-input synthesized");
        assert!(tx.inputs[0].fulfills.is_none());
        assert!(verify_input_signatures(&tx).is_ok());
        assert_eq!(tx.metadata.get("nonce").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn nonce_distinguishes_identical_mints() {
        let ks = keys(1);
        let mk = |nonce| {
            TxBuilder::create(obj! { "kind" => "printer" })
                .output(ks[0].public_hex(), 1)
                .nonce(nonce)
                .sign(&[&ks[0]])
        };
        assert_ne!(mk(1).id, mk(2).id);
    }

    #[test]
    fn transfer_builder_wires_spend_inputs() {
        let ks = keys(2);
        let create = TxBuilder::create(obj! {})
            .output(ks[0].public_hex(), 3)
            .sign(&[&ks[0]]);
        let transfer = TxBuilder::transfer(create.id.clone())
            .input(create.id.clone(), 0, vec![ks[0].public_hex()])
            .output_with_prev(ks[1].public_hex(), 3, vec![ks[0].public_hex()])
            .sign(&[&ks[0]]);
        assert_eq!(transfer.operation, Operation::Transfer);
        let f = transfer.inputs[0].fulfills.as_ref().unwrap();
        assert_eq!(f.tx_id, create.id);
        assert!(verify_input_signatures(&transfer).is_ok());
        assert_eq!(
            transfer.outputs[0].previous_owners,
            vec![ks[0].public_hex()]
        );
    }

    #[test]
    fn bid_builder_references_request() {
        let ks = keys(1);
        let bid = TxBuilder::bid("aa".repeat(32), "bb".repeat(32))
            .input("aa".repeat(32), 0, vec![ks[0].public_hex()])
            .output("e5".repeat(32), 1)
            .sign(&[&ks[0]]);
        assert_eq!(bid.references, vec!["bb".repeat(32)]);
        assert_eq!(bid.asset, AssetRef::Id("aa".repeat(32)));
    }

    #[test]
    fn multisig_inputs_require_all_owners() {
        let ks = keys(2);
        let owners = vec![ks[0].public_hex(), ks[1].public_hex()];
        let tx = TxBuilder::create(obj! {})
            .multi_output(owners, 1)
            .sign(&[&ks[0], &ks[1]]);
        assert!(verify_input_signatures(&tx).is_ok());

        // Signing with only one owner leaves an invalid fulfillment.
        let tx = TxBuilder::transfer("cc".repeat(32))
            .input(
                "cc".repeat(32),
                0,
                vec![ks[0].public_hex(), ks[1].public_hex()],
            )
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        assert!(verify_input_signatures(&tx).is_err());
    }

    #[test]
    fn owner_signed_inputs_follow_owners_before_order() {
        let ks = keys(2);
        let tx = TxBuilder::transfer("cc".repeat(32))
            .input(
                "cc".repeat(32),
                0,
                vec![ks[0].public_hex(), ks[1].public_hex()],
            )
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[1], &ks[0]]);
        assert!(verify_input_signatures(&tx).is_ok());
    }

    #[test]
    fn accept_bid_builder_shape() {
        let ks = keys(1);
        let tx = TxBuilder::accept_bid("11".repeat(32), "22".repeat(32))
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        assert_eq!(tx.operation, Operation::AcceptBid);
        assert_eq!(tx.asset, AssetRef::WinBid("11".repeat(32)));
        assert_eq!(tx.references, vec!["22".repeat(32)]);
    }

    #[test]
    fn signature_covers_semantic_content() {
        let ks = keys(1);
        let mut tx = TxBuilder::create(obj! { "kind" => "x" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        assert!(verify_input_signatures(&tx).is_ok());
        // Mutating an output invalidates the signature.
        tx.outputs[0].amount = 999;
        tx.seal();
        assert!(verify_input_signatures(&tx).is_err());
    }
}
