//! The formal transaction model (paper §3.1, Definition 1).
//!
//! A transaction is the complex object `⟨ID, OP, A, O, I, Ch, R⟩`:
//! identifier, operation, asset, outputs, inputs, children and the
//! reference vector. "Referencing a transaction differs from spending
//! it, as referencing does not result in the consumption of its output."

use crate::errors::WireError;
use scdb_crypto::sha3_256_hex;
use scdb_json::{Map, Value};
use std::fmt;

/// The longest transaction payload [`Transaction::from_payload`]
/// accepts, in bytes. A longer one is refused before it is parsed, so a
/// client or a peer cannot make a replica parse an arbitrarily large
/// document. The largest payload the test suite, the examples and the
/// benchmark workloads build is 9,853 bytes (an ACCEPT_BID over 16
/// bids); the limit is 26 times that.
pub const MAX_PAYLOAD_BYTES: usize = 256 * 1024;

/// The native transaction operations of SmartchainDB (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Mint a new asset with some number of shares.
    Create,
    /// Move shares between accounts (the blockchain-native primitive).
    Transfer,
    /// Post a request-for-quotes with required capabilities.
    Request,
    /// Offer an asset against a REQUEST; shares move into escrow.
    Bid,
    /// Move an unaccepted bid from escrow back to its original bidder.
    Return,
    /// The nested transaction accepting a winning bid (Definition 4).
    AcceptBid,
}

impl Operation {
    /// Wire name of the operation.
    pub fn as_str(self) -> &'static str {
        match self {
            Operation::Create => "CREATE",
            Operation::Transfer => "TRANSFER",
            Operation::Request => "REQUEST",
            Operation::Bid => "BID",
            Operation::Return => "RETURN",
            Operation::AcceptBid => "ACCEPT_BID",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Operation> {
        Some(match s {
            "CREATE" => Operation::Create,
            "TRANSFER" => Operation::Transfer,
            "REQUEST" => Operation::Request,
            "BID" => Operation::Bid,
            "RETURN" => Operation::Return,
            "ACCEPT_BID" => Operation::AcceptBid,
            _ => return None,
        })
    }

    /// All native operations.
    pub const ALL: [Operation; 6] = [
        Operation::Create,
        Operation::Transfer,
        Operation::Request,
        Operation::Bid,
        Operation::Return,
        Operation::AcceptBid,
    ];

    /// Nested transaction types (|Ch| may exceed 0), as their row
    /// declares — only ACCEPT_BID in the paper's catalogue.
    pub fn is_nested(self) -> bool {
        crate::conditions::row(self).nested
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The asset component `A`. CREATE/REQUEST carry inline asset data (a
/// nested key-value structure); TRANSFER/BID/RETURN point at an existing
/// asset by the id of its CREATE transaction; ACCEPT_BID anchors to the
/// winning BID ("the asset A field anchors the transaction to the
/// specific bid … that has won acceptance").
#[derive(Debug, Clone, PartialEq)]
pub enum AssetRef {
    /// Inline data for CREATE / REQUEST.
    Data(Value),
    /// Existing asset id for TRANSFER / BID / RETURN.
    Id(String),
    /// Winning bid id for ACCEPT_BID.
    WinBid(String),
}

impl AssetRef {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        match self {
            AssetRef::Data(data) => {
                m.insert("data".into(), data.clone());
            }
            AssetRef::Id(id) => {
                m.insert("id".into(), Value::from(id.as_str()));
            }
            AssetRef::WinBid(id) => {
                m.insert("win_bid_id".into(), Value::from(id.as_str()));
            }
        }
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Result<AssetRef, WireError> {
        if let Some(data) = v.get("data") {
            return Ok(AssetRef::Data(data.clone()));
        }
        if let Some(id) = v.get("id").and_then(Value::as_str) {
            return Ok(AssetRef::Id(id.to_owned()));
        }
        if let Some(id) = v.get("win_bid_id").and_then(Value::as_str) {
            return Ok(AssetRef::WinBid(id.to_owned()));
        }
        Err(WireError::Field("asset"))
    }
}

/// A transaction output `o_j = ⟨pb, amt, pb_prev⟩` (Definition 1): the
/// new owners' public keys, the share amount, and the previous owners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Hex public keys of the owners/controllers of these shares.
    pub public_keys: Vec<String>,
    /// Number of shares held by this output.
    pub amount: u64,
    /// Hex public keys of the previous owners (`pb_prev`).
    pub previous_owners: Vec<String>,
}

impl Output {
    pub fn new(owner: impl Into<String>, amount: u64) -> Output {
        Output {
            public_keys: vec![owner.into()],
            amount,
            previous_owners: Vec::new(),
        }
    }

    pub fn with_previous(mut self, prev: Vec<String>) -> Output {
        self.previous_owners = prev;
        self
    }

    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("amount".into(), Value::from(self.amount));
        m.insert(
            "public_keys".into(),
            Value::Array(
                self.public_keys
                    .iter()
                    .map(|k| Value::from(k.as_str()))
                    .collect(),
            ),
        );
        if !self.previous_owners.is_empty() {
            m.insert(
                "previous_owners".into(),
                Value::Array(
                    self.previous_owners
                        .iter()
                        .map(|k| Value::from(k.as_str()))
                        .collect(),
                ),
            );
        }
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Result<Output, WireError> {
        let amount = v
            .get("amount")
            .and_then(Value::as_u64)
            .ok_or(WireError::Field("outputs.amount"))?;
        let public_keys =
            string_list(v.get("public_keys")).ok_or(WireError::Field("outputs.public_keys"))?;
        let previous_owners = match v.get("previous_owners") {
            None => Vec::new(),
            Some(list) => {
                string_list(Some(list)).ok_or(WireError::Field("outputs.previous_owners"))?
            }
        };
        Ok(Output {
            public_keys,
            amount,
            previous_owners,
        })
    }
}

/// Pointer to the output an input spends (`T'.o_b`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InputRef {
    pub tx_id: String,
    pub output_index: u32,
}

/// A transaction input `i_k = ⟨T'.o_b, ms⟩`: the spent output (absent
/// for CREATE-style self-inputs) and the multi-signature string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Hex public keys of the owners authorizing this input.
    pub owners_before: Vec<String>,
    /// The spent output; `None` for CREATE/REQUEST self-inputs.
    pub fulfills: Option<InputRef>,
    /// The multi-signature wire string (`ms_{u,v,w}`); empty before
    /// signing.
    pub fulfillment: String,
}

impl Input {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "owners_before".into(),
            Value::Array(
                self.owners_before
                    .iter()
                    .map(|k| Value::from(k.as_str()))
                    .collect(),
            ),
        );
        m.insert("fulfillment".into(), Value::from(self.fulfillment.as_str()));
        m.insert(
            "fulfills".into(),
            match &self.fulfills {
                None => Value::Null,
                Some(r) => {
                    let mut f = Map::new();
                    f.insert("transaction_id".into(), Value::from(r.tx_id.as_str()));
                    f.insert("output_index".into(), Value::from(r.output_index as u64));
                    Value::Object(f)
                }
            },
        );
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Result<Input, WireError> {
        let owners_before =
            string_list(v.get("owners_before")).ok_or(WireError::Field("inputs.owners_before"))?;
        let fulfillment = v
            .get("fulfillment")
            .and_then(Value::as_str)
            .ok_or(WireError::Field("inputs.fulfillment"))?
            .to_owned();
        let fulfills = match v.get("fulfills") {
            None | Some(Value::Null) => None,
            Some(f) => Some(InputRef {
                tx_id: f
                    .get("transaction_id")
                    .and_then(Value::as_str)
                    .ok_or(WireError::Field("inputs.fulfills.transaction_id"))?
                    .to_owned(),
                // An index past u32 is refused, never truncated: a cast
                // would give one transaction a second accepted spelling.
                output_index: f
                    .get("output_index")
                    .and_then(Value::as_u64)
                    .and_then(|index| u32::try_from(index).ok())
                    .ok_or(WireError::Field("inputs.fulfills.output_index"))?,
            }),
        };
        Ok(Input {
            owners_before,
            fulfills,
            fulfillment,
        })
    }
}

/// Wire protocol version.
pub const VERSION: &str = "2.0";

/// The transaction object `T = ⟨ID, OP, A, O, I, Ch, R⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Globally unique SHA3-256 hex digest of the canonical body.
    pub id: String,
    /// The operation `OP ∈ 𝒪𝒫`.
    pub operation: Operation,
    /// The asset component `A`.
    pub asset: AssetRef,
    /// Inputs `I`.
    pub inputs: Vec<Input>,
    /// Outputs `O`.
    pub outputs: Vec<Output>,
    /// Free-form metadata (object or null).
    pub metadata: Value,
    /// Children ids `Ch` (populated for committed nested transactions).
    pub children: Vec<String>,
    /// The reference vector `R` (ids; referencing ≠ spending).
    pub references: Vec<String>,
}

impl Transaction {
    /// Serializes to the JSON wire form (the payload of Fig. 4's life
    /// cycle). Keys are canonical (sorted) by construction.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("id".into(), Value::from(self.id.as_str()));
        m.insert("version".into(), Value::from(VERSION));
        m.insert("operation".into(), Value::from(self.operation.as_str()));
        m.insert("asset".into(), self.asset.to_value());
        m.insert(
            "inputs".into(),
            Value::Array(self.inputs.iter().map(Input::to_value).collect()),
        );
        m.insert(
            "outputs".into(),
            Value::Array(self.outputs.iter().map(Output::to_value).collect()),
        );
        m.insert("metadata".into(), self.metadata.clone());
        m.insert(
            "children".into(),
            Value::Array(
                self.children
                    .iter()
                    .map(|c| Value::from(c.as_str()))
                    .collect(),
            ),
        );
        m.insert(
            "references".into(),
            Value::Array(
                self.references
                    .iter()
                    .map(|r| Value::from(r.as_str()))
                    .collect(),
            ),
        );
        Value::Object(m)
    }

    /// Compact JSON payload string.
    pub fn to_payload(&self) -> String {
        self.to_value().to_compact_string()
    }

    /// Decodes the wire form.
    pub fn from_value(v: &Value) -> Result<Transaction, WireError> {
        let op_name = v
            .get("operation")
            .and_then(Value::as_str)
            .ok_or(WireError::Field("operation"))?;
        let operation = Operation::parse(op_name)
            .ok_or_else(|| WireError::UnknownOperation(op_name.to_owned()))?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or(WireError::Field("id"))?
            .to_owned();
        let asset = AssetRef::from_value(v.get("asset").ok_or(WireError::Field("asset"))?)?;
        let inputs = v
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or(WireError::Field("inputs"))?
            .iter()
            .map(Input::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let outputs = v
            .get("outputs")
            .and_then(Value::as_array)
            .ok_or(WireError::Field("outputs"))?
            .iter()
            .map(Output::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let metadata = v.get("metadata").cloned().unwrap_or(Value::Null);
        let children = string_list(v.get("children")).ok_or(WireError::Field("children"))?;
        let references = string_list(v.get("references")).ok_or(WireError::Field("references"))?;
        Ok(Transaction {
            id,
            operation,
            asset,
            inputs,
            outputs,
            metadata,
            children,
            references,
        })
    }

    /// Parses a JSON payload into a transaction. A payload longer than
    /// [`MAX_PAYLOAD_BYTES`] is refused unparsed.
    pub fn from_payload(payload: &str) -> Result<Transaction, WireError> {
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(WireError::TooLarge {
                bytes: payload.len(),
            });
        }
        let v = scdb_json::parse(payload).map_err(|e| WireError::Json(e.to_string()))?;
        Transaction::from_value(&v)
    }

    /// The message every input signs: the canonical body with the id and
    /// all fulfillments blanked, so signatures cover the full semantic
    /// content but not each other.
    pub fn signing_payload(&self) -> String {
        let mut v = self.to_value();
        if let Some(obj) = v.as_object_mut() {
            obj.remove("id");
        }
        if let Some(inputs) = v.get_mut("inputs").and_then(Value::as_array_mut) {
            for input in inputs {
                input.insert("fulfillment", "");
            }
        }
        v.to_canonical_string()
    }

    /// Recomputes the id: the `sha3_hexdigest` of the canonical body
    /// (everything but the id itself), fulfillments included.
    pub fn compute_id(&self) -> String {
        let mut v = self.to_value();
        if let Some(obj) = v.as_object_mut() {
            obj.remove("id");
        }
        sha3_256_hex(v.to_canonical_string().as_bytes())
    }

    /// The admission pipeline's one-pass derivation bundle: the schema
    /// value, the recomputed id, and (when requested) the signing
    /// payload, all from a single `to_value` walk instead of three.
    /// Byte-identical to calling [`Transaction::to_value`],
    /// [`Transaction::compute_id`] and [`Transaction::signing_payload`]
    /// separately — the only difference is the shared walk.
    pub fn admission_views(&self, with_signing_payload: bool) -> (Value, String, Option<String>) {
        let value = self.to_value();
        let mut body = value.clone();
        if let Some(obj) = body.as_object_mut() {
            obj.remove("id");
        }
        let computed_id = sha3_256_hex(body.to_canonical_string().as_bytes());
        let signing_payload = with_signing_payload.then(|| {
            if let Some(inputs) = body.get_mut("inputs").and_then(Value::as_array_mut) {
                for input in inputs {
                    input.insert("fulfillment", "");
                }
            }
            body.to_canonical_string()
        });
        (value, computed_id, signing_payload)
    }

    /// Stamps `id` from the current content.
    pub fn seal(&mut self) {
        self.id = self.compute_id();
    }

    /// True when the declared id matches the content digest.
    pub fn id_is_consistent(&self) -> bool {
        self.id == self.compute_id()
    }

    /// Sum of output share amounts; `None` when the (untrusted) amounts
    /// overflow `u64`.
    pub fn output_amount(&self) -> Option<u64> {
        self.outputs
            .iter()
            .try_fold(0u64, |sum, o| sum.checked_add(o.amount))
    }

    /// Approximate payload size in bytes (the "transaction size" axis of
    /// Experiment 1).
    pub fn payload_size(&self) -> usize {
        self.to_payload().len()
    }
}

fn string_list(v: Option<&Value>) -> Option<Vec<String>> {
    v?.as_array()?
        .iter()
        .map(|x| x.as_str().map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_json::obj;

    fn sample() -> Transaction {
        Transaction {
            id: String::new(),
            operation: Operation::Create,
            asset: AssetRef::Data(
                obj! { "kind" => "3d-printer", "caps" => scdb_json::arr!["cnc"] },
            ),
            inputs: vec![Input {
                owners_before: vec!["aa".repeat(32)],
                fulfills: None,
                fulfillment: String::new(),
            }],
            outputs: vec![Output::new("bb".repeat(32), 5)],
            metadata: Value::Null,
            children: vec![],
            references: vec![],
        }
    }

    #[test]
    fn operations_round_trip() {
        for op in Operation::ALL {
            assert_eq!(Operation::parse(op.as_str()), Some(op));
        }
        assert_eq!(Operation::parse("MINT"), None);
        assert!(Operation::AcceptBid.is_nested());
        assert!(!Operation::Bid.is_nested());
    }

    #[test]
    fn wire_round_trip() {
        let mut tx = sample();
        tx.seal();
        let payload = tx.to_payload();
        let back = Transaction::from_payload(&payload).expect("parses");
        assert_eq!(back, tx);
    }

    #[test]
    fn id_is_content_addressed() {
        let mut a = sample();
        a.seal();
        let mut b = sample();
        b.metadata = obj! { "note" => "different" };
        b.seal();
        assert_ne!(a.id, b.id);
        assert!(a.id_is_consistent());
        assert_eq!(a.id.len(), 64);

        // Tampering breaks consistency.
        let mut tampered = a.clone();
        tampered.outputs[0].amount = 6;
        assert!(!tampered.id_is_consistent());
    }

    #[test]
    fn signing_payload_excludes_fulfillments_and_id() {
        let mut tx = sample();
        tx.seal();
        let before = tx.signing_payload();
        tx.inputs[0].fulfillment = "deadbeef:cafe".to_owned();
        tx.id = "0".repeat(64);
        assert_eq!(
            tx.signing_payload(),
            before,
            "signing payload is fulfillment/id independent"
        );
        // …but the id digest covers fulfillments.
        let mut sealed = tx.clone();
        sealed.seal();
        let mut other = tx.clone();
        other.inputs[0].fulfillment = "1234:5678".to_owned();
        other.seal();
        assert_ne!(sealed.id, other.id);
    }

    #[test]
    fn admission_views_match_the_separate_derivations() {
        let mut tx = sample();
        tx.seal();
        tx.inputs[0].fulfillment = "deadbeef:cafe".to_owned();
        tx.seal();
        let (value, computed_id, signing) = tx.admission_views(true);
        assert_eq!(value, tx.to_value());
        assert_eq!(computed_id, tx.compute_id());
        assert_eq!(signing.as_deref(), Some(tx.signing_payload().as_str()));
        let (_, id_only, none) = tx.admission_views(false);
        assert_eq!(id_only, tx.compute_id());
        assert!(none.is_none());
    }

    #[test]
    fn asset_variants_round_trip() {
        for asset in [
            AssetRef::Data(obj! { "a" => 1 }),
            AssetRef::Id("ab".repeat(32)),
            AssetRef::WinBid("cd".repeat(32)),
        ] {
            let v = asset.to_value();
            assert_eq!(AssetRef::from_value(&v).unwrap(), asset);
        }
        assert!(AssetRef::from_value(&Value::object()).is_err());
    }

    #[test]
    fn spend_inputs_round_trip() {
        let mut tx = sample();
        tx.operation = Operation::Transfer;
        tx.asset = AssetRef::Id("ab".repeat(32));
        tx.inputs[0].fulfills = Some(InputRef {
            tx_id: "cd".repeat(32),
            output_index: 3,
        });
        tx.seal();
        let back = Transaction::from_payload(&tx.to_payload()).unwrap();
        assert_eq!(back.inputs[0].fulfills.as_ref().unwrap().output_index, 3);
    }

    #[test]
    fn malformed_payload_errors() {
        assert!(matches!(
            Transaction::from_payload("{"),
            Err(WireError::Json(_))
        ));
        let missing_inputs = obj! {
            "id" => "x",
            "operation" => "CREATE",
            "asset" => obj! { "data" => Value::object() },
        };
        assert!(matches!(
            Transaction::from_value(&missing_inputs),
            Err(WireError::Field("inputs"))
        ));
        let bad_op = obj! { "operation" => "MINT" };
        assert!(matches!(
            Transaction::from_value(&bad_op),
            Err(WireError::UnknownOperation(_))
        ));
    }

    #[test]
    fn output_amount_sums() {
        let mut tx = sample();
        tx.outputs.push(Output::new("cc".repeat(32), 7));
        assert_eq!(tx.output_amount(), Some(12));
    }

    #[test]
    fn payload_size_tracks_metadata_growth() {
        let mut small = sample();
        small.seal();
        let mut big = sample();
        big.metadata = obj! { "blob" => "x".repeat(1024) };
        big.seal();
        assert!(big.payload_size() > small.payload_size() + 1000);
    }
}
