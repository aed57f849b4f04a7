//! The formal transaction model (paper §3.1, Definition 1).
//!
//! A transaction is the complex object `⟨ID, OP, A, O, I, Ch, R⟩`:
//! identifier, operation, asset, outputs, inputs, children and the
//! reference vector. "Referencing a transaction differs from spending
//! it, as referencing does not result in the consumption of its output."

use crate::errors::WireError;
use scdb_crypto::sha3_256_hex;
use scdb_json::{Map, Number, Value};
use std::fmt;

/// The longest transaction payload [`Transaction::from_payload`]
/// accepts, in bytes. A longer one is refused before it is parsed, so a
/// client or a peer cannot make a replica parse an arbitrarily large
/// document. The largest payload the test suite, the examples and the
/// benchmark workloads build is 9,853 bytes (an ACCEPT_BID over 16
/// bids); the limit is 26 times that.
pub const MAX_PAYLOAD_BYTES: usize = 256 * 1024;

/// A transaction type: a handle into the type catalogue (`types.yaml`,
/// [`scdb_schema::type_documents`]) that holds its document's key. Every
/// document is a type, so a type added to the catalogue needs no Rust;
/// [`crate::conditions::row`] finds the row built from its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation(&'static str);

#[allow(
    non_upper_case_globals,
    reason = "the shipped types keep the names they had as enum variants, so the callers that name or match on one read as before"
)]
impl Operation {
    /// Mint a new asset with some number of shares.
    pub const Create: Operation = Operation("CREATE");
    /// Move shares between accounts (the blockchain-native primitive).
    pub const Transfer: Operation = Operation("TRANSFER");
    /// Post a request-for-quotes with required capabilities.
    pub const Request: Operation = Operation("REQUEST");
    /// Offer an asset against a REQUEST; shares move into escrow.
    pub const Bid: Operation = Operation("BID");
    /// Move an unaccepted bid from escrow back to its original bidder.
    pub const Return: Operation = Operation("RETURN");
    /// The nested transaction accepting a winning bid (Definition 4).
    pub const AcceptBid: Operation = Operation("ACCEPT_BID");

    /// The types named above: the table build refuses a catalogue that
    /// lacks one.
    pub(crate) const SHIPPED: [Operation; 6] = [
        Operation::Create,
        Operation::Transfer,
        Operation::Request,
        Operation::Bid,
        Operation::Return,
        Operation::AcceptBid,
    ];

    /// Wire name of the operation: its catalogue key.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Looks a wire name up in the catalogue.
    pub fn parse(s: &str) -> Option<Operation> {
        let (name, _) = scdb_schema::type_documents().get_key_value(s)?;
        Some(Operation(name))
    }

    /// Every type in the catalogue, in name order.
    pub fn all() -> impl ExactSizeIterator<Item = Operation> {
        scdb_schema::type_documents()
            .keys()
            .map(|name| Operation(name))
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
        let asset = if let Some(data) = v.get("data") {
            AssetRef::Data(data.clone())
        } else if let Some(id) = v.get("id").and_then(Value::as_str) {
            AssetRef::Id(id.to_owned())
        } else if let Some(id) = v.get("win_bid_id").and_then(Value::as_str) {
            AssetRef::WinBid(id.to_owned())
        } else {
            return Err(WireError::Field("asset"));
        };
        exactly(asset, v, 1)
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
        let amount = wire_u64(v.get("amount")).ok_or(WireError::Field("outputs.amount"))?;
        let public_keys =
            string_list(v.get("public_keys")).ok_or(WireError::Field("outputs.public_keys"))?;
        let previous_owners = match v.get("previous_owners") {
            None => Vec::new(),
            Some(list) => {
                string_list(Some(list)).ok_or(WireError::Field("outputs.previous_owners"))?
            }
        };
        // An empty `previous_owners` is written by leaving it out.
        let fields = if previous_owners.is_empty() { 2 } else { 3 };
        let output = Output {
            public_keys,
            amount,
            previous_owners,
        };
        exactly(output, v, fields)
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
            None => return Err(WireError::Field("inputs.fulfills")),
            Some(Value::Null) => None,
            Some(f) => {
                let spent = InputRef {
                    tx_id: f
                        .get("transaction_id")
                        .and_then(Value::as_str)
                        .ok_or(WireError::Field("inputs.fulfills.transaction_id"))?
                        .to_owned(),
                    // An index past u32 is refused, never truncated: a cast
                    // would give one transaction a second accepted spelling.
                    output_index: wire_u64(f.get("output_index"))
                        .and_then(|index| u32::try_from(index).ok())
                        .ok_or(WireError::Field("inputs.fulfills.output_index"))?,
                };
                Some(exactly(spent, f, 2)?)
            }
        };
        let input = Input {
            owners_before,
            fulfills,
            fulfillment,
        };
        exactly(input, v, 3)
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

    /// Decodes the wire form, and only it: `to_value` of the result is
    /// `v`. A field the wire form does not have, another `version`, a
    /// missing `metadata` or `fulfills`, a second asset key, an empty
    /// `previous_owners` or an integer spelled as a float is refused,
    /// not dropped or filled in — Algorithm 1 judges the re-encoding, so
    /// each would give one transaction a second accepted spelling.
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
        if v.get("version").and_then(Value::as_str) != Some(VERSION) {
            return Err(WireError::Field("version"));
        }
        let metadata = v
            .get("metadata")
            .cloned()
            .ok_or(WireError::Field("metadata"))?;
        let children = string_list(v.get("children")).ok_or(WireError::Field("children"))?;
        let references = string_list(v.get("references")).ok_or(WireError::Field("references"))?;
        let tx = Transaction {
            id,
            operation,
            asset,
            inputs,
            outputs,
            metadata,
            children,
            references,
        };
        exactly(tx, v, 9)
    }

    /// Parses a JSON payload into a transaction through
    /// [`Transaction::from_value`]. A payload longer than
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
}

/// `decoded`, if `v` is an object of exactly `fields` fields. Every
/// decoder reads each field it counts by name and refuses its absence,
/// so the count refuses any field the wire form does not have.
fn exactly<T>(decoded: T, v: &Value, fields: usize) -> Result<T, WireError> {
    match v.as_object() {
        Some(m) if m.len() == fields => Ok(decoded),
        _ => Err(WireError::NotCanonical),
    }
}

/// A JSON integer that fits `u64`; a float spelling of it (`1.0`) is
/// refused.
fn wire_u64(v: Option<&Value>) -> Option<u64> {
    v?.as_number().filter(Number::is_integer)?.as_u64()
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
        for op in Operation::all() {
            assert_eq!(Operation::parse(op.as_str()), Some(op));
        }
        assert_eq!(Operation::parse("MINT"), None);
        assert!(crate::conditions::row(Operation::AcceptBid).nested);
        assert!(!crate::conditions::row(Operation::Bid).nested);
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
}
