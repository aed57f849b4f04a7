//! Validation and wire errors.
//!
//! The variants mirror the error names in the paper's algorithms:
//! `InputDoesNotExistError` (Alg. 2 line 4), `ValidationError`,
//! `InsufficientCapabilitiesError` (Alg. 2 line 11) and
//! `DuplicateTransactionError` (Alg. 3 line 10), plus the double-spend
//! rejection native transactions provide automatically (§2.1).

use scdb_schema::Violation;
use std::fmt;

/// A semantic validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The payload failed schema validation (Algorithm 1).
    Schema(Vec<Violation>),
    /// A referenced or spent transaction is not committed.
    InputDoesNotExist(String),
    /// An input tries to spend an already-spent output.
    DoubleSpend(String),
    /// A fulfillment does not verify against the owners of the spent
    /// output (or the declared owners for CREATE-style inputs).
    InvalidSignature(String),
    /// A BID output is not controlled by a reserved (escrow) account —
    /// violates C_BID condition 6.
    NotEscrowOutput { output_index: usize },
    /// The bid asset lacks requested capabilities — C_BID condition 7.
    InsufficientCapabilities { missing: Vec<String> },
    /// An ACCEPT_BID already exists for this REQUEST — Alg. 3 line 10.
    DuplicateTransaction(String),
    /// Declared id does not match the recomputed digest ("verify that
    /// the validator node did not tamper the transaction", §4).
    IdMismatch { declared: String, computed: String },
    /// Input/output share amounts do not balance.
    AmountMismatch { inputs: u64, outputs: u64 },
    /// Any other condition from the C_α sets.
    Semantic(String),
    /// The durable store refused the commit. Either the store was
    /// already latched fail-closed and the transaction did not apply,
    /// or its own block's seal was the write that failed — then it
    /// applied in memory only and the next reopen drops it. Retryable
    /// once the store is reopened.
    Storage(String),
}

impl ValidationError {
    /// The variant's name, in the registry's spelling — what rejection
    /// counters (`pipeline.rejected.<name>`) are keyed by.
    pub fn variant_name(&self) -> &'static str {
        match self {
            ValidationError::Schema(_) => "schema",
            ValidationError::InputDoesNotExist(_) => "input_does_not_exist",
            ValidationError::DoubleSpend(_) => "double_spend",
            ValidationError::InvalidSignature(_) => "invalid_signature",
            ValidationError::NotEscrowOutput { .. } => "not_escrow_output",
            ValidationError::InsufficientCapabilities { .. } => "insufficient_capabilities",
            ValidationError::DuplicateTransaction(_) => "duplicate_transaction",
            ValidationError::IdMismatch { .. } => "id_mismatch",
            ValidationError::AmountMismatch { .. } => "amount_mismatch",
            ValidationError::Semantic(_) => "semantic",
            ValidationError::Storage(_) => "storage",
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Schema(vs) => {
                write!(f, "schema validation failed: ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            ValidationError::InputDoesNotExist(id) => {
                write!(
                    f,
                    "InputDoesNotExistError: transaction {id} is not committed"
                )
            }
            ValidationError::DoubleSpend(what) => write!(f, "double spend: {what}"),
            ValidationError::InvalidSignature(why) => write!(f, "invalid signature: {why}"),
            ValidationError::NotEscrowOutput { output_index } => write!(
                f,
                "ValidationError: output {output_index} must be held by a reserved escrow account"
            ),
            ValidationError::InsufficientCapabilities { missing } => write!(
                f,
                "InsufficientCapabilitiesError: bid asset lacks {missing:?}"
            ),
            ValidationError::DuplicateTransaction(id) => {
                write!(f, "DuplicateTransactionError: {id}")
            }
            ValidationError::IdMismatch { declared, computed } => {
                write!(f, "id mismatch: declared {declared}, computed {computed}")
            }
            ValidationError::AmountMismatch { inputs, outputs } => {
                write!(
                    f,
                    "amount mismatch: inputs hold {inputs}, outputs hold {outputs}"
                )
            }
            ValidationError::Semantic(why) => write!(f, "ValidationError: {why}"),
            ValidationError::Storage(why) => write!(f, "storage error: {why}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Errors while decoding a transaction from its JSON wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Field missing or of the wrong type.
    Field(&'static str),
    /// Unknown operation name.
    UnknownOperation(String),
    /// Payload is not valid JSON.
    Json(String),
    /// Payload is longer than [`crate::MAX_PAYLOAD_BYTES`]; it was not
    /// parsed.
    TooLarge { bytes: usize },
    /// The value has a field the wire form does not: it is not the wire
    /// form of the transaction it would decode to.
    NotCanonical,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Field(name) => write!(f, "missing or malformed field {name:?}"),
            WireError::UnknownOperation(op) => write!(f, "unknown operation {op:?}"),
            WireError::Json(e) => write!(f, "payload is not valid JSON: {e}"),
            WireError::TooLarge { bytes } => write!(
                f,
                "payload of {bytes} bytes exceeds the {} byte limit",
                crate::MAX_PAYLOAD_BYTES
            ),
            WireError::NotCanonical => {
                f.write_str("payload is not the wire form of the transaction it decodes to")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_name_paper_errors() {
        let e = ValidationError::InputDoesNotExist("abc".into());
        assert!(e.to_string().contains("InputDoesNotExistError"));
        let e = ValidationError::InsufficientCapabilities {
            missing: vec!["cnc".into()],
        };
        assert!(e.to_string().contains("InsufficientCapabilitiesError"));
        let e = ValidationError::DuplicateTransaction("x".into());
        assert!(e.to_string().contains("DuplicateTransactionError"));
    }

    #[test]
    fn wire_errors_display() {
        assert!(WireError::Field("inputs").to_string().contains("inputs"));
        assert!(WireError::UnknownOperation("MINT".into())
            .to_string()
            .contains("MINT"));
    }
}
