//! Declarative schema substrate for SmartchainDB.
//!
//! The paper (§4, Fig. 5) defines every transaction type with a YAML
//! schema that "acts as a blueprint for the formation, validation, and
//! processing of transactions". This crate supplies the whole stack,
//! from scratch:
//!
//! * [`yaml`] — a YAML-subset parser producing [`scdb_json::Value`]
//!   documents;
//! * [`regex`] — `pattern` constraints of one shape, `^C{m,n}$` for a
//!   positive ASCII class `C` (e.g. the `sha3_hexdigest` id format),
//!   matched by one pass over the text's bytes; every other pattern is
//!   refused when its schema compiles;
//! * [`Schema`] — the compiled schema model and validator implementing
//!   the paper's Algorithm 1 (`validateT_schema`);
//! * [`txschemas`] — the embedded type catalogue (`types.yaml`): one
//!   document per native transaction type, holding its schema half,
//!   which fills the shared skeleton, and its row, which `scdb-core`
//!   builds from [`type_documents`]; plus [`validate_transaction_schema`],
//!   the operation-dispatched entry point used by the server's CheckTx
//!   phase.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod model;
pub mod regex;
pub mod txschemas;
pub mod yaml;

pub use model::{Schema, SchemaError, TypeKind, Violation};
pub use regex::{Regex, RegexError};
pub use txschemas::{
    fill_template, schema_for, schema_yaml, type_documents, validate_transaction_schema,
};
pub use yaml::{parse_yaml, YamlError, MAX_YAML_BYTES};

#[cfg(test)]
mod proptests;
