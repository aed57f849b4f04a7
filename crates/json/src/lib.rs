//! JSON substrate for SmartchainDB.
//!
//! SmartchainDB transactions travel as JSON payloads (the paper's Fig. 4
//! life cycle begins with "the client providing a serialized transaction
//! payload in JSON format"), and transaction ids are SHA3-256 hex digests
//! of a *canonical* serialization of the transaction body, following
//! BigchainDB's convention. This crate implements the full substrate
//! from scratch:
//!
//! * [`Value`] — an owned JSON document model with object key ordering
//!   preserved for display but canonicalized (sorted, no whitespace) for
//!   hashing;
//! * [`parse`] — a recursive-descent parser over UTF-8 text with precise
//!   error positions;
//! * `Value::to_string` / [`Value::to_canonical_string`] — compact and
//!   canonical writers;
//! * [`Value::pointer`] — dotted-path access used by the schema validator
//!   and the document store's filter engine.
//!
//! No external JSON crate is used; see DESIGN.md §7.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod number;
mod parse;
mod path;
mod ser;
mod value;

pub use error::{JsonError, Position};
pub use number::Number;
pub use parse::parse;
pub use ser::write_json_string;
pub use value::{Map, Value};

#[cfg(test)]
mod proptests;
