//! Document-store substrate for SmartchainDB — the MongoDB stand-in.
//!
//! Each BigchainDB/SmartchainDB node runs a MongoDB instance; "the
//! MongoDB collections within BigchainDB have been adjusted and expanded
//! to support the novel transaction structures" (§4). This crate
//! re-implements the pieces the system actually uses, from scratch:
//!
//! * [`Collection`] — JSON-document collections with secondary hash
//!   indexes and a small query planner;
//! * [`Filter`] — MongoDB-style declarative predicates with dotted-path
//!   addressing (powering the paper's queryability claims);
//! * [`Db`] — named collections, including the SmartchainDB layout with
//!   the `accept_tx_recovery` collection of §4.2;
//! * [`UtxoSet`] — spend tracking with native double-spend rejection,
//!   an atomic per-transaction apply and an incremental state digest;
//! * [`DurableStore`] — the sealed block manifest a node's state is
//!   re-executed from after a crash.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod collection;
mod db;
mod filter;
mod utxo;
mod wal;

pub use collection::{Collection, StoreError, ID_FIELD};
pub use db::{collections, Db};
pub use filter::Filter;
pub use utxo::{entry_hash, OutputRef, SpendError, StateDigest, Utxo, UtxoSet};
pub use wal::{DurableStore, ExportStats, FsyncLevel, RecoveredState, WalError};

#[cfg(test)]
mod proptests;
