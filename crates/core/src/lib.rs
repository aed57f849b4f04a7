//! # scdb-core — declarative blockchain transactions
//!
//! The primary contribution of *"Taming the Beast of User-Programmed
//! Transactions on Blockchains"* (EDBT 2025): a typed, declarative
//! transaction model that lifts marketplace behaviours out of smart
//! contracts and into native blockchain transaction types.
//!
//! * [`Transaction`] — the formal object `⟨ID, OP, A, O, I, Ch, R⟩`
//!   (Definition 1) with content-addressed SHA3 ids;
//! * [`TxBuilder`] — declarative construction + signing (the driver's
//!   Prepare-and-Sign templates);
//! * [`conditions`] — the declaration: one row per operation, built
//!   once from its document in the type catalogue `scdb-schema` embeds,
//!   holding its condition set `C_α` (Definitions 3–4, Algorithms 2–3),
//!   the ledger lookups those conditions declare, the marketplace key
//!   it writes and its signers (derived from its conditions);
//! * [`validate`] — the evaluator: stateless screen, signatures, then
//!   the operation's row over a [`LedgerState`];
//! * [`pipeline`] — footprint-scheduled batch-parallel commit, its
//!   per-type conflict keys read off the same rows;
//! * [`nested`] — nested transactions (Definition 2): non-locking
//!   commit, `deterRtrnTxs` child determination, eventual-commit
//!   tracking;
//! * [`workflow`] — the structural check of transaction workflows
//!   (Definition 5).
//!
//! ```
//! use scdb_core::{TxBuilder, LedgerState, LedgerView, validate::validate_transaction};
//! use scdb_crypto::KeyPair;
//!
//! let alice = KeyPair::from_seed([1u8; 32]);
//! let tx = TxBuilder::create(scdb_json::obj! { "kind" => "3d-printer" })
//!     .output(alice.public_hex(), 10)
//!     .nonce(1)
//!     .sign(&[&alice]);
//!
//! let mut ledger = LedgerState::new();
//! validate_transaction(&tx, &ledger).expect("valid CREATE");
//! ledger.apply(&tx).expect("no double spend");
//! assert!(ledger.is_committed(&tx.id));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
pub mod conditions;
mod errors;
mod ledger;
mod model;
pub mod nested;
mod par;
pub use par::{map_chunks, parallel_map};
pub mod pipeline;
pub mod validate;
pub mod verified;
mod view;
pub mod workflow;

pub use builder::{sign_transaction, TxBuilder};
pub use conditions::Condition;
pub use errors::{ValidationError, WireError};
pub use ledger::LedgerState;
pub use model::{
    AssetRef, Input, InputRef, Operation, Output, Transaction, MAX_PAYLOAD_BYTES, VERSION,
};
pub use nested::{
    determine_children, determine_outstanding_children, settlement_parent, Child, NestedStatus,
    NestedTracker,
};
pub use pipeline::{
    choose_schedule, commit_batch, commit_batch_planned, commit_batch_with_gossip,
    derive_footprints, footprint, footprints_conflict, plan_schedule, schedule_waves,
    verify_schedule, Access, BatchOutcome, ConflictKey, Footprint, PipelineOptions, ScheduleError,
    ScheduleSource, WaveSchedule,
};
pub use verified::{VerifiedSigners, VerifiedStats};
pub use view::LedgerView;
// Telemetry rides the options through every layer; re-export the handle
// so downstream crates don't each need the scdb-telemetry dependency
// just to build a PipelineOptions.
pub use scdb_telemetry::{CommitTrace, Telemetry, TelemetrySnapshot};

#[cfg(test)]
mod auction_tests;
#[cfg(test)]
mod proptests;
