//! # SmartchainDB — declarative blockchain transactions in Rust
//!
//! A from-scratch reproduction of *"Taming the Beast of User-Programmed
//! Transactions on Blockchains: A Declarative Transaction Approach"*
//! (EDBT 2025). The paper lifts common marketplace behaviours (REQUEST,
//! BID, ACCEPT_BID, RETURN) out of imperative smart contracts and into
//! the blockchain core as typed, schema-validated, declaratively
//! specified transaction primitives — including *nested* transactions
//! with non-locking, eventually-commit child semantics.
//!
//! This root crate re-exports the full workspace API:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `scdb-core` | the formal transaction model, typed validation, nested transactions, workflows |
//! | [`server`] | `scdb-server` | the SmartchainDB node and the replicated consensus cluster |
//! | [`driver`] | `scdb-driver` | the paper's client driver: templates, prepare-and-sign, sync or async (callback) submit |
//! | [`mempool`] | `scdb-mempool` | conflict-aware ingest: the pool `Node::ingest_payload_batch` fills and blocks are formed from |
//! | [`consensus`] | `scdb-consensus` | Tendermint-profile (pipelined) and IBFT-profile BFT engines |
//! | [`store`] | `scdb-store` | the document-store substrate (MongoDB stand-in) with declarative filters |
//! | [`schema`] | `scdb-schema` | YAML transaction schemas and Algorithm-1 schema validation |
//! | [`json`] | `scdb-json` | JSON value model, parser and canonical serializer |
//! | [`crypto`] | `scdb-crypto` | SHA3-256 / Keccak-256 / SHA-512 / Ed25519, keypairs, multi-signatures |
//! | [`sim`] | `scdb-sim` | the discrete-event kernel standing in for the paper's VM testbed |
//! | [`evm`] | `scdb-evm` | the ETH-SC baseline: gas-metered contract runtime + reverse-auction contract |
//! | [`workload`] | `scdb-workload` | synthetic workload generation |
//!
//! ## Quickstart
//!
//! ```
//! use smartchaindb::{KeyPair, LedgerView, Node, TxBuilder};
//! use smartchaindb::json::obj;
//!
//! // A single SmartchainDB node with a generated escrow account.
//! let mut node = Node::new(KeyPair::from_seed([0xE5; 32]));
//! let alice = KeyPair::from_seed([0xA1; 32]);
//!
//! // Declare a CREATE transaction — no contract code, just intent.
//! let asset = TxBuilder::create(obj! { "capabilities" => smartchaindb::json::arr!["3d-print"] })
//!     .output(alice.public_hex(), 1)
//!     .sign(&[&alice]);
//! node.process_transaction(&asset.to_payload()).expect("committed");
//! assert!(node.ledger().is_committed(&asset.id));
//! ```
//!
//! See `examples/` for complete scenarios (reverse auction end-to-end,
//! marketplace queries, failure recovery, SCDB vs ETH-SC comparison) and
//! `crates/bench` for the binaries regenerating every figure of the
//! paper's evaluation.

#![forbid(unsafe_code)]

/// The paper's primary contribution: the formal model, typed
/// transactions and nested-transaction machinery (`scdb-core`).
pub mod core {
    pub use scdb_core::*;
}

/// Server node, replicated cluster and cost model (`scdb-server`).
pub mod server {
    pub use scdb_server::*;
}

/// Client driver (`scdb-driver`).
pub mod driver {
    pub use scdb_driver::*;
}

/// BFT consensus engines (`scdb-consensus`).
pub mod consensus {
    pub use scdb_consensus::*;
}

/// Document-store substrate (`scdb-store`).
pub mod store {
    pub use scdb_store::*;
}

/// Transaction schemas and schema validation (`scdb-schema`).
pub mod schema {
    pub use scdb_schema::*;
}

/// JSON value model and parser (`scdb-json`).
pub mod json {
    pub use scdb_json::*;
}

/// Cryptographic primitives (`scdb-crypto`).
pub mod crypto {
    pub use scdb_crypto::*;
}

/// Discrete-event simulation kernel (`scdb-sim`).
pub mod sim {
    pub use scdb_sim::*;
}

/// The ETH-SC smart-contract baseline (`scdb-evm`).
pub mod evm {
    pub use scdb_evm::*;
}

/// Workload generation (`scdb-workload`).
pub mod workload {
    pub use scdb_workload::*;
}

/// Conflict-aware ingest: footprint-indexed admission and shard-aware
/// batch forming (`scdb-mempool`).
pub mod mempool {
    pub use scdb_mempool::*;
}

/// Stage-level tracing, the lock-free metrics registry, and per-block
/// commit traces (`scdb-telemetry`). Gated by `SCDB_TELEMETRY`;
/// exported as JSON via `Node::telemetry_snapshot` /
/// `SmartchainCluster::telemetry_snapshot`.
pub mod telemetry {
    pub use scdb_telemetry::*;
}

// The names most programs start from, re-exported at the root.
pub use scdb_core::{
    LedgerState, LedgerView, NestedStatus, NestedTracker, Operation, PipelineOptions, Transaction,
    TxBuilder, ValidationError,
};
pub use scdb_crypto::KeyPair;
pub use scdb_mempool::{Mempool, MempoolConfig};
pub use scdb_server::{BatchSubmitReport, DrainReport, Node, SmartchainCluster, SmartchainHarness};
pub use scdb_telemetry::Telemetry;
