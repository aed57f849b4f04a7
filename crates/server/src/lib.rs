//! SmartchainDB server: the §4 implementation framework.
//!
//! * [`Node`] — a standalone server node: three-phase validation,
//!   document-store commit, nested-transaction settlement via the
//!   [`ReturnQueue`], recovery-log crash recovery;
//! * [`SmartchainCluster`] — the replicated application the consensus
//!   engine drives (CheckTx / DeliverTx / commit hook of Fig. 4);
//! * [`SmartchainHarness`] — cluster + Tendermint-profile consensus,
//!   with the non-locking child-settlement loop wired up;
//! * [`CostModel`] — maps real validation work to simulated time
//!   (calibrated to the paper's SCDB operating point).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cluster;
mod cost;
mod node;
mod replica;
mod return_queue;
mod telemetry;

pub use cluster::{DecodedTx, GossipStats, SmartchainCluster, SmartchainHarness};
pub use cost::CostModel;
pub use node::{BatchSubmitReport, DrainReport, Node};
pub use return_queue::{ReturnJob, ReturnQueue};
pub use telemetry::snapshot_to_json;
