//! # scdb-driver — the SmartchainDB client driver
//!
//! The "Prepare and Sign" stage of the transaction life cycle (Fig. 4):
//! the client provides a serialized specification, the driver generates
//! a transaction from the template for its type, fulfills (signs) every
//! input, and submits it to a server endpoint — synchronously (block
//! until validated and committed) or asynchronously with a callback
//! "invoked when the transaction is committed or if any validation
//! error is raised". Transient infrastructure faults are retried after
//! a timeout interval (§4.2.1, crash case 1).
//!
//! ```
//! use scdb_driver::Driver;
//! use scdb_server::Node;
//! use scdb_crypto::KeyPair;
//! use scdb_json::{arr, obj};
//!
//! let mut driver = Driver::new(Node::new(KeyPair::from_seed([0xE5; 32])));
//! let alice = KeyPair::from_seed([0xA1; 32]);
//! let ack = driver
//!     .execute(
//!         &obj! {
//!             "operation" => "CREATE",
//!             "asset" => obj! { "capabilities" => arr!["3d-print"] },
//!             "outputs" => arr![obj! { "public_key" => alice.public_hex(), "amount" => 1u64 }],
//!         },
//!         &[&alice],
//!     )
//!     .expect("committed");
//! use scdb_core::LedgerView;
//! assert!(driver.endpoint().ledger().is_committed(&ack.tx_id));
//! ```

#![forbid(unsafe_code)]

mod client;
mod endpoint;
mod template;

pub use client::{Callback, Driver, DriverConfig, DriverError};
pub use endpoint::{CommitAck, Endpoint, FlakyEndpoint, SubmitError};
pub use template::{prepare, PrepareError};
