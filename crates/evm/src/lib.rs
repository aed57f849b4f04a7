//! # scdb-evm — the ETH-SC baseline
//!
//! The smart-contract comparator of the paper's evaluation (§5): a
//! gas-metered, EVM-style contract runtime executing the reverse-auction
//! marketplace contract over Quorum-profile IBFT consensus.
//!
//! The paper attributes ETH-SC's latency and throughput behaviour to
//! four concrete mechanisms, all implemented here:
//!
//! 1. **per-word storage gas** — [`gas::GasSchedule`] (Istanbul
//!    schedule) charged by [`runtime::Vm`] on every slot touched;
//! 2. **O(n) map-item retrieval** — `acceptBid` scans the global bid-id
//!    array ([`auction`]);
//! 3. **O(n²) capability matching with costly `compareStrings`** — the
//!    nested validation loop in `createBid`, each comparison hashing
//!    both operands ([`runtime::Vm::compare_strings`]);
//! 4. **sequential execution** — contracts execute one-by-one at block
//!    delivery in [`app::EthScApp`], under IBFT's multi-second cadence.
//!
//! ```
//! use scdb_evm::{ReverseAuction, U256};
//!
//! let mut market = ReverseAuction::new();
//! let supplier = U256::from_u64(7);
//! let receipt = market
//!     .execute(&supplier, &ReverseAuction::call_create_asset(1, &["cnc".into()]))
//!     .expect("asset created");
//! assert!(receipt.gas_used > 21_000);
//! ```

#![forbid(unsafe_code)]

pub mod abi;
pub mod app;
pub mod auction;
pub mod gas;
pub mod native;
pub mod runtime;
pub mod solidity;
mod storage;
mod u256;

pub use abi::{encode_call, selector, AbiType, AbiValue};
pub use app::{
    decode_eth_payload, encode_eth_payload, encode_native_payload, EthScApp, EthScHarness, EthTx,
    ExecutionRate,
};
pub use auction::{BidState, CallFailure, Receipt, ReverseAuction};
pub use gas::{GasMeter, GasSchedule, OutOfGas};
pub use native::{Account, TransferError, WorldState};
pub use runtime::{LogEvent, Vm, VmError};
pub use solidity::{solidity_loc, REVERSE_AUCTION_SOL};
pub use storage::{mapping_slot, mapping_slot_bytes, Storage};
pub use u256::U256;

#[cfg(test)]
mod proptests;
