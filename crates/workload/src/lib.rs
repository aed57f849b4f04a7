//! # scdb-workload — synthetic workloads
//!
//! The workload side of the paper's evaluation (§5.1.3–§5.1.4):
//!
//! * [`PayloadGen`] — synthetic capability strings and filler that set
//!   the "transaction size" axis of Experiment 1;
//! * [`ScenarioConfig`] / [`scdb_plan`] / [`eth_plan`] — one logical
//!   reverse-auction plan rendered both as signed SmartchainDB
//!   transactions and as ETH-SC contract calls, so both systems see the
//!   identical workload;
//! * [`TxMix`] — the 110 000-transaction mix (CREATE 50k, BID 50k,
//!   REQUEST 5k, ACCEPT_BID 5k) with ratio-preserving scaling.
//!
//! The §5.1.4 metric definitions (`LatencyStats`, `throughput_tps`)
//! live in `scdb-telemetry`.

#![forbid(unsafe_code)]

mod mix;
mod payload;
mod scenario;

pub use mix::TxMix;
pub use payload::PayloadGen;
pub use scenario::{eth_plan, scdb_plan, EthCall, EthPlan, ScdbAuction, ScdbPlan, ScenarioConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Scaled mixes always preserve the 10:10:1:1 ratio.
        #[test]
        fn mix_ratio_invariant(factor in 1usize..20_000) {
            let mix = TxMix::paper_scaled(factor);
            prop_assert_eq!(mix.creates, mix.bids);
            prop_assert_eq!(mix.requests, mix.accepts);
            prop_assert_eq!(mix.creates, mix.requests * 10);
            prop_assert!(mix.requests >= 1);
        }

        /// Capability lists always deliver within 10% + one string of
        /// the byte budget.
        #[test]
        fn capability_budget(count in 1usize..12, total in 64usize..4096) {
            let mut g = PayloadGen::new(9);
            let caps = g.capability_list(count, total);
            prop_assert_eq!(caps.len(), count);
            let bytes: usize = caps.iter().map(String::len).sum();
            let each = (total / count).max(8);
            prop_assert_eq!(bytes, each * count);
        }
    }
}
