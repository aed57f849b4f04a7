//! BFT consensus substrate for SmartchainDB.
//!
//! Two protocol profiles share one three-phase engine (proposal →
//! prevote → precommit → execute):
//!
//! * [`BftConfig::tendermint`] — BigchainDB's Tendermint deployment:
//!   short block pacing, *blockchain pipelining* (§2.2 of the paper);
//! * [`BftConfig::ibft`] — Quorum's Istanbul BFT as used for the ETH-SC
//!   baseline (§5.1.2): multi-second fixed block cadence, strictly
//!   sequential blocks.
//!
//! The engine is two layers. `round` holds each validator's round state
//! machine: votes, quorums, the one vote per (kind, height), when to
//! execute and when to propose, with no clock. `engine` holds
//! [`Harness`], the driver: it runs the machines over [`scdb_sim`]'s
//! deterministic event queue and couples application work into the
//! timeline through the [`App`] trait, whose methods return simulated
//! CPU costs (validation work, contract gas). Crash faults and proposer
//! rotation implement the failure scenarios of §4.2.1.

#![forbid(unsafe_code)]

mod app;
mod config;
mod engine;
mod round;

pub use app::{App, AppResult, BlockAnnotations, BlockView, CountingApp, FormedBlock};
pub use config::BftConfig;
pub use engine::{Harness, TxStatus};

/// Handle to a submitted transaction (index into the harness registry).
pub type TxId = u64;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use scdb_sim::SimTime;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every accepted transaction eventually commits on a healthy
        /// cluster, for arbitrary submission schedules and cluster sizes.
        #[test]
        fn liveness_on_healthy_cluster(
            n in 4usize..8,
            arrivals in prop::collection::vec(0u64..500, 1..40),
        ) {
            let mut h = Harness::new(BftConfig::tendermint(n), CountingApp::new(n));
            let txs: Vec<TxId> = arrivals
                .iter()
                .enumerate()
                .map(|(i, ms)| h.submit_at(SimTime::from_millis(*ms), format!("tx{i}")))
                .collect();
            h.run();
            for tx in txs {
                prop_assert!(matches!(h.status(tx), TxStatus::Committed(_)));
            }
            prop_assert_eq!(h.committed_count(), arrivals.len() as u64);
        }

        /// Safety under tolerated faults: with at most f crashes the
        /// chain still commits everything submitted to live receivers.
        #[test]
        fn tolerated_faults_preserve_liveness(
            arrivals in prop::collection::vec(1u64..300, 1..20),
            crash_node in 1usize..4,
        ) {
            let n = 4; // f = 1
            let mut h = Harness::new(BftConfig::tendermint(n), CountingApp::new(n));
            h.crash_at(SimTime::ZERO, crash_node);
            let txs: Vec<TxId> = arrivals
                .iter()
                .enumerate()
                .map(|(i, ms)| {
                    let node = (crash_node + 1 + i % (n - 1)) % n; // live receivers only
                    h.submit_at_node(SimTime::from_millis(*ms), node, format!("tx{i}"))
                })
                .collect();
            h.run();
            for tx in txs {
                prop_assert!(matches!(h.status(tx), TxStatus::Committed(_)), "status: {:?}", h.status(tx));
            }
        }
    }
}
