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
//! machine, Tendermint's Algorithm 1 (Buchman, Kwon & Milosevic, arXiv
//! 1807.04938) per height: rounds, nil votes, locks, the three round
//! timeouts and the f+1 round skip, with no clock. `engine` holds
//! [`Harness`], the driver: it runs the machines over [`scdb_sim`]'s
//! deterministic event queue, passes each message's link sender as its
//! only authentication, and couples application work into the timeline
//! through the [`App`] trait, whose methods return simulated CPU costs
//! (validation work, contract gas). Crash faults and round changes
//! implement the failure scenarios of §4.2.1. DESIGN-consensus.md maps
//! the rules to the algorithm's lines.

#![forbid(unsafe_code)]

mod app;
mod config;
mod engine;
#[cfg(test)]
mod explore;
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
    use scdb_sim::{NodeId, SimTime};

    /// Agreement per height: the nodes' delivery logs are prefixes of
    /// one sequence, so no two executed different blocks at one height.
    fn agree(h: &Harness<CountingApp>, nodes: impl Iterator<Item = NodeId>) -> bool {
        let logs: Vec<&Vec<TxId>> = nodes.map(|n| &h.app().delivered[n]).collect();
        let longest = logs.iter().max_by_key(|log| log.len()).copied();
        logs.iter()
            .all(|log| longest.is_some_and(|l| l.starts_with(log)))
    }

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
            prop_assert!(agree(&h, 0..n));
        }

        /// Safety under tolerated faults: with at most f crashes, and a
        /// recovery some time after, the chain still commits everything
        /// submitted to live receivers and the nodes agree per height.
        #[test]
        fn tolerated_faults_preserve_liveness(
            arrivals in prop::collection::vec(1u64..300, 1..20),
            crash_node in 1usize..4,
            recovery_ms in 1u64..3_000,
        ) {
            let n = 4; // f = 1
            let mut h = Harness::new(BftConfig::tendermint(n), CountingApp::new(n));
            h.crash_at(SimTime::ZERO, crash_node);
            h.recover_at(SimTime::from_millis(recovery_ms), crash_node);
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
            prop_assert!(agree(&h, 0..n), "logs: {:?}", h.app().delivered);
        }
    }
}
