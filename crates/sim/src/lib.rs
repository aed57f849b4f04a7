//! Discrete-event simulation kernel for SmartchainDB.
//!
//! The paper evaluates on DigitalOcean VM clusters (§5.1.1). This repo's
//! substitute (DESIGN.md §5) runs the *real* validation and consensus
//! code over a simulated network: a virtual clock ([`SimTime`]), a
//! deterministic FIFO-stable event queue ([`Simulation`]), and a seeded
//! network/fault model ([`Network`]) that samples message delays and
//! models node crashes. Latency and throughput are then measured in
//! simulated time produced by the protocols' actual message flow.

#![forbid(unsafe_code)]

mod events;
mod net;
mod time;

pub use events::Simulation;
pub use net::{LatencyModel, Network, NodeId};
pub use time::SimTime;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Popping never goes back in time, regardless of the schedule.
        #[test]
        fn time_is_monotonic(delays in prop::collection::vec(0u64..10_000, 1..100)) {
            let mut sim = Simulation::new();
            for (i, d) in delays.iter().enumerate() {
                sim.schedule_at(SimTime::from_micros(*d), i);
            }
            let mut last = SimTime::ZERO;
            let mut pops = 0;
            while let Some((t, _)) = sim.next() {
                prop_assert!(t >= last);
                last = t;
                pops += 1;
            }
            prop_assert_eq!(pops, delays.len());
        }

        /// Broadcast reaches exactly the live peers.
        #[test]
        fn broadcast_coverage(n in 2usize..16, crashed in prop::collection::vec(any::<bool>(), 16)) {
            let mut net = Network::new(n, LatencyModel::lan(), 1);
            let mut live_peers = 0;
            for (i, c) in crashed.iter().take(n).enumerate().skip(1) {
                if *c {
                    net.crash(i);
                } else {
                    live_peers += 1;
                }
            }
            let reached = net.broadcast(0).len();
            prop_assert_eq!(reached, live_peers);
        }

        /// Two networks with the same seed produce identical delay
        /// sequences (full determinism).
        #[test]
        fn network_determinism(seed in any::<u64>(), pairs in prop::collection::vec((0usize..4, 0usize..4), 1..50)) {
            let mut a = Network::new(4, LatencyModel::lan(), seed);
            let mut b = Network::new(4, LatencyModel::lan(), seed);
            for (from, to) in pairs {
                prop_assert_eq!(a.delay(from, to), b.delay(from, to));
            }
        }
    }
}
