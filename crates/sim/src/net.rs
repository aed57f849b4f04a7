//! Network and fault model.
//!
//! Substitutes for the paper's DigitalOcean deployment (§5.1.1): message
//! delivery between validator nodes takes a sampled latency, and nodes
//! can be crashed/recovered to reproduce the failure scenarios of §4.2.1
//! ("more than 1/3 (BFT) of voting power goes offline simultaneously").

use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Node identifier within a cluster.
pub type NodeId = usize;

/// Latency distribution for one network link: uniform in
/// `[base, base + jitter]`.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Minimum one-way delay.
    pub base: SimTime,
    /// Additional uniform jitter bound.
    pub jitter: SimTime,
}

impl LatencyModel {
    /// A LAN-like profile (0.2ms ± 0.3ms), the intra-datacenter setting
    /// of the paper's testbed.
    pub fn lan() -> LatencyModel {
        LatencyModel {
            base: SimTime::from_micros(200),
            jitter: SimTime::from_micros(300),
        }
    }
}

/// The cluster network: `n` nodes, a shared latency model, per-node
/// up/down state, and a seeded RNG making every run reproducible.
pub struct Network {
    latency: LatencyModel,
    up: Vec<bool>,
    rng: SmallRng,
    messages_sent: u64,
}

impl Network {
    /// Creates a network of `n` nodes, all up.
    pub fn new(n: usize, latency: LatencyModel, seed: u64) -> Network {
        Network {
            latency,
            up: vec![true; n],
            rng: SmallRng::seed_from_u64(seed),
            messages_sent: 0,
        }
    }

    /// True when the node is up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up.get(node).copied().unwrap_or(false)
    }

    /// Takes a node offline; messages to/from it are dropped.
    pub fn crash(&mut self, node: NodeId) {
        self.up[node] = false;
    }

    /// Brings a node back online.
    pub fn recover(&mut self, node: NodeId) {
        self.up[node] = true;
    }

    /// Samples the delivery delay for a message `from -> to`. Returns
    /// `None` when either endpoint is down (the message is dropped).
    /// Self-delivery is immediate.
    pub fn delay(&mut self, from: NodeId, to: NodeId) -> Option<SimTime> {
        self.messages_sent += 1;
        if !self.is_up(from) || !self.is_up(to) {
            return None;
        }
        if from == to {
            return Some(SimTime::ZERO);
        }
        let jitter = if self.latency.jitter.as_micros() == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.latency.jitter.as_micros())
        };
        Some(self.latency.base + SimTime::from_micros(jitter))
    }

    /// Samples delays for a broadcast from `from` to every other node;
    /// entries are `(to, delay)` for reachable peers only.
    pub fn broadcast(&mut self, from: NodeId) -> Vec<(NodeId, SimTime)> {
        (0..self.up.len())
            .filter(|&to| to != from)
            .filter_map(|to| self.delay(from, to).map(|d| (to, d)))
            .collect()
    }

    /// Total messages attempted (sent + dropped), for the communication-
    /// overhead analysis of Experiment 2.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Uniform sample in `[0, bound)` from the network's deterministic
    /// RNG (used for receiver-node selection, §4: "one of the validator
    /// nodes is chosen at random to act as the receiver node").
    pub fn pick(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(n, LatencyModel::lan(), 7)
    }

    #[test]
    fn delays_fall_in_the_model_range() {
        let mut n = net(4);
        for _ in 0..100 {
            let d = n.delay(0, 1).unwrap();
            assert!(d >= SimTime::from_micros(200), "{d}");
            assert!(d <= SimTime::from_micros(500), "{d}");
        }
    }

    #[test]
    fn self_delivery_is_instant() {
        let mut n = net(4);
        assert_eq!(n.delay(2, 2), Some(SimTime::ZERO));
    }

    #[test]
    fn crashed_nodes_drop_messages() {
        let mut n = net(4);
        n.crash(1);
        assert!(n.delay(0, 1).is_none());
        assert!(n.delay(1, 0).is_none());
        n.recover(1);
        assert!(n.delay(0, 1).is_some());
    }

    #[test]
    fn broadcast_excludes_self_and_crashed() {
        let mut n = net(5);
        n.crash(3);
        let deliveries = n.broadcast(0);
        let targets: Vec<NodeId> = deliveries.iter().map(|(t, _)| *t).collect();
        assert_eq!(targets, vec![1, 2, 4]);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut a = Network::new(4, LatencyModel::lan(), 42);
        let mut b = Network::new(4, LatencyModel::lan(), 42);
        for _ in 0..32 {
            assert_eq!(a.delay(0, 1), b.delay(0, 1));
        }
        let mut c = Network::new(4, LatencyModel::lan(), 43);
        let same: usize = (0..32)
            .filter(|_| {
                let x = Network::new(4, LatencyModel::lan(), 42).delay(0, 1);
                let y = c.delay(0, 1);
                x == y
            })
            .count();
        assert!(same < 32, "different seeds should diverge");
    }

    #[test]
    fn zero_jitter_model_is_constant() {
        let model = LatencyModel {
            base: SimTime::from_millis(1),
            jitter: SimTime::ZERO,
        };
        let mut n = Network::new(2, model, 1);
        for _ in 0..10 {
            assert_eq!(n.delay(0, 1), Some(SimTime::from_millis(1)));
        }
    }

    #[test]
    fn pick_stays_in_bounds() {
        let mut n = net(4);
        for _ in 0..50 {
            assert!(n.pick(4) < 4);
        }
    }
}
