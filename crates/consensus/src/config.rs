//! Engine configuration and the two protocol profiles of the evaluation.

use scdb_sim::{LatencyModel, SimTime};

/// Parameters of the BFT engine.
#[derive(Debug, Clone)]
pub struct BftConfig {
    /// Number of validator nodes (the paper sweeps 4–32).
    pub nodes: usize,
    /// Pacing between consecutive block proposals.
    pub block_interval: SimTime,
    /// Maximum transactions per block.
    pub max_block_txs: usize,
    /// Blockchain pipelining (§2.2): "server nodes vote on new blocks
    /// before the current block is finalized". When set, the next
    /// proposal is anchored at the previous block's prevote quorum
    /// instead of its commit.
    pub pipelined: bool,
    /// Timeout of each step of a round (propose, prevote, precommit):
    /// how long a node waits before moving a stalled round on.
    pub round_timeout: SimTime,
    /// Network latency model between validators.
    pub latency: LatencyModel,
    /// RNG seed (receiver selection, link jitter).
    pub seed: u64,
}

impl BftConfig {
    /// SmartchainDB profile: Tendermint pacing with pipelining, LAN
    /// latencies (the DigitalOcean cluster of §5.1.1).
    pub fn tendermint(nodes: usize) -> BftConfig {
        BftConfig {
            nodes,
            block_interval: SimTime::from_millis(200),
            max_block_txs: 9,
            pipelined: true,
            round_timeout: SimTime::from_secs(2),
            latency: LatencyModel::lan(),
            seed: 0x5CDB,
        }
    }

    /// ETH-SC baseline profile: Quorum IBFT with its multi-second block
    /// cadence and no pipelining.
    pub fn ibft(nodes: usize) -> BftConfig {
        BftConfig {
            nodes,
            block_interval: SimTime::from_secs(5),
            max_block_txs: 200,
            pipelined: false,
            round_timeout: SimTime::from_secs(15),
            latency: LatencyModel::lan(),
            seed: 0xE75C,
        }
    }

    /// Votes needed for a quorum: strictly more than 2/3 of nodes
    /// (the paper: "agreement from at least (2n+1)/3 of the nodes").
    pub fn quorum(&self) -> usize {
        (2 * self.nodes) / 3 + 1
    }

    /// Largest number of simultaneous crash faults tolerated.
    pub fn fault_tolerance(&self) -> usize {
        (self.nodes - 1) / 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_thresholds_match_bft_bounds() {
        let cases = [(4, 3, 1), (7, 5, 2), (10, 7, 3), (32, 22, 10)];
        for (n, q, f) in cases {
            let c = BftConfig::tendermint(n);
            assert_eq!(c.quorum(), q, "quorum for n={n}");
            assert_eq!(c.fault_tolerance(), f, "faults for n={n}");
            // Safety: two quorums always intersect in a correct node.
            assert!(2 * c.quorum() > n + f);
        }
    }

    #[test]
    fn profiles_differ_in_pacing_and_pipelining() {
        let t = BftConfig::tendermint(4);
        let i = BftConfig::ibft(4);
        assert!(t.pipelined);
        assert!(!i.pipelined);
        assert!(i.block_interval > t.block_interval);
    }
}
