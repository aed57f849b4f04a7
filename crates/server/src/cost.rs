//! Cost model: maps real validation work onto simulated CPU time.
//!
//! The consensus engine couples application work into the simulated
//! timeline through the costs returned by `App::check_tx` /
//! `App::deliver_tx` (see `scdb-consensus`). This model charges for the
//! work a BigchainDB-style server actually performs: schema validation,
//! signature verification, capability matching, and MongoDB writes. The
//! constants are calibrated so a 4-node cluster reproduces the paper's
//! SCDB operating point (§5.2: BID latency ≈ 0.1 s, throughput ≈ 43–45
//! TPS) — see EXPERIMENTS.md for the calibration notes.

use scdb_sim::SimTime;

/// Per-operation cost constants (microseconds granularity).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed cost of schema validation (Algorithm 1).
    pub schema_base: SimTime,
    /// Additional schema cost per KiB of payload.
    pub schema_per_kib: SimTime,
    /// Fixed cost of semantic validation (ledger lookups).
    pub semantic_base: SimTime,
    /// Cost per Ed25519 verification.
    pub per_signature: SimTime,
    /// Cost per capability string comparison (the subset check of
    /// Algorithm 2 — indexed lookups, so *linear*, unlike the baseline
    /// contract's O(n²) `compareStrings` loop).
    pub per_capability: SimTime,
    /// Fixed cost of a document-store write at commit.
    pub store_base: SimTime,
    /// Additional write cost per KiB.
    pub store_per_kib: SimTime,
    /// Commit-hook cost per determined child (enqueue + recovery record).
    pub per_child: SimTime,
}

impl CostModel {
    /// The SmartchainDB calibration. Indexing and caching keep the
    /// per-KiB terms small, which is what makes SCDB latency flat in
    /// transaction size (the paper's Fig. 7 analysis).
    pub fn smartchaindb() -> CostModel {
        CostModel {
            schema_base: SimTime::from_micros(40),
            schema_per_kib: SimTime::from_micros(6),
            semantic_base: SimTime::from_micros(60),
            per_signature: SimTime::from_micros(70),
            per_capability: SimTime::from_micros(2),
            store_base: SimTime::from_micros(120),
            store_per_kib: SimTime::from_micros(25),
            per_child: SimTime::from_micros(150),
        }
    }

    /// CheckTx-phase cost: schema + semantic + signatures + capability
    /// match.
    pub fn check_cost(
        &self,
        payload_bytes: usize,
        signatures: usize,
        capabilities: usize,
    ) -> SimTime {
        let kib = payload_bytes.div_ceil(1024) as u64;
        SimTime::from_micros(
            self.schema_base.as_micros()
                + self.schema_per_kib.as_micros() * kib
                + self.semantic_base.as_micros()
                + self.per_signature.as_micros() * signatures as u64
                + self.per_capability.as_micros() * capabilities as u64,
        )
    }

    /// DeliverTx-phase cost: re-validation plus the store write.
    pub fn deliver_cost(&self, payload_bytes: usize, signatures: usize) -> SimTime {
        let kib = payload_bytes.div_ceil(1024) as u64;
        SimTime::from_micros(
            self.semantic_base.as_micros()
                + self.per_signature.as_micros() * signatures as u64
                + self.store_base.as_micros()
                + self.store_per_kib.as_micros() * kib,
        )
    }

    /// Commit-hook cost for a nested transaction with `children`
    /// determined children.
    pub fn commit_hook_cost(&self, children: usize) -> SimTime {
        SimTime::from_micros(self.per_child.as_micros() * children as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_sublinearly_with_payload() {
        let m = CostModel::smartchaindb();
        let small = m.check_cost(400, 1, 4);
        let large = m.check_cost(1780, 1, 4);
        // A 4.5x payload growth must cost well under 2x — the flat-latency
        // property of SCDB in Experiment 1.
        assert!(
            large.as_micros() < small.as_micros() * 2,
            "{small} -> {large}"
        );
    }

    #[test]
    fn signatures_dominate_validation() {
        let m = CostModel::smartchaindb();
        let one = m.check_cost(500, 1, 0);
        let three = m.check_cost(500, 3, 0);
        assert_eq!(
            three.as_micros() - one.as_micros(),
            2 * m.per_signature.as_micros()
        );
    }

    #[test]
    fn deliver_includes_store_write() {
        let m = CostModel::smartchaindb();
        assert!(m.deliver_cost(1024, 1) > m.check_cost(1024, 1, 0).saturating_sub(m.schema_base));
        assert!(m.deliver_cost(10 * 1024, 1) > m.deliver_cost(1024, 1));
    }

    #[test]
    fn commit_hook_linear_in_children() {
        let m = CostModel::smartchaindb();
        assert_eq!(m.commit_hook_cost(0), SimTime::ZERO);
        assert_eq!(
            m.commit_hook_cost(4).as_micros(),
            4 * m.per_child.as_micros()
        );
    }
}
