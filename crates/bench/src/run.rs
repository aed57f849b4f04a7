//! Experiment runners: one reverse-auction round per system.
//!
//! A *round* submits a scenario's phases (CREATE → REQUEST → BID →
//! ACCEPT_BID) through the full consensus stack of one system and
//! collects the §5.1.4 metrics per transaction type. Both runners use
//! the identical logical plan from `scdb-workload`, so figure binaries
//! compare like against like.

use scdb_consensus::{TxId, TxStatus};
use scdb_evm::EthScHarness;
use scdb_server::SmartchainHarness;
use scdb_sim::SimTime;
use scdb_telemetry::LatencyStats;
use scdb_workload::{eth_plan, scdb_plan, ScenarioConfig};

/// Phase names, aligned with plan phase indices.
pub const PHASES: [&str; 4] = ["CREATE", "REQUEST", "BID", "ACCEPT_BID"];

/// Where the next phase's submissions start: just after the previous
/// phase's last commit. `now` includes stale failure-timer drain, which
/// would otherwise insert dead air into the throughput span; the event
/// queue delivers in time order, so scheduling "behind" pending stale
/// timers is safe.
fn phase_start(now: SimTime, last_commit: SimTime) -> SimTime {
    if last_commit == SimTime::ZERO {
        now + SimTime::from_millis(1)
    } else {
        last_commit + SimTime::from_millis(1)
    }
}

/// Metrics from one SmartchainDB round.
#[derive(Debug, Clone)]
pub struct ScdbRoundReport {
    /// Latency stats per phase (CREATE, REQUEST, BID, ACCEPT_BID).
    pub latency: [Option<LatencyStats>; 4],
    /// Mean wire payload bytes per phase.
    pub payload_bytes: [usize; 4],
    /// Whole-round throughput (committed / first-reception→last-commit).
    pub throughput_tps: f64,
    /// Committed transactions (includes nested children).
    pub committed: u64,
    /// Rejected submissions (should be zero for generated plans).
    pub rejected: usize,
}

/// Metrics from one ETH-SC round.
#[derive(Debug, Clone)]
pub struct EthRoundReport {
    /// Latency stats per phase.
    pub latency: [Option<LatencyStats>; 4],
    /// Mean calldata bytes per phase.
    pub calldata_bytes: [usize; 4],
    /// Whole-round throughput.
    pub throughput_tps: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Total gas paid.
    pub gas_total: u64,
    /// Executions that reverted (should be zero for generated plans).
    pub reverted: u64,
}

fn phase_latencies<F>(handles: &[TxId], status: F) -> (Option<LatencyStats>, usize)
where
    F: Fn(TxId) -> Option<f64>,
{
    let mut latencies = Vec::with_capacity(handles.len());
    let mut missing = 0;
    for &h in handles {
        match status(h) {
            Some(l) => latencies.push(l),
            None => missing += 1,
        }
    }
    (LatencyStats::from_latencies(&latencies), missing)
}

/// Runs one SmartchainDB round on a `nodes`-validator cluster.
/// `arrival_gap` is the spacing between client submissions (the offered
/// load: 20 ms ≈ 50 tx/s, near the paper's SCDB operating point).
pub fn scdb_round(nodes: usize, config: &ScenarioConfig, arrival_gap: SimTime) -> ScdbRoundReport {
    let mut h = SmartchainHarness::new(nodes);
    scdb_round_on(&mut h, config, arrival_gap)
}

/// Like [`scdb_round`] over a caller-configured harness (cluster-size
/// sweeps and pipelining ablations).
pub fn scdb_round_on(
    h: &mut SmartchainHarness,
    config: &ScenarioConfig,
    arrival_gap: SimTime,
) -> ScdbRoundReport {
    let plan = scdb_plan(config, &h.escrow_public_hex());
    let phases = plan.phases();
    let mut handles: [Vec<TxId>; 4] = Default::default();
    let mut payload_bytes = [0usize; 4];
    for (p, payloads) in phases.iter().enumerate() {
        payload_bytes[p] = plan.mean_payload_size(p);
        let start = phase_start(h.consensus().now(), h.consensus().last_commit_time());
        for (i, payload) in payloads.iter().enumerate() {
            let at = start + SimTime::from_micros(arrival_gap.as_micros() * i as u64);
            handles[p].push(h.submit_at(at, payload.clone()));
        }
        // Each phase depends on the previous one's commits.
        h.run();
    }

    let mut latency: [Option<LatencyStats>; 4] = Default::default();
    let mut rejected = 0;
    for p in 0..4 {
        let (stats, missing) = phase_latencies(&handles[p], |tx| {
            h.consensus().latency(tx).map(SimTime::as_secs_f64)
        });
        latency[p] = stats;
        rejected += missing;
    }
    debug_assert_eq!(
        rejected,
        0,
        "generated plans must fully commit: {:?}",
        handles
            .iter()
            .flatten()
            .map(|&tx| h.consensus().status(tx).clone())
            .filter(|s| matches!(s, TxStatus::Rejected(_)))
            .take(3)
            .collect::<Vec<_>>()
    );
    ScdbRoundReport {
        latency,
        payload_bytes,
        throughput_tps: h.consensus().throughput_tps(),
        committed: h.consensus().committed_count(),
        rejected,
    }
}

/// Runs one ETH-SC round on a `nodes`-validator IBFT cluster.
pub fn eth_round(nodes: usize, config: &ScenarioConfig, arrival_gap: SimTime) -> EthRoundReport {
    let mut h = EthScHarness::new(nodes);
    eth_round_on(&mut h, config, arrival_gap)
}

/// Like [`eth_round`] over a caller-configured harness.
pub fn eth_round_on(
    h: &mut EthScHarness,
    config: &ScenarioConfig,
    arrival_gap: SimTime,
) -> EthRoundReport {
    let plan = eth_plan(config);
    let phases = plan.phases();
    let mut handles: [Vec<TxId>; 4] = Default::default();
    let mut calldata_bytes = [0usize; 4];
    for (p, calls) in phases.iter().enumerate() {
        calldata_bytes[p] = plan.mean_calldata_size(p);
        let start = phase_start(h.consensus().now(), h.consensus().last_commit_time());
        for (i, call) in calls.iter().enumerate() {
            let at = start + SimTime::from_micros(arrival_gap.as_micros() * i as u64);
            handles[p].push(h.submit_call_at(at, &call.sender, &call.calldata));
        }
        h.run();
    }

    let mut latency: [Option<LatencyStats>; 4] = Default::default();
    for p in 0..4 {
        let (stats, _missing) = phase_latencies(&handles[p], |tx| {
            h.consensus().latency(tx).map(SimTime::as_secs_f64)
        });
        latency[p] = stats;
    }
    EthRoundReport {
        latency,
        calldata_bytes,
        throughput_tps: h.consensus().throughput_tps(),
        committed: h.consensus().committed_count(),
        gas_total: h.consensus().app().gas_total(),
        reverted: h.consensus().app().reverted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            requests: 2,
            bidders_per_request: 3,
            capability_count: 4,
            capability_bytes: 300,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn scdb_round_commits_everything() {
        let report = scdb_round(4, &small(), SimTime::from_millis(20));
        assert_eq!(report.rejected, 0);
        // 6 creates + 2 requests + 6 bids + 2 accepts = 16 submitted,
        // plus 6 children (2 winner transfers + 4 returns).
        assert_eq!(report.committed, 22);
        for (p, stats) in report.latency.iter().enumerate() {
            let stats = stats.as_ref().expect("phase has samples");
            assert!(stats.mean > 0.0, "{} latency", PHASES[p]);
        }
        assert!(report.throughput_tps > 1.0);
    }

    #[test]
    fn eth_round_commits_without_reverts() {
        let report = eth_round(4, &small(), SimTime::from_millis(20));
        assert_eq!(report.reverted, 0);
        assert_eq!(
            report.committed, 16,
            "no children on ETH-SC: refunds are inline"
        );
        assert!(report.gas_total > 16 * 21_000);
    }

    #[test]
    fn headline_comparison_scdb_beats_eth() {
        let scdb = scdb_round(4, &small(), SimTime::from_millis(20));
        let eth = eth_round(4, &small(), SimTime::from_millis(20));
        let scdb_bid = scdb.latency[2].as_ref().unwrap().mean;
        let eth_bid = eth.latency[2].as_ref().unwrap().mean;
        assert!(
            eth_bid > scdb_bid * 10.0,
            "BID latency gap must be at least an order of magnitude: {scdb_bid} vs {eth_bid}"
        );
        assert!(scdb.throughput_tps > eth.throughput_tps * 5.0);
    }
}
