//! The ETH-SC consensus application: the reverse-auction contract
//! replicated across Quorum/IBFT validators.
//!
//! Payloads decode once, on the receiver (`decode`, into an [`EthTx`]).
//! Mempool admission (`check_tx`) performs only the checks an Ethereum
//! node does — well-formed payload and intrinsic gas — *not* contract
//! execution; contracts run once, sequentially, at block execution
//! (`deliver_tx`), which is the sequential-execution bottleneck the
//! paper contrasts with the declarative path. Gas converts to simulated
//! CPU time at a fixed execution rate, so latency and throughput inherit
//! the contract's O(n)/O(n²) growth directly from the metered gas.

use crate::auction::ReverseAuction;
use crate::gas::GasSchedule;
use crate::native::WorldState;
use crate::u256::U256;
use scdb_consensus::{App, AppResult, BftConfig, Harness, TxId};
use scdb_crypto::hex;
use scdb_sim::{NodeId, SimTime};

/// A parsed Ethereum transaction: a contract call or a native send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EthTx {
    /// Contract invocation with ABI calldata.
    Call { sender: U256, calldata: Vec<u8> },
    /// Native value transfer (the Fig. 2 baseline path).
    Native {
        from: U256,
        to: U256,
        value: u64,
        nonce: u64,
    },
}

/// Wire payload for a contract call: `"{sender_hex}:{calldata_hex}"`.
pub fn encode_eth_payload(sender: &U256, calldata: &[u8]) -> String {
    format!(
        "{}:{}",
        hex::encode(&sender.to_be_bytes()),
        hex::encode(calldata)
    )
}

/// Wire payload for a native transfer:
/// `"native:{from_hex}:{to_hex}:{value}:{nonce}"`.
pub fn encode_native_payload(from: &U256, to: &U256, value: u64, nonce: u64) -> String {
    format!(
        "native:{}:{}:{value}:{nonce}",
        hex::encode(&from.to_be_bytes()),
        hex::encode(&to.to_be_bytes())
    )
}

fn decode_address(s: &str, what: &str) -> Result<U256, String> {
    let bytes = hex::decode(s).ok_or_else(|| format!("invalid {what} hex"))?;
    if bytes.len() != 32 {
        return Err(format!("{what} must be 32 bytes, got {}", bytes.len()));
    }
    Ok(U256::from_be_slice(&bytes))
}

/// Parses either wire form back into an [`EthTx`].
pub fn decode_eth_payload(payload: &str) -> Result<EthTx, String> {
    if let Some(rest) = payload.strip_prefix("native:") {
        let mut parts = rest.split(':');
        let from = decode_address(parts.next().ok_or("missing from")?, "from")?;
        let to = decode_address(parts.next().ok_or("missing to")?, "to")?;
        let value: u64 = parts
            .next()
            .ok_or("missing value")?
            .parse()
            .map_err(|e| format!("value: {e}"))?;
        let nonce: u64 = parts
            .next()
            .ok_or("missing nonce")?
            .parse()
            .map_err(|e| format!("nonce: {e}"))?;
        if parts.next().is_some() {
            return Err("trailing native fields".to_owned());
        }
        return Ok(EthTx::Native {
            from,
            to,
            value,
            nonce,
        });
    }
    let (sender_hex, calldata_hex) = payload
        .split_once(':')
        .ok_or_else(|| "missing ':' separator".to_owned())?;
    let sender = decode_address(sender_hex, "sender")?;
    let calldata = hex::decode(calldata_hex).ok_or_else(|| "invalid calldata hex".to_owned())?;
    Ok(EthTx::Call { sender, calldata })
}

/// Execution-speed model: how fast a validator grinds through gas.
///
/// This is the ETH-SC baseline's single calibration constant. Raw EVM
/// interpreters reach tens of Mgas/s, but the pipeline the paper
/// benchmarks — Truffle/JS driver → RPC → Quorum geth with LevelDB
/// state I/O per storage op — sustains far less on contract-heavy
/// workloads: the paper measures **0.72 tps** for marketplace calls on
/// an idle 4-node cluster (Fig. 7c/8c). With ~250 kgas per marketplace
/// call, that operating point implies an effective ~0.2 gas/µs, which is
/// the value used here; everything else about the baseline (gas per
/// operation, growth with state and payload) is metered, not calibrated.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionRate {
    /// Gas executed per simulated microsecond.
    pub gas_per_micro: f64,
}

impl ExecutionRate {
    /// The calibration used in the experiments (see type docs).
    pub fn quorum() -> ExecutionRate {
        ExecutionRate { gas_per_micro: 0.2 }
    }

    /// Converts a gas amount into simulated CPU time.
    pub fn to_time(&self, gas: u64) -> SimTime {
        SimTime::from_micros((gas as f64 / self.gas_per_micro).ceil() as u64)
    }
}

/// One contract + world-state replica per validator node.
pub struct EthScApp {
    replicas: Vec<ReverseAuction>,
    worlds: Vec<WorldState>,
    schedule: GasSchedule,
    rate: ExecutionRate,
    /// Gas actually consumed per committed call (summed over node 0).
    gas_total: u64,
    /// Reverted executions observed on node 0.
    reverted: u64,
}

impl EthScApp {
    /// Builds `nodes` contract replicas.
    pub fn new(nodes: usize) -> EthScApp {
        EthScApp {
            replicas: (0..nodes).map(|_| ReverseAuction::new()).collect(),
            worlds: (0..nodes).map(|_| WorldState::new()).collect(),
            schedule: GasSchedule::istanbul(),
            rate: ExecutionRate::quorum(),
            gas_total: 0,
            reverted: 0,
        }
    }

    /// A node's contract replica.
    pub fn contract(&self, node: NodeId) -> &ReverseAuction {
        &self.replicas[node]
    }

    /// Mutable access for genesis setup (e.g. token balances).
    pub fn contract_mut(&mut self, node: NodeId) -> &mut ReverseAuction {
        &mut self.replicas[node]
    }

    /// A node's account world state (native transfers).
    pub fn world(&self, node: NodeId) -> &WorldState {
        &self.worlds[node]
    }

    /// Genesis funding on every replica.
    pub fn fund_everywhere(&mut self, account: U256, balance: u64) {
        for world in &mut self.worlds {
            world.fund(account, balance);
        }
    }

    /// Total gas paid across committed calls (node 0's view).
    pub fn gas_total(&self) -> u64 {
        self.gas_total
    }

    /// Count of reverted executions (node 0's view). Reverts consume a
    /// block slot and gas but mutate nothing.
    pub fn reverted(&self) -> u64 {
        self.reverted
    }

    fn bill(&mut self, node: NodeId, gas: u64, reverted: bool) -> AppResult {
        if node == 0 {
            self.gas_total += gas;
            if reverted {
                self.reverted += 1;
            }
        }
        Ok(self.rate.to_time(gas))
    }
}

impl App for EthScApp {
    type Tx = EthTx;

    fn decode(&self, payload: &str) -> Result<EthTx, String> {
        decode_eth_payload(payload)
    }

    fn check_tx(&mut self, _node: NodeId, _id: TxId, tx: &EthTx) -> AppResult {
        // Ethereum mempool admission: intrinsic-gas affordability of the
        // decoded call, no contract execution.
        match tx {
            EthTx::Call { calldata, .. } => {
                let intrinsic = self.schedule.intrinsic(calldata);
                if intrinsic > self.replicas[0].default_gas_limit {
                    return Err("intrinsic gas above limit".to_owned());
                }
            }
            EthTx::Native { .. } => {}
        }
        // Signature recovery + nonce/balance lookup: a small fixed cost.
        Ok(SimTime::from_micros(90))
    }

    fn deliver_tx(&mut self, node: NodeId, _id: TxId, tx: &EthTx) -> AppResult {
        match tx {
            EthTx::Call { sender, calldata } => {
                match self.replicas[node].execute(sender, calldata) {
                    Ok(receipt) => self.bill(node, receipt.gas_used, false),
                    // A revert is still *included* in the block and pays
                    // gas; it is not a consensus-level rejection. Report
                    // success to keep block semantics, bill the consumed
                    // gas.
                    Err(failure) => self.bill(node, failure.gas_used, true),
                }
            }
            EthTx::Native {
                from,
                to,
                value,
                nonce,
            } => {
                match self.worlds[node].transfer(from, to, *value, *nonce) {
                    Ok(gas) => self.bill(node, gas, false),
                    // Invalid native sends never make it into blocks on
                    // Ethereum (nonce/balance checked at admission);
                    // reject outright.
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }
}

/// Ready-made IBFT harness over the contract, mirroring the Quorum
/// deployment of §5.1.2.
pub struct EthScHarness {
    inner: Harness<EthScApp>,
}

impl EthScHarness {
    /// `nodes` validators under the IBFT profile.
    pub fn new(nodes: usize) -> EthScHarness {
        EthScHarness::with_config(BftConfig::ibft(nodes))
    }

    /// Custom consensus parameters.
    pub fn with_config(config: BftConfig) -> EthScHarness {
        let app = EthScApp::new(config.nodes);
        EthScHarness {
            inner: Harness::new(config, app),
        }
    }

    /// The underlying consensus harness.
    pub fn consensus(&self) -> &Harness<EthScApp> {
        &self.inner
    }

    /// Mutable access to the harness.
    pub fn consensus_mut(&mut self) -> &mut Harness<EthScApp> {
        &mut self.inner
    }

    /// Submits a contract call at a simulated time.
    pub fn submit_call_at(&mut self, at: SimTime, sender: &U256, calldata: &[u8]) -> TxId {
        self.inner
            .submit_at(at, encode_eth_payload(sender, calldata))
    }

    /// Submits a native value transfer at a simulated time.
    pub fn submit_native_at(
        &mut self,
        at: SimTime,
        from: &U256,
        to: &U256,
        value: u64,
        nonce: u64,
    ) -> TxId {
        self.inner
            .submit_at(at, encode_native_payload(from, to, value, nonce))
    }

    /// Runs to quiescence.
    pub fn run(&mut self) {
        self.inner.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::BidState;
    use scdb_consensus::TxStatus;

    fn addr(n: u64) -> U256 {
        U256::from_u64(n)
    }

    fn caps(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn payload_round_trip() {
        let calldata = ReverseAuction::call_create_bid(1, 2, 3);
        let p = encode_eth_payload(&addr(9), &calldata);
        assert_eq!(
            decode_eth_payload(&p).unwrap(),
            EthTx::Call {
                sender: addr(9),
                calldata
            }
        );
        let n = encode_native_payload(&addr(1), &addr(2), 500, 7);
        assert_eq!(
            decode_eth_payload(&n).unwrap(),
            EthTx::Native {
                from: addr(1),
                to: addr(2),
                value: 500,
                nonce: 7
            }
        );
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_eth_payload("nocolon").is_err());
        assert!(decode_eth_payload("zz:00").is_err());
        assert!(decode_eth_payload("00:gg").is_err());
        assert!(decode_eth_payload("0011:00").is_err(), "short sender");
        assert!(
            decode_eth_payload("native:00:11").is_err(),
            "missing native fields"
        );
        let bad_value = format!(
            "native:{}:{}:abc:0",
            hex::encode(&addr(1).to_be_bytes()),
            hex::encode(&addr(2).to_be_bytes())
        );
        assert!(decode_eth_payload(&bad_value).is_err());
    }

    #[test]
    fn native_transfers_settle_through_consensus() {
        let mut h = EthScHarness::new(4);
        h.consensus_mut().app_mut().fund_everywhere(addr(1), 1000);
        let tx = h.submit_native_at(SimTime::from_millis(1), &addr(1), &addr(2), 250, 0);
        h.run();
        assert!(matches!(h.consensus().status(tx), TxStatus::Committed(_)));
        for node in 0..4 {
            let w = h.consensus().app().world(node);
            assert_eq!(w.account(&addr(1)).balance, 750, "node {node}");
            assert_eq!(w.account(&addr(2)).balance, 250, "node {node}");
        }
        assert_eq!(h.consensus().app().gas_total(), 21_000);
    }

    #[test]
    fn invalid_native_transfers_rejected_at_delivery() {
        let mut h = EthScHarness::new(4);
        // No funding: the transfer must fail.
        let tx = h.submit_native_at(SimTime::from_millis(1), &addr(1), &addr(2), 250, 0);
        h.run();
        assert!(matches!(h.consensus().status(tx), TxStatus::Rejected(_)));
    }

    #[test]
    fn auction_settles_through_ibft_consensus() {
        let mut h = EthScHarness::new(4);
        let (buyer, sup1, sup2) = (addr(1), addr(2), addr(3));
        let t = SimTime::from_millis(1);
        h.submit_call_at(
            t,
            &sup1,
            &ReverseAuction::call_create_asset(1, &caps(&["3d-print"])),
        );
        h.submit_call_at(
            t,
            &sup2,
            &ReverseAuction::call_create_asset(2, &caps(&["3d-print"])),
        );
        h.submit_call_at(
            t,
            &buyer,
            &ReverseAuction::call_create_rfq(1, &caps(&["3d-print"]), 1, 99),
        );
        h.run();
        let now = h.consensus().now();
        h.submit_call_at(now, &sup1, &ReverseAuction::call_create_bid(1, 1, 1));
        h.submit_call_at(now, &sup2, &ReverseAuction::call_create_bid(2, 1, 2));
        h.run();
        let now = h.consensus().now();
        let accept = h.submit_call_at(now, &buyer, &ReverseAuction::call_accept_bid(1, 1));
        h.run();
        assert!(matches!(
            h.consensus().status(accept),
            TxStatus::Committed(_)
        ));
        // All replicas agree.
        for node in 0..4 {
            let c = h.consensus().app().contract(node);
            assert_eq!(c.bid_state(1), Some(BidState::Accepted), "node {node}");
            assert_eq!(c.bid_state(2), Some(BidState::Returned), "node {node}");
            assert_eq!(c.asset_owner(1), buyer, "node {node}");
        }
        assert!(h.consensus().app().gas_total() > 100_000);
    }

    #[test]
    fn reverts_commit_but_do_not_mutate() {
        let mut h = EthScHarness::new(4);
        // A bid against a non-existent RFQ reverts at execution.
        let tx = h.submit_call_at(
            SimTime::from_millis(1),
            &addr(2),
            &ReverseAuction::call_create_bid(1, 77, 1),
        );
        h.run();
        assert!(
            matches!(h.consensus().status(tx), TxStatus::Committed(_)),
            "reverts are included"
        );
        assert_eq!(h.consensus().app().reverted(), 1);
        assert_eq!(h.consensus().app().contract(0).bid_count(), 0);
    }

    #[test]
    fn ibft_latency_dominated_by_block_cadence() {
        let mut h = EthScHarness::new(4);
        let tx = h.submit_call_at(
            SimTime::from_millis(1),
            &addr(2),
            &ReverseAuction::call_create_asset(1, &caps(&["cnc"])),
        );
        h.run();
        let latency = h.consensus().latency(tx).expect("committed");
        assert!(
            latency >= SimTime::from_secs(5),
            "IBFT 5s pacing must dominate: {latency}"
        );
    }

    #[test]
    fn gas_rate_conversion() {
        let r = ExecutionRate::quorum();
        assert_eq!(r.to_time(0), SimTime::ZERO);
        // 200k gas ≈ 1 simulated second at the calibrated rate.
        let t = r.to_time(200_000);
        assert!(
            t >= SimTime::from_millis(999) && t <= SimTime::from_millis(1001),
            "{t}"
        );
    }
}
