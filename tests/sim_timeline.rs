//! The simulated timeline, pinned.
//!
//! Two streams through the consensus engine — a 4-node SmartchainDB
//! cluster (three auctions with their children pumped back in, a
//! malformed payload, a tampered id, a double spend raced through two
//! receivers at one instant, a validator crash and recovery mid-stream)
//! and the ETH-SC marketplace (plus a native transfer with a bad
//! nonce) — are rendered into one string by hand: every handle's status
//! with its commit time in µs or its rejection reason, the message
//! count, the decided height, the committed count, every replica's
//! final state digest and the nested completions (SCDB), gas and
//! reverts (ETH-SC). The string must equal the recorded one:
//! refactors of the application seam may move work, never the
//! timeline.
//!
//! Gossip counters are left out on purpose: which deliveries use a
//! gossiped schedule is an implementation detail, not the timeline.

use smartchaindb::consensus::{Harness, TxId, TxStatus};
use smartchaindb::evm::{EthScHarness, U256};
use smartchaindb::json::{arr, obj};
use smartchaindb::sim::SimTime;
use smartchaindb::workload::{eth_plan, scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, SmartchainHarness, Transaction, TxBuilder};
use std::fmt::Write;

fn config() -> ScenarioConfig {
    ScenarioConfig {
        requests: 3,
        bidders_per_request: 2,
        capability_count: 2,
        capability_bytes: 16,
        seed: 0x71E,
    }
}

/// Next phase starts just after the previous one's last meaningful
/// event (`run` stops there: a commit, or the recovery of phase 2).
fn phase_start<A: smartchaindb::consensus::App>(h: &Harness<A>) -> SimTime {
    h.now() + SimTime::from_millis(1)
}

/// One line per handle: its index, then `C<commit µs>`, `R<reason>` or
/// `P` (still pending).
fn render_statuses<A: smartchaindb::consensus::App>(
    out: &mut String,
    h: &Harness<A>,
    handles: &[TxId],
) {
    for (i, handle) in handles.iter().enumerate() {
        match h.status(*handle) {
            TxStatus::Committed(at) => writeln!(out, "{i}:C{}", at.as_micros()),
            TxStatus::Rejected(reason) => writeln!(out, "{i}:R{reason}"),
            TxStatus::Pending => writeln!(out, "{i}:P"),
        }
        .expect("writing to a String");
    }
}

fn render_counts<A: smartchaindb::consensus::App>(out: &mut String, h: &Harness<A>) {
    writeln!(
        out,
        "messages={} height={} committed={}",
        h.messages_sent(),
        h.decided_height(),
        h.committed_count()
    )
    .expect("writing to a String");
}

fn scdb_stream() -> String {
    let mut h = SmartchainHarness::new(4);
    let plan = scdb_plan(&config(), &h.escrow_public_hex());
    let [creates, requests, bids, accepts] = plan.phases();
    let gap_us = 3_000;
    let mut handles = Vec::new();

    // Extras: a spendable mint for the double spend, a malformed
    // payload and a CREATE whose id was tampered in transit.
    let owner = KeyPair::from_seed([0x0D; 32]);
    let mint = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(owner.public_hex(), 1)
        .nonce(0xD5)
        .sign(&[&owner]);
    let mut tampered = TxBuilder::create(obj! {})
        .output(owner.public_hex(), 1)
        .nonce(0x7A)
        .sign(&[&owner]);
    tampered.id = "0".repeat(64);

    // Phase 0: the mints, with the garbage in the middle.
    let mut phase0 = creates.clone();
    phase0.insert(1, "{not a transaction".to_owned());
    phase0.push(mint.to_payload());
    let start = phase_start(h.consensus());
    for (k, payload) in phase0.into_iter().enumerate() {
        handles.push(h.submit_at(start + SimTime::from_micros(gap_us * k as u64), payload));
    }
    h.run();

    // Phase 1: the requests and the tampered id.
    let mut phase1 = requests.clone();
    phase1.push(tampered.to_payload());
    let start = phase_start(h.consensus());
    for (k, payload) in phase1.into_iter().enumerate() {
        handles.push(h.submit_at(start + SimTime::from_micros(gap_us * k as u64), payload));
    }
    h.run();

    // Phase 2: node 3 crashes as the bids arrive (they go to the three
    // live receivers) and recovers mid-phase, catching up; the double
    // spend races through nodes 0 and 1 at one instant.
    let start = phase_start(h.consensus());
    h.consensus_mut().crash_at(start, 3);
    for (k, payload) in bids.iter().enumerate() {
        let at = start + SimTime::from_micros(gap_us * k as u64);
        handles.push(h.consensus_mut().submit_at_node(at, k % 3, payload.clone()));
    }
    let spend = |to: &KeyPair, n: u64| -> Transaction {
        TxBuilder::transfer(mint.id.clone())
            .input(mint.id.clone(), 0, vec![owner.public_hex()])
            .output_with_prev(to.public_hex(), 1, vec![owner.public_hex()])
            .metadata(obj! { "n" => n })
            .sign(&[&owner])
    };
    let raced = start + SimTime::from_millis(1);
    let bob = KeyPair::from_seed([0xB0; 32]);
    let sally = KeyPair::from_seed([0x5A; 32]);
    handles.push(
        h.consensus_mut()
            .submit_at_node(raced, 0, spend(&bob, 1).to_payload()),
    );
    handles.push(
        h.consensus_mut()
            .submit_at_node(raced, 1, spend(&sally, 2).to_payload()),
    );
    h.consensus_mut()
        .recover_at(start + SimTime::from_millis(400), 3);
    h.run();

    // Phase 3: the accepts; their children are pumped by `run`.
    let start = phase_start(h.consensus());
    for (k, payload) in accepts.iter().enumerate() {
        handles.push(h.submit_at(
            start + SimTime::from_micros(gap_us * k as u64),
            payload.clone(),
        ));
    }
    h.run();

    let mut out = String::from("scdb\n");
    render_statuses(&mut out, h.consensus(), &handles);
    render_counts(&mut out, h.consensus());
    let app = h.consensus().app();
    for node in 0..4 {
        writeln!(out, "digest{node}={}", app.state_digest(node).to_hex()).expect("String");
    }
    writeln!(out, "nested_completed={}", app.nested_completed()).expect("String");
    out
}

fn eth_stream() -> String {
    let mut h = EthScHarness::new(4);
    let plan = eth_plan(&config());
    let gap_us = 3_000;
    let mut handles = Vec::new();
    for (p, calls) in plan.phases().iter().enumerate() {
        let start = phase_start(h.consensus());
        for (k, call) in calls.iter().enumerate() {
            handles.push(h.submit_call_at(
                start + SimTime::from_micros(gap_us * k as u64),
                &call.sender,
                &call.calldata,
            ));
        }
        if p == 1 {
            // A funded account sending with a nonce it has not reached.
            let (from, to) = (U256::from_u64(0xF0), U256::from_u64(0xF1));
            h.consensus_mut().app_mut().fund_everywhere(from, 1_000);
            handles.push(h.submit_native_at(start, &from, &to, 10, 5));
        }
        h.run();
    }

    let mut out = String::from("ethsc\n");
    render_statuses(&mut out, h.consensus(), &handles);
    render_counts(&mut out, h.consensus());
    let app = h.consensus().app();
    writeln!(
        out,
        "gas_total={} reverted={}",
        app.gas_total(),
        app.reverted()
    )
    .expect("String");
    out
}

/// The value recorded at the parent of the typed application seam, with
/// the SCDB accepts (handles 20–22) and the message count as the round
/// machine's Algorithm 1 moved them: height 3's proposer was down when
/// its round started, and round 1 now follows a nil prevote and nil
/// precommit round (24 messages) and the precommit timeout.
const RECORDED: &str = "\
scdb\n\
0:C205135\n\
1:Rpayload is not valid JSON: unexpected character 'n' at line 1, column 2\n\
2:C205135\n\
3:C205135\n\
4:C205135\n\
5:C205135\n\
6:C205135\n\
7:C205135\n\
8:C405038\n\
9:C405038\n\
10:C405038\n\
11:Rid mismatch: declared 0000000000000000000000000000000000000000000000000000000000000000, computed d48afcb627691cf1b519602e9344cad99adde332a70132bcea0415c4667a77c0\n\
12:C608174\n\
13:C608174\n\
14:C608174\n\
15:C608174\n\
16:C608174\n\
17:C608174\n\
18:C608174\n\
19:Rdouble spend: 59a6ef0e5bcb62a04502d29e92860a2803db01676f58161f72b58c015e8193b8#0 already spent by 8228e1708ffba8516d759afffcd588671b4a16ebeaabcd808d966caee29675d8\n\
20:C4810075\n\
21:C4810075\n\
22:C4810075\n\
messages=243 height=5 committed=26\n\
digest0=3500e6b63305161f:b6bc123cdec63483:3a\n\
digest1=3500e6b63305161f:b6bc123cdec63483:3a\n\
digest2=3500e6b63305161f:b6bc123cdec63483:3a\n\
digest3=3500e6b63305161f:b6bc123cdec63483:3a\n\
nested_completed=3\n\
ethsc\n\
0:C8394001\n\
1:C8394001\n\
2:C8394001\n\
3:C8394001\n\
4:C8394001\n\
5:C8394001\n\
6:C16037975\n\
7:C16037975\n\
8:C16037975\n\
9:Rbad nonce: expected 0, got 5\n\
10:C26110532\n\
11:C26110532\n\
12:C26110532\n\
13:C26110532\n\
14:C26110532\n\
15:C26110532\n\
16:C31652671\n\
17:C31652671\n\
18:C31652671\n\
messages=153 height=3 committed=18\n\
gas_total=2329293 reverted=0\n\
";

#[test]
fn simulated_timeline_is_pinned() {
    let got = format!("{}{}", scdb_stream(), eth_stream());
    assert_eq!(got, RECORDED, "the simulated timeline moved:\n{got}");
}
