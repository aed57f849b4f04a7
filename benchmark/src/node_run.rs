//! One repetition of a single-node workload: payload strings in,
//! durable commits out, through `scdb_server::Node`'s public calls
//! only. The closed loops submit a window, drain it, and submit the
//! next; the open loop submits on a fixed schedule whatever the node
//! is doing and times every operation from when it was due.

use crate::inputs::{Inputs, Kind, Workload, IN_FLIGHT};
use crate::rep::{
    check_final_reads, dir_bytes, pipeline_options, recover_probe_ms, run_query, Rep, TempRoot,
    FINAL_SCANS, OPEN_LOOP_RATE, READS_PER_GROUP, READ_EVERY,
};
use crate::spans::Recorder;
use crate::stats::percentile;
use scdb_core::Telemetry;
use scdb_server::Node;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// The generator may itself run this late at p99 before an open-loop
/// repetition is marked invalid.
const GENERATOR_LAG_LIMIT_MS: f64 = 5.0;
/// Writes still uncommitted when the schedule ends, as a share of one
/// second's offered load, beyond which the repetition is invalid.
const BACKLOG_LIMIT_TXS: u64 = OPEN_LOOP_RATE / 4;

/// Where a write stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    NotSubmitted,
    Admitted,
    RejectedAtAdmission,
    PushedBack,
    Committed,
    RejectedAtCommit,
}

/// A committed block waiting for its seal to reach the disk.
struct AwaitingSeal {
    /// The store height that must be durable for the block to be.
    height: u64,
    decided_ns: u64,
    writes: Vec<usize>,
}

struct NodeRun<'a> {
    inputs: &'a Inputs,
    payloads: Vec<String>,
    node: Node,
    rec: Recorder,
    state: Vec<State>,
    /// Submit time (closed loop) or due time (open loop) per write.
    start_ns: Vec<u64>,
    /// Admitted write by declared id: commit verdicts are keyed by id.
    admitted: HashMap<&'a str, usize>,
    awaiting: VecDeque<AwaitingSeal>,
    next_query: usize,
    /// When the last call into the node returned: an operation due
    /// before that waited for the node, not for the generator.
    free_since_ns: u64,
    rep: Rep,
}

impl<'a> NodeRun<'a> {
    fn new(inputs: &'a Inputs, tmp: &TempRoot, telemetry: Telemetry) -> Self {
        let traced = telemetry.is_enabled();
        let node = Node::with_durable_dir(
            inputs.escrow.clone(),
            pipeline_options(telemetry),
            tmp.fresh_dir(),
        )
        .expect("a fresh durable directory opens");
        NodeRun {
            inputs,
            payloads: inputs.writes.iter().map(|w| w.payload.clone()).collect(),
            node,
            rec: Recorder::new(traced),
            state: vec![State::NotSubmitted; inputs.writes.len()],
            start_ns: vec![0; inputs.writes.len()],
            admitted: HashMap::new(),
            awaiting: VecDeque::new(),
            next_query: 0,
            free_since_ns: 0,
            rep: Rep {
                valid: true,
                ..Rep::default()
            },
        }
    }

    /// Notes that an operation due at `due_ns` is being issued now.
    fn note_issue(&mut self, due_ns: u64) {
        let now = self.rec.now_ns();
        let lag = now.saturating_sub(due_ns.max(self.free_since_ns));
        self.rep.layer.generator_lag_ms.push(lag as f64 / 1e6);
    }

    fn ingest(&mut self, range: Range<usize>) {
        let inputs = self.inputs;
        let span = self
            .rec
            .enter("ingest_payload_batch", self.rep.layer.blocks);
        let verdicts = self
            .node
            .ingest_payload_batch(&self.payloads[range.clone()]);
        self.rec.exit(span);
        for (index, verdict) in range.zip(verdicts) {
            self.state[index] = match verdict {
                Ok(receipt) => {
                    self.rep.layer.flagged += u64::from(receipt.flagged);
                    self.admitted
                        .insert(inputs.writes[index].id.as_str(), index);
                    State::Admitted
                }
                Err(e) if e.is_retryable() => {
                    self.rep.layer.pushbacks += 1;
                    State::PushedBack
                }
                Err(_) => {
                    self.rep.layer.rejected_admission += 1;
                    State::RejectedAtAdmission
                }
            };
        }
        let backlog = self.node.mempool().len() as u64;
        self.rep.layer.backlog_max = self.rep.layer.backlog_max.max(backlog);
        self.free_since_ns = self.rec.now_ns();
    }

    /// Forms, commits and settles one block. False when the pool had
    /// nothing to offer.
    fn block_step(&mut self) -> bool {
        let block = self.rep.layer.blocks;
        let span = self.rec.enter("form_proposal", block);
        let formed = self.node.form_proposal(IN_FLIGHT);
        self.rec.exit(span);
        if formed.is_empty() && formed.expelled.is_empty() {
            return false;
        }
        let span = self.rec.enter("commit_proposal", block);
        let report = self.node.commit_proposal(formed);
        self.rec.exit(span);

        let layer = &mut self.rep.layer;
        layer.blocks += 1;
        layer.block_txs += report.batch.len() as u64;
        layer.expelled += report.expelled.len() as u64;
        let mut writes = Vec::with_capacity(report.outcome.committed.len());
        for id in &report.outcome.committed {
            if let Some(&index) = self.admitted.get(id.as_str()) {
                self.state[index] = State::Committed;
                writes.push(index);
            }
        }
        let rejected = report
            .outcome
            .rejected
            .iter()
            .map(|(member, _)| report.batch[*member].id.as_str())
            .chain(report.expelled.iter().map(|e| e.tx.id.as_str()));
        for id in rejected {
            if let Some(&index) = self.admitted.get(id) {
                self.state[index] = State::RejectedAtCommit;
            }
        }
        // Auxiliary stores lagging the ledger is a wrong output.
        self.rep.failed += report.post_commit_failures.len();
        let height = self.store_height();
        let decided_ns = self.rec.now_ns();
        for &index in &writes {
            self.rep
                .commit_latency_ms
                .push((decided_ns - self.start_ns[index]) as f64 / 1e6);
        }
        self.awaiting.push_back(AwaitingSeal {
            height,
            decided_ns,
            writes,
        });

        let span = self.rec.enter("pump_returns", block);
        loop {
            let settled = self.node.pump_returns(64);
            self.rep.layer.children_settled += settled as u64;
            if settled == 0 {
                break;
            }
        }
        self.rec.exit(span);
        self.acknowledge();
        self.free_since_ns = self.rec.now_ns();
        true
    }

    fn store_height(&self) -> u64 {
        self.node
            .ledger()
            .durable_store()
            .map_or(0, |store| store.next_height())
    }

    /// Acknowledges every block whose seal has been flushed: heights
    /// below `next_height - pending_seals` are on disk.
    fn acknowledge(&mut self) {
        let durable = self.node.ledger().durable_store().map_or(0, |store| {
            store.next_height() - store.pending_seals() as u64
        });
        let now = self.rec.now_ns();
        while self
            .awaiting
            .front()
            .is_some_and(|block| block.height <= durable)
        {
            let block = self.awaiting.pop_front().expect("front exists");
            self.rep
                .layer
                .ack_wait_ms
                .push((now - block.decided_ns) as f64 / 1e6);
            for index in block.writes {
                self.rep.committed += 1;
                self.rep
                    .durable_latency_ms
                    .push((now - self.start_ns[index]) as f64 / 1e6);
            }
        }
    }

    /// Issues the next read of the rotation, timed from `due_ns`.
    /// `growing` says the ledger is still being filled: a scan then
    /// costs anything between nothing and its final price, so the
    /// closed loops time theirs in [`Self::final_scans`] instead.
    fn query(&mut self, due_ns: u64, growing: bool) {
        let inputs = self.inputs;
        let query = &inputs.queries[self.next_query % inputs.queries.len()];
        self.next_query += 1;
        let span = self.rec.enter("query", self.rep.layer.blocks);
        black_box(run_query(query, self.node.db(), self.node.ledger()));
        self.rec.exit(span);
        let now = self.rec.now_ns();
        let latency_ms = (now - due_ns) as f64 / 1e6;
        if !query.is_scan() {
            self.rep.point_latency_ms.push(latency_ms);
        } else if !growing {
            self.rep.scan_latency_ms.push(latency_ms);
        }
        self.free_since_ns = now;
    }

    /// The closed loops' scan measurement: [`FINAL_SCANS`] scans over
    /// the complete ledger, the same work in every repetition.
    fn final_scans(&mut self) {
        let inputs = self.inputs;
        let scans = inputs.queries.iter().filter(|query| query.is_scan());
        for query in scans.cycle().take(FINAL_SCANS) {
            let start = self.rec.now_ns();
            black_box(run_query(query, self.node.db(), self.node.ledger()));
            let latency_ms = (self.rec.now_ns() - start) as f64 / 1e6;
            self.rep.scan_latency_ms.push(latency_ms);
        }
    }

    /// Closed loop, one client, [`IN_FLIGHT`] payloads in flight: submit
    /// a group, drain the pool to empty, read, repeat.
    fn closed_loop(&mut self) {
        let inputs = self.inputs;
        for group in &inputs.groups {
            let now = self.rec.now_ns();
            self.start_ns[group.clone()].fill(now);
            self.ingest(group.clone());
            while !self.node.mempool().is_empty() && self.block_step() {}
            for _ in 0..READS_PER_GROUP {
                let now = self.rec.now_ns();
                self.query(now, true);
            }
        }
    }

    /// Open loop: write `i` is due at `i / OPEN_LOOP_RATE` seconds and a
    /// read is due with every [`READ_EVERY`]th write, whatever the node
    /// is doing. The harness ingests whatever is due, answers due
    /// reads, and drains one block whenever the pool is non-empty.
    fn open_loop(&mut self, origin_ns: u64) {
        let interval_ns = 1_000_000_000 / OPEN_LOOP_RATE;
        let writes = self.inputs.writes.len();
        let reads = writes.div_ceil(READ_EVERY);
        for (index, start) in self.start_ns.iter_mut().enumerate() {
            *start = origin_ns + index as u64 * interval_ns;
        }
        let read_due = |read: usize| origin_ns + (read * READ_EVERY) as u64 * interval_ns;
        let last_due_ns = origin_ns + (writes as u64 - 1) * interval_ns;
        let (mut next_write, mut next_read) = (0, 0);
        let mut backlog_at_end = None;
        loop {
            let now = self.rec.now_ns();
            let due_writes = ((now - origin_ns) / interval_ns + 1).min(writes as u64) as usize;
            if due_writes > next_write {
                for index in next_write..due_writes {
                    self.note_issue(self.start_ns[index]);
                }
                self.ingest(next_write..due_writes);
                next_write = due_writes;
            }
            while next_read < reads && read_due(next_read) <= self.rec.now_ns() {
                self.note_issue(read_due(next_read));
                self.query(read_due(next_read), false);
                next_read += 1;
            }
            if backlog_at_end.is_none() && now >= last_due_ns {
                backlog_at_end = Some(self.node.mempool().len() as u64);
            }
            if !self.node.mempool().is_empty() && self.block_step() {
                continue;
            }
            if next_write == writes && next_read == reads {
                break;
            }
            // Idle: spin until the next operation is due. Sleeping would
            // hand the core back to a shared host that takes
            // milliseconds to return it, and would let it cool down
            // between operations; nothing else wants the core meanwhile
            // (the program's workers run only inside its calls).
            let next_due = self.start_ns.get(next_write).copied().unwrap_or(u64::MAX);
            let next_due = if next_read < reads {
                next_due.min(read_due(next_read))
            } else {
                next_due
            };
            let span = self.rec.enter("idle", self.rep.layer.blocks);
            while self.rec.now_ns() < next_due {
                std::hint::spin_loop();
            }
            self.rec.exit(span);
        }
        let lag_p99 = percentile(&self.rep.layer.generator_lag_ms, 99.0);
        self.rep.valid =
            lag_p99 <= GENERATOR_LAG_LIMIT_MS && backlog_at_end.unwrap_or(0) <= BACKLOG_LIMIT_TXS;
    }

    /// Counts a write as failed when its outcome differs from the
    /// oracle's verdict or from the stage the generator built it for.
    fn count_failures(&mut self) {
        for (write, state) in self.inputs.writes.iter().zip(&self.state) {
            let expected = match write.kind {
                Kind::Plain => State::Committed,
                Kind::DoubleSpend => State::RejectedAtCommit,
                Kind::Duplicate | Kind::Tampered => State::RejectedAtAdmission,
            };
            self.rep.failed += usize::from(*state != expected);
        }
    }

    fn run(mut self) -> Rep {
        let root = self.rec.enter("run", 0);
        let origin_ns = self.rec.now_ns();
        self.free_since_ns = origin_ns;
        match self.inputs.workload {
            Workload::OpenLoopMixed => self.open_loop(origin_ns),
            _ => self.closed_loop(),
        }
        let span = self.rec.enter("flush_durable", self.rep.layer.blocks);
        self.node.flush_durable().expect("final flush");
        self.rec.exit(span);
        self.acknowledge();
        self.rep.wall_s = (self.rec.now_ns() - origin_ns) as f64 / 1e9;
        self.rec.exit(root);

        // Everything below is outside the timed region.
        let inputs = self.inputs;
        if inputs.workload != Workload::OpenLoopMixed {
            self.final_scans();
        }
        self.count_failures();
        // A committed write still unacknowledged after the final flush
        // never became durable.
        self.rep.failed += self.awaiting.iter().map(|b| b.writes.len()).sum::<usize>();
        self.rep.attempted = inputs.writes.len() + self.next_query;
        self.rep.failed += check_final_reads(inputs, self.node.db(), self.node.ledger());
        let settled = self.rep.layer.children_settled as usize;
        self.rep.failed += settled.abs_diff(inputs.expected_children);
        let digest = self.node.state_digest();
        self.rep.digests_match = digest == inputs.oracle_digest();
        self.rep.telemetry = self.node.pipeline_options().telemetry.snapshot();
        self.rep.spans = self.rec.spans().to_vec();

        let dir = self.node.durable_dir().expect("the node is durable");
        let options = self.node.pipeline_options().clone();
        let (traced, shards) = (options.telemetry.is_enabled(), options.utxo_shards);
        self.rep.dir_bytes = dir_bytes(&dir);
        drop(self.node);
        let reopen = Instant::now();
        let reopened = Node::with_durable_dir(inputs.escrow.clone(), options, &dir)
            .expect("the durable directory recovers");
        let recovered = reopened.state_digest();
        self.rep.recovery_s = reopen.elapsed().as_secs_f64();
        self.rep.digests_match &= recovered == digest;
        drop(reopened);
        if traced {
            self.rep.recover_probe_ms = recover_probe_ms(&dir, shards);
        }
        let _ = std::fs::remove_dir_all(dir);
        self.rep
    }
}

/// Runs one repetition of a single-node workload on a fresh node.
pub fn run_rep(inputs: &Inputs, tmp: &TempRoot, telemetry: Telemetry) -> Rep {
    NodeRun::new(inputs, tmp, telemetry).run()
}

/// Builds and drops a fresh durable node: the construction share of
/// set-up time.
pub fn construct(inputs: &Inputs, tmp: &TempRoot) {
    let dir = tmp.fresh_dir();
    let node = Node::with_durable_dir(
        inputs.escrow.clone(),
        pipeline_options(Telemetry::disabled()),
        &dir,
    )
    .expect("a fresh durable directory opens");
    drop(node);
    let _ = std::fs::remove_dir_all(dir);
}
