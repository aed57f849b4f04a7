//! The ReturnQueue: asynchronous settlement of nested-transaction
//! children.
//!
//! §4.2.1: after an ACCEPT_BID commits, "each child transaction … is
//! enqueued into a task queue during the commit phase by the receiver
//! node. Multiple parallel workers execute the queued jobs
//! asynchronously." The queue is a lock-free MPMC structure; children
//! survive it across crashes (`Node::recover` re-enqueues them from
//! the nested tracker) and are drained by the settlement pump
//! ([`ReturnQueue::drain`]).

use crossbeam::queue::SegQueue;
use scdb_core::Transaction;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A queued settlement job: one child transaction (RETURN or winner
/// TRANSFER) ready for submission.
#[derive(Debug, Clone)]
pub struct ReturnJob {
    /// The parent ACCEPT_BID id.
    pub parent_id: String,
    /// The signed child transaction, shared: settlement hands the same
    /// allocation to the ledger instead of deep-cloning it.
    pub child: Arc<Transaction>,
    /// Submission attempts so far (retries are the driver's timeout
    /// behaviour from §4.2.1).
    pub attempts: u32,
}

/// Lock-free return queue shared between the commit path and workers.
#[derive(Default)]
pub struct ReturnQueue {
    jobs: SegQueue<ReturnJob>,
    enqueued: AtomicU64,
    processed: AtomicU64,
}

impl ReturnQueue {
    pub fn new() -> ReturnQueue {
        ReturnQueue::default()
    }

    /// Enqueues a child for asynchronous settlement.
    pub fn enqueue(&self, parent_id: &str, child: impl Into<Arc<Transaction>>) {
        self.jobs.push(ReturnJob {
            parent_id: parent_id.to_owned(),
            child: child.into(),
            attempts: 0,
        });
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-enqueues a failed job with its attempt counter bumped.
    pub fn retry(&self, mut job: ReturnJob) {
        job.attempts += 1;
        self.jobs.push(job);
    }

    /// Pops up to `max` jobs (the simulation pump).
    pub fn drain(&self, max: usize) -> Vec<ReturnJob> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.jobs.pop() {
                Some(job) => {
                    self.processed.fetch_add(1, Ordering::Relaxed);
                    out.push(job);
                }
                None => break,
            }
        }
        out
    }

    /// Number of jobs waiting.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Totals: (enqueued, processed).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.processed.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_core::TxBuilder;
    use scdb_crypto::KeyPair;

    fn child(n: u64) -> Transaction {
        let kp = KeyPair::from_seed([7u8; 32]);
        TxBuilder::create(scdb_json::obj! {})
            .output(kp.public_hex(), 1)
            .nonce(n)
            .sign(&[&kp])
    }

    #[test]
    fn fifo_ish_enqueue_drain() {
        let q = ReturnQueue::new();
        for i in 0..5 {
            q.enqueue("parent", child(i));
        }
        assert_eq!(q.len(), 5);
        let batch = q.drain(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(q.len(), 2);
        let rest = q.drain(10);
        assert_eq!(rest.len(), 2);
        assert_eq!(q.stats(), (5, 5));
    }

    #[test]
    fn retry_bumps_attempts() {
        let q = ReturnQueue::new();
        q.enqueue("p", child(1));
        let job = q.drain(1).remove(0);
        assert_eq!(job.attempts, 0);
        q.retry(job);
        let job = q.drain(1).remove(0);
        assert_eq!(job.attempts, 1);
    }

    #[test]
    fn drain_on_empty_queue_is_empty() {
        let q = ReturnQueue::new();
        assert!(q.drain(8).is_empty());
    }
}
