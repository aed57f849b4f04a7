//! The ReturnQueue: asynchronous settlement of nested-transaction
//! children.
//!
//! §4.2.1: after an ACCEPT_BID commits, "each child transaction … is
//! enqueued into a task queue during the commit phase by the receiver
//! node. Multiple parallel workers execute the queued jobs
//! asynchronously." The queue is a lock-free MPMC structure; children
//! survive in it across crashes (they are re-enqueued from the recovery
//! log) and can be drained either by real worker threads
//! ([`ReturnQueue::run_workers`]) or by the simulation pump
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

    /// Spawns `n` OS worker threads that drain the queue concurrently,
    /// calling `handler` per job until the queue is empty. Returns when
    /// all workers finish. This is the paper's "multiple parallel
    /// workers" realized with real threads (used by the standalone node
    /// and its tests; the consensus simulation uses [`drain`] instead).
    pub fn run_workers<F>(self: &Arc<Self>, n: usize, handler: F)
    where
        F: Fn(ReturnJob) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let mut threads = Vec::new();
        for _ in 0..n.max(1) {
            let queue = Arc::clone(self);
            let handler = Arc::clone(&handler);
            threads.push(std::thread::spawn(move || {
                while let Some(job) = queue.jobs.pop() {
                    queue.processed.fetch_add(1, Ordering::Relaxed);
                    handler(job);
                }
            }));
        }
        for t in threads {
            t.join().expect("worker thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_core::TxBuilder;
    use scdb_crypto::KeyPair;
    use std::collections::HashSet;
    use std::sync::Mutex;

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
    fn parallel_workers_process_every_job_exactly_once() {
        let q = Arc::new(ReturnQueue::new());
        let n_jobs = 200;
        for i in 0..n_jobs {
            q.enqueue("p", child(i));
        }
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        q.run_workers(4, move |job| {
            let nonce = job
                .child
                .metadata
                .get("nonce")
                .and_then(scdb_json::Value::as_u64)
                .unwrap();
            assert!(
                seen2.lock().unwrap().insert(nonce),
                "job {nonce} processed twice"
            );
        });
        assert_eq!(seen.lock().unwrap().len(), n_jobs as usize);
        assert!(q.is_empty());
        assert_eq!(q.stats(), (n_jobs, n_jobs));
    }

    #[test]
    fn drain_on_empty_queue_is_empty() {
        let q = ReturnQueue::new();
        assert!(q.drain(8).is_empty());
    }
}
