//! The driver proper: prepare → fulfill (sign) → submit, in sync or
//! async mode, with callbacks and timeout-based retries (Fig. 4 and
//! §4.2.1 case 1 — "the driver will re-trigger ACCEPT_BID after the
//! timeout interval").

use crate::endpoint::{CommitAck, Endpoint, SubmitError};
use crate::template::{prepare, PrepareError};
#[cfg(test)]
use scdb_core::LedgerView;
use scdb_core::{sign_transaction, Transaction};
use scdb_crypto::KeyPair;
use scdb_json::Value;
use std::collections::VecDeque;
use std::fmt;

/// Driver-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The specification didn't fit any template.
    Prepare(PrepareError),
    /// The server rejected the transaction.
    Rejected(String),
    /// Retries exhausted against transient faults.
    RetriesExhausted { attempts: usize, last: String },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Prepare(e) => write!(f, "prepare: {e}"),
            DriverError::Rejected(r) => write!(f, "rejected: {r}"),
            DriverError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<PrepareError> for DriverError {
    fn from(e: PrepareError) -> DriverError {
        DriverError::Prepare(e)
    }
}

/// Callback invoked when an async submission resolves: the transaction
/// id and the outcome ("the respective callback method is invoked when
/// the transaction is committed or if any validation error is raised").
pub type Callback = Box<dyn FnMut(&str, &Result<CommitAck, DriverError>)>;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Submission attempts per transaction (1 = no retry).
    pub max_attempts: usize,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig { max_attempts: 3 }
    }
}

struct PendingJob {
    tx: Transaction,
    callback: Callback,
}

/// The client driver bound to an endpoint.
pub struct Driver<E> {
    endpoint: E,
    config: DriverConfig,
    queue: VecDeque<PendingJob>,
}

impl<E: Endpoint> Driver<E> {
    /// A driver with default retry policy.
    pub fn new(endpoint: E) -> Driver<E> {
        Driver::with_config(endpoint, DriverConfig::default())
    }

    /// A driver with an explicit retry policy.
    pub fn with_config(endpoint: E, config: DriverConfig) -> Driver<E> {
        assert!(config.max_attempts >= 1, "at least one attempt required");
        Driver {
            endpoint,
            config,
            queue: VecDeque::new(),
        }
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &E {
        &self.endpoint
    }

    /// Prepare-and-Sign: instantiate the template for `spec` and fulfill
    /// every input with `signers`.
    pub fn prepare_and_sign(
        &self,
        spec: &Value,
        signers: &[&KeyPair],
    ) -> Result<Transaction, DriverError> {
        let mut tx = prepare(spec)?;
        sign_transaction(&mut tx, signers);
        Ok(tx)
    }

    /// Sync mode: submit and block until commit or definitive failure,
    /// retrying transient faults up to the configured attempt budget.
    pub fn submit_sync(&mut self, tx: &Transaction) -> Result<CommitAck, DriverError> {
        let payload = tx.to_payload();
        let mut last = String::new();
        for _attempt in 1..=self.config.max_attempts {
            match self.endpoint.submit(&payload) {
                Ok(ack) => return Ok(ack),
                Err(SubmitError::Rejected(reason)) => return Err(DriverError::Rejected(reason)),
                Err(SubmitError::Transient(reason)) => last = reason,
            }
        }
        Err(DriverError::RetriesExhausted {
            attempts: self.config.max_attempts,
            last,
        })
    }

    /// One-call convenience: template, sign, submit synchronously.
    pub fn execute(
        &mut self,
        spec: &Value,
        signers: &[&KeyPair],
    ) -> Result<CommitAck, DriverError> {
        let tx = self.prepare_and_sign(spec, signers)?;
        self.submit_sync(&tx)
    }

    /// Async mode: enqueue the transaction; `callback` fires when
    /// [`Driver::pump`] resolves it ("immediate response before
    /// validation").
    pub fn submit_async(
        &mut self,
        tx: Transaction,
        callback: impl FnMut(&str, &Result<CommitAck, DriverError>) + 'static,
    ) {
        self.queue.push_back(PendingJob {
            tx,
            callback: Box::new(callback),
        });
    }

    /// Number of submissions awaiting a pump.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drives up to `max` queued submissions to resolution, invoking
    /// their callbacks. Returns how many were resolved.
    ///
    /// Each pumped submission travels alone, and a transient fault is
    /// retried inline ([`Driver::submit_sync`]'s loop) — one round trip
    /// per attempt.
    pub fn pump(&mut self, max: usize) -> usize {
        let mut resolved = 0;
        for _ in 0..max {
            let Some(mut job) = self.queue.pop_front() else {
                break;
            };
            let outcome = self.submit_sync(&job.tx);
            (job.callback)(&job.tx.id, &outcome);
            resolved += 1;
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FlakyEndpoint;
    use scdb_core::TxBuilder;
    use scdb_json::{arr, obj};
    use scdb_server::Node;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn node() -> Node {
        Node::new(KeyPair::from_seed([0xE5; 32]))
    }

    fn create_spec(owner: &KeyPair, nonce: u64) -> Value {
        obj! {
            "operation" => "CREATE",
            "asset" => obj! { "capabilities" => arr!["3d-print"] },
            "outputs" => arr![obj! { "public_key" => owner.public_hex(), "amount" => 1u64 }],
            "nonce" => nonce,
        }
    }

    #[test]
    fn execute_templates_signs_and_commits() {
        let mut driver = Driver::new(node());
        let alice = KeyPair::from_seed([0xA1; 32]);
        let ack = driver
            .execute(&create_spec(&alice, 1), &[&alice])
            .expect("committed");
        assert!(driver.endpoint().ledger().is_committed(&ack.tx_id));
    }

    #[test]
    fn rejections_are_not_retried() {
        let flaky = FlakyEndpoint::new(node(), 0);
        let mut driver = Driver::new(flaky);
        let alice = KeyPair::from_seed([0xA1; 32]);
        // A bid on nothing: semantic rejection.
        let bid = TxBuilder::bid("9".repeat(64), "8".repeat(64))
            .input("9".repeat(64), 0, vec![alice.public_hex()])
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);
        let err = driver.submit_sync(&bid).unwrap_err();
        assert!(matches!(err, DriverError::Rejected(_)));
        assert_eq!(driver.endpoint().attempts, 1, "no retry on rejection");
    }

    #[test]
    fn transient_faults_retried_until_budget() {
        let alice = KeyPair::from_seed([0xA1; 32]);
        let tx = TxBuilder::create(obj! {})
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);

        // Two faults, three attempts: succeeds on the third.
        let mut driver = Driver::with_config(
            FlakyEndpoint::new(node(), 2),
            DriverConfig { max_attempts: 3 },
        );
        assert!(driver.submit_sync(&tx).is_ok());
        assert_eq!(driver.endpoint().attempts, 3);

        // Three faults, two attempts: gives up.
        let mut driver = Driver::with_config(
            FlakyEndpoint::new(node(), 3),
            DriverConfig { max_attempts: 2 },
        );
        let err = driver.submit_sync(&tx).unwrap_err();
        assert!(matches!(
            err,
            DriverError::RetriesExhausted { attempts: 2, .. }
        ));
    }

    #[test]
    fn async_callbacks_fire_on_commit_and_rejection() {
        let mut driver = Driver::new(node());
        let alice = KeyPair::from_seed([0xA1; 32]);
        let outcomes: Rc<RefCell<Vec<(String, bool)>>> = Rc::default();

        let good = TxBuilder::create(obj! {})
            .output(alice.public_hex(), 1)
            .nonce(1)
            .sign(&[&alice]);
        let bad = TxBuilder::bid("9".repeat(64), "8".repeat(64))
            .input("9".repeat(64), 0, vec![alice.public_hex()])
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);

        for tx in [good.clone(), bad.clone()] {
            let sink = Rc::clone(&outcomes);
            driver.submit_async(tx, move |id, outcome| {
                sink.borrow_mut().push((id.to_owned(), outcome.is_ok()));
            });
        }
        assert_eq!(driver.pending(), 2);
        assert_eq!(driver.pump(16), 2);
        assert_eq!(driver.pending(), 0);

        let seen = outcomes.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (good.id.clone(), true));
        assert_eq!(seen[1], (bad.id.clone(), false));
    }

    #[test]
    fn pump_respects_budget() {
        let mut driver = Driver::new(node());
        let alice = KeyPair::from_seed([0xA1; 32]);
        for nonce in 0..5 {
            let tx = TxBuilder::create(obj! {})
                .output(alice.public_hex(), 1)
                .nonce(nonce)
                .sign(&[&alice]);
            driver.submit_async(tx, |_, _| {});
        }
        assert_eq!(driver.pump(2), 2);
        assert_eq!(driver.pending(), 3);
        assert_eq!(driver.pump(16), 3);
    }

    #[test]
    fn full_auction_via_driver_specs() {
        // The usability story: an entire reverse auction driven from
        // declarative JSON specs — zero user-implemented validation.
        let mut driver = Driver::new(node());
        let sally = KeyPair::from_seed([0x5A; 32]);
        let alice = KeyPair::from_seed([0xA1; 32]);
        let bob = KeyPair::from_seed([0xB0; 32]);
        let escrow_pk = driver.endpoint().escrow_public_hex();

        let asset_a = driver
            .execute(&create_spec(&alice, 1), &[&alice])
            .unwrap()
            .tx_id;
        let asset_b = driver
            .execute(&create_spec(&bob, 2), &[&bob])
            .unwrap()
            .tx_id;
        let rfq = driver
            .execute(
                &obj! {
                    "operation" => "REQUEST",
                    "asset" => obj! { "capabilities" => arr!["3d-print"] },
                    "outputs" => arr![obj! { "public_key" => sally.public_hex(), "amount" => 1u64 }],
                },
                &[&sally],
            )
            .unwrap()
            .tx_id;

        let bid_spec = |asset: &str, owner: &KeyPair| {
            obj! {
                "operation" => "BID",
                "asset_id" => asset,
                "rfq_id" => rfq.clone(),
                "inputs" => arr![obj! {
                    "transaction_id" => asset,
                    "output_index" => 0u64,
                    "owners" => arr![owner.public_hex()],
                }],
                "outputs" => arr![obj! {
                    "public_key" => escrow_pk.clone(),
                    "amount" => 1u64,
                    "previous_owners" => arr![owner.public_hex()],
                }],
            }
        };
        let bid_a = driver
            .execute(&bid_spec(&asset_a, &alice), &[&alice])
            .unwrap()
            .tx_id;
        let bid_b = driver
            .execute(&bid_spec(&asset_b, &bob), &[&bob])
            .unwrap()
            .tx_id;

        let accept_spec = obj! {
            "operation" => "ACCEPT_BID",
            "win_bid_id" => bid_a.clone(),
            "rfq_id" => rfq.clone(),
            "inputs" => arr![
                obj! {
                    "transaction_id" => bid_a.clone(),
                    "output_index" => 0u64,
                    "owners" => arr![escrow_pk.clone()],
                },
                obj! {
                    "transaction_id" => bid_b.clone(),
                    "output_index" => 0u64,
                    "owners" => arr![escrow_pk.clone()],
                }
            ],
            "outputs" => arr![
                obj! {
                    "public_key" => sally.public_hex(),
                    "amount" => 1u64,
                    "previous_owners" => arr![escrow_pk.clone()],
                },
                obj! {
                    "public_key" => bob.public_hex(),
                    "amount" => 1u64,
                    "previous_owners" => arr![escrow_pk.clone()],
                }
            ],
        };
        let accept = driver.execute(&accept_spec, &[&sally]).unwrap().tx_id;

        let node = driver.endpoint();
        assert!(node.ledger().is_committed(&accept));
        assert_eq!(
            node.tracker().status(&accept),
            Some(scdb_core::NestedStatus::Complete),
            "children settled inline in sync mode"
        );
        assert_eq!(
            node.ledger()
                .utxos()
                .unspent_for_owner(&bob.public_hex())
                .len(),
            1
        );
    }
}
