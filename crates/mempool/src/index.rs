//! The pending-spender index behind admission's double-spend flag.
//!
//! Pending transactions are indexed by the outputs they spend — the
//! [`ConflictKey::Output`] keys their footprints `Write` — as output →
//! the pending spenders, by pool seq. Conflicts between pending members
//! are not indexed: the drain layers the pool through the pipeline's
//! one frontier walk. Every insert and lookup runs in admission order
//! on the pool's own thread, so double-spend flags are identical at any
//! admission worker count.

use scdb_core::pipeline::{Access, ConflictKey, Footprint};
use std::collections::{BTreeSet, HashMap};

/// The pool-wide spender index, with empty key sets pruned on removal.
#[derive(Default)]
pub(crate) struct SpendIndex {
    spenders: HashMap<ConflictKey, BTreeSet<u64>>,
}

/// The outputs a footprint spends.
fn spends(fp: &Footprint) -> impl Iterator<Item = &ConflictKey> {
    (fp.accesses().iter())
        .filter(|(key, access)| *access == Access::Write && matches!(key, ConflictKey::Output(..)))
        .map(|(key, _)| key)
}

impl SpendIndex {
    /// Indexes one pending member's spends.
    pub(crate) fn insert(&mut self, seq: u64, fp: &Footprint) {
        for key in spends(fp) {
            self.spenders.entry(key.clone()).or_default().insert(seq);
        }
    }

    /// Unindexes one pending member, pruning emptied key sets.
    pub(crate) fn remove(&mut self, seq: u64, fp: &Footprint) {
        for key in spends(fp) {
            if let Some(set) = self.spenders.get_mut(key) {
                set.remove(&seq);
                if set.is_empty() {
                    self.spenders.remove(key);
                }
            }
        }
    }

    /// True when some pending member already spends this output (the
    /// pending half of the double-spend flag).
    pub(crate) fn has_pending_spender(&self, key: &ConflictKey) -> bool {
        self.spenders.get(key).is_some_and(|seqs| !seqs.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(writes: &[ConflictKey], reads: &[ConflictKey]) -> Footprint {
        let mut fp = Footprint::default();
        for key in writes {
            fp.touch(key.clone(), Access::Write);
        }
        for key in reads {
            fp.touch(key.clone(), Access::Read);
        }
        fp
    }

    fn out(id: &str, index: u32) -> ConflictKey {
        ConflictKey::Output(id.to_owned(), index)
    }

    #[test]
    fn insert_scan_remove_round_trip() {
        let mut index = SpendIndex::default();
        let a = fp(&[out("t1", 0)], &[ConflictKey::Id("t0".into())]);
        index.insert(7, &a);
        assert!(index.has_pending_spender(&out("t1", 0)));
        // Only spends are indexed: a read output is no pending spend.
        assert!(!index.has_pending_spender(&ConflictKey::Id("t0".into())));
        let reader = fp(&[], &[out("t2", 0)]);
        index.insert(8, &reader);
        assert!(!index.has_pending_spender(&out("t2", 0)));
        index.remove(7, &a);
        index.remove(8, &reader);
        assert!(!index.has_pending_spender(&out("t1", 0)));
        assert!(index.spenders.is_empty());
    }
}
