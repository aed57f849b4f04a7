//! The footprint index behind admission's conflict scans.
//!
//! Pending transactions are indexed by the [`ConflictKey`]s they read
//! and write: key → the pending writers / commuting writers / readers,
//! by pool seq. Every
//! scan and insert runs in admission order on the pool's own thread,
//! so conflict sets and double-spend flags are identical at any
//! admission worker count.

use scdb_core::pipeline::{ConflictKey, Footprint};
use std::collections::{BTreeSet, HashMap};

/// The pool-wide footprint index, with empty key sets pruned on
/// removal.
#[derive(Default)]
pub(crate) struct FootprintIndex {
    writers: HashMap<ConflictKey, BTreeSet<u64>>,
    commuters: HashMap<ConflictKey, BTreeSet<u64>>,
    readers: HashMap<ConflictKey, BTreeSet<u64>>,
}

impl FootprintIndex {
    /// Indexes one pending member's footprint.
    pub(crate) fn insert(&mut self, seq: u64, fp: &Footprint) {
        for (keys, index) in [
            (&fp.writes, &mut self.writers),
            (&fp.commuting_writes, &mut self.commuters),
            (&fp.reads, &mut self.readers),
        ] {
            for key in keys {
                index.entry(key.clone()).or_default().insert(seq);
            }
        }
    }

    /// Unindexes one pending member, pruning emptied key sets.
    pub(crate) fn remove(&mut self, seq: u64, fp: &Footprint) {
        for (keys, index) in [
            (&fp.writes, &mut self.writers),
            (&fp.commuting_writes, &mut self.commuters),
            (&fp.reads, &mut self.readers),
        ] {
            for key in keys {
                if let Some(set) = index.get_mut(key) {
                    set.remove(&seq);
                    if set.is_empty() {
                        index.remove(key);
                    }
                }
            }
        }
    }

    /// The distinct pending members this footprint conflicts with:
    /// its writes against every access, its commuting writes against
    /// their writes and reads, its reads against both kinds of write —
    /// exactly the wave-serialization relation.
    pub(crate) fn conflicts_with(&self, fp: &Footprint) -> BTreeSet<u64> {
        let (writers, commuters, readers) = (&self.writers, &self.commuters, &self.readers);
        let mut found = BTreeSet::new();
        for (keys, indexes) in [
            (&fp.writes, &[writers, commuters, readers][..]),
            (&fp.commuting_writes, &[writers, readers]),
            (&fp.reads, &[writers, commuters]),
        ] {
            for key in keys {
                for index in indexes {
                    found.extend(index.get(key).into_iter().flatten().copied());
                }
            }
        }
        found
    }

    /// True when some pending member already writes this key (the
    /// pending half of the double-spend flag).
    pub(crate) fn has_pending_writer(&self, key: &ConflictKey) -> bool {
        self.writers.get(key).is_some_and(|ws| !ws.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(writes: &[ConflictKey], reads: &[ConflictKey]) -> Footprint {
        Footprint {
            writes: writes.to_vec(),
            reads: reads.to_vec(),
            ..Footprint::default()
        }
    }

    fn out(id: &str, index: u32) -> ConflictKey {
        ConflictKey::Output(id.to_owned(), index)
    }

    #[test]
    fn insert_scan_remove_round_trip() {
        let mut index = FootprintIndex::default();
        let a = fp(&[out("t1", 0)], &[ConflictKey::Id("t0".into())]);
        index.insert(7, &a);
        assert!(index.has_pending_writer(&out("t1", 0)));
        let rival = fp(&[out("t1", 0)], &[]);
        assert_eq!(
            index.conflicts_with(&rival).into_iter().collect::<Vec<_>>(),
            vec![7]
        );
        // Reader-only keys conflict with writers, not other readers.
        let reader = fp(&[], &[ConflictKey::Id("t0".into())]);
        assert!(index.conflicts_with(&reader).is_empty());
        let writer = fp(&[ConflictKey::Id("t0".into())], &[]);
        assert_eq!(index.conflicts_with(&writer).len(), 1);
        index.remove(7, &a);
        assert!(!index.has_pending_writer(&out("t1", 0)));
        assert!(index.conflicts_with(&rival).is_empty());
        assert!(index.writers.is_empty() && index.readers.is_empty());
    }

    #[test]
    fn commuting_writes_conflict_with_reads_and_writes_only() {
        let mut index = FootprintIndex::default();
        let append = Footprint {
            commuting_writes: vec![ConflictKey::Bids("r".into())],
            ..Footprint::default()
        };
        index.insert(1, &append);
        assert!(index.conflicts_with(&append).is_empty());
        let bids = &append.commuting_writes;
        assert_eq!(index.conflicts_with(&fp(&[], bids)).len(), 1);
        assert_eq!(index.conflicts_with(&fp(bids, &[])).len(), 1);
        index.remove(1, &append);
        assert!(index.commuters.is_empty());
    }
}
