//! The catch-up export: ships the sealed chain to a lagging replica.
//!
//! The chain is one append-only file, so a replica that fell behind —
//! not one that diverged — holds a *prefix* of it. Export compares the
//! two manifests byte for byte: when every whole seal line the target
//! holds is the source's line at that height (same documents, same
//! digest), only the seals past it are appended; anything else — an
//! empty, diverged or longer target, or one still holding files of the
//! retired layout — is replaced whole. Either way the target then
//! recovers like any store: by re-execution, with the digest checked at
//! every seal.

use super::{manifest_path, refuse_retired_layout, DurableStore, WalError, WAL_DIR};
use std::fs;
use std::io::Write;
use std::path::Path;

/// What an [`DurableStore::export_to`] call shipped.
#[derive(Clone, Copy, Debug)]
pub struct ExportStats {
    /// Whether the target's manifest was a verified prefix of the
    /// source's, so only the seals it lacked were appended (false = the
    /// target was replaced whole).
    pub incremental: bool,
}

impl DurableStore {
    /// Brings the store at `target` up to this store's sealed chain —
    /// the catch-up fetch; the lagging replica then recovers from its
    /// own directory. Takes the write lock so the copy is a consistent
    /// cut; buffered group seals flush first so the cut includes every
    /// acknowledged block.
    pub fn export_to(&self, target: &Path) -> Result<ExportStats, WalError> {
        let mut inner = self.inner.lock();
        self.flush_group_locked(&mut inner)?;
        let source = fs::read(manifest_path(&self.dir))?;
        let held = fs::read(manifest_path(target)).unwrap_or_default();
        // Whole lines only: a torn tail on the target is cut, not
        // compared.
        let whole = held
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        let incremental = whole > 0
            && source.starts_with(&held[..whole])
            && refuse_retired_layout(target).is_ok();
        if incremental {
            let mut manifest = fs::OpenOptions::new()
                .append(true)
                .open(manifest_path(target))?;
            manifest.set_len(whole as u64)?;
            manifest.write_all(&source[whole..])?;
            self.telemetry.incr("durable.export_incremental");
        } else {
            // Wipe first, so stale target state can never mix into the
            // copy.
            let _ = fs::remove_dir_all(target);
            fs::create_dir_all(target.join(WAL_DIR))?;
            fs::write(manifest_path(target), &source)?;
            self.telemetry.incr("durable.export_full");
        }
        Ok(ExportStats { incremental })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{block, Scratch};
    use super::super::FsyncLevel;
    use super::*;
    use crate::utxo::UtxoSet;

    #[test]
    fn incremental_export_ships_only_the_missing_seals() {
        let scratch = Scratch::new("inc-export-src");
        let target = Scratch::new("inc-export-dst");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::with_shards(4);
        block(&store, &live, "aaaa");
        store.export_to(target.path()).expect("full export");
        let shipped = fs::read(manifest_path(target.path())).unwrap();

        // The target holds a prefix — here with a torn line after it —
        // and the source has run ahead: only the suffix moves.
        fs::write(
            manifest_path(target.path()),
            [shipped.as_slice(), b"{\"d\":\"torn"].concat(),
        )
        .unwrap();
        block(&store, &live, "bbbb");
        let stats = store.export_to(target.path()).expect("incremental export");
        assert!(stats.incremental);
        let source = fs::read(manifest_path(scratch.path())).unwrap();
        assert_eq!(fs::read(manifest_path(target.path())).unwrap(), source);

        // An up-to-date target is a prefix too: nothing moves.
        assert!(store.export_to(target.path()).expect("no-op").incremental);
        assert_eq!(fs::read(manifest_path(target.path())).unwrap(), source);
        let rec = DurableStore::recover(target.path(), 4).expect("recover copy");
        assert_eq!(rec.height, 2);
        assert_eq!(rec.digest, live.state_digest());
    }

    #[test]
    fn a_diverged_or_longer_target_is_replaced_whole() {
        let scratch = Scratch::new("replace-src");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::with_shards(4);
        block(&store, &live, "aaaa");
        let source = fs::read(manifest_path(scratch.path())).unwrap();

        // Diverged: the same height sealed different documents.
        let diverged = Scratch::new("replace-diverged");
        let (other, _) = DurableStore::open(diverged.path()).expect("open");
        block(&other, &UtxoSet::with_shards(4), "zzzz");
        drop(other);
        // Longer: the source's chain plus a block the source never saw.
        let longer = Scratch::new("replace-longer");
        store
            .export_to(longer.path())
            .expect("seed the longer target");
        let (ahead, _) = DurableStore::open(longer.path()).expect("open");
        block(&ahead, &UtxoSet::with_shards(4), "bbbb");
        drop(ahead);

        for target in [&diverged, &longer] {
            let stats = store.export_to(target.path()).expect("export");
            assert!(!stats.incremental);
            assert_eq!(fs::read(manifest_path(target.path())).unwrap(), source);
        }
    }

    #[test]
    fn export_flushes_the_group_first() {
        let scratch = Scratch::new("group-export-src");
        let target = Scratch::new("group-export-dst");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Group(8));
        let live = UtxoSet::with_shards(4);
        block(&store, &live, "aaaa");
        assert_eq!(store.pending_seals(), 1);
        // The copy must hold every acknowledged block, buffered or not.
        store.export_to(target.path()).expect("export");
        assert_eq!(store.pending_seals(), 0);
        let rec = DurableStore::recover(target.path(), 4).expect("recover copy");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, live.state_digest());
    }
}
