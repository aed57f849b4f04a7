//! Tunable durability: fsync levels and the group-commit seal writer.
//!
//! The manifest's buffered writes survive a *process* crash (the kernel
//! holds the page cache), but only an fsync survives a *host* crash.
//! [`FsyncLevel`] picks where the commit point sits:
//!
//! * [`FsyncLevel::None`] — never fsync: every seal is a buffered write
//!   that lands immediately. On host crash, anything since the last
//!   kernel writeback may vanish; recovery still lands on a consistent
//!   sealed prefix because the lost suffix is a missing or torn tail.
//! * [`FsyncLevel::Block`] — fsync at every seal (a group of one). A
//!   block acknowledged here survives host crash.
//! * [`FsyncLevel::Group(n)`] — group commit: up to `n` consecutive
//!   seals accumulate in memory, then flush as ONE coalesced manifest
//!   write followed by ONE fsync. Amortizes the fsync cost over `n`
//!   blocks at the price of the last `< n` unflushed blocks on any
//!   crash — they never reached the file, so recovery simply does not
//!   see them.
//!
//! A buffered (unflushed) seal is invisible to recovery by
//! construction: its manifest line is still in memory. That is exactly
//! the shape the recovery path already tolerates, which is why group
//! commit needs no recovery-side changes — the kill-point sweep in
//! `tests/durable_store.rs` pins this at every level. Export forces a
//! flush first, so the copy holds every acknowledged block.

use super::{DurableStore, Inner, WalError};

/// How far a sealed block is pushed toward the platters before the
/// store acknowledges it. Parsed from `SCDB_FSYNC`
/// (`none` | `block` | `group:N`); the default is [`FsyncLevel::None`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncLevel {
    /// Never fsync: durable against process crash only.
    None,
    /// Fsync every seal — the commit point is the fsync'd seal.
    Block,
    /// Group commit: coalesce up to N consecutive seals into one
    /// buffered manifest write + one fsync.
    Group(usize),
}

impl FsyncLevel {
    /// The environment variable the default level is read from.
    pub const ENV: &'static str = "SCDB_FSYNC";

    /// Parses `none` | `block` | `group:N` (case-insensitive).
    pub fn parse(s: &str) -> Option<FsyncLevel> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "" | "none" => Some(FsyncLevel::None),
            "block" => Some(FsyncLevel::Block),
            _ => {
                let n = s.strip_prefix("group:")?.parse::<usize>().ok()?;
                Some(FsyncLevel::Group(n.max(1)))
            }
        }
    }

    /// The level `SCDB_FSYNC` names, or [`FsyncLevel::None`] when the
    /// variable is unset or unparseable.
    pub fn from_env() -> FsyncLevel {
        std::env::var(Self::ENV)
            .ok()
            .and_then(|v| FsyncLevel::parse(&v))
            .unwrap_or(FsyncLevel::None)
    }

    /// Seals buffered per flush: `None` means "never buffer, never
    /// fsync" (level `none`); `block` is a group of one.
    pub(super) fn group_size(self) -> Option<usize> {
        match self {
            FsyncLevel::None => None,
            FsyncLevel::Block => Some(1),
            FsyncLevel::Group(n) => Some(n.max(1)),
        }
    }

    /// The `SCDB_FSYNC` spelling of this level (bench report labels).
    pub fn label(&self) -> String {
        match self {
            FsyncLevel::None => "none".to_owned(),
            FsyncLevel::Block => "block".to_owned(),
            FsyncLevel::Group(n) => format!("group:{n}"),
        }
    }
}

impl DurableStore {
    /// Sets the durability level. Call on the owned store before
    /// sharing it (the node does, right after open), like
    /// [`DurableStore::set_telemetry`].
    pub fn set_fsync(&mut self, level: FsyncLevel) {
        self.fsync = level;
    }

    /// The configured durability level.
    pub fn fsync_level(&self) -> FsyncLevel {
        self.fsync
    }

    /// Seals accepted but not yet flushed to the manifest (always 0 at
    /// level `none` and after [`DurableStore::flush_group`]).
    pub fn pending_seals(&self) -> usize {
        self.inner.lock().pending_seals.len()
    }

    /// Forces the buffered seal group to disk — the clean-shutdown (or
    /// end-of-stream) flush at `group:N`. A process that exits without
    /// flushing loses its buffered seals exactly like a crash would:
    /// recovery never sees them. A latched store refuses at every
    /// level: a seal it accepted may not be on disk, so it never reads
    /// as flushed.
    pub fn flush_group(&self) -> Result<(), WalError> {
        let mut inner = self.inner.lock();
        inner.guard()?;
        self.flush_group_locked(&mut inner)
    }

    /// The group flush: ONE coalesced manifest write of every buffered
    /// seal line, then ONE fsync — the whole group's commit point. The
    /// coalesced write is a single crash-injection boundary: torn
    /// mid-chunk it leaves whole leading seals plus one torn line, the
    /// tail shape recovery already discards. The buffer empties only
    /// once the group is on disk: a failed flush latches the store with
    /// its seals still counted as pending, so neither
    /// [`DurableStore::pending_seals`] nor a later flush ever reports
    /// them durable. The `durable.pending_seals` gauge reads the
    /// buffer after every flush, failed ones included.
    pub(super) fn flush_group_locked(&self, inner: &mut Inner) -> Result<(), WalError> {
        let flushed = self.write_group(inner);
        self.telemetry
            .gauge_set("durable.pending_seals", inner.pending_seals.len() as i64);
        flushed
    }

    fn write_group(&self, inner: &mut Inner) -> Result<(), WalError> {
        if inner.pending_seals.is_empty() {
            return Ok(());
        }
        inner.guard()?;
        let chunk = inner.pending_seals.concat();
        inner
            .append(chunk.as_bytes(), true)
            .inspect_err(|_| self.telemetry.incr("durable.write_failures"))?;
        let group = inner.pending_seals.len() as u64;
        inner.pending_seals.clear();
        self.telemetry.incr("durable.fsyncs");
        self.telemetry.observe_ns("durable.group_size", group);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{block, Scratch};
    use super::*;
    use crate::utxo::UtxoSet;

    #[test]
    fn fsync_level_parses_the_env_syntax() {
        assert_eq!(FsyncLevel::parse("none"), Some(FsyncLevel::None));
        assert_eq!(FsyncLevel::parse(""), Some(FsyncLevel::None));
        assert_eq!(FsyncLevel::parse("Block"), Some(FsyncLevel::Block));
        assert_eq!(FsyncLevel::parse("group:8"), Some(FsyncLevel::Group(8)));
        // A zero group degrades to one, never to "never flush".
        assert_eq!(FsyncLevel::parse("group:0"), Some(FsyncLevel::Group(1)));
        assert_eq!(FsyncLevel::parse("garbage"), None);
        assert_eq!(FsyncLevel::parse("group:x"), None);
        assert_eq!(FsyncLevel::Group(8).label(), "group:8");
    }

    #[test]
    fn group_seals_buffer_until_the_group_fills() {
        let scratch = Scratch::new("group-buffer");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Group(2));
        let live = UtxoSet::with_shards(4);

        block(&store, &live, "aaaa");
        // One seal buffered: on-disk recovery still sees height 0.
        assert_eq!(store.pending_seals(), 1);
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 0);

        block(&store, &live, "bbbb");
        // The group filled and flushed: both seals are durable.
        assert_eq!(store.pending_seals(), 0);
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 2);
        assert_eq!(rec.digest, live.state_digest());
    }

    #[test]
    fn unflushed_group_seals_are_lost_like_a_crash() {
        let scratch = Scratch::new("group-lost");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Group(3));
        block(&store, &UtxoSet::with_shards(4), "aaaa");
        assert_eq!(store.pending_seals(), 1);
        // The process dies with the seal still buffered: the block
        // never happened.
        drop(store);
        let (mut store, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 0);
        assert!(rec.committed.is_empty());

        // An explicit flush is the clean shutdown.
        store.set_fsync(FsyncLevel::Group(3));
        let live = UtxoSet::with_shards(4);
        block(&store, &live, "bbbb");
        store.flush_group().expect("flush");
        assert_eq!(store.pending_seals(), 0);
        drop(store);
        let (_, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, live.state_digest());
    }

    #[test]
    fn block_level_flushes_every_seal() {
        let scratch = Scratch::new("block-level");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Block);
        let live = UtxoSet::with_shards(4);
        block(&store, &live, "aaaa");
        assert_eq!(store.pending_seals(), 0);
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, live.state_digest());
    }

    #[test]
    fn a_failed_flush_keeps_its_seals_pending_and_latches() {
        let scratch = Scratch::new("group-failed-flush");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Group(2));
        let live = UtxoSet::with_shards(4);
        block(&store, &live, "aaaa");
        store.inject_io_failure();
        // The second seal fills the group; the flush it triggers fails.
        assert!(store.seal_block(&[], &live.state_digest()).is_err());
        assert!(store.guard().is_err());
        // Neither seal is reported durable, now or by a later flush.
        assert_eq!(store.next_height() - store.pending_seals() as u64, 0);
        assert!(store.flush_group().is_err());
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 0);
    }

    /// A short write of a group of seals leaves none of them behind:
    /// the whole leading lines that landed are cut back off with the
    /// torn one, so a reopen does not read a refused flush as sealed.
    #[test]
    fn a_short_group_write_leaves_no_seal_behind() {
        let scratch = Scratch::new("group-short-write");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Group(4));
        let live = UtxoSet::with_shards(4);
        for tx in ["aaaa", "bbbb", "cccc"] {
            block(&store, &live, tx);
        }
        // Half the coalesced write holds the first seal line whole.
        let lines: Vec<usize> = store
            .inner
            .lock()
            .pending_seals
            .iter()
            .map(String::len)
            .collect();
        assert!(2 * lines[0] <= lines.iter().sum::<usize>());
        store.inject_io_failure();
        // The fourth seal fills the group; half its coalesced write
        // lands, then the write errs.
        match store.seal_block(&[], &live.state_digest()) {
            Err(WalError::Io(e)) => assert!(e.to_string().contains("short write"), "{e}"),
            other => panic!("the short write is refused, got {other:?}"),
        }
        assert!(store.guard().is_err());
        assert_eq!(store.pending_seals(), 4);
        drop(store);
        let (_, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 0);
        assert!(rec.committed.is_empty());
        assert_eq!(rec.tail_discards, 0, "nothing torn is left to trim");
    }

    #[test]
    fn a_failed_group_fsync_keeps_its_seals_pending_and_latches() {
        let scratch = Scratch::new("group-failed-sync");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Group(4));
        let live = UtxoSet::with_shards(4);
        for tx in ["aaaa", "bbbb", "cccc"] {
            block(&store, &live, tx);
        }
        store.inject_sync_failure();
        // The fourth seal fills the group; its write lands and its
        // fsync fails.
        assert!(store.seal_block(&[], &live.state_digest()).is_err());
        assert!(store.guard().is_err());
        assert_eq!(store.pending_seals(), 4);
        assert_eq!(store.next_height() - store.pending_seals() as u64, 0);
        assert!(store.flush_group().is_err());
        drop(store);
        let (_, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 0);
        assert!(rec.committed.is_empty());
    }
}
