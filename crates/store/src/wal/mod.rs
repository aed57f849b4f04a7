//! Durable store: the chain is the log. One append-only block manifest,
//! sealed per block, and fail-closed recovery by re-execution.
//!
//! The durability protocol (DESIGN-store.md carries the full argument):
//!
//! * **One file, one writer.** `wal/manifest.jsonl` is the store's only
//!   file and [`DurableStore::seal_block`] the only function that
//!   appends to it. After a block applies, one seal line lands: height,
//!   the committed transaction documents in commit order, and the
//!   post-block [`StateDigest`]. The seal is the block's commit point;
//!   a torn final line is discarded as a torn write, never an error.
//! * **Recovery is re-execution.** [`DurableStore::recover`] reads the
//!   seals and replays nothing: it returns the documents in commit
//!   order with each seal's `(document count, digest)`, and the caller
//!   re-executes them from genesis, checking the replayed digest at
//!   every seal boundary (`LedgerState::restore` in `scdb-core`).
//! * **Tunable durability.** [`FsyncLevel`] picks how far the commit
//!   point is pushed toward the platters: `none` never fsyncs (process
//!   crash safe), `block` fsyncs every seal, and `group:N` coalesces up
//!   to N consecutive seals into one buffered manifest write plus one
//!   fsync (group commit — the [`group`] module).
//! * **Fail-closed.** Anything structurally wrong *before* the tail — an
//!   unreadable line, a gapped seal sequence, files of the retired
//!   per-shard / checkpoint layout whose history the manifest does not
//!   hold — is [`WalError::Corrupt`], never a silent partial restore.
//!   Runtime write failures latch the store: after the first append or
//!   fsync error every later seal is refused ([`DurableStore::guard`]
//!   lets a commit path ask *before* it touches memory), and reopening
//!   recovers the last durable seal. A failed write or fsync first cuts
//!   the manifest back to its length before that write, so a reopen
//!   never reads a refused seal as sealed.
//!
//! Crash injection for the recovery tests is built in: after
//! [`DurableStore::inject_crash_after`], the n-th following manifest
//! write is torn mid-line and every later write silently vanishes,
//! modeling a process kill at an arbitrary point in the write stream.
//! [`DurableStore::inject_io_failure`] instead makes the next write
//! *fail* after half its bytes landed (a short write and an I/O error
//! the caller sees), driving the fail-closed error path, and [`DurableStore::inject_sync_failure`] fails the next
//! fsync after its write landed.

mod export;
mod group;

pub use export::ExportStats;
pub use group::FsyncLevel;

use crate::utxo::StateDigest;
use parking_lot::Mutex;
use scdb_json::Value;
use scdb_telemetry::Telemetry;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Why the durable store refused to open, recover, or seal.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// A manifest invariant does not hold. Fail-closed: the store never
    /// "recovers" a state it cannot prove complete.
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "durable store io error: {e}"),
            WalError::Corrupt(why) => write!(f, "durable store corrupt: {why}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// What [`DurableStore::recover`] read off the manifest: the sealed
/// chain, for the caller to re-execute.
pub struct RecoveredState {
    /// The last seal's post-block digest ([`StateDigest::EMPTY`] for an
    /// empty chain).
    pub digest: StateDigest,
    /// Number of sealed blocks — the next block height to seal.
    pub height: u64,
    /// Committed transaction documents in commit order.
    pub committed: Vec<Value>,
    /// Per seal, in height order: how many of `committed` the block
    /// holds and the digest the state must carry once they applied.
    pub seals: Vec<(usize, StateDigest)>,
    /// Lines physically dropped at open because they sat past the last
    /// whole seal (a torn write from a crash). Zero on a clean open;
    /// [`DurableStore::recover`] alone (no trim) reports 0.
    pub tail_discards: u64,
}

const WAL_DIR: &str = "wal";

pub(super) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(WAL_DIR).join("manifest.jsonl")
}

/// A manifest write step the one-shot fault switch can fail.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Half the write's bytes land, then it errs: a short write.
    Write,
    /// The bytes land, then the fsync that should make them durable errs.
    Sync,
}

/// Mutable half of the store: the append handle plus the height cursor,
/// the group-commit seal buffer, and the crash/failure injection
/// switches.
pub(super) struct Inner {
    manifest: File,
    /// The manifest's byte length: set at open, advanced by each write
    /// that succeeded, and what a failed write or sync cuts the file
    /// back to.
    len: u64,
    /// Height of the next block to seal.
    pub(super) height: u64,
    /// Seal lines accepted but not yet written + fsynced (levels
    /// `block`/`group:N` only; always empty at level `none`).
    pub(super) pending_seals: Vec<String>,
    /// Crash injection: full writes remaining before the torn one.
    /// `None` = no crash scheduled.
    writes_left: Option<u64>,
    /// Once true, every write silently vanishes (the process "died").
    tripped: bool,
    /// One-shot injected I/O failure: the next write or sync errs.
    fault: Option<Fault>,
    /// Fail-closed latch: the first write error freezes the store.
    /// Holds the original error text; cleared only by reopening.
    poisoned: Option<String>,
}

impl Inner {
    /// Refuses mutations once the fail-closed latch is set.
    pub(super) fn guard(&self) -> Result<(), WalError> {
        match &self.poisoned {
            Some(why) => Err(WalError::Io(std::io::Error::other(format!(
                "store failed closed after an earlier write error ({why}); reopen to recover"
            )))),
            None => Ok(()),
        }
    }

    /// Appends whole, newline-terminated seal lines in one write and,
    /// with `sync`, fsyncs them. Honors the crash switch — the write
    /// that trips it lands only half its bytes (whole leading lines
    /// plus one torn line, the tail shape recovery discards) and every
    /// write and sync after it is a no-op — and latches the store on a
    /// real or injected failure. A failed write or sync first cuts the
    /// manifest back to its length before this write, so no reopen
    /// reads a refused seal as sealed: not the whole leading lines of a
    /// short write, not the lines of a write whose sync failed.
    pub(super) fn append(&mut self, bytes: &[u8], sync: bool) -> Result<(), WalError> {
        let written = self.write(bytes, sync);
        if let Err(e) = &written {
            self.poisoned = Some(e.to_string());
        }
        written.map_err(WalError::Io)
    }

    fn write(&mut self, bytes: &[u8], sync: bool) -> std::io::Result<()> {
        if self.tripped {
            return Ok(());
        }
        match &mut self.writes_left {
            Some(0) => {
                self.tripped = true;
                return self.manifest.write_all(&bytes[..bytes.len() / 2]);
            }
            Some(n) => *n -= 1,
            None => {}
        }
        if let Err(e) = self.land(bytes, sync) {
            return Err(match self.manifest.set_len(self.len) {
                Ok(()) => e,
                Err(cut) => std::io::Error::other(format!(
                    "{e}; cutting the refused seals back off the manifest failed too: {cut}"
                )),
            });
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Writes and, with `sync`, fsyncs `bytes`, failing where the
    /// one-shot fault switch says: an injected write failure lands half
    /// the bytes first (a short write, the shape `ENOSPC` mid-write
    /// leaves), an injected sync failure errs after the write landed.
    fn land(&mut self, bytes: &[u8], sync: bool) -> std::io::Result<()> {
        if self.fault.take_if(|fault| *fault == Fault::Write).is_some() {
            let half = bytes.len() / 2;
            self.manifest.write_all(&bytes[..half])?;
            return Err(std::io::Error::other(format!(
                "injected WAL short write: {half} of {} bytes landed",
                bytes.len()
            )));
        }
        self.manifest.write_all(bytes)?;
        if !sync {
            return Ok(());
        }
        match self.fault.take_if(|fault| *fault == Fault::Sync) {
            Some(_) => Err(std::io::Error::other("injected WAL fsync failure")),
            None => self.manifest.sync_data(),
        }
    }
}

/// One manifest seal record: a block's commit point.
struct Seal {
    h: u64,
    txs: Vec<Value>,
    digest: StateDigest,
}

/// Reads one seal line, moving the documents out of the parsed tree.
fn parse_seal(line: &[u8]) -> Option<Seal> {
    let mut v = scdb_json::parse(std::str::from_utf8(line).ok()?).ok()?;
    if v.get("k")?.as_str()? != "seal" {
        return None;
    }
    Some(Seal {
        h: v.get("h")?.as_u64()?,
        digest: StateDigest::from_hex(v.get("d")?.as_str()?)?,
        txs: std::mem::take(v.get_mut("txs")?.as_array_mut()?),
    })
}

/// Reads the manifest with torn-tail tolerance: an unreadable (or
/// unterminated) *final* line is a torn write and is discarded; an
/// unreadable line or a height gap anywhere before it is corruption.
/// Returns the seals, the byte length of the whole-seal prefix, and
/// whether a torn tail follows it.
fn read_manifest(path: &Path) -> Result<(Vec<Seal>, usize, bool), WalError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut seals: Vec<Seal> = Vec::new();
    let mut sealed_len = 0;
    let mut rest = bytes.as_slice();
    while !rest.is_empty() {
        let (line, terminated) = match rest.iter().position(|&b| b == b'\n') {
            Some(at) => (&rest[..at], true),
            None => (rest, false),
        };
        rest = &rest[line.len() + usize::from(terminated)..];
        if line.trim_ascii().is_empty() {
            continue;
        }
        match parse_seal(line).filter(|_| terminated) {
            Some(seal) if seal.h == seals.len() as u64 => {
                seals.push(seal);
                sealed_len = bytes.len() - rest.len();
            }
            Some(seal) => {
                return Err(WalError::Corrupt(format!(
                    "manifest seal gap: expected height {}, found {}",
                    seals.len(),
                    seal.h
                )))
            }
            None if rest.trim_ascii().is_empty() => return Ok((seals, sealed_len, true)),
            None => {
                return Err(WalError::Corrupt(format!(
                    "manifest: unreadable record where the seal of height {} belongs",
                    seals.len()
                )))
            }
        }
    }
    Ok((seals, sealed_len, false))
}

/// Refuses a directory still holding files of the retired layout — a
/// `ckpt-<h>/` snapshot or a non-empty `wal/shard-<s>.jsonl`: the
/// history they carry is not in the manifest, so opening it would
/// present a shorter chain as the whole one.
fn refuse_retired_layout(dir: &Path) -> Result<(), WalError> {
    for (root, prefix) in [(dir.to_path_buf(), "ckpt-"), (dir.join(WAL_DIR), "shard-")] {
        let entries = match fs::read_dir(&root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            // A shard file was created empty at every open and carries
            // history only once a record was logged into it.
            if name.starts_with(prefix) && (prefix == "ckpt-" || entry.metadata()?.len() > 0) {
                return Err(WalError::Corrupt(format!(
                    "{} holds {name} from the retired checkpoint / per-shard layout; \
                     its history is not in the manifest",
                    root.display()
                )));
            }
        }
    }
    Ok(())
}

/// The sealed chain at `dir` plus the manifest's whole-seal byte length
/// and whether a torn tail follows it.
fn read_sealed(dir: &Path) -> Result<(RecoveredState, usize, bool), WalError> {
    refuse_retired_layout(dir)?;
    let (seals, sealed_len, torn) = read_manifest(&manifest_path(dir))?;
    let recovered = RecoveredState {
        digest: seals.last().map_or(StateDigest::EMPTY, |s| s.digest),
        height: seals.len() as u64,
        seals: seals.iter().map(|s| (s.txs.len(), s.digest)).collect(),
        committed: seals.into_iter().flat_map(|s| s.txs).collect(),
        tail_discards: 0,
    };
    Ok((recovered, sealed_len, torn))
}

/// The file-backed durable store for one node: the block manifest under
/// `<dir>/wal/`.
pub struct DurableStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Durability level — how seals reach the platters. Fixed before
    /// the store is shared (the owning node sets it right after open).
    fsync: FsyncLevel,
    /// Runtime telemetry (disabled by default; the owning node attaches
    /// its handle before sharing the store). Records seal latency,
    /// manifest byte volume, fsyncs and group sizes under `durable.*`.
    telemetry: Telemetry,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DurableStore({})", self.dir.display())
    }
}

impl DurableStore {
    /// Opens (creating if absent) the durable store at `dir`, reading
    /// the sealed chain first: the returned [`RecoveredState`] is what
    /// the caller re-executes, and the manifest is cut back to its last
    /// whole seal so new appends extend a clean log (a torn tail from a
    /// previous crash is physically dropped here).
    pub fn open(dir: impl Into<PathBuf>) -> Result<(DurableStore, RecoveredState), WalError> {
        let dir = dir.into();
        fs::create_dir_all(dir.join(WAL_DIR))?;
        let (mut recovered, sealed_len, torn) = read_sealed(&dir)?;
        let manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(manifest_path(&dir))?;
        if torn {
            manifest.set_len(sealed_len as u64)?;
            recovered.tail_discards = 1;
        }
        let len = manifest.metadata()?.len();
        let store = DurableStore {
            dir,
            inner: Mutex::new(Inner {
                manifest,
                len,
                height: recovered.height,
                pending_seals: Vec::new(),
                writes_left: None,
                tripped: false,
                fault: None,
                poisoned: None,
            }),
            fsync: FsyncLevel::None,
            telemetry: Telemetry::disabled(),
        };
        Ok((store, recovered))
    }

    /// Attaches a telemetry handle. Call on the owned store before
    /// sharing it (the node does, right after open); the handle is the
    /// same registry the pipeline's `PipelineOptions` carries.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The store's on-disk root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Height of the next block to seal.
    pub fn next_height(&self) -> u64 {
        self.inner.lock().height
    }

    /// Schedules a simulated crash: `writes` more manifest writes land
    /// whole, the next one is torn mid-line, and everything after it
    /// vanishes — the store keeps accepting calls (the in-memory node
    /// does not know it "died") but the disk stops moving.
    pub fn inject_crash_after(&self, writes: u64) {
        self.inner.lock().writes_left = Some(writes);
    }

    /// Whether an injected crash has tripped.
    pub fn crash_tripped(&self) -> bool {
        self.inner.lock().tripped
    }

    /// Makes the next manifest write fail with an I/O error the caller
    /// sees (unlike [`DurableStore::inject_crash_after`], which fails
    /// silently) after half its bytes landed, the short write a full
    /// disk leaves. The store cuts the landed bytes back off and
    /// latches fail-closed.
    pub fn inject_io_failure(&self) {
        self.inner.lock().fault = Some(Fault::Write);
    }

    /// Makes the next manifest fsync fail after its write landed: the
    /// store cuts the unsynced lines back off and latches. Only levels
    /// `block` and `group:N` sync; at `none` the switch stays armed.
    pub fn inject_sync_failure(&self) {
        self.inner.lock().fault = Some(Fault::Sync);
    }

    /// `Err` once a write error latched the store fail-closed. A seal is
    /// written after its block applied, so a commit path asks here
    /// *before* it touches memory: the block whose seal is refused is
    /// the last one the in-memory state ever runs ahead of the log by.
    pub fn guard(&self) -> Result<(), WalError> {
        self.inner.lock().guard()
    }

    /// Seals a block — the store's only append. `committed` is the
    /// block's committed transaction documents in commit order;
    /// `digest` is the post-block state digest re-execution must
    /// reproduce at this boundary. Returns the sealed height.
    ///
    /// At [`FsyncLevel::None`] the seal lands immediately with a
    /// buffered write (no fsync). At `block`/`group:N` the seal joins
    /// the group buffer and becomes durable at the next group flush —
    /// one coalesced manifest write + one fsync.
    pub fn seal_block(&self, committed: &[Value], digest: &StateDigest) -> Result<u64, WalError> {
        use std::fmt::Write as _;
        let _span = self.telemetry.span("durable.seal_ns");
        let mut inner = self.inner.lock();
        inner.guard()?;
        // Streamed by hand (sorted keys, matching the `Value` writer
        // byte for byte) so the committed documents — the bulk of the
        // line — serialize from borrows instead of being cloned into a
        // temporary tree first.
        let mut line = String::with_capacity(128 + committed.len() * 256);
        line.push_str("{\"d\":");
        Value::from(digest.to_hex()).write_compact(&mut line);
        let _ = write!(line, ",\"h\":{},\"k\":\"seal\",\"txs\":[", inner.height);
        for (i, tx) in committed.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            tx.write_compact(&mut line);
        }
        line.push_str("]}\n");
        let line_bytes = line.len() as u64;
        let sealed = inner.height;
        match self.fsync.group_size() {
            None => {
                inner
                    .append(line.as_bytes(), false)
                    .inspect_err(|_| self.telemetry.incr("durable.write_failures"))?;
                inner.height += 1;
            }
            Some(group) => {
                inner.pending_seals.push(line);
                inner.height += 1;
                self.telemetry
                    .gauge_set("durable.pending_seals", inner.pending_seals.len() as i64);
                if inner.pending_seals.len() >= group {
                    self.flush_group_locked(&mut inner)?;
                }
            }
        }
        drop(inner);
        self.telemetry.incr("durable.blocks_sealed");
        self.telemetry.add("durable.wal_bytes", line_bytes);
        Ok(sealed)
    }

    /// Reads the sealed chain at `dir` for re-execution: every whole
    /// seal in height order, a torn tail discarded, every other
    /// irregularity [`WalError::Corrupt`]. Replays nothing — whether the
    /// documents reproduce each seal's digest is the re-executing
    /// caller's check. `_shards` is unused (the manifest is not
    /// partitioned); the parameter goes with the next `benchmark` PR.
    pub fn recover(dir: &Path, _shards: usize) -> Result<RecoveredState, WalError> {
        Ok(read_sealed(dir)?.0)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::utxo::{OutputRef, Utxo, UtxoSet};
    use proptest::prelude::*;
    use scdb_json::obj;

    /// Self-cleaning scratch directory.
    pub(in crate::wal) struct Scratch(PathBuf);

    impl Scratch {
        pub(in crate::wal) fn new(name: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("scdb-wal-test-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }

        pub(in crate::wal) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Commits one block creating output 0 of `tx` on the live set (the
    /// stand-in for the executing ledger) and seals it.
    pub(in crate::wal) fn block(store: &DurableStore, live: &UtxoSet, tx: &str) {
        live.add(
            OutputRef::new(tx, 0),
            Utxo {
                owners: vec!["owner".to_owned()],
                previous_owners: Vec::new(),
                amount: 1,
                asset_id: "asset".to_owned(),
                spent_by: None,
            },
        );
        store
            .seal_block(&[obj! { "id" => tx }], &live.state_digest())
            .expect("seal");
    }

    fn ids(rec: &RecoveredState) -> Vec<&str> {
        rec.committed
            .iter()
            .map(|d| d.get("id").and_then(Value::as_str).unwrap())
            .collect()
    }

    fn append_raw(dir: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .append(true)
            .open(manifest_path(dir))
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn round_trips_sealed_blocks() {
        let scratch = Scratch::new("round-trip");
        let (store, rec) = DurableStore::open(scratch.path()).expect("open");
        assert_eq!(rec.height, 0);
        assert!(rec.committed.is_empty());
        let live = UtxoSet::new();

        block(&store, &live, "aaaa");
        let first = live.state_digest();
        block(&store, &live, "bbbb");

        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 2);
        assert_eq!(rec.digest, live.state_digest());
        assert_eq!(rec.seals, [(1, first), (1, live.state_digest())]);
        assert_eq!(ids(&rec), ["aaaa", "bbbb"]);
        // The manifest is the directory's only file.
        let wal: Vec<_> = fs::read_dir(scratch.path().join(WAL_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(wal, ["manifest.jsonl"]);
        assert_eq!(fs::read_dir(scratch.path()).unwrap().count(), 1);
    }

    #[test]
    fn seal_line_matches_the_value_writer_byte_for_byte() {
        // `seal_block` streams its manifest record by hand; this pins
        // the hand-rolled bytes to what serializing an equivalent
        // `Value` tree produces, escapes and key order included.
        let scratch = Scratch::new("seal-bytes");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let committed = vec![
            obj! { "id" => "aaaa", "note" => "quote \" slash \\ tab \t nl \n unicode é" },
            obj! { "id" => "bbbb", "n" => 7u64 },
        ];
        store
            .seal_block(&committed, &StateDigest::EMPTY)
            .expect("seal");

        let mut doc = Value::object();
        doc.insert("k", "seal");
        doc.insert("h", 0u64);
        doc.insert("txs", committed);
        doc.insert("d", StateDigest::EMPTY.to_hex());
        let manifest = fs::read_to_string(manifest_path(scratch.path())).expect("read");
        assert_eq!(manifest, format!("{}\n", doc.to_compact_string()));
    }

    #[test]
    fn unsealed_tail_is_discarded() {
        let scratch = Scratch::new("unsealed-tail");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        drop(store);
        // A whole final line that is no seal (here: a record of the
        // retired per-shard format) commits nothing.
        append_raw(scratch.path(), b"{\"ad\":[],\"h\":1,\"sp\":[],\"w\":0}\n");

        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, live.state_digest());
        assert_eq!(ids(&rec), ["aaaa"]);
    }

    #[test]
    fn torn_final_lines_are_discarded() {
        let scratch = Scratch::new("torn-tail");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        drop(store);
        // Half a record, no newline — torn inside a multi-byte
        // character, so the tail is not even UTF-8.
        append_raw(
            scratch.path(),
            b"{\"d\":\"00\",\"h\":1,\"k\":\"seal\",\"txs\":[{\"note\":\"\xc3",
        );
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, live.state_digest());

        // A seal that parses but never got its newline is torn too: the
        // next append would otherwise run into it.
        let (store, rec) = DurableStore::open(scratch.path()).expect("reopen trims");
        assert_eq!(rec.tail_discards, 1);
        drop(store);
        let seal = format!(
            "{{\"d\":\"{}\",\"h\":1,\"k\":\"seal\",\"txs\":[]}}",
            live.state_digest().to_hex()
        );
        append_raw(scratch.path(), seal.as_bytes());
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 1);
    }

    #[test]
    fn mid_file_corruption_fails_closed() {
        let scratch = Scratch::new("mid-corrupt");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        block(&store, &live, "bbbb");
        drop(store);
        let path = manifest_path(scratch.path());
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("not json\n{text}")).unwrap();
        assert!(matches!(
            DurableStore::recover(scratch.path(), 4),
            Err(WalError::Corrupt(_))
        ));
        // A missing height in the middle is a gap, not a shorter chain.
        let second = text.lines().nth(1).unwrap();
        fs::write(&path, format!("{second}\n")).unwrap();
        assert!(matches!(
            DurableStore::recover(scratch.path(), 4),
            Err(WalError::Corrupt(why)) if why.contains("gap")
        ));
    }

    #[test]
    fn retired_layouts_are_refused() {
        for stale in ["ckpt-3/meta.json", "wal/shard-0.jsonl"] {
            let scratch = Scratch::new("retired-layout");
            let (store, _) = DurableStore::open(scratch.path()).expect("open");
            block(&store, &UtxoSet::new(), "aaaa");
            drop(store);
            let path = scratch.path().join(stale);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            // An empty shard file carries no history and is tolerated.
            fs::write(&path, "").unwrap();
            assert_eq!(
                DurableStore::recover(scratch.path(), 4).is_ok(),
                stale.starts_with("wal/"),
                "{stale} (empty)"
            );
            fs::write(&path, "{\"ad\":[],\"h\":9,\"sp\":[],\"w\":0}\n").unwrap();
            assert!(
                matches!(
                    DurableStore::open(scratch.path()),
                    Err(WalError::Corrupt(_))
                ),
                "{stale}"
            );
        }
    }

    #[test]
    fn injected_crash_tears_the_next_write() {
        let scratch = Scratch::new("crash-now");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        store.inject_crash_after(0);
        store
            .seal_block(&[obj! { "id" => "aaaa" }], &StateDigest::EMPTY)
            .expect("seal");
        assert!(store.crash_tripped());

        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 0);
        assert!(rec.committed.is_empty());
    }

    #[test]
    fn injected_crash_after_whole_blocks_preserves_them() {
        let scratch = Scratch::new("crash-later");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        // A block costs one write: its seal.
        store.inject_crash_after(1);
        block(&store, &live, "aaaa");
        let sealed_digest = live.state_digest();
        assert!(!store.crash_tripped());
        block(&store, &live, "bbbb");
        assert!(store.crash_tripped());

        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, sealed_digest);
    }

    #[test]
    fn reopen_trims_unsealed_tail_and_appends_cleanly() {
        let scratch = Scratch::new("reopen");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        // Block 1's seal is torn by the dying process.
        store.inject_crash_after(0);
        block(&store, &live, "dead");
        drop(store);

        let (store, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.tail_discards, 1);
        assert_eq!(store.next_height(), 1);
        // Without the open-time trim, the next seal would land on the
        // torn line and read back as mid-file corruption.
        block(&store, &live, "bbbb");
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 2);
        assert_eq!(rec.digest, live.state_digest());
        assert_eq!(ids(&rec), ["aaaa", "bbbb"]);
    }

    #[test]
    fn export_clones_a_recoverable_copy() {
        let scratch = Scratch::new("export-src");
        let target = Scratch::new("export-dst");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        block(&store, &live, "bbbb");
        let stats = store.export_to(target.path()).expect("export");
        assert!(!stats.incremental, "empty target must take the full path");

        let rec = DurableStore::recover(target.path(), 4).expect("recover copy");
        assert_eq!(rec.height, 2);
        assert_eq!(rec.digest, live.state_digest());
        assert_eq!(
            fs::read(manifest_path(target.path())).unwrap(),
            fs::read(manifest_path(scratch.path())).unwrap()
        );
    }

    #[test]
    fn recovering_a_missing_dir_is_the_empty_state() {
        let scratch = Scratch::new("missing");
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 0);
        assert_eq!(rec.digest, StateDigest::EMPTY);
        assert!(rec.committed.is_empty() && rec.seals.is_empty());
    }

    #[test]
    fn injected_write_failure_latches_the_store_fail_closed() {
        let scratch = Scratch::new("io-failure");
        let (store, _) = DurableStore::open(scratch.path()).expect("open");
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        // The failing writer surfaces as an error instead of a panic...
        store.inject_io_failure();
        assert!(store.guard().is_ok());
        assert!(matches!(
            store.seal_block(&[obj! { "id" => "bbbb" }], &live.state_digest()),
            Err(WalError::Io(_))
        ));
        // ...and latches: the guard and every later seal refuse.
        assert!(store.guard().is_err());
        assert!(store
            .seal_block(&[obj! { "id" => "cccc" }], &live.state_digest())
            .is_err());
        assert_eq!(store.next_height(), 1, "a refused seal takes no height");
        drop(store);

        // Reopen recovers the last durable seal and unlatches.
        let (store, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 1);
        block(&store, &live, "dddd");
        let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
        assert_eq!(rec.height, 2);
    }

    #[test]
    fn a_failed_fsync_leaves_no_seal_behind() {
        let scratch = Scratch::new("sync-failure");
        let (mut store, _) = DurableStore::open(scratch.path()).expect("open");
        store.set_fsync(FsyncLevel::Block);
        let live = UtxoSet::new();
        block(&store, &live, "aaaa");
        let sealed = live.state_digest();
        // Block 2's line lands, its fsync fails: the seal is refused and
        // the store latches.
        store.inject_sync_failure();
        assert!(matches!(
            store.seal_block(&[obj! { "id" => "bbbb" }], &StateDigest::EMPTY),
            Err(WalError::Io(_))
        ));
        assert!(store.guard().is_err());
        drop(store);

        // The refused seal is not on the manifest for a reopen to read.
        let (_, rec) = DurableStore::open(scratch.path()).expect("reopen");
        assert_eq!(rec.height, 1);
        assert_eq!(rec.digest, sealed);
        assert_eq!(ids(&rec), ["aaaa"]);
    }

    /// Per seal, in height order: its documents and its digest.
    type Seals = Vec<(Vec<Value>, StateDigest)>;

    fn seals_of(rec: &RecoveredState) -> Seals {
        let mut docs = rec.committed.iter();
        rec.seals
            .iter()
            .map(|&(count, digest)| (docs.by_ref().take(count).cloned().collect(), digest))
            .collect()
    }

    /// The manifest a real store leaves after sealing four blocks (one
    /// holding two documents), and the seals it recovers to.
    fn sealed_manifest() -> &'static (Vec<u8>, Seals) {
        static MANIFEST: std::sync::OnceLock<(Vec<u8>, Seals)> = std::sync::OnceLock::new();
        MANIFEST.get_or_init(|| {
            let scratch = Scratch::new("hostile-source");
            let (store, _) = DurableStore::open(scratch.path()).expect("open");
            let live = UtxoSet::new();
            for tx in ["aaaa", "bbbb", "cccc"] {
                block(&store, &live, tx);
            }
            store
                .seal_block(
                    &[obj! { "id" => "dddd" }, obj! { "id" => "eeee", "n" => 7 }],
                    &live.state_digest(),
                )
                .expect("seal");
            let rec = DurableStore::recover(scratch.path(), 4).expect("recover");
            let bytes = fs::read(manifest_path(scratch.path())).expect("manifest");
            (bytes, seals_of(&rec))
        })
    }

    /// Opens a store whose manifest holds exactly `bytes`. On success the
    /// recovered state must be self-consistent, and a second open of the
    /// trimmed manifest must read the same seals with no tail left.
    fn open_hostile(bytes: &[u8]) -> Result<Option<Seals>, TestCaseError> {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let scratch = Scratch::new(&format!("hostile-{case}"));
        fs::create_dir_all(scratch.path().join(WAL_DIR)).expect("scratch dir");
        fs::write(manifest_path(scratch.path()), bytes).expect("scratch manifest");
        let Ok((store, rec)) = DurableStore::open(scratch.path()) else {
            return Ok(None);
        };
        drop(store);
        let seals = seals_of(&rec);
        prop_assert_eq!(rec.height, rec.seals.len() as u64);
        prop_assert_eq!(
            rec.committed.len(),
            seals.iter().map(|s| s.0.len()).sum::<usize>()
        );
        prop_assert_eq!(rec.digest, seals.last().map_or(StateDigest::EMPTY, |s| s.1));
        let (_, again) = DurableStore::open(scratch.path()).expect("a trimmed manifest reopens");
        prop_assert_eq!(again.tail_discards, 0);
        prop_assert_eq!(seals_of(&again), seals.clone());
        Ok(Some(seals))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary bytes, alone or behind a real manifest: `Err`, or
        /// a prefix of what the real manifest seals — its whole chain
        /// when the garbage only trails it.
        #[test]
        fn arbitrary_manifest_bytes_never_panic(
            garbage in prop::collection::vec(any::<u8>(), 0..256),
            behind_real in any::<bool>(),
        ) {
            let (real, original) = sealed_manifest();
            let mut bytes = if behind_real { real.clone() } else { Vec::new() };
            bytes.extend_from_slice(&garbage);
            if let Some(seals) = open_hostile(&bytes)? {
                prop_assert!(original.starts_with(&seals));
                if behind_real {
                    prop_assert_eq!(&seals, original);
                }
            }
        }

        /// One byte replaced, deleted or inserted: `Err`, or no more
        /// seals than the original, each equal to the original's at its
        /// height except the one on the mutated line. The manifest
        /// carries no checksum, so a byte flipped inside a document or
        /// a digest can read back as a different well-formed seal —
        /// the re-executing caller's digest check is what refuses it.
        #[test]
        fn one_byte_manifest_mutants_never_panic(
            at in any::<usize>(),
            byte in any::<u8>(),
            kind in 0usize..3,
        ) {
            let (real, original) = sealed_manifest();
            let mut bytes = real.clone();
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
            if let Some(seals) = open_hostile(&bytes)? {
                let mutated_line = real[..at].iter().filter(|&&b| b == b'\n').count();
                prop_assert!(seals.len() <= original.len());
                for (height, seal) in seals.iter().enumerate() {
                    if height != mutated_line {
                        prop_assert_eq!(seal, &original[height]);
                    }
                }
            }
        }

        /// A truncated manifest always opens, to exactly the seals whose
        /// lines survived whole.
        #[test]
        fn truncated_manifests_open_to_their_whole_seals(cut in any::<usize>()) {
            let (real, original) = sealed_manifest();
            let cut = cut % (real.len() + 1);
            let whole = real[..cut].iter().filter(|&&b| b == b'\n').count();
            let seals = open_hostile(&real[..cut])?;
            prop_assert_eq!(seals.as_deref(), Some(&original[..whole]));
        }
    }
}
