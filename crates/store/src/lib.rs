//! # alice-store
//!
//! A persistent, crash-safe, content-addressed artifact store: the
//! on-disk layer under `alice_core::db::DesignDb` and the CEC proof
//! cache. The in-memory `DesignDb` already makes repeated
//! characterizations free *within* a process; this crate makes them free
//! *across* processes, so a second `alice` CLI run (or an ARIANNA-style
//! parameter sweep of many invocations) starts warm.
//!
//! Layout: each artifact kind ([`Kind::Netlist`], [`Kind::LutMap`],
//! [`Kind::Fabric`], [`Kind::Cec`]) lives in **one segment file** under
//! the store directory ([`Kind::file_name`]: `netlists.v5.seg`,
//! `lutmaps.v5.seg`, `fabrics.v5.seg`, `cec.v5.seg`) behind **one lock**.
//! A file opens with a `magic · format-version · kind` header and holds a
//! flat sequence of records
//! `key(16) · payload_len(4) · payload · checksum(16)`, where the
//! checksum is a [`StableHasher`] digest of the **key and payload** (so
//! a key bit-flip cannot re-home a valid payload under the wrong content
//! address). A `put` or `get` locks only its kind, so they never contend
//! across kinds; a flush locks every kind and rewrites only the kinds
//! that changed.
//!
//! **Opens are lazy, reads are checked once.** [`Store::open`] scans
//! only the record framing, building an offset index
//! `key → (offset, len)` without reading a single payload byte —
//! O(records), not O(bytes). The first [`Store::get`] of a record reads
//! its payload and checksum with one positioned read through the kind's
//! held file handle, verifies the digest, and memoizes the bytes on the
//! heap; every later get hands out the same `Arc<Vec<u8>>` without
//! touching the disk again. A record that fails its read or its verify
//! degrades to a per-record miss.
//!
//! Each kind keeps its open-time file handle, so a concurrent writer's
//! atomic-rename commit never invalidates this handle's offsets: they
//! keep reading the original inode. A flush first merges a changed
//! kind's *current* file — it indexes that file the same way and reads
//! and verifies only the records another writer added — then rewrites
//! the kind to a tempfile, commits it with an atomic rename, and fsyncs
//! the store directory so the rename itself is durable; a crash can lose
//! the newest records but never corrupt existing ones (read-only runs
//! rewrite nothing but the access-stamp sidecar).
//!
//! **Robustness contract:** a corrupt, truncated, or version-mismatched
//! record (or whole file) silently degrades to a cache miss — the flow
//! recomputes and overwrites; nothing in this crate turns bad disk state
//! into an error for the caller, and no store bytes can abort the
//! process (the crate contains no `unsafe`). Framing damage (bad header,
//! truncated tail) is caught at open; payload damage is caught at
//! get-time, when the record is first verified. Bumping
//! [`FORMAT_VERSION`] invalidates every existing store: the store is a
//! cache, so older layouts (v2's `netlists.seg`, v3's eight
//! `netlists.NN.seg` shards per kind, v4's `netlists.v4.seg`) are never
//! read, never migrated and left untouched; their records are
//! recomputed.
//!
//! Eviction is explicit: [`Store::gc`] compacts to a byte budget,
//! dropping least-recently-accessed records first (access stamps live in
//! a sidecar index of `kind · key · stamp` entries).

#![forbid(unsafe_code)]

pub mod artifact;
pub mod codec;

pub use codec::{CodecError, Reader, Writer};

use alice_intern::StableHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static STORE_GETS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_store_gets_total",
    "Successful artifact-store gets across all handles",
);
static STORE_COPIED_GETS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_store_copied_gets_total",
    "Store gets that read and verified a payload off disk",
);
static STORE_BYTES_COPIED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_store_bytes_copied_total",
    "Payload bytes read off disk by store gets",
);
static STORE_SEGMENT_FLUSHES: alice_obs::Counter = alice_obs::Counter::new(
    "alice_store_shard_flushes_total",
    "Segment rewrites (one kind's file each) committed by store flushes",
);

/// A 128-bit content-addressed key (the same shape `DesignDb` uses).
pub type Key = (u64, u64);

/// The magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"ALICSTOR";

/// The on-disk format version. Version 2 folded the record key into the
/// per-record checksum; version 3 split every kind over eight shard
/// files; version 4 keeps one segment file per kind under a
/// `magic · version · kind` header, with `kind · key · stamp`
/// access-index entries; version 5 keeps that layout and drops the
/// modeled bitstream and cost fields from fabric records. Files of any
/// other version are treated as empty and recomputed, never misread.
pub const FORMAT_VERSION: u32 = 5;

/// Fixed per-record framing overhead (key + length + checksum).
const RECORD_OVERHEAD: u64 = 16 + 4 + 16;

/// Segment header: magic(8) + version(4) + kind(1).
const HEADER_LEN: usize = 13;

/// The access-stamp sidecar's file name.
const ACCESS_INDEX: &str = "access.idx";

/// Access-index entry: kind(1) + key(16) + stamp(8).
const ACCESS_ENTRY_LEN: usize = 1 + 16 + 8;

/// The artifact kinds the store segregates into segment files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Elaborated gate-level netlists, keyed by module source-closure
    /// fingerprint.
    Netlist,
    /// LUT-mapped networks, keyed by netlist structural hash + k.
    LutMap,
    /// Fabric characterizations (or their infeasibility verdicts), keyed
    /// by name-free merged-network hash + architecture parameters.
    Fabric,
    /// CEC proof results, keyed by the name-free miter fingerprint
    /// (netlist pair structure + pinned key bits).
    Cec,
}

impl Kind {
    /// Every kind, in segment order.
    pub const ALL: [Kind; 4] = [Kind::Netlist, Kind::LutMap, Kind::Fabric, Kind::Cec];

    /// The kind's segment file name (`netlists.v5.seg` for
    /// [`Kind::Netlist`]). The version in the name keeps it apart from
    /// the files of older layouts, which are left alone.
    pub fn file_name(self) -> String {
        let stem = match self {
            Kind::Netlist => "netlists",
            Kind::LutMap => "lutmaps",
            Kind::Fabric => "fabrics",
            Kind::Cec => "cec",
        };
        format!("{stem}.v{FORMAT_VERSION}.seg")
    }

    /// Short label for stats output.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Netlist => "netlist",
            Kind::LutMap => "lutmap",
            Kind::Fabric => "fabric",
            Kind::Cec => "cec",
        }
    }

    fn index(self) -> usize {
        match self {
            Kind::Netlist => 0,
            Kind::LutMap => 1,
            Kind::Fabric => 2,
            Kind::Cec => 3,
        }
    }

    fn tag(self) -> u8 {
        self.index() as u8
    }

    fn from_tag(t: u8) -> Option<Kind> {
        Kind::ALL.get(t as usize).copied()
    }
}

/// Where a record's payload currently lives.
#[derive(Debug)]
enum Slot {
    /// On the heap: inserted by this handle, merged or materialized by a
    /// flush, or read and verified by an earlier get.
    Owned(Arc<Vec<u8>>),
    /// Indexed at open but still on disk: `offset` is the payload's byte
    /// position in the segment's open-time file. The first get reads and
    /// verifies it; a failed read or verify drops the record — the
    /// get-time arm of the degrade-to-miss contract.
    OnDisk { offset: u64 },
}

#[derive(Debug)]
struct RecordSlot {
    payload: Slot,
    /// Payload length in bytes (known from the framing even before the
    /// payload itself is read).
    len: u32,
    /// Logical last-access stamp (monotone across open/flush cycles).
    stamp: u64,
}

/// One kind's segment: its records, its open-time file handle, and its
/// pending flush state — everything a `put`, `get`, or flush of the kind
/// needs, behind the kind's lock.
#[derive(Debug, Default)]
struct Segment {
    records: HashMap<Key, RecordSlot>,
    /// The segment's open-time file handle. Lazy reads go through this
    /// handle, not the path: a concurrent writer commits by renaming a
    /// new file over the path, and the held handle keeps the original
    /// inode — and therefore this index's offsets — alive and valid.
    file: Option<fs::File>,
    /// Keys this handle deliberately dropped (gc / opportunistic
    /// compaction) since the last flush: the flush-time merge must not
    /// resurrect them from the on-disk copy. Cleared once the compacted
    /// segment is committed.
    evicted: HashSet<Key>,
    /// Records changed since the last flush, so the file must be
    /// rewritten (access-stamp bumps alone only dirty the sidecar
    /// index).
    dirty: bool,
}

impl Segment {
    /// Indexes `kind`'s segment file in `dir`. A missing, unreadable,
    /// or mismatched file is an empty segment.
    fn open(dir: &Path, kind: Kind) -> Segment {
        let mut seg = Segment::default();
        if let Ok(file) = fs::File::open(dir.join(kind.file_name())) {
            if let Some(records) = index_segment(kind, &file) {
                seg.records = records;
                seg.file = Some(file);
            }
        }
        seg
    }

    fn payload_bytes(&self) -> u64 {
        self.records
            .values()
            .map(|r| r.len as u64 + RECORD_OVERHEAD)
            .sum()
    }
}

/// Per-kind size statistics (see [`Store::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Records of this kind.
    pub records: usize,
    /// Bytes of this kind (payload + framing overhead).
    pub bytes: u64,
}

/// Snapshot of the store's contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-kind statistics, in [`Kind::ALL`] order.
    pub kinds: [KindStats; Kind::ALL.len()],
}

impl StoreStats {
    /// Total records across all kinds.
    pub fn records(&self) -> usize {
        self.kinds.iter().map(|k| k.records).sum()
    }

    /// Total bytes across all kinds.
    pub fn bytes(&self) -> u64 {
        self.kinds.iter().map(|k| k.bytes).sum()
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (kind, s) in Kind::ALL.iter().zip(self.kinds.iter()) {
            writeln!(
                f,
                "{:<8} {:>7} record(s) {:>12} byte(s)",
                kind.label(),
                s.records,
                s.bytes
            )?;
        }
        write!(
            f,
            "{:<8} {:>7} record(s) {:>12} byte(s)",
            "total",
            self.records(),
            self.bytes()
        )
    }
}

/// What [`Store::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records kept.
    pub kept: usize,
    /// Records evicted (least-recently-accessed first).
    pub dropped: usize,
    /// Store bytes before compaction.
    pub bytes_before: u64,
    /// Store bytes after compaction.
    pub bytes_after: u64,
}

/// Cumulative read-path counters (see [`Store::read_stats`]): how many
/// gets were served, how many of them had to read a payload off disk
/// (the first get of each on-disk record), and how many payload bytes
/// those reads copied — the numbers `alice store stats` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Successful [`Store::get`] calls.
    pub gets: u64,
    /// Always 0: every get is served from the heap or a positioned read.
    /// The field stays because the benchmark's store layer
    /// (`perfbench`) still reports it.
    pub mapped_gets: u64,
    /// Gets that read + verified a payload off disk (the first get of a
    /// record this handle did not insert).
    pub copied_gets: u64,
    /// Payload bytes copied by those reads.
    pub bytes_copied: u64,
}

/// The persistent artifact store. Thread-safe: share it in an `Arc` and
/// call from any thread — a put or get locks only its **kind**, so
/// operations on different kinds run concurrently; a flush locks every
/// kind. Dropping the store flushes pending writes (best-effort); call
/// [`Store::flush`] for a checked commit.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// One segment per kind, in [`Kind::ALL`] order, each behind its own
    /// lock. Code that holds several of these locks takes them in that
    /// order (`Store::lock_all`), so they cannot deadlock.
    segments: [Mutex<Segment>; Kind::ALL.len()],
    /// Logical access clock; starts above every loaded stamp.
    clock: AtomicU64,
    access_dirty: AtomicBool,
    /// Opportunistic-compaction budget: when set, a flush that finds the
    /// store above **2×** this byte count LRU-compacts it back down to
    /// the budget before committing (see [`Store::set_compact_budget`]).
    compact_budget: Mutex<Option<u64>>,
    gets: AtomicU64,
    copied_gets: AtomicU64,
    bytes_copied: AtomicU64,
}

/// Process-wide tempfile sequence: two store handles on the *same*
/// directory (concurrent threads, or one store per db) must never pick
/// the same temp name, or one commit's rename steals the other's file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens (creating if needed) the store at `dir`, building an
    /// in-memory **offset index** of every readable record. Only the
    /// record framing is scanned — payloads stay on disk until the first
    /// [`Store::get`] verifies them — so open cost scales with the
    /// record count, not the stored bytes. Unreadable, corrupt, or
    /// version-mismatched files are treated as empty; files of an older
    /// layout are neither read nor touched.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] only when the directory itself cannot be
    /// created — bad *contents* never error.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments = Kind::ALL.map(|kind| Segment::open(&dir, kind));
        // Access stamps from the sidecar index (missing entries stay 0 =
        // coldest, which is the right default for gc).
        let mut max_stamp = 0u64;
        if let Ok(bytes) = fs::read(dir.join(ACCESS_INDEX)) {
            for (kind, key, stamp) in parse_access(&bytes).unwrap_or_default() {
                if let Some(slot) = segments[kind.index()].records.get_mut(&key) {
                    slot.stamp = stamp;
                    max_stamp = max_stamp.max(stamp);
                }
            }
        }
        Ok(Store {
            dir,
            segments: segments.map(Mutex::new),
            clock: AtomicU64::new(max_stamp + 1),
            access_dirty: AtomicBool::new(false),
            compact_budget: Mutex::new(None),
            gets: AtomicU64::new(0),
            copied_gets: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn segment(&self, kind: Kind) -> MutexGuard<'_, Segment> {
        self.segments[kind.index()]
            .lock()
            .expect("store segment lock")
    }

    /// Every kind's lock, taken in [`Kind::ALL`] order.
    fn lock_all(&self) -> [MutexGuard<'_, Segment>; Kind::ALL.len()] {
        Kind::ALL.map(|kind| self.segment(kind))
    }

    /// Looks `key` up, returning the stored payload and bumping its
    /// last-access stamp. Only the kind's lock is taken. A record still
    /// on disk is read here with one positioned read through the
    /// segment's held handle, checksum-verified, and memoized, so later
    /// gets share the same buffer; a record that fails the read or the
    /// verify degrades to a miss: the caller recomputes, exactly as if an
    /// eager open had dropped it.
    pub fn get(&self, kind: Kind, key: Key) -> Option<Arc<Vec<u8>>> {
        let _span = alice_obs::span("store.get");
        let mut guard = self.segment(kind);
        let seg = &mut *guard;
        let slot = seg.records.get_mut(&key)?;
        let bytes = match slot.payload {
            Slot::Owned(ref bytes) => bytes.clone(),
            Slot::OnDisk { offset } => {
                let read = seg
                    .file
                    .as_ref()
                    .and_then(|f| read_verified(f, key, offset, slot.len));
                let Some(payload) = read else {
                    // Verify-on-get: the record's payload fails its read
                    // or checksum, so it degrades to a miss. Dropped
                    // without a tombstone and without dirtying the
                    // segment: read-only runs never rewrite, and a
                    // future flush simply omits it.
                    seg.records.remove(&key);
                    return None;
                };
                self.copied_gets.fetch_add(1, Ordering::Relaxed);
                self.bytes_copied
                    .fetch_add(u64::from(slot.len), Ordering::Relaxed);
                STORE_COPIED_GETS.inc();
                STORE_BYTES_COPIED.add(u64::from(slot.len));
                let bytes = Arc::new(payload);
                slot.payload = Slot::Owned(bytes.clone());
                bytes
            }
        };
        slot.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        STORE_GETS.inc();
        self.access_dirty.store(true, Ordering::Relaxed);
        Some(bytes)
    }

    /// Inserts (or overwrites) a record, locking only its kind. The
    /// write is committed to disk on the next [`Store::flush`] (or
    /// drop).
    pub fn put(&self, kind: Kind, key: Key, payload: Vec<u8>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut seg = self.segment(kind);
        seg.evicted.remove(&key);
        let len = payload.len() as u32;
        seg.records.insert(
            key,
            RecordSlot {
                payload: Slot::Owned(Arc::new(payload)),
                len,
                stamp,
            },
        );
        // Under the kind's lock, so a concurrent flush either sees both
        // flags before clearing them or serializes after this put.
        seg.dirty = true;
        self.access_dirty.store(true, Ordering::Relaxed);
    }

    /// Sets (or clears) the opportunistic-compaction budget: whenever a
    /// [`Store::flush`] finds the store holding more than **twice**
    /// `budget_bytes`, it LRU-compacts down to `budget_bytes` before
    /// committing — long-running sweeps stay bounded without an explicit
    /// [`Store::gc`]. The 2× slack keeps steady-state flushes cheap: a
    /// store hovering near its budget is not re-compacted on every
    /// commit.
    pub fn set_compact_budget(&self, budget_bytes: Option<u64>) {
        *self.compact_budget.lock().expect("budget lock") = budget_bytes;
    }

    /// Current contents summary. Record counts and byte totals come from
    /// the offset index, so stats never force payload reads; kinds are
    /// locked one at a time.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            kinds: Kind::ALL.map(|kind| {
                let seg = self.segment(kind);
                KindStats {
                    records: seg.records.len(),
                    bytes: seg.payload_bytes(),
                }
            }),
        }
    }

    /// Cumulative read-path counters (gets, and the first gets that
    /// read off disk).
    pub fn read_stats(&self) -> ReadStats {
        ReadStats {
            gets: self.gets.load(Ordering::Relaxed),
            mapped_gets: 0,
            copied_gets: self.copied_gets.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
        }
    }

    /// Commits pending records and access stamps to disk. Each changed
    /// kind is **merged** with its current on-disk file (records a
    /// concurrent writer committed since this handle opened are kept,
    /// this handle's records win on key conflicts, deliberately-evicted
    /// keys stay gone), then rewritten to a tempfile and atomically
    /// renamed over the old one — **only the kinds that changed are
    /// rewritten**. Two simultaneous processes over one store directory
    /// therefore both contribute their records — the last flush unions
    /// instead of overwriting. A flush holds every kind's lock until it
    /// has committed, so puts and gets wait for it.
    ///
    /// With a compaction budget set ([`Store::set_compact_budget`]), every
    /// kind is merged, and a flush that finds the merged store above 2×
    /// the budget LRU-compacts it down to the budget before committing.
    ///
    /// # Errors
    ///
    /// Returns the first [`io::Error`] hit while writing; the in-memory
    /// state stays intact, so a retry is safe.
    pub fn flush(&self) -> io::Result<()> {
        self.flush_impl(None).map(|_| ())
    }

    /// The engine behind [`Store::flush`] and [`Store::gc`]:
    /// merge → (maybe) evict → commit, under every kind's lock.
    /// `force_budget` compacts unconditionally (gc); otherwise the
    /// configured [`Store::set_compact_budget`] applies with its 2×
    /// trigger.
    fn flush_impl(&self, force_budget: Option<u64>) -> io::Result<Option<GcReport>> {
        let _span = alice_obs::span("store.flush");
        let configured = *self.compact_budget.lock().expect("budget lock");
        // A compaction may evict from — and therefore rewrite — any kind,
        // so it sees the whole merged store, records of other writers
        // included.
        let compacting = force_budget.is_some() || configured.is_some();
        let mut segs = self.lock_all();
        for (kind, seg) in Kind::ALL.into_iter().zip(&mut segs) {
            if seg.dirty || compacting {
                self.merge(kind, seg);
            }
        }
        let mut report = None;
        if let Some(budget) = force_budget {
            report = Some(evict_to_budget(&mut segs, budget));
        } else if let Some(budget) = configured {
            let total: u64 = segs.iter().map(|s| s.payload_bytes()).sum();
            if total > budget.saturating_mul(2) {
                evict_to_budget(&mut segs, budget);
            }
        }
        for (kind, seg) in Kind::ALL.into_iter().zip(&mut segs) {
            if seg.dirty {
                self.rewrite(kind, seg)?;
            }
        }
        self.commit_access_if_dirty(&segs)?;
        Ok(report)
    }

    /// Folds the records another writer committed to the kind's file
    /// since this handle opened into `seg`. The current file is only
    /// indexed; a payload is read and verified just for a record this
    /// handle neither holds (its own record wins a conflict) nor evicted
    /// (the tombstone keeps it gone), and one that fails its verify is
    /// left out. Merged records come in coldest — this handle never read
    /// them — and merging alone never marks the segment dirty: it adds
    /// only what the file already holds.
    fn merge(&self, kind: Kind, seg: &mut Segment) {
        let Ok(file) = fs::File::open(self.dir.join(kind.file_name())) else {
            return;
        };
        for (key, slot) in index_segment(kind, &file).unwrap_or_default() {
            if seg.records.contains_key(&key) || seg.evicted.contains(&key) {
                continue;
            }
            let Slot::OnDisk { offset } = slot.payload else {
                continue;
            };
            if let Some(payload) = read_verified(&file, key, offset, slot.len) {
                seg.records.insert(
                    key,
                    RecordSlot {
                        payload: Slot::Owned(Arc::new(payload)),
                        len: slot.len,
                        stamp: 0,
                    },
                );
            }
        }
    }

    /// Serializes + commits one kind's segment and clears its flush
    /// state. Rewriting serializes every surviving record, so
    /// lazily-indexed payloads are read (and verified) now; one that
    /// fails its verify degrades to a miss here exactly as it would on
    /// get.
    fn rewrite(&self, kind: Kind, seg: &mut Segment) -> io::Result<()> {
        let _span = alice_obs::span_with("store.flush.shard", || kind.file_name());
        STORE_SEGMENT_FLUSHES.inc();
        materialize(seg);
        let bytes = serialize_segment(kind, seg);
        commit_file(&self.dir, &kind.file_name(), &bytes)?;
        seg.dirty = false;
        // The compacted/merged file is committed; tombstones have done
        // their job.
        seg.evicted.clear();
        Ok(())
    }

    /// Commits the access-stamp sidecar when any stamp changed: a
    /// `magic · version` header, then one `kind · key · stamp` entry per
    /// record, kind-major and by key within a kind. `segs` holds every
    /// kind's lock.
    fn commit_access_if_dirty(&self, segs: &[MutexGuard<'_, Segment>]) -> io::Result<()> {
        if !self.access_dirty.swap(false, Ordering::SeqCst) {
            return Ok(());
        }
        let records: usize = segs.iter().map(|s| s.records.len()).sum();
        let mut out = Vec::with_capacity(12 + records * ACCESS_ENTRY_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for (kind, seg) in Kind::ALL.into_iter().zip(segs) {
            let mut entries: Vec<(Key, u64)> =
                seg.records.iter().map(|(k, s)| (*k, s.stamp)).collect();
            entries.sort_unstable();
            for (key, stamp) in entries {
                out.push(kind.tag());
                out.extend_from_slice(&key.0.to_le_bytes());
                out.extend_from_slice(&key.1.to_le_bytes());
                out.extend_from_slice(&stamp.to_le_bytes());
            }
        }
        if let Err(e) = commit_file(&self.dir, ACCESS_INDEX, &out) {
            self.access_dirty.store(true, Ordering::SeqCst);
            return Err(e);
        }
        Ok(())
    }

    /// Evicts least-recently-accessed records until the store fits in
    /// `budget_bytes`, then commits the compacted segments. The budget
    /// bounds the whole merged store: records a concurrent writer
    /// committed since this handle opened are folded in (and count)
    /// before eviction.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the compacted files cannot be
    /// written.
    pub fn gc(&self, budget_bytes: u64) -> io::Result<GcReport> {
        Ok(self
            .flush_impl(Some(budget_bytes))?
            .expect("forced budget always produces a report"))
    }

    /// Removes every record (in memory and on disk).
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when a segment file cannot be removed.
    pub fn clear(&self) -> io::Result<()> {
        let mut segs = self.lock_all();
        for seg in &mut segs {
            **seg = Segment::default();
        }
        let names = Kind::ALL.map(Kind::file_name);
        for name in names.iter().map(String::as_str).chain([ACCESS_INDEX]) {
            match fs::remove_file(self.dir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.access_dirty.store(false, Ordering::SeqCst);
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort commit; an explicit flush is the checked path.
        let _ = self.flush();
    }
}

/// Writes `bytes` to a uniquely-named tempfile in the store directory,
/// renames it over `name` (atomic on POSIX), then fsyncs the directory
/// itself: the rename lives in directory metadata, so without the
/// directory fsync a crash shortly after a flush could roll the commit
/// back despite the crash-safety contract.
fn commit_file(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.tmp.{}.{seq}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, dir.join(name)) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_dir(dir)
}

/// Syncs a directory's metadata (the rename-durability half of an
/// atomic commit).
#[cfg(unix)]
fn fsync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Non-POSIX platforms cannot open a directory handle through std;
/// rename durability is best-effort there.
#[cfg(not(unix))]
fn fsync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Positioned read that never moves a shared cursor (concurrent gets
/// through one handle must not race on a seek position).
#[cfg(unix)]
fn read_exact_at(file: &fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// The per-record checksum: a [`StableHasher`] digest over the key and
/// the payload. Folding the key in means a key bit-flip fails the
/// verify instead of silently re-homing a valid payload under the wrong
/// content address.
fn record_digest(key: Key, payload: &[u8]) -> (u64, u64) {
    let mut h = StableHasher::new();
    h.write_u64(key.0);
    h.write_u64(key.1);
    h.write(payload);
    h.finish()
}

/// Reads one record's payload + checksum at `offset` through `file` and
/// verifies the digest. `None` on any short read or checksum mismatch —
/// the degrade-to-miss path shared by gets, flush-time materialization
/// and the flush-time merge.
fn read_verified(file: &fs::File, key: Key, offset: u64, len: u32) -> Option<Vec<u8>> {
    let len = len as usize;
    let mut buf = vec![0u8; len + 16];
    read_exact_at(file, &mut buf, offset).ok()?;
    let c0 = u64::from_le_bytes(buf[len..len + 8].try_into().expect("8"));
    let c1 = u64::from_le_bytes(buf[len + 8..].try_into().expect("8"));
    if record_digest(key, &buf[..len]) != (c0, c1) {
        return None;
    }
    buf.truncate(len);
    Some(buf)
}

/// Reads every lazily-indexed payload into the heap through the held
/// handle so a rewrite can serialize it; records that fail the read or
/// the checksum are dropped (degrade to a miss, never serialize
/// garbage).
fn materialize(seg: &mut Segment) {
    let file = seg.file.as_ref();
    seg.records.retain(|key, slot| {
        let Slot::OnDisk { offset } = slot.payload else {
            return true;
        };
        match file.and_then(|f| read_verified(f, *key, offset, slot.len)) {
            Some(payload) => {
                slot.payload = Slot::Owned(Arc::new(payload));
                true
            }
            None => false,
        }
    });
}

/// LRU-evicts records until the store fits in `budget_bytes`, recording
/// tombstones so the flush-time merge cannot resurrect the dropped keys.
/// The shared engine behind [`Store::gc`] and flush-time opportunistic
/// compaction; `segs` holds every kind's lock.
fn evict_to_budget(segs: &mut [MutexGuard<'_, Segment>], budget_bytes: u64) -> GcReport {
    let mut report = GcReport::default();
    // (stamp, kind index, key, size) over every record.
    let mut all: Vec<(u64, usize, Key, u64)> = Vec::new();
    for (idx, seg) in segs.iter().enumerate() {
        for (key, slot) in &seg.records {
            all.push((slot.stamp, idx, *key, slot.len as u64 + RECORD_OVERHEAD));
        }
    }
    report.bytes_before = all.iter().map(|&(_, _, _, s)| s).sum();
    // Newest first, with deterministic tie-breaks.
    all.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)).then(a.1.cmp(&b.1)));
    let mut used = 0u64;
    for (_, idx, key, size) in all {
        if used + size <= budget_bytes {
            used += size;
            report.kept += 1;
        } else {
            let seg = &mut segs[idx];
            seg.records.remove(&key);
            seg.evicted.insert(key);
            seg.dirty = true;
            report.dropped += 1;
        }
    }
    report.bytes_after = used;
    report
}

/// Serializes one kind's records into segment-file bytes. Every slot
/// must already be materialized (a flush does this before rewriting).
fn serialize_segment(kind: Kind, seg: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(seg.payload_bytes() as usize + HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.tag());
    // Deterministic record order (by key) so identical contents always
    // produce identical files.
    let mut keys: Vec<&Key> = seg.records.keys().collect();
    keys.sort();
    for key in keys {
        let slot = &seg.records[key];
        let bytes = match &slot.payload {
            Slot::Owned(bytes) => bytes,
            Slot::OnDisk { .. } => unreachable!("flush materializes before serializing"),
        };
        out.extend_from_slice(&key.0.to_le_bytes());
        out.extend_from_slice(&key.1.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
        let (c0, c1) = record_digest(*key, bytes);
        out.extend_from_slice(&c0.to_le_bytes());
        out.extend_from_slice(&c1.to_le_bytes());
    }
    out
}

/// Scans a segment file's record framing into an offset index without
/// reading any payload bytes — the one parser of the segment framing,
/// used at open and by the flush-time merge. `None` when the
/// `magic · version · kind` header is unreadable or mismatched (the
/// whole file is then treated as empty); a truncated tail drops the
/// remainder. Payload verification is left to the caller.
fn index_segment(kind: Kind, file: &fs::File) -> Option<HashMap<Key, RecordSlot>> {
    let size = file.metadata().ok()?.len();
    if size < HEADER_LEN as u64 {
        return None;
    }
    let mut header = [0u8; HEADER_LEN];
    read_exact_at(file, &mut header, 0).ok()?;
    if header[..8] != MAGIC
        || u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) != FORMAT_VERSION
        || header[12] != kind.tag()
    {
        return None;
    }
    let mut records = HashMap::new();
    let mut pos = HEADER_LEN as u64;
    let mut frame = [0u8; 20];
    while size - pos >= RECORD_OVERHEAD {
        if read_exact_at(file, &mut frame, pos).is_err() {
            break;
        }
        let k0 = u64::from_le_bytes(frame[..8].try_into().expect("8"));
        let k1 = u64::from_le_bytes(frame[8..16].try_into().expect("8"));
        let len = u32::from_le_bytes(frame[16..20].try_into().expect("4"));
        pos += 20;
        if size - pos < len as u64 + 16 {
            break; // truncated tail (e.g. a crash mid-append)
        }
        records.insert(
            (k0, k1),
            RecordSlot {
                payload: Slot::OnDisk { offset: pos },
                len,
                stamp: 0,
            },
        );
        pos += len as u64 + 16;
    }
    Some(records)
}

/// Parses the access-stamp sidecar (`Store::commit_access_if_dirty`
/// writes it). A corrupt entry
/// (a bad kind tag) keeps every earlier entry and degrades only the
/// remainder to coldest.
fn parse_access(bytes: &[u8]) -> Option<Vec<(Kind, Key, u64)>> {
    if bytes.len() < 12 || bytes[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return None;
    }
    let mut out = Vec::new();
    let mut pos = 12;
    while bytes.len() - pos >= ACCESS_ENTRY_LEN {
        let Some(kind) = Kind::from_tag(bytes[pos]) else {
            break;
        };
        let k0 = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("8"));
        let k1 = u64::from_le_bytes(bytes[pos + 9..pos + 17].try_into().expect("8"));
        let stamp = u64::from_le_bytes(bytes[pos + 17..pos + 25].try_into().expect("8"));
        out.push((kind, (k0, k1), stamp));
        pos += ACCESS_ENTRY_LEN;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alice-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmp_dir("reopen");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Netlist, (1, 2), vec![10, 20, 30]);
            s.put(Kind::Fabric, (3, 4), vec![40]);
            s.flush().expect("flush");
        }
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(
            s.get(Kind::Netlist, (1, 2)).map(|b| b.to_vec()),
            Some(vec![10, 20, 30])
        );
        assert_eq!(
            s.get(Kind::Fabric, (3, 4)).map(|b| b.to_vec()),
            Some(vec![40])
        );
        assert_eq!(s.get(Kind::LutMap, (1, 2)), None);
        assert_eq!(s.stats().records(), 2);
        // Records landed in their kinds' segment files.
        assert!(dir.join(Kind::Netlist.file_name()).exists());
        assert!(dir.join(Kind::Fabric.file_name()).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes() {
        let dir = tmp_dir("drop");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Cec, (9, 9), vec![1, 2, 3]);
            // no explicit flush
        }
        let s = Store::open(&dir).expect("reopen");
        assert!(s.get(Kind::Cec, (9, 9)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_degrades_to_miss_only_for_that_record() {
        let dir = tmp_dir("corrupt");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::LutMap, (1, 1), vec![7; 64]);
            s.put(Kind::LutMap, (9, 9), vec![8; 64]);
            s.flush().expect("flush");
        }
        // Flip a bit inside the first record's payload.
        let path = dir.join(Kind::LutMap.file_name());
        let mut bytes = fs::read(&path).expect("read segment");
        bytes[HEADER_LEN + 20 + 5] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        // The lazy open indexes both records (payloads unread); the
        // verify-on-get drops exactly the flipped one.
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().kinds[Kind::LutMap.index()].records, 2);
        assert_eq!(s.get(Kind::LutMap, (1, 1)), None, "corrupt record misses");
        assert_eq!(
            s.get(Kind::LutMap, (9, 9)).map(|b| b.to_vec()),
            Some(vec![8; 64]),
            "its neighbor survives"
        );
        let survivors = s.stats().kinds[Kind::LutMap.index()].records;
        assert_eq!(survivors, 1, "exactly the flipped record is dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_key_byte_degrades_to_miss() {
        let dir = tmp_dir("keyflip");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::LutMap, (1, 1), vec![7; 64]);
            s.put(Kind::LutMap, (9, 9), vec![8; 64]);
            s.flush().expect("flush");
        }
        // Flip a bit inside the first record's *key*. The checksum folds
        // the key, so the payload must not resurface under the mutated
        // content address.
        let path = dir.join(Kind::LutMap.file_name());
        let mut bytes = fs::read(&path).expect("read segment");
        bytes[HEADER_LEN + 3] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let s = Store::open(&dir).expect("reopen");
        let mutated = (1u64 ^ (0x40u64 << 24), 1u64);
        assert_eq!(s.get(Kind::LutMap, (1, 1)), None, "original key misses");
        assert_eq!(
            s.get(Kind::LutMap, mutated),
            None,
            "payload does not re-home under the flipped key"
        );
        assert_eq!(
            s.get(Kind::LutMap, (9, 9)).map(|b| b.to_vec()),
            Some(vec![8; 64])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_after_open_degrades_at_get() {
        let dir = tmp_dir("corrupt-late");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Cec, (1, 1), vec![7; 64]);
            s.put(Kind::Cec, (9, 9), vec![8; 64]);
            s.flush().expect("flush");
        }
        // Open first (lazy index built), corrupt afterwards: the damage
        // lands between open and the first get, and the get-time verify
        // still catches it — a per-record miss, not a crash.
        let s = Store::open(&dir).expect("reopen");
        let path = dir.join(Kind::Cec.file_name());
        let mut bytes = fs::read(&path).expect("read segment");
        bytes[HEADER_LEN + 20 + 5] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        assert_eq!(s.get(Kind::Cec, (1, 1)), None, "caught at get-time");
        assert_eq!(
            s.get(Kind::Cec, (9, 9)).map(|b| b.to_vec()),
            Some(vec![8; 64])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_after_open_degrades_at_get() {
        let dir = tmp_dir("trunc-late");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Netlist, (1, 1), vec![7; 64]);
            s.put(Kind::Netlist, (9, 9), vec![8; 64]);
            s.flush().expect("flush");
        }
        let s = Store::open(&dir).expect("reopen");
        let path = dir.join(Kind::Netlist.file_name());
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        assert_eq!(
            s.get(Kind::Netlist, (9, 9)),
            None,
            "short read degrades to a miss"
        );
        assert_eq!(
            s.get(Kind::Netlist, (1, 1)).map(|b| b.to_vec()),
            Some(vec![7; 64])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_served_once_survives_in_place_truncation() {
        let dir = tmp_dir("trunc-served");
        {
            let s = Store::open(&dir).expect("open");
            // 8 KiB each, so the truncation below removes whole pages of
            // the file.
            s.put(Kind::Fabric, (1, 1), vec![7; 8192]);
            s.put(Kind::Fabric, (9, 9), vec![8; 8192]);
            s.flush().expect("flush");
        }
        let s = Store::open(&dir).expect("reopen");
        let first = s.get(Kind::Fabric, (9, 9)).expect("hit");
        assert_eq!(&first[..], &[8u8; 8192][..]);
        // Truncate the segment file to its header in place (same inode
        // the store holds open).
        let path = dir.join(Kind::Fabric.file_name());
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for truncation")
            .set_len(HEADER_LEN as u64)
            .expect("truncate");
        let again = s.get(Kind::Fabric, (9, 9)).expect("served again");
        assert_eq!(again, first, "the verified bytes are served again");
        assert_eq!(
            s.get(Kind::Fabric, (1, 1)),
            None,
            "a record never served degrades to a miss"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_indexes_without_reading_payloads() {
        let dir = tmp_dir("lazy-open");
        let n = 40u64;
        {
            let s = Store::open(&dir).expect("open");
            for k in 0..n {
                s.put(Kind::Fabric, (k, 0), vec![k as u8; 32]);
            }
            s.flush().expect("flush");
        }
        // Invert every payload byte in the segment (framing intact). If
        // open read or verified payloads, no record would survive the
        // open; since it only scans framing, all records index fine —
        // and every get then fails its verify.
        let path = dir.join(Kind::Fabric.file_name());
        let mut bytes = fs::read(&path).expect("read");
        let mut pos = HEADER_LEN;
        while pos + 20 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().expect("4")) as usize;
            pos += 20;
            for b in &mut bytes[pos..pos + len] {
                *b = !*b;
            }
            pos += len + 16;
        }
        fs::write(&path, &bytes).expect("rewrite");
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(
            s.stats().kinds[Kind::Fabric.index()].records,
            n as usize,
            "open indexed every record without touching payloads"
        );
        for k in 0..n {
            assert_eq!(s.get(Kind::Fabric, (k, 0)), None);
        }
        assert_eq!(s.stats().kinds[Kind::Fabric.index()].records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let dir = tmp_dir("trunc");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Netlist, (1, 1), vec![7; 64]);
            s.put(Kind::Netlist, (9, 9), vec![8; 64]);
            s.flush().expect("flush");
        }
        let path = dir.join(Kind::Netlist.file_name());
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().kinds[Kind::Netlist.index()].records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_empties_the_file() {
        let dir = tmp_dir("version");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Fabric, (5, 5), vec![1]);
            s.flush().expect("flush");
        }
        let path = dir.join(Kind::Fabric.file_name());
        let mut bytes = fs::read(&path).expect("read");
        let future = FORMAT_VERSION + 1;
        bytes[8..12].copy_from_slice(&future.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 0, "future-version file is ignored");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn access_index_with_corrupt_tag_keeps_earlier_entries() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let entry = |out: &mut Vec<u8>, tag: u8, key: Key, stamp: u64| {
            out.push(tag);
            out.extend_from_slice(&key.0.to_le_bytes());
            out.extend_from_slice(&key.1.to_le_bytes());
            out.extend_from_slice(&stamp.to_le_bytes());
        };
        entry(&mut bytes, Kind::Netlist.tag(), (1, 0), 7);
        entry(&mut bytes, 0xEE, (2, 0), 8); // corrupt kind tag
        entry(&mut bytes, Kind::Cec.tag(), (3, 0), 9);
        let parsed = parse_access(&bytes).expect("index still parses");
        assert_eq!(
            parsed,
            vec![(Kind::Netlist, (1, 0), 7)],
            "entries before the corrupt tag survive; the remainder is skipped"
        );
    }

    #[test]
    fn gc_evicts_least_recently_accessed_first() {
        let dir = tmp_dir("gc");
        let s = Store::open(&dir).expect("open");
        s.put(Kind::Netlist, (1, 0), vec![0; 100]);
        s.put(Kind::Netlist, (2, 0), vec![0; 100]);
        s.put(Kind::Netlist, (3, 0), vec![0; 100]);
        // Touch (1,0) so (2,0) becomes the coldest.
        s.get(Kind::Netlist, (1, 0)).expect("present");
        let per_record = 100 + RECORD_OVERHEAD;
        let report = s.gc(2 * per_record).expect("gc");
        assert_eq!(report.kept, 2);
        assert_eq!(report.dropped, 1);
        assert!(report.bytes_after <= 2 * per_record);
        assert!(
            s.get(Kind::Netlist, (1, 0)).is_some(),
            "recently read survives"
        );
        assert!(
            s.get(Kind::Netlist, (3, 0)).is_some(),
            "recently written survives"
        );
        assert!(s.get(Kind::Netlist, (2, 0)).is_none(), "coldest is evicted");
        // And the eviction is durable.
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_both_contribute_on_flush() {
        let dir = tmp_dir("merge");
        // Two handles on one directory model two simultaneous
        // processes writing the same kind; without the merge the later
        // flush would overwrite the earlier one's additions.
        let a = Store::open(&dir).expect("open a");
        let b = Store::open(&dir).expect("open b");
        a.put(Kind::Netlist, (8, 0), vec![0xAA; 8]);
        b.put(Kind::Netlist, (16, 0), vec![0xBB; 8]);
        a.flush().expect("flush a");
        b.flush().expect("flush b");
        drop(a);
        drop(b);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(
            s.get(Kind::Netlist, (8, 0)).map(|v| v.to_vec()),
            Some(vec![0xAA; 8]),
            "first writer's record survives the second writer's flush"
        );
        assert_eq!(
            s.get(Kind::Netlist, (16, 0)).map(|v| v.to_vec()),
            Some(vec![0xBB; 8])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_prefers_this_handles_record_on_conflict() {
        let dir = tmp_dir("merge-conflict");
        let a = Store::open(&dir).expect("open a");
        let b = Store::open(&dir).expect("open b");
        a.put(Kind::Fabric, (7, 7), vec![1]);
        a.flush().expect("flush a");
        b.put(Kind::Fabric, (7, 7), vec![2]);
        b.flush().expect("flush b");
        drop((a, b));
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(
            s.get(Kind::Fabric, (7, 7)).map(|v| v.to_vec()),
            Some(vec![2]),
            "the flushing handle's own record wins its flush"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_drops_a_corrupt_record_another_writer_committed() {
        let dir = tmp_dir("merge-corrupt");
        // B opens first, so A's records are foreign to B's flush-time
        // merge, which must verify each one it reads.
        let b = Store::open(&dir).expect("open b");
        {
            let a = Store::open(&dir).expect("open a");
            for k in 1..=3u64 {
                a.put(Kind::Fabric, (k, 0), vec![k as u8; 64]);
            }
            a.flush().expect("flush a");
        }
        // Flip one payload byte of A's first record, (1, 0).
        let path = dir.join(Kind::Fabric.file_name());
        let mut bytes = fs::read(&path).expect("read segment");
        bytes[HEADER_LEN + 20 + 5] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        b.put(Kind::Fabric, (9, 0), vec![9; 64]);
        b.flush().expect("flush b");
        drop(b);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(
            s.stats().records(),
            3,
            "A's two intact records and B's own; the flipped one is not merged"
        );
        assert_eq!(s.get(Kind::Fabric, (1, 0)), None);
        for k in 2..=3u64 {
            assert_eq!(
                s.get(Kind::Fabric, (k, 0)).map(|v| v.to_vec()),
                Some(vec![k as u8; 64]),
                "A's intact record {k} survives B's flush"
            );
        }
        assert_eq!(
            s.get(Kind::Fabric, (9, 0)).map(|v| v.to_vec()),
            Some(vec![9; 64])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_eviction_is_not_resurrected_by_the_merge() {
        let dir = tmp_dir("merge-gc");
        let s = Store::open(&dir).expect("open");
        s.put(Kind::Netlist, (1, 0), vec![0; 100]);
        s.put(Kind::Netlist, (2, 0), vec![0; 100]);
        s.flush().expect("flush");
        // Both records are on disk; evicting one must stick even though
        // the gc's own flush re-reads that very segment file for the
        // merge.
        s.get(Kind::Netlist, (1, 0)).expect("warm");
        let report = s.gc(100 + RECORD_OVERHEAD).expect("gc");
        assert_eq!((report.kept, report.dropped), (1, 1));
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 1);
        assert!(s.get(Kind::Netlist, (1, 0)).is_some());
        assert!(s.get(Kind::Netlist, (2, 0)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_tombstones_hold_across_shards() {
        let dir = tmp_dir("gc-shards");
        let s = Store::open(&dir).expect("open");
        // Six records of one kind, all on disk.
        for k in 0..6u64 {
            s.put(Kind::Cec, (k, k), vec![k as u8; 100]);
        }
        s.flush().expect("flush");
        // Warm two of them, then compact to two records: all four
        // evictions must tombstone.
        s.get(Kind::Cec, (4, 4)).expect("warm");
        s.get(Kind::Cec, (5, 5)).expect("warm");
        let per_record = 100 + RECORD_OVERHEAD;
        let report = s.gc(2 * per_record).expect("gc");
        assert_eq!((report.kept, report.dropped), (2, 4));
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 2);
        assert!(s.get(Kind::Cec, (4, 4)).is_some());
        assert!(s.get(Kind::Cec, (5, 5)).is_some());
        for k in 0..4u64 {
            assert!(
                s.get(Kind::Cec, (k, k)).is_none(),
                "evicted record {k} resurrected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_foreign_kinds_from_the_merged_state() {
        let dir = tmp_dir("merge-foreign-compact");
        let per_record = 100 + RECORD_OVERHEAD;
        // B opens before A commits anything, so B's open-time snapshot
        // of the Fabric kind is empty.
        let a = Store::open(&dir).expect("open a");
        let b = Store::open(&dir).expect("open b");
        for k in 0..3 {
            a.put(Kind::Fabric, (k, 0), vec![0xFA; 100]);
        }
        a.flush().expect("flush a");
        for k in 0..3 {
            b.put(Kind::Netlist, (k, 1), vec![0x11; 100]);
        }
        // B compacts to 4 records: the budget must bound the MERGED
        // store (6 records), evicting the two coldest foreign fabric
        // records — not erase A's kind from a stale snapshot, and not
        // ignore it and leave the store over budget.
        let report = b.gc(4 * per_record).expect("gc");
        assert_eq!(report.bytes_before, 6 * per_record, "union accounted");
        assert_eq!((report.kept, report.dropped), (4, 2));
        drop((a, b));
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 4);
        assert!(s.stats().bytes() <= 4 * per_record, "really under budget");
        for k in 0..3 {
            assert!(
                s.get(Kind::Netlist, (k, 1)).is_some(),
                "B's own (warm) records survive"
            );
        }
        assert_eq!(
            s.stats().kinds[Kind::Fabric.index()].records,
            1,
            "exactly the budget's worth of A's records survives"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_compacts_past_twice_the_budget() {
        let dir = tmp_dir("autogc");
        let s = Store::open(&dir).expect("open");
        let per_record = 100 + RECORD_OVERHEAD;
        s.set_compact_budget(Some(2 * per_record));
        // Two records: exactly the budget — under 2×, flush leaves them.
        s.put(Kind::Netlist, (1, 0), vec![0; 100]);
        s.put(Kind::Netlist, (2, 0), vec![0; 100]);
        s.flush().expect("flush");
        assert_eq!(s.stats().records(), 2, "within 2x budget: no eviction");
        // Three more push the store past 2× the budget: the flush
        // compacts back down to the budget, coldest first.
        s.put(Kind::Netlist, (3, 0), vec![0; 100]);
        s.put(Kind::Netlist, (4, 0), vec![0; 100]);
        s.put(Kind::Netlist, (5, 0), vec![0; 100]);
        // Touch (1,0) so it is warm again.
        s.get(Kind::Netlist, (1, 0)).expect("present");
        s.flush().expect("flush");
        assert_eq!(s.stats().records(), 2, "compacted to the budget");
        assert!(s.stats().bytes() <= 2 * per_record);
        assert!(s.get(Kind::Netlist, (1, 0)).is_some(), "warm survives");
        // And the compaction is durable across reopen.
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_everything() {
        let dir = tmp_dir("clear");
        let s = Store::open(&dir).expect("open");
        s.put(Kind::Cec, (1, 1), vec![9]);
        s.flush().expect("flush");
        s.clear().expect("clear");
        assert_eq!(s.stats().records(), 0);
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_stamps_survive_reopen() {
        let dir = tmp_dir("stamps");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::Netlist, (1, 0), vec![0; 10]);
            s.put(Kind::Netlist, (2, 0), vec![0; 10]);
            s.get(Kind::Netlist, (1, 0)).expect("present");
            s.flush().expect("flush");
        }
        // After reopen, (1,0) is still the warmer record.
        let s = Store::open(&dir).expect("reopen");
        let report = s.gc(10 + RECORD_OVERHEAD).expect("gc");
        assert_eq!((report.kept, report.dropped), (1, 1));
        assert!(s.get(Kind::Netlist, (1, 0)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_display_lists_kinds() {
        let dir = tmp_dir("stats");
        let s = Store::open(&dir).expect("open");
        s.put(Kind::Netlist, (1, 1), vec![0; 8]);
        let text = s.stats().to_string();
        assert!(text.contains("netlist"));
        assert!(text.contains("cec"));
        assert!(text.contains("total"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_kind_flushes_survive_concurrent_writers() {
        let dir = tmp_dir("same-kind-flush");
        let s = Arc::new(Store::open(&dir).expect("open"));
        // Two writers put and flush the same kind through one handle:
        // every flush rewrites the one segment file, so both full sets
        // must survive however the puts and flushes interleave. The
        // barrier starts both writers together so their flushes overlap.
        let start = Arc::new(std::sync::Barrier::new(2));
        let writer = |tag: u64, byte: u8| {
            let (s, start) = (Arc::clone(&s), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..20u64 {
                    s.put(Kind::Netlist, (tag, i), vec![byte; 64]);
                    if i % 5 == 4 {
                        s.flush().expect("flush");
                    }
                }
                s.flush().expect("final flush");
            })
        };
        let (a, b) = (writer(0xA, 0xA0), writer(0xB, 0xB0));
        a.join().expect("writer a");
        b.join().expect("writer b");
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 40, "no writer lost records");
        for i in 0..20u64 {
            assert_eq!(
                s.get(Kind::Netlist, (0xA, i)).map(|v| v.to_vec()),
                Some(vec![0xA0; 64])
            );
            assert_eq!(
                s.get(Kind::Netlist, (0xB, i)).map(|v| v.to_vec()),
                Some(vec![0xB0; 64])
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_segment_is_ignored_and_left_untouched() {
        let dir = tmp_dir("v2");
        fs::create_dir_all(&dir).expect("mkdir");
        // Valid files of three older layouts, with checksummed records in
        // the unchanged frame format: v2's single segment per kind
        // (magic, version 2, kind tag), one of v3's eight shards per
        // kind (magic, version 3, kind tag, shard byte), and v4's
        // versioned segment (magic, version 4, kind tag).
        let legacy_file = |version: u32, header_tail: &[u8], keys: &[u64]| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(header_tail);
            for &k in keys {
                let payload = vec![k as u8; 48];
                bytes.extend_from_slice(&k.to_le_bytes());
                bytes.extend_from_slice(&k.to_le_bytes());
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&payload);
                let (c0, c1) = record_digest((k, k), &payload);
                bytes.extend_from_slice(&c0.to_le_bytes());
                bytes.extend_from_slice(&c1.to_le_bytes());
            }
            bytes
        };
        let tag = Kind::Netlist.tag();
        let legacy = [
            (
                dir.join("netlists.seg"),
                legacy_file(2, &[tag], &[0, 1, 2, 3]),
            ),
            (
                dir.join("netlists.03.seg"),
                legacy_file(3, &[tag, 3], &[3, 11, 19, 27]),
            ),
            (
                dir.join("fabrics.v4.seg"),
                legacy_file(4, &[Kind::Fabric.tag()], &[4, 5]),
            ),
        ];
        for (path, bytes) in &legacy {
            fs::write(path, bytes).expect("write legacy segment");
        }
        {
            let s = Store::open(&dir).expect("open");
            assert_eq!(s.stats().records(), 0, "v2, v3 and v4 records are not read");
            assert_eq!(s.get(Kind::Netlist, (1, 1)), None);
            assert_eq!(s.get(Kind::Netlist, (3, 3)), None);
            assert_eq!(s.get(Kind::Fabric, (4, 4)), None);
            // A recompute writes the current layout beside them.
            s.put(Kind::Netlist, (1, 1), vec![1; 48]);
            s.put(Kind::Fabric, (4, 4), vec![4; 48]);
            s.flush().expect("flush");
        }
        for (path, bytes) in &legacy {
            assert_eq!(
                &fs::read(path).expect("legacy file still present"),
                bytes,
                "{} is left byte-for-byte untouched",
                path.display()
            );
        }
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_get_copies_once_and_repeat_gets_copy_nothing() {
        let dir = tmp_dir("copy-once");
        {
            let s = Store::open(&dir).expect("open");
            s.put(Kind::LutMap, (1, 1), vec![9; 128]);
            s.flush().expect("flush");
        }
        let s = Store::open(&dir).expect("reopen");
        let p = s.get(Kind::LutMap, (1, 1)).expect("hit");
        assert_eq!(&p[..], &[9u8; 128][..]);
        let first = ReadStats {
            gets: 1,
            mapped_gets: 0,
            copied_gets: 1,
            bytes_copied: 128,
        };
        assert_eq!(s.read_stats(), first, "the first get copies the payload");
        let q = s.get(Kind::LutMap, (1, 1)).expect("hit again");
        assert!(Arc::ptr_eq(&p, &q), "the verified read is memoized");
        assert_eq!(
            s.read_stats(),
            ReadStats { gets: 2, ..first },
            "a repeat get copies nothing more"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
