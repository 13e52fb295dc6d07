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
//! [`Kind::Fabric`], [`Kind::Cec`]) is **sharded** into
//! [`SHARD_COUNT`] segment files (`netlists.00.seg` …
//! `netlists.07.seg`) under the store directory, with the shard chosen
//! by the low bits of the 128-bit content key ([`shard_of`]). Each file
//! is a flat sequence of records
//! `key(16) · payload_len(4) · payload · checksum(16)`, where the
//! checksum is a [`StableHasher`] digest of the **key and payload**
//! (so a key bit-flip cannot re-home a valid payload under the wrong
//! content address); files open with a
//! `magic · format-version · kind · shard` header.
//!
//! **Sharding is the concurrency story.** Every shard has its own lock:
//! concurrent writers whose keys land in different shards never contend
//! on a `put`, `get`, or flush, and a flush-merge rewrites **only the
//! shards that changed** — two threads (or two processes) flushing
//! disjoint shards commit in parallel instead of serializing on one
//! whole-kind segment rewrite.
//!
//! **Opens are lazy, reads are checked once.** [`Store::open`] scans
//! only the record framing, building an offset index
//! `key → (offset, len)` without reading a single payload byte —
//! O(records), not O(bytes). The first [`Store::get`] of a record reads
//! its payload and checksum with one positioned read through the
//! shard's held file handle, verifies the digest, and memoizes the
//! bytes on the heap; every later get hands out the same
//! `Arc<Vec<u8>>` without touching the disk again. A record that fails
//! its read or its verify degrades to a per-record miss.
//!
//! Each shard keeps its open-time file handle, so a concurrent writer's
//! atomic-rename commit never invalidates this handle's offsets: they
//! keep reading the original inode. A flush rewrites any shard with new
//! records to a tempfile, commits it with an atomic rename, and fsyncs
//! the store directory so the rename itself is durable; a crash can
//! lose the newest records but never corrupt existing ones (read-only
//! runs rewrite nothing but the access-stamp sidecar).
//!
//! **Robustness contract:** a corrupt, truncated, or version-mismatched
//! record (or whole file) silently degrades to a cache miss — the flow
//! recomputes and overwrites; nothing in this crate turns bad disk state
//! into an error for the caller, and no store bytes can abort the
//! process (the crate contains no `unsafe`). Framing damage (bad header,
//! truncated tail) is caught at open; payload damage is caught at
//! get-time, when the record is first verified. Bumping
//! [`FORMAT_VERSION`] invalidates every existing store: the store is a
//! cache, so older layouts (including v2's one segment per kind) read as
//! empty and are recomputed, never migrated.
//!
//! Eviction is explicit: [`Store::gc`] compacts to a byte budget,
//! dropping least-recently-accessed records first (access stamps live in
//! a sidecar index whose entries carry the shard id, so gc can stamp a
//! record without opening any other shard).

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
static STORE_SHARD_FLUSHES: alice_obs::Counter = alice_obs::Counter::new(
    "alice_store_shard_flushes_total",
    "Dirty shard rewrites committed by store flushes",
);

/// A 128-bit content-addressed key (the same shape `DesignDb` uses).
pub type Key = (u64, u64);

/// The magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"ALICSTOR";

/// The on-disk format version. Version 2 folded the record key into the
/// per-record checksum; version 3 sharded every kind into
/// [`SHARD_COUNT`] segment files (with the shard id in the header) and
/// widened the access-index entries with the shard id. Files of any
/// other version are treated as empty and recomputed, never misread.
///
/// A v3 store written while a fifth kind existed (sweep lemmas, tag 4,
/// `lemmas.*.seg`) stays valid: those files are never opened, and its
/// tag-4 access-index entries come last (both writers emit entries
/// kind-major), so parsing stops there with every other stamp kept.
pub const FORMAT_VERSION: u32 = 3;

/// Shards per kind. A power of two so the shard is a mask of the key's
/// low bits; 8 is enough that flush-merges over distinct working sets
/// rarely collide while keeping the per-store file count (4 kinds × 8)
/// trivial.
pub const SHARD_COUNT: usize = 8;

/// The shard a key lives in: the low bits of the 128-bit content key.
/// Keys are [`StableHasher`] outputs, so the low bits are uniform and
/// shards stay balanced.
pub fn shard_of(key: Key) -> usize {
    (key.0 & (SHARD_COUNT as u64 - 1)) as usize
}

/// Fixed per-record framing overhead (key + length + checksum).
const RECORD_OVERHEAD: u64 = 16 + 4 + 16;

/// v3 segment header: magic(8) + version(4) + kind(1) + shard(1).
const HEADER_LEN: usize = 14;

/// The artifact kinds the store segregates into (sharded) segment files.
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

    /// The stem the kind's shard files share (`<stem>.NN.seg`).
    fn file_stem(self) -> &'static str {
        match self {
            Kind::Netlist => "netlists",
            Kind::LutMap => "lutmaps",
            Kind::Fabric => "fabrics",
            Kind::Cec => "cec",
        }
    }

    /// The segment file name of one of the kind's shards
    /// (`netlists.03.seg` for shard 3 of [`Kind::Netlist`]).
    pub fn shard_file_name(self, shard: usize) -> String {
        format!("{}.{shard:02}.seg", self.file_stem())
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
    /// On the heap: inserted by this handle, materialized by a flush, or
    /// read and verified by an earlier get.
    Owned(Arc<Vec<u8>>),
    /// Indexed at open but still on disk: `offset` is the payload's byte
    /// position in the shard's open-time file. The first get reads and
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

/// One shard of one kind: its records, its open-time file handle, and
/// its pending flush state — everything a `put`, `get`, or per-shard
/// flush needs, behind the shard's own lock.
#[derive(Debug, Default)]
struct ShardState {
    records: HashMap<Key, RecordSlot>,
    /// The shard's open-time file handle. Lazy reads go through this
    /// handle, not the path: a concurrent writer commits by renaming a
    /// new file over the path, and the held handle keeps the original
    /// inode — and therefore this index's offsets — alive and valid.
    file: Option<fs::File>,
    /// Keys this handle deliberately dropped (gc / opportunistic
    /// compaction) since the last flush: the flush-time merge must not
    /// resurrect them from the on-disk copy. Cleared once the compacted
    /// shard is committed.
    evicted: HashSet<Key>,
}

impl ShardState {
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

/// Per-shard size statistics (see [`StoreStats::shards`]): how one
/// kind's records distribute over its [`SHARD_COUNT`] segment files,
/// including the tombstones a gc left pending for the next flush — the
/// skew observability the `alice store stats` table surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live records in this shard.
    pub records: usize,
    /// Bytes in this shard (payload + framing overhead).
    pub bytes: u64,
    /// Evictions recorded but not yet flushed (merge tombstones).
    pub tombstones: usize,
}

/// Snapshot of the store's contents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-kind statistics, in [`Kind::ALL`] order.
    pub kinds: [KindStats; Kind::ALL.len()],
    /// Per-kind, per-shard statistics, in [`Kind::ALL`] × shard order.
    pub shards: [[ShardStats; SHARD_COUNT]; Kind::ALL.len()],
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

    /// A per-shard table (records, bytes, live-vs-tombstone ratio per
    /// shard, aggregated across kinds) so shard skew is observable from
    /// `alice store stats`.
    pub fn shard_table(&self) -> String {
        let mut out = String::new();
        out.push_str("shard    records        bytes   tombstones   live%\n");
        for shard in 0..SHARD_COUNT {
            let records: usize = self.shards.iter().map(|k| k[shard].records).sum();
            let bytes: u64 = self.shards.iter().map(|k| k[shard].bytes).sum();
            let tombstones: usize = self.shards.iter().map(|k| k[shard].tombstones).sum();
            let live_pct = if records + tombstones == 0 {
                100.0
            } else {
                100.0 * records as f64 / (records + tombstones) as f64
            };
            out.push_str(&format!(
                "{shard:>5} {records:>10} {bytes:>12} {tombstones:>12} {live_pct:>6.1}\n"
            ));
        }
        out
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
/// call from any thread — locking is **per shard**, so operations on
/// keys in different shards (and flushes of disjoint shards) run
/// concurrently. Dropping the store flushes pending writes
/// (best-effort); call [`Store::flush`] for a checked commit.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// `[kind][shard]` → that shard's state behind its own lock. The
    /// only multi-shard lock order in the crate is kind-major,
    /// shard-minor (compacting flushes, stats, the access-index
    /// snapshot), so shard locks cannot deadlock.
    shards: [[Mutex<ShardState>; SHARD_COUNT]; Kind::ALL.len()],
    /// `[kind][shard]` → records changed since the last flush (shard
    /// rewrite needed; access-stamp bumps alone only dirty the sidecar
    /// index). Kept *outside* the shard locks so a flush can skip clean
    /// shards without touching their mutexes — two handles flushing
    /// disjoint shards never contend, even on the skip scan.
    dirty: [[AtomicBool; SHARD_COUNT]; Kind::ALL.len()],
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
    /// layout (such as v2's single segment per kind) are neither read
    /// nor touched.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] only when the directory itself cannot be
    /// created — bad *contents* never error.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut states: Vec<Vec<ShardState>> = Vec::with_capacity(Kind::ALL.len());
        for kind in Kind::ALL {
            let mut kind_states = Vec::with_capacity(SHARD_COUNT);
            for shard in 0..SHARD_COUNT {
                let mut state = ShardState::default();
                let path = dir.join(kind.shard_file_name(shard));
                if let Ok(file) = fs::File::open(&path) {
                    if let Some(records) = index_segment(kind, shard, &file) {
                        state.records = records;
                        state.file = Some(file);
                    }
                }
                kind_states.push(state);
            }
            states.push(kind_states);
        }
        // Access stamps from the sidecar index (missing entries stay 0 =
        // coldest, which is the right default for gc). Entries carry
        // their shard id, so stamping is a direct slot lookup.
        let mut max_stamp = 0u64;
        if let Ok(bytes) = fs::read(dir.join("access.idx")) {
            if let Some(entries) = parse_access(&bytes) {
                for (kind, shard, key, stamp) in entries {
                    if let Some(slot) = states[kind.index()][shard].records.get_mut(&key) {
                        slot.stamp = stamp;
                        max_stamp = max_stamp.max(stamp);
                    }
                }
            }
        }
        let mut kind_iter = states.into_iter();
        let shards = std::array::from_fn(|_| {
            let mut shard_iter = kind_iter.next().expect("one entry per kind").into_iter();
            std::array::from_fn(|_| Mutex::new(shard_iter.next().expect("shard state")))
        });
        Ok(Store {
            dir,
            shards,
            dirty: std::array::from_fn(|_| std::array::from_fn(|_| AtomicBool::new(false))),
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

    fn shard(&self, kind: Kind, shard: usize) -> MutexGuard<'_, ShardState> {
        self.shards[kind.index()][shard]
            .lock()
            .expect("store shard lock")
    }

    fn dirty_flag(&self, kind: Kind, shard: usize) -> &AtomicBool {
        &self.dirty[kind.index()][shard]
    }

    /// Looks `key` up, returning the stored payload and bumping its
    /// last-access stamp. Only the key's shard is locked. A record still
    /// on disk is read here with one positioned read through the shard's
    /// held handle, checksum-verified, and memoized, so later gets share
    /// the same buffer; a record that fails the read or the verify
    /// degrades to a miss: the caller recomputes, exactly as if an eager
    /// open had dropped it.
    pub fn get(&self, kind: Kind, key: Key) -> Option<Arc<Vec<u8>>> {
        let _span = alice_obs::span("store.get");
        let mut guard = self.shard(kind, shard_of(key));
        let state = &mut *guard;
        let slot = state.records.get_mut(&key)?;
        let bytes = match slot.payload {
            Slot::Owned(ref bytes) => bytes.clone(),
            Slot::OnDisk { offset } => {
                let read = state
                    .file
                    .as_ref()
                    .and_then(|f| read_verified(f, key, offset, slot.len));
                let Some(payload) = read else {
                    // Verify-on-get: the record's payload fails its read
                    // or checksum, so it degrades to a miss. Dropped
                    // without a tombstone and without dirtying the
                    // shard: read-only runs never rewrite, and a future
                    // flush simply omits it.
                    state.records.remove(&key);
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

    /// Inserts (or overwrites) a record, locking only the key's shard.
    /// The write is committed to disk on the next [`Store::flush`] (or
    /// drop).
    pub fn put(&self, kind: Kind, key: Key, payload: Vec<u8>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.access_dirty.store(true, Ordering::Relaxed);
        let mut state = self.shard(kind, shard_of(key));
        state.evicted.remove(&key);
        let len = payload.len() as u32;
        state.records.insert(
            key,
            RecordSlot {
                payload: Slot::Owned(Arc::new(payload)),
                len,
                stamp,
            },
        );
        // Under the shard lock, so a concurrent flush of this shard
        // either sees the flag before clearing it or serializes after
        // this put.
        self.dirty_flag(kind, shard_of(key))
            .store(true, Ordering::SeqCst);
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

    /// Current contents summary, including the per-shard breakdown.
    /// Record counts and byte totals come from the offset index, so
    /// stats never force payload reads; shards are locked one at a
    /// time.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                let state = self.shard(kind, shard);
                let cell = ShardStats {
                    records: state.records.len(),
                    bytes: state.payload_bytes(),
                    tombstones: state.evicted.len(),
                };
                stats.shards[kind.index()][shard] = cell;
                stats.kinds[kind.index()].records += cell.records;
                stats.kinds[kind.index()].bytes += cell.bytes;
            }
        }
        stats
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

    /// Commits pending records and access stamps to disk. Each dirty
    /// shard is **merged** with its current on-disk copy (records a
    /// concurrent writer committed since this handle opened are kept,
    /// this handle's records win on key conflicts, deliberately-evicted
    /// keys stay gone), then rewritten to a tempfile and atomically
    /// renamed over the old one — **only the shards that changed are
    /// rewritten**, one shard lock at a time, so two handles flushing
    /// disjoint shards commit concurrently and a flush never blocks
    /// puts or gets against other shards. Two simultaneous processes
    /// over one store directory therefore both contribute their records
    /// — the last flush unions instead of overwriting.
    ///
    /// With a compaction budget set ([`Store::set_compact_budget`]), a
    /// flush that finds the merged store above 2× the budget LRU-compacts
    /// it down to the budget before committing (that path locks every
    /// shard, since eviction is a whole-store decision).
    ///
    /// # Errors
    ///
    /// Returns the first [`io::Error`] hit while writing; the in-memory
    /// state stays intact, so a retry is safe.
    pub fn flush(&self) -> io::Result<()> {
        self.flush_impl(None).map(|_| ())
    }

    /// The engine behind [`Store::flush`] and [`Store::gc`]:
    /// merge → (maybe) evict → commit. `force_budget` compacts
    /// unconditionally (gc); otherwise the configured
    /// [`Store::set_compact_budget`] applies with its 2× trigger.
    fn flush_impl(&self, force_budget: Option<u64>) -> io::Result<Option<GcReport>> {
        let _span = alice_obs::span("store.flush");
        let configured = *self.compact_budget.lock().expect("budget lock");
        // A compaction may evict from — and therefore rewrite — ANY
        // shard, so when one can run the flush must see (and lock) the
        // whole store at once. Without a possible compaction, each dirty
        // shard is merged + rewritten under its own lock only.
        if force_budget.is_some() || configured.is_some() {
            return self.flush_compacting(force_budget, configured);
        }
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                // The skip scan reads a store-level flag, never the
                // shard lock: a clean shard another handle is busy
                // rewriting costs this flush nothing.
                if !self.dirty_flag(kind, shard).load(Ordering::SeqCst) {
                    continue;
                }
                let mut state = self.shard(kind, shard);
                self.merge_shard(kind, shard, &mut state);
                self.rewrite_shard(kind, shard, &mut state)?;
            }
        }
        self.commit_access_if_dirty()?;
        Ok(None)
    }

    /// The whole-store flush path: locks every shard (kind-major order),
    /// merges every shard with its on-disk copy so eviction accounting
    /// sees the store's true contents (foreign records included), evicts
    /// to the budget, and commits every dirty shard.
    fn flush_compacting(
        &self,
        force_budget: Option<u64>,
        configured: Option<u64>,
    ) -> io::Result<Option<GcReport>> {
        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            Vec::with_capacity(Kind::ALL.len() * SHARD_COUNT);
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                guards.push(self.shard(kind, shard));
            }
        }
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                let state = &mut guards[kind.index() * SHARD_COUNT + shard];
                self.merge_shard(kind, shard, state);
            }
        }
        let report = if let Some(budget) = force_budget {
            Some(self.evict_to_budget(&mut guards, budget))
        } else {
            if let Some(budget) = configured {
                let total: u64 = guards.iter().map(|g| g.payload_bytes()).sum();
                if total > budget.saturating_mul(2) {
                    self.evict_to_budget(&mut guards, budget);
                }
            }
            None
        };
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                if !self.dirty_flag(kind, shard).load(Ordering::SeqCst) {
                    continue;
                }
                let state = &mut guards[kind.index() * SHARD_COUNT + shard];
                self.rewrite_shard(kind, shard, state)?;
            }
        }
        if self.access_dirty.swap(false, Ordering::SeqCst) {
            let bytes = serialize_access_entries(guards.iter().map(|g| &**g));
            if let Err(e) = commit_file(&self.dir, "access.idx", &bytes) {
                self.access_dirty.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
        Ok(report)
    }

    /// Folds the current on-disk copy of one shard into `state`:
    /// records a concurrent writer committed since this handle opened
    /// are kept (coldest stamps — this handle never read them), this
    /// handle's records win on key conflicts, tombstoned keys stay
    /// gone. Merging alone never marks a shard dirty (the merged view
    /// equals the disk content there).
    fn merge_shard(&self, kind: Kind, shard: usize, state: &mut ShardState) {
        if let Ok(bytes) = fs::read(self.dir.join(kind.shard_file_name(shard))) {
            let mut disk = ShardState::default();
            load_segment(kind, shard, &bytes, &mut disk);
            for (key, slot) in disk.records {
                if !state.records.contains_key(&key) && !state.evicted.contains(&key) {
                    state.records.insert(key, slot);
                }
            }
        }
    }

    /// Serializes + commits one shard and clears its flush state.
    /// Rewriting serializes every surviving record, so lazily-indexed
    /// payloads are read (and verified) now; one that fails its verify
    /// degrades to a miss here exactly as it would on get.
    fn rewrite_shard(&self, kind: Kind, shard: usize, state: &mut ShardState) -> io::Result<()> {
        let _span = alice_obs::span_with("store.flush.shard", || kind.shard_file_name(shard));
        STORE_SHARD_FLUSHES.inc();
        materialize(state);
        let bytes = serialize_segment(kind, shard, state);
        commit_file(&self.dir, &kind.shard_file_name(shard), &bytes)?;
        self.dirty_flag(kind, shard).store(false, Ordering::SeqCst);
        // The compacted/merged file is committed; tombstones have done
        // their job.
        state.evicted.clear();
        Ok(())
    }

    /// Commits the access-stamp sidecar when any stamp changed, locking
    /// shards one at a time for the snapshot.
    fn commit_access_if_dirty(&self) -> io::Result<()> {
        if !self.access_dirty.swap(false, Ordering::SeqCst) {
            return Ok(());
        }
        let mut entries: Vec<(Kind, usize, Key, u64)> = Vec::new();
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                let state = self.shard(kind, shard);
                let mut keys: Vec<&Key> = state.records.keys().collect();
                keys.sort();
                for key in keys {
                    entries.push((kind, shard, *key, state.records[key].stamp));
                }
            }
        }
        let bytes = serialize_access_flat(&entries);
        if let Err(e) = commit_file(&self.dir, "access.idx", &bytes) {
            self.access_dirty.store(true, Ordering::SeqCst);
            return Err(e);
        }
        Ok(())
    }

    /// Evicts least-recently-accessed records until the store fits in
    /// `budget_bytes`, then commits the compacted shards. The budget
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
        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            Vec::with_capacity(Kind::ALL.len() * SHARD_COUNT);
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                guards.push(self.shard(kind, shard));
            }
        }
        for guard in &mut guards {
            **guard = ShardState::default();
        }
        let mut names: Vec<String> = Vec::new();
        for kind in Kind::ALL {
            for shard in 0..SHARD_COUNT {
                names.push(kind.shard_file_name(shard));
            }
        }
        names.push("access.idx".to_string());
        for name in names {
            match fs::remove_file(self.dir.join(&name)) {
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

/// Reads one record's payload + checksum at `offset` through the
/// shard's held handle and verifies the digest. `None` on any short
/// read or checksum mismatch — the degrade-to-miss path shared by gets
/// and flush-time materialization.
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
fn materialize(state: &mut ShardState) {
    let file = state.file.as_ref();
    state.records.retain(|key, slot| {
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

impl Store {
    /// LRU-evicts records until the store fits in `budget_bytes`,
    /// recording tombstones so the flush-time merge cannot resurrect
    /// the dropped keys. The shared engine behind [`Store::gc`] and
    /// flush-time opportunistic compaction; expects the caller to hold
    /// every shard's guard in kind-major order.
    fn evict_to_budget(
        &self,
        guards: &mut [MutexGuard<'_, ShardState>],
        budget_bytes: u64,
    ) -> GcReport {
        let mut report = GcReport::default();
        // (stamp, guard index, key, size) over every record.
        let mut all: Vec<(u64, usize, Key, u64)> = Vec::new();
        for (idx, guard) in guards.iter().enumerate() {
            for (key, slot) in &guard.records {
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
                let state = &mut guards[idx];
                state.records.remove(&key);
                state.evicted.insert(key);
                self.dirty[idx / SHARD_COUNT][idx % SHARD_COUNT].store(true, Ordering::SeqCst);
                report.dropped += 1;
            }
        }
        report.bytes_after = used;
        report
    }
}

/// Serializes one shard's records into segment-file bytes. Every slot
/// must already be materialized (a flush does this for dirty shards).
fn serialize_segment(kind: Kind, shard: usize, state: &ShardState) -> Vec<u8> {
    let mut out = Vec::with_capacity(state.payload_bytes() as usize + HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.tag());
    out.push(shard as u8);
    // Deterministic record order (by key) so identical contents always
    // produce identical files.
    let mut keys: Vec<&Key> = state.records.keys().collect();
    keys.sort();
    for key in keys {
        let slot = &state.records[key];
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

/// Checks a v3 shard header: magic, version, kind tag, shard id.
fn shard_header_ok(header: &[u8], kind: Kind, shard: usize) -> bool {
    header.len() >= HEADER_LEN
        && header[..8] == MAGIC
        && u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) == FORMAT_VERSION
        && header[12] == kind.tag()
        && header[13] == shard as u8
}

/// Scans a shard file's record framing into an offset index without
/// reading any payload bytes. `None` when the header is unreadable or
/// mismatched (the whole file is then treated as empty); a truncated
/// tail drops the remainder. Payload verification is deferred to
/// get-time.
fn index_segment(kind: Kind, shard: usize, file: &fs::File) -> Option<HashMap<Key, RecordSlot>> {
    let size = file.metadata().ok()?.len();
    if size < HEADER_LEN as u64 {
        return None;
    }
    let mut header = [0u8; HEADER_LEN];
    read_exact_at(file, &mut header, 0).ok()?;
    if !shard_header_ok(&header, kind, shard) {
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

/// Loads a shard from a full byte image, verifying every record — the
/// eager path the flush-time merge uses on the *current* on-disk copy
/// (whose offsets may not match this handle's held inode). A bad header
/// drops the whole file, a bad checksum drops that record, a truncated
/// tail drops the remainder.
fn load_segment(kind: Kind, shard: usize, bytes: &[u8], state: &mut ShardState) {
    if !shard_header_ok(bytes, kind, shard) {
        return;
    }
    let mut pos = HEADER_LEN;
    while bytes.len() - pos >= RECORD_OVERHEAD as usize {
        let k0 = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8"));
        let k1 = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8"));
        let len = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().expect("4")) as usize;
        pos += 20;
        if bytes.len() - pos < len + 16 {
            return; // truncated tail (e.g. a crash mid-append)
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        let c0 = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8"));
        let c1 = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8"));
        pos += 16;
        if record_digest((k0, k1), payload) != (c0, c1) {
            continue; // corrupted record: degrade to a miss
        }
        state.records.insert(
            (k0, k1),
            RecordSlot {
                payload: Slot::Owned(Arc::new(payload.to_vec())),
                len: len as u32,
                stamp: 0,
            },
        );
    }
}

/// Serializes access entries from held shard guards (the compacting
/// flush path, which cannot re-lock).
fn serialize_access_entries<'a>(states: impl Iterator<Item = &'a ShardState>) -> Vec<u8> {
    let mut entries: Vec<(Kind, usize, Key, u64)> = Vec::new();
    for (idx, state) in states.enumerate() {
        let kind = Kind::ALL[idx / SHARD_COUNT];
        let shard = idx % SHARD_COUNT;
        let mut keys: Vec<&Key> = state.records.keys().collect();
        keys.sort();
        for key in keys {
            entries.push((kind, shard, *key, state.records[key].stamp));
        }
    }
    serialize_access_flat(&entries)
}

/// The access-index wire format: header, then 26-byte entries of
/// `kind(1) · shard(1) · key(16) · stamp(8)`. Entries carry the shard
/// id so a stamp applies with a direct `[kind][shard]` slot lookup —
/// no shard has to be searched (or even opened) to find the key.
fn serialize_access_flat(entries: &[(Kind, usize, Key, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + entries.len() * 26);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for (kind, shard, key, stamp) in entries {
        out.push(kind.tag());
        out.push(*shard as u8);
        out.extend_from_slice(&key.0.to_le_bytes());
        out.extend_from_slice(&key.1.to_le_bytes());
        out.extend_from_slice(&stamp.to_le_bytes());
    }
    out
}

/// Parses the access-stamp sidecar. A corrupt entry (bad kind tag, bad
/// shard id, or a shard that disagrees with the key's low bits) keeps
/// all earlier entries and degrades only the remainder to coldest.
fn parse_access(bytes: &[u8]) -> Option<Vec<(Kind, usize, Key, u64)>> {
    if bytes.len() < 12 || bytes[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return None;
    }
    let mut out = Vec::new();
    let mut pos = 12;
    while bytes.len() - pos >= 26 {
        let kind = match Kind::from_tag(bytes[pos]) {
            Some(kind) => kind,
            None => break,
        };
        let shard = bytes[pos + 1] as usize;
        let k0 = u64::from_le_bytes(bytes[pos + 2..pos + 10].try_into().expect("8"));
        let k1 = u64::from_le_bytes(bytes[pos + 10..pos + 18].try_into().expect("8"));
        let stamp = u64::from_le_bytes(bytes[pos + 18..pos + 26].try_into().expect("8"));
        if shard >= SHARD_COUNT || shard != shard_of((k0, k1)) {
            break;
        }
        out.push((kind, shard, (k0, k1), stamp));
        pos += 26;
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
    fn shard_of_uses_low_key_bits() {
        assert_eq!(shard_of((0, 99)), 0);
        assert_eq!(shard_of((1, 0)), 1);
        assert_eq!(shard_of((9, 9)), 1, "only key.0's low bits matter");
        assert_eq!(shard_of((u64::MAX, 0)), SHARD_COUNT - 1);
        assert_eq!(Kind::Netlist.shard_file_name(3), "netlists.03.seg");
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
        // Records landed in their keys' shard files.
        assert!(dir.join(Kind::Netlist.shard_file_name(1)).exists());
        assert!(dir.join(Kind::Fabric.shard_file_name(3)).exists());
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
            // Both keys share shard 1, so the flip and its survivor live
            // in one file.
            s.put(Kind::LutMap, (1, 1), vec![7; 64]);
            s.put(Kind::LutMap, (9, 9), vec![8; 64]);
            s.flush().expect("flush");
        }
        // Flip a bit inside the first record's payload.
        let path = dir.join(Kind::LutMap.shard_file_name(1));
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
        // Flip a bit inside the first record's *key* (above the shard
        // bits, so the mutated key still routes to this shard). The
        // checksum folds the key, so the payload must not resurface
        // under the mutated content address.
        let path = dir.join(Kind::LutMap.shard_file_name(1));
        let mut bytes = fs::read(&path).expect("read segment");
        bytes[HEADER_LEN + 3] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let s = Store::open(&dir).expect("reopen");
        let mutated = (1u64 ^ (0x40u64 << 24), 1u64);
        assert_eq!(shard_of(mutated), 1, "mutation stays in the shard");
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
        let path = dir.join(Kind::Cec.shard_file_name(1));
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
        let path = dir.join(Kind::Netlist.shard_file_name(1));
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
            // Both keys share shard 1; 8 KiB each, so the truncation
            // below removes whole pages of the file.
            s.put(Kind::Fabric, (1, 1), vec![7; 8192]);
            s.put(Kind::Fabric, (9, 9), vec![8; 8192]);
            s.flush().expect("flush");
        }
        let s = Store::open(&dir).expect("reopen");
        let first = s.get(Kind::Fabric, (9, 9)).expect("hit");
        assert_eq!(&first[..], &[8u8; 8192][..]);
        // Truncate the shard file to its header in place (same inode the
        // store holds open).
        let path = dir.join(Kind::Fabric.shard_file_name(1));
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
        // Invert every payload byte in every shard (framing intact). If
        // open read or verified payloads, no record would survive the
        // open; since it only scans framing, all records index fine —
        // and every get then fails its verify.
        for shard in 0..SHARD_COUNT {
            let path = dir.join(Kind::Fabric.shard_file_name(shard));
            let mut bytes = fs::read(&path).expect("read");
            let mut pos = HEADER_LEN;
            while pos + 20 <= bytes.len() {
                let len =
                    u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().expect("4")) as usize;
                pos += 20;
                for b in &mut bytes[pos..pos + len] {
                    *b = !*b;
                }
                pos += len + 16;
            }
            fs::write(&path, &bytes).expect("rewrite");
        }
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
        let path = dir.join(Kind::Netlist.shard_file_name(1));
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
        let path = dir.join(Kind::Fabric.shard_file_name(5));
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
        let entry = |out: &mut Vec<u8>, tag: u8, shard: u8, key: Key, stamp: u64| {
            out.push(tag);
            out.push(shard);
            out.extend_from_slice(&key.0.to_le_bytes());
            out.extend_from_slice(&key.1.to_le_bytes());
            out.extend_from_slice(&stamp.to_le_bytes());
        };
        entry(&mut bytes, Kind::Netlist.tag(), 1, (1, 0), 7);
        entry(&mut bytes, 0xEE, 2, (2, 0), 8); // corrupt kind tag
        entry(&mut bytes, Kind::Cec.tag(), 3, (3, 0), 9);
        let parsed = parse_access(&bytes).expect("index still parses");
        assert_eq!(
            parsed,
            vec![(Kind::Netlist, 1, (1, 0), 7)],
            "entries before the corrupt tag survive; the remainder is skipped"
        );
    }

    #[test]
    fn access_index_entry_with_wrong_shard_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let entry = |out: &mut Vec<u8>, shard: u8, key: Key, stamp: u64| {
            out.push(Kind::Netlist.tag());
            out.push(shard);
            out.extend_from_slice(&key.0.to_le_bytes());
            out.extend_from_slice(&key.1.to_le_bytes());
            out.extend_from_slice(&stamp.to_le_bytes());
        };
        entry(&mut bytes, 1, (1, 0), 7);
        // Shard byte disagrees with the key's low bits: corrupt.
        entry(&mut bytes, 4, (2, 0), 8);
        entry(&mut bytes, 3, (3, 0), 9);
        let parsed = parse_access(&bytes).expect("index still parses");
        assert_eq!(parsed, vec![(Kind::Netlist, 1, (1, 0), 7)]);
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
        // processes, with their keys in the SAME shard — the contended
        // case; without the merge the later flush would overwrite the
        // earlier one's additions.
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
    fn gc_eviction_is_not_resurrected_by_the_merge() {
        let dir = tmp_dir("merge-gc");
        let s = Store::open(&dir).expect("open");
        s.put(Kind::Netlist, (1, 0), vec![0; 100]);
        s.put(Kind::Netlist, (2, 0), vec![0; 100]);
        s.flush().expect("flush");
        // Both records are on disk (in different shards); evicting one
        // must stick even though the gc's own flush re-reads that very
        // shard file for the merge.
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
        // Six records spread over six different shards, all on disk.
        for k in 0..6u64 {
            s.put(Kind::Cec, (k, k), vec![k as u8; 100]);
        }
        s.flush().expect("flush");
        // Warm two of them, then compact to two records: evictions land
        // in four DIFFERENT shard files, and every one must tombstone.
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
                "evicted record resurrected from shard {k}"
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
    fn shard_table_reports_per_shard_rows() {
        let dir = tmp_dir("shard-table");
        let s = Store::open(&dir).expect("open");
        s.put(Kind::Netlist, (1, 0), vec![0; 8]); // shard 1
        s.put(Kind::Cec, (9, 0), vec![0; 8]); // shard 1
        s.put(Kind::Fabric, (6, 0), vec![0; 8]); // shard 6
        let stats = s.stats();
        assert_eq!(stats.shards[Kind::Netlist.index()][1].records, 1);
        assert_eq!(stats.shards[Kind::Cec.index()][1].records, 1);
        assert_eq!(stats.shards[Kind::Fabric.index()][6].records, 1);
        assert_eq!(stats.shards[Kind::Fabric.index()][0].records, 0);
        let table = stats.shard_table();
        assert_eq!(
            table.lines().count(),
            SHARD_COUNT + 1,
            "header plus one row per shard"
        );
        assert!(table.contains("tombstones"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disjoint_shard_flushes_survive_concurrent_writers() {
        let dir = tmp_dir("disjoint-flush");
        let s = Arc::new(Store::open(&dir).expect("open"));
        // Writer A owns shards {0, 2}, writer B owns {1, 3}: their puts
        // and flushes never touch a common shard, so both full sets
        // must survive however the two flushes interleave.
        let a = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..20u64 {
                    let shard = [0u64, 2][i as usize % 2];
                    s.put(Kind::Netlist, (shard + 8 * i, i), vec![0xA0; 64]);
                    if i % 5 == 4 {
                        s.flush().expect("flush a");
                    }
                }
                s.flush().expect("final flush a");
            })
        };
        let b = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..20u64 {
                    let shard = [1u64, 3][i as usize % 2];
                    s.put(Kind::Netlist, (shard + 8 * i, i), vec![0xB0; 64]);
                    if i % 5 == 4 {
                        s.flush().expect("flush b");
                    }
                }
                s.flush().expect("final flush b");
            })
        };
        a.join().expect("writer a");
        b.join().expect("writer b");
        drop(s);
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 40, "no writer lost records");
        for i in 0..20u64 {
            let (ka, kb) = ([0u64, 2][i as usize % 2], [1u64, 3][i as usize % 2]);
            assert!(s.get(Kind::Netlist, (ka + 8 * i, i)).is_some());
            assert!(s.get(Kind::Netlist, (kb + 8 * i, i)).is_some());
        }
        // Only the four owned shards materialized files.
        for shard in 0..SHARD_COUNT {
            let exists = dir.join(Kind::Netlist.shard_file_name(shard)).exists();
            assert_eq!(exists, shard < 4, "shard {shard} file presence");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_segment_is_ignored_and_left_untouched() {
        let dir = tmp_dir("v2");
        fs::create_dir_all(&dir).expect("mkdir");
        // A valid v2 single-segment file: magic, version 2, kind tag (no
        // shard byte), then checksummed records in the unchanged frame
        // format.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&MAGIC);
        legacy.extend_from_slice(&2u32.to_le_bytes());
        legacy.push(Kind::Netlist.tag());
        for k in 0..4u64 {
            let payload = vec![k as u8; 48];
            legacy.extend_from_slice(&k.to_le_bytes());
            legacy.extend_from_slice(&k.to_le_bytes());
            legacy.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            legacy.extend_from_slice(&payload);
            let (c0, c1) = record_digest((k, k), &payload);
            legacy.extend_from_slice(&c0.to_le_bytes());
            legacy.extend_from_slice(&c1.to_le_bytes());
        }
        let legacy_path = dir.join("netlists.seg");
        fs::write(&legacy_path, &legacy).expect("write v2 segment");
        {
            let s = Store::open(&dir).expect("open");
            assert_eq!(s.stats().records(), 0, "v2 records are not read");
            assert_eq!(s.get(Kind::Netlist, (1, 1)), None);
            // A recompute writes the current layout beside it.
            s.put(Kind::Netlist, (1, 1), vec![1; 48]);
            s.flush().expect("flush");
        }
        assert_eq!(
            fs::read(&legacy_path).expect("v2 file still present"),
            legacy,
            "the v2 file is left byte-for-byte untouched"
        );
        let s = Store::open(&dir).expect("reopen");
        assert_eq!(s.stats().records(), 1);
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
