//! The shared design database: a content-addressed characterization cache.
//!
//! Algorithm 3 fabric characterization dominates the flow's runtime (the
//! `select t` column of Table 2), and it keeps redoing identical work:
//! every instance of a module re-elaborates and re-LUT-maps the same RTL,
//! every same-shaped cluster re-runs the same fabric sizing, and a
//! benchmarks × configurations sweep (the `suite` binary, ARIANNA-style
//! fabric-customization loops) repeats all of it per configuration.
//!
//! [`DesignDb`] memoizes the three expensive oracles behind
//! **content-addressed** keys, so results are shared wherever the inputs
//! are structurally identical — across instances, across clusters, across
//! flow runs, and across designs:
//!
//! | cached step | key |
//! |---|---|
//! | RTL elaboration | hash of the module's source closure (its printed definition plus every module it transitively instantiates) |
//! | LUT mapping | elaborated-netlist [structural hash](alice_netlist::ir::Netlist::structural_hash) + LUT input count `k` |
//! | fabric sizing ([`create_efpga`]) | *name-free* [structural hash](alice_netlist::lutmap::MappedNetlist::structural_hash) of the merged cluster network + the fabric architecture parameters |
//!
//! The fabric key deliberately ignores port and register names: packing,
//! sizing, bitstream generation, and the cost model never read them, so
//! two clusters that merge to the same shape — say `{sbox0, sbox1}` and
//! `{sbox2, sbox5}` in DES3 — share one characterization even though
//! their prefixed port names differ. All caches are thread-safe; the
//! select stage's sharded workers and concurrent suite flows hit them
//! freely.
//!
//! # Persistence
//!
//! A [`DesignDb::with_store`] db is additionally backed by the on-disk
//! [`Store`] (`alice-store`): misses are written through, and a *later
//! process* over the same store directory serves them as **disk hits**
//! instead of recomputing — the keys are content-addressed, so nothing
//! about the original process needs to survive. Opening a store only
//! indexes the sharded segments (offsets, not payloads); each record's
//! bytes are read and checksum-verified on first access, then shared as
//! an `Arc<Vec<u8>>` that the decoders borrow, so anything corrupt,
//! truncated, or written by a different format version silently
//! degrades to a recompute.
//! Writes land in per-key shards with per-shard locks, so concurrent
//! dbs over one directory flush without contending on a whole-kind
//! segment. Beyond the three oracles above, the store
//! also carries the CEC proof cache and the sweeper's per-pair lemma
//! segment (see `alice_cec::cache`), handed to the verify stage via
//! [`DesignDb::store`].

use crate::error::AliceError;
use alice_fabric::{create_efpga, EfpgaImpl, FabricArch};
use alice_intern::StableHasher;
use alice_netlist::ir::Netlist;
use alice_netlist::lutmap::{map_luts, MappedNetlist};
use alice_store::{artifact, Kind, Reader, Store, Writer};
use alice_verilog::ast::SourceFile;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A 128-bit content key.
type Key = (u64, u64);

/// One cache slot: cloned out of the map so the map lock is never held
/// during computation, while [`OnceLock::get_or_init`] guarantees a
/// missed key is computed exactly once — concurrent workers that race on
/// the same key block on the first computation instead of redoing it.
type Cell<V> = Arc<OnceLock<V>>;

/// A keyed once-cache: map lock only guards slot lookup, the slot itself
/// serializes computation.
type CacheMap<K, V> = Mutex<HashMap<K, Cell<V>>>;

/// Cumulative hit/miss counters of one [`DesignDb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups answered from the in-memory cache.
    pub hits: u64,
    /// Lookups answered from the on-disk [`Store`] (cold in this
    /// process, warm on disk). Zero when no store is attached.
    pub disk_hits: u64,
    /// Lookups that had to compute (and then populated the cache).
    pub misses: u64,
}

impl CacheCounts {
    /// Counter difference since an earlier snapshot (for per-run
    /// reporting against a long-lived shared db).
    #[must_use]
    pub fn since(&self, earlier: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - earlier.hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
        }
    }

    /// Served fraction of all lookups — memory and disk hits both count
    /// as served (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.disk_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

/// Observability mirrors of the per-db [`Stats`]: process-wide oracle
/// cache resolution counts, exported via `--metrics`.
static DB_HITS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_db_cache_hits_total",
    "DesignDb lookups served from the in-memory once-cache",
);
static DB_DISK_HITS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_db_cache_disk_hits_total",
    "DesignDb lookups served by decoding a persistent-store record",
);
static DB_MISSES: alice_obs::Counter = alice_obs::Counter::new(
    "alice_db_cache_misses_total",
    "DesignDb lookups that ran the underlying oracle",
);

impl Stats {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        DB_HITS.inc();
    }
    fn disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        DB_DISK_HITS.inc();
    }
    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        DB_MISSES.inc();
    }
}

/// The shared per-run (or per-suite) design database. See the module
/// docs for what is cached and how keys are formed.
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones to every flow
/// that should reuse characterizations ([`Flow::with_db`]).
///
/// [`Flow::with_db`]: crate::flow::Flow::with_db
#[derive(Debug, Default)]
pub struct DesignDb {
    disabled: bool,
    store: Option<Arc<Store>>,
    netlists: CacheMap<Key, Result<Arc<Netlist>, AliceError>>,
    lutmaps: CacheMap<(Key, u32), Result<Arc<MappedNetlist>, AliceError>>,
    fabrics: CacheMap<(Key, Key), Result<Arc<EfpgaImpl>, String>>,
    stats: Stats,
}

/// How one lookup was served, for the counters.
#[derive(Clone, Copy, PartialEq)]
enum Served {
    Memory,
    Disk,
    Computed,
}

/// Looks `key` up in `map`, with a three-level resolution: the in-memory
/// once-cache (a hit), then `load` — the on-disk store's decode path (a
/// disk hit), then `compute` + `persist` (a miss). Each level runs
/// exactly once per key even under contention; workers that block on
/// another worker's in-flight resolution count as memory hits — they
/// were served without computing.
fn cached<K: std::hash::Hash + Eq, V: Clone>(
    map: &CacheMap<K, V>,
    stats: &Stats,
    key: K,
    load: impl FnOnce() -> Option<V>,
    persist: impl FnOnce(&V),
    compute: impl FnOnce() -> V,
) -> V {
    let cell = map
        .lock()
        .expect("cache map")
        .entry(key)
        .or_insert_with(|| Arc::new(OnceLock::new()))
        .clone();
    let mut served = Served::Memory;
    let value = cell.get_or_init(|| match load() {
        Some(v) => {
            served = Served::Disk;
            v
        }
        None => {
            served = Served::Computed;
            let v = compute();
            persist(&v);
            v
        }
    });
    match served {
        Served::Memory => stats.hit(),
        Served::Disk => stats.disk_hit(),
        Served::Computed => stats.miss(),
    }
    value.clone()
}

/// Folds a composite in-memory cache key into the store's flat 128-bit
/// key space, tagged by kind so the lanes cannot alias.
fn store_key(kind: Kind, parts: &[u64]) -> Key {
    let mut h = StableHasher::new();
    h.write_str(kind.label());
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

/// Hashes the fabric architecture parameters into a cache key lane.
fn arch_key(arch: &FabricArch) -> Key {
    let mut h = StableHasher::new();
    h.write_u32(arch.lut_inputs);
    h.write_u32(arch.les_per_clb);
    h.write_u32(arch.gpio_per_tile);
    h.write_u32(arch.max_dim);
    h.write_u32(arch.channel_width);
    h.finish()
}

/// Content key of a module: its printed definition plus the printed
/// definitions of every module it transitively instantiates, in
/// name-sorted order. Two textually identical module closures — even in
/// different designs — get the same key.
pub fn module_fingerprint(file: &SourceFile, module: &str) -> Key {
    let mut names: Vec<&str> = Vec::new();
    let mut stack = vec![module];
    while let Some(m) = stack.pop() {
        if names.contains(&m) {
            continue;
        }
        names.push(m);
        if let Some(def) = file.module(m) {
            for inst in def.instances() {
                stack.push(&inst.module);
            }
        }
    }
    names.sort_unstable();
    let mut h = StableHasher::new();
    for name in names {
        h.write_str(name);
        match file.module(name) {
            Some(def) => h.write_str(&alice_verilog::print_module_to_string(def)),
            None => h.write_str(""),
        }
    }
    h.finish()
}

impl DesignDb {
    /// A fresh, empty, enabled database.
    pub fn new() -> DesignDb {
        DesignDb::default()
    }

    /// A database that never stores or returns anything (the `--no-cache`
    /// A/B baseline); its counters stay zero.
    pub fn new_disabled() -> DesignDb {
        DesignDb {
            disabled: true,
            ..DesignDb::default()
        }
    }

    /// A database backed by the persistent [`Store`] at `dir`: misses are
    /// written through to disk, and a later process (or a fresh db over
    /// the same directory) serves them as disk hits instead of
    /// recomputing. Corrupt or version-mismatched store contents degrade
    /// to recomputes, never errors.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] only when the store directory cannot be
    /// created.
    pub fn with_store(dir: impl Into<PathBuf>) -> io::Result<DesignDb> {
        Ok(DesignDb::with_store_handle(Arc::new(Store::open(dir)?)))
    }

    /// A database over an already-open [`Store`] handle (so several dbs —
    /// or the CEC proof cache — can share one store).
    pub fn with_store_handle(store: Arc<Store>) -> DesignDb {
        DesignDb {
            store: Some(store),
            ..DesignDb::default()
        }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Commits any pending store writes to disk (also happens when the
    /// last reference to the store drops); a no-op without a store.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the commit fails; in-memory caching
    /// is unaffected.
    pub fn flush_store(&self) -> io::Result<()> {
        match &self.store {
            Some(s) => s.flush(),
            None => Ok(()),
        }
    }

    /// Whether lookups are live (false only for [`DesignDb::new_disabled`]).
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Snapshot of the cumulative hit/miss counters.
    pub fn counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.stats.hits.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
        }
    }

    /// Counts a served-from-store event from a collaborating cache (the
    /// CEC proof cache lives in `alice-cec` but shares this db's store
    /// and its disk-hit attribution).
    pub fn count_external_disk_hit(&self) {
        self.stats.disk_hit();
    }

    /// Counts a computed-and-persisted event from a collaborating cache.
    pub fn count_external_miss(&self) {
        self.stats.miss();
    }

    /// Elaborates `module` (memoized by source-closure fingerprint;
    /// failures are cached too — elaboration is deterministic, so the
    /// same source always produces the same error).
    ///
    /// # Errors
    ///
    /// Returns [`AliceError::Elaborate`] when elaboration fails.
    pub fn elaborate(&self, file: &SourceFile, module: &str) -> Result<Arc<Netlist>, AliceError> {
        let run = || {
            let _span = alice_obs::span_with("db.elaborate", || module.to_string());
            alice_netlist::elaborate::elaborate(file, module)
                .map(Arc::new)
                .map_err(|e| AliceError::Elaborate(format!("{module}: {e}")))
        };
        if self.disabled {
            return run();
        }
        let key = module_fingerprint(file, module);
        let skey = store_key(Kind::Netlist, &[key.0, key.1]);
        cached(
            &self.netlists,
            &self.stats,
            key,
            || {
                let bytes = self.store.as_ref()?.get(Kind::Netlist, skey)?;
                let mut r = Reader::new(&bytes);
                if artifact::read_result_tag(&mut r).ok()? {
                    Some(Ok(Arc::new(artifact::read_netlist(&mut r).ok()?)))
                } else {
                    Some(Err(AliceError::Elaborate(r.get_str().ok()?.to_string())))
                }
            },
            |v| {
                let Some(store) = &self.store else { return };
                let mut w = Writer::new();
                match v {
                    Ok(n) => {
                        artifact::write_result_tag(&mut w, true);
                        artifact::write_netlist(&mut w, n);
                    }
                    Err(AliceError::Elaborate(msg)) => {
                        artifact::write_result_tag(&mut w, false);
                        w.put_str(msg);
                    }
                    Err(_) => return, // only the elaborate variant occurs here
                }
                store.put(Kind::Netlist, skey, w.into_bytes());
            },
            run,
        )
    }

    /// Elaborates and LUT-maps `module` (both steps memoized).
    ///
    /// # Errors
    ///
    /// Returns [`AliceError::Elaborate`] when elaboration or mapping
    /// fails.
    pub fn map_module(
        &self,
        file: &SourceFile,
        module: &str,
        k: u32,
    ) -> Result<Arc<MappedNetlist>, AliceError> {
        let netlist = self.elaborate(file, module)?;
        let run = || {
            let _span = alice_obs::span_with("db.lutmap", || module.to_string());
            map_luts(&netlist, k)
                .map(Arc::new)
                .map_err(|e| AliceError::Elaborate(format!("{module}: {e}")))
        };
        if self.disabled {
            return run();
        }
        let nh = netlist.structural_hash();
        let key = (nh, k);
        let skey = store_key(Kind::LutMap, &[nh.0, nh.1, u64::from(k)]);
        cached(
            &self.lutmaps,
            &self.stats,
            key,
            || {
                let bytes = self.store.as_ref()?.get(Kind::LutMap, skey)?;
                let mut r = Reader::new(&bytes);
                if artifact::read_result_tag(&mut r).ok()? {
                    Some(Ok(Arc::new(artifact::read_mapped(&mut r).ok()?)))
                } else {
                    Some(Err(AliceError::Elaborate(r.get_str().ok()?.to_string())))
                }
            },
            |v| {
                let Some(store) = &self.store else { return };
                let mut w = Writer::new();
                match v {
                    Ok(m) => {
                        artifact::write_result_tag(&mut w, true);
                        artifact::write_mapped(&mut w, m);
                    }
                    Err(AliceError::Elaborate(msg)) => {
                        artifact::write_result_tag(&mut w, false);
                        w.put_str(msg);
                    }
                    Err(_) => return,
                }
                store.put(Kind::LutMap, skey, w.into_bytes());
            },
            run,
        )
    }

    /// Runs the fabric oracle on a merged cluster network (memoized by
    /// name-free structure + architecture). The `Err` branch carries the
    /// oracle's message and *is* cached — in memory and on disk —
    /// so infeasible shapes stay infeasible without re-proving it.
    ///
    /// # Errors
    ///
    /// Returns the fabric oracle's error text when the cluster fits no
    /// permitted fabric.
    pub fn characterize(
        &self,
        network: &MappedNetlist,
        arch: &FabricArch,
    ) -> Result<Arc<EfpgaImpl>, String> {
        let run = || {
            let _span = alice_obs::span("db.characterize");
            create_efpga(network, arch)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        };
        if self.disabled {
            return run();
        }
        let nh = network.structural_hash();
        let ah = arch_key(arch);
        let key = (nh, ah);
        let skey = store_key(Kind::Fabric, &[nh.0, nh.1, ah.0, ah.1]);
        cached(
            &self.fabrics,
            &self.stats,
            key,
            || {
                let bytes = self.store.as_ref()?.get(Kind::Fabric, skey)?;
                let mut r = Reader::new(&bytes);
                if artifact::read_result_tag(&mut r).ok()? {
                    Some(Ok(Arc::new(artifact::read_efpga(&mut r).ok()?)))
                } else {
                    Some(Err(r.get_str().ok()?.to_string()))
                }
            },
            |v| {
                let Some(store) = &self.store else { return };
                let mut w = Writer::new();
                match v {
                    Ok(e) => {
                        artifact::write_result_tag(&mut w, true);
                        artifact::write_efpga(&mut w, e);
                    }
                    Err(msg) => {
                        artifact::write_result_tag(&mut w, false);
                        w.put_str(msg);
                    }
                }
                store.put(Kind::Fabric, skey, w.into_bytes());
            },
            run,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alice_verilog::parse_source;

    const SRC: &str = r#"
module add8(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);
  assign y = a + b;
endmodule
module top(input wire [7:0] p, input wire [7:0] q, output wire [7:0] o1, output wire [7:0] o2);
  add8 u0(.a(p), .b(q), .y(o1));
  add8 u1(.a(q), .b(p), .y(o2));
endmodule
"#;

    #[test]
    fn repeated_mapping_hits_the_cache() {
        let f = parse_source(SRC).expect("parse");
        let db = DesignDb::new();
        let m1 = db.map_module(&f, "add8", 4).expect("map");
        let c0 = db.counts();
        assert_eq!(c0.hits, 0);
        assert!(c0.misses >= 2, "elaborate + map are both misses");
        let m2 = db.map_module(&f, "add8", 4).expect("map");
        let c1 = db.counts();
        assert!(c1.hits >= 2, "second call hits elaborate + map");
        assert_eq!(c1.misses, c0.misses);
        assert_eq!(m1.lut_count(), m2.lut_count());
        assert!(Arc::ptr_eq(&m1, &m2), "cache returns the same Arc");
    }

    #[test]
    fn fingerprint_is_content_addressed_across_files() {
        let f1 = parse_source(SRC).expect("parse");
        // A different design containing a textually identical add8.
        let f2 = parse_source(
            "module add8(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);\n  assign y = a + b;\nendmodule",
        )
        .expect("parse");
        assert_eq!(
            module_fingerprint(&f1, "add8"),
            module_fingerprint(&f2, "add8")
        );
        assert_ne!(
            module_fingerprint(&f1, "add8"),
            module_fingerprint(&f1, "top")
        );
    }

    #[test]
    fn characterization_shares_same_shaped_networks() {
        let f = parse_source(SRC).expect("parse");
        let db = DesignDb::new();
        let m = db.map_module(&f, "add8", 4).expect("map");
        let arch = FabricArch::default();
        let a = db.characterize(&m, &arch).expect("fits");
        let before = db.counts();
        let b = db.characterize(&m, &arch).expect("fits");
        let after = db.counts();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(a.size, b.size);
        assert_eq!(a.bitstream, b.bitstream);
    }

    #[test]
    fn disabled_db_computes_but_never_counts() {
        let f = parse_source(SRC).expect("parse");
        let db = DesignDb::new_disabled();
        assert!(!db.is_enabled());
        db.map_module(&f, "add8", 4).expect("map");
        db.map_module(&f, "add8", 4).expect("map");
        assert_eq!(db.counts(), CacheCounts::default());
    }

    #[test]
    fn counts_since_subtracts() {
        let a = CacheCounts {
            hits: 5,
            disk_hits: 4,
            misses: 3,
        };
        let b = CacheCounts {
            hits: 2,
            disk_hits: 1,
            misses: 1,
        };
        assert_eq!(
            a.since(b),
            CacheCounts {
                hits: 3,
                disk_hits: 3,
                misses: 2,
            }
        );
        assert!((a.hit_rate() - 9.0 / 12.0).abs() < 1e-12);
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alice-db-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_db_over_same_store_serves_disk_hits() {
        let dir = store_dir("roundtrip");
        let f = parse_source(SRC).expect("parse");
        let arch = FabricArch::default();
        let (m1, e1) = {
            let db = DesignDb::with_store(&dir).expect("open");
            let m = db.map_module(&f, "add8", 4).expect("map");
            let e = db.characterize(&m, &arch).expect("fits");
            db.flush_store().expect("flush");
            let c = db.counts();
            assert_eq!(c.disk_hits, 0, "first pass computes everything");
            assert!(c.misses >= 3, "elaborate + map + characterize");
            (m, e)
        };
        // A fresh db over the same directory models a second process.
        let db = DesignDb::with_store(&dir).expect("reopen");
        let m2 = db.map_module(&f, "add8", 4).expect("map");
        let e2 = db.characterize(&m2, &arch).expect("fits");
        let c = db.counts();
        assert_eq!(c.misses, 0, "everything is served from disk");
        assert!(c.disk_hits >= 3, "elaborate + map + characterize from disk");
        assert_eq!(m2.structural_hash(), m1.structural_hash());
        assert_eq!(e2.size, e1.size);
        assert_eq!(e2.bitstream, e1.bitstream);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infeasible_characterizations_persist_too() {
        let dir = store_dir("infeasible");
        let f = parse_source(SRC).expect("parse");
        // An architecture too small for anything: max_dim 0 fits nothing.
        let arch = FabricArch {
            max_dim: 0,
            ..FabricArch::default()
        };
        let msg = {
            let db = DesignDb::with_store(&dir).expect("open");
            let m = db.map_module(&f, "add8", 4).expect("map");
            let msg = db.characterize(&m, &arch).expect_err("infeasible");
            db.flush_store().expect("flush");
            msg
        };
        let db = DesignDb::with_store(&dir).expect("reopen");
        let m = db.map_module(&f, "add8", 4).expect("map");
        let before = db.counts();
        let again = db.characterize(&m, &arch).expect_err("still infeasible");
        let after = db.counts();
        assert_eq!(again, msg, "identical cached message");
        assert_eq!(after.misses, before.misses, "no recompute");
        assert_eq!(after.disk_hits, before.disk_hits + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_store_record_degrades_to_recompute() {
        let dir = store_dir("bitflip");
        let f = parse_source(SRC).expect("parse");
        {
            let db = DesignDb::with_store(&dir).expect("open");
            db.map_module(&f, "add8", 4).expect("map");
            db.flush_store().expect("flush");
        }
        // Flip one payload bit in every shard segment that has content.
        for kind in alice_store::Kind::ALL {
            for shard in 0..alice_store::SHARD_COUNT {
                let path = dir.join(kind.shard_file_name(shard));
                if let Ok(mut bytes) = std::fs::read(&path) {
                    if bytes.len() > 41 {
                        let mid = 14 + 20 + (bytes.len() - 14 - 36) / 2;
                        bytes[mid] ^= 0x08;
                        std::fs::write(&path, &bytes).expect("rewrite");
                    }
                }
            }
        }
        let db = DesignDb::with_store(&dir).expect("reopen");
        let m = db.map_module(&f, "add8", 4).expect("recomputes");
        let c = db.counts();
        assert!(c.misses > 0, "corrupt records are recomputed, not errors");
        assert!(m.lut_count() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
