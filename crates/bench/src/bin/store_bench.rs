//! `store_bench` — the artifact-store concurrency benchmark: measures
//! what the sharded store buys over a single-segment layout and writes
//! `BENCH_store.json` so `bench_diff` can gate the trajectory.
//!
//! ```text
//! store_bench [--out BENCH_store.json] [--samples N] [--smoke]
//! ```
//!
//! `flush_merge` — N writer threads (each batching puts and flushing)
//! race M reader threads over one store, twice: once with every key
//! confined to a single shard (one lock, one file, whole-file rewrites —
//! exactly the v2 single-segment-per-kind behaviour) and once with each
//! writer owning its own pair of shards. The single-segment run
//! serializes every flush-merge behind one lock and rewrites the whole
//! accumulated segment each time; the sharded run commits disjoint
//! shards concurrently and rewrites only each writer's own slice.
//! `flush_merge_improvement` is the headline contention number the CI
//! gate holds.
//!
//! `--smoke` shrinks everything to one sample and smaller batches for
//! CI.

use alice_store::{shard_of, Kind, Store, SHARD_COUNT};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: store_bench [--out FILE] [--samples N] [--smoke]";

/// Writer threads in the flush-merge race (the acceptance bar is
/// phrased for ≥ 4).
const WRITERS: usize = 4;
/// Reader threads hammering warm keys while the writers flush.
const READERS: usize = 4;

struct Scale {
    /// Flush rounds per writer.
    rounds: usize,
    /// Puts per writer per round.
    batch: usize,
    /// Payload bytes per record.
    payload: usize,
    /// Pre-seeded records the readers cycle over.
    seed: usize,
}

const FULL: Scale = Scale {
    rounds: 10,
    batch: 50,
    payload: 4096,
    seed: 256,
};

const SMOKE: Scale = Scale {
    rounds: 3,
    batch: 12,
    payload: 1024,
    seed: 32,
};

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alice-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A writer's `i`-th key. In single-segment mode every key lands in
/// shard 0 (the v2 world: one file, one lock); in sharded mode writer
/// `w` owns shard `w`, so writers never share a shard — and both modes
/// commit exactly one segment file per flush, so the comparison
/// isolates lock serialization and write amplification, not fsync
/// count.
fn writer_key(sharded: bool, writer: usize, i: usize) -> (u64, u64) {
    let uniq = (writer as u64 + 1) * 1_000_000 + i as u64;
    let shard = if sharded { writer as u64 } else { 0 };
    let key = (uniq * SHARD_COUNT as u64 + shard, uniq);
    debug_assert_eq!(shard_of(key), shard as usize);
    key
}

fn seed_key(sharded: bool, i: usize) -> (u64, u64) {
    let shard = if sharded { (i % SHARD_COUNT) as u64 } else { 0 };
    (
        (0x5EED_0000 + i as u64) * SHARD_COUNT as u64 + shard,
        i as u64,
    )
}

/// One flush-merge race: seeds the store, starts the readers, then
/// times all `WRITERS` put+flush loops to completion. Returns wall ms.
fn flush_merge_race(sharded: bool, scale: &Scale) -> f64 {
    let dir = bench_dir(if sharded { "sharded" } else { "single" });
    let store = Arc::new(Store::open(&dir).expect("open bench store"));
    for i in 0..scale.seed {
        store.put(
            Kind::Netlist,
            seed_key(sharded, i),
            vec![0x5E; scale.payload],
        );
    }
    store.flush().expect("seed flush");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let seed = scale.seed;
            std::thread::spawn(move || {
                let mut i = r;
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if store
                        .get(Kind::Netlist, seed_key(sharded, i % seed))
                        .is_some()
                    {
                        hits += 1;
                    }
                    i += 1;
                    // Yield between gets so readers exercise lock
                    // contention without starving the writers on small
                    // (single-core CI) machines.
                    std::thread::yield_now();
                }
                hits
            })
        })
        .collect();

    let t = Instant::now();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let (rounds, batch, payload) = (scale.rounds, scale.batch, scale.payload);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    for b in 0..batch {
                        let key = writer_key(sharded, w, r * batch + b);
                        store.put(Kind::Netlist, key, vec![w as u8; payload]);
                    }
                    store.flush().expect("writer flush");
                }
            })
        })
        .collect();
    for h in writers {
        h.join().expect("writer thread");
    }
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;

    stop.store(true, Ordering::Relaxed);
    let mut read_hits = 0u64;
    for h in readers {
        read_hits += h.join().expect("reader thread");
    }
    assert!(
        read_hits > 0,
        "readers must have been served during the race"
    );
    // Every writer's full record set must have survived the race.
    let total = scale.seed + WRITERS * scale.rounds * scale.batch;
    assert_eq!(
        store.stats().records(),
        total,
        "flush-merge race lost records"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    elapsed_ms
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn main() -> ExitCode {
    let mut out = "BENCH_store.json".to_string();
    let mut samples = 3usize;
    let mut scale = &FULL;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("store_bench: error: missing value for `--out`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => samples = n,
                _ => {
                    eprintln!("store_bench: error: invalid value for `--samples`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--smoke" => {
                samples = 1;
                scale = &SMOKE;
            }
            other => {
                eprintln!("store_bench: error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // --- flush-merge contention race -----------------------------------
    // Interleave the two modes across samples so drift (thermal, page
    // cache) hits both equally.
    let mut single: Vec<f64> = Vec::new();
    let mut sharded: Vec<f64> = Vec::new();
    for _ in 0..samples {
        single.push(flush_merge_race(false, scale));
        sharded.push(flush_merge_race(true, scale));
    }
    let single_ms = median(single);
    let sharded_ms = median(sharded);
    let flush_improvement = if single_ms > 0.0 {
        (single_ms - sharded_ms) / single_ms
    } else {
        0.0
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"alice-bench-store-v1\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"writers\": {WRITERS},");
    let _ = writeln!(json, "  \"readers\": {READERS},");
    let _ = writeln!(json, "  \"flush_merge\": {{");
    let _ = writeln!(json, "    \"single_segment_ms\": {single_ms:.3},");
    let _ = writeln!(json, "    \"sharded_ms\": {sharded_ms:.3},");
    let _ = writeln!(
        json,
        "    \"flush_merge_improvement\": {flush_improvement:.4}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("store_bench: error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "store_bench: flush-merge ({WRITERS} writers x {READERS} readers) \
         single-segment {single_ms:.1} ms vs sharded {sharded_ms:.1} ms \
         ({:.1}% faster sharded); wrote {out}",
        flush_improvement * 100.0
    );
    if flush_improvement < 0.30 {
        eprintln!(
            "store_bench: WARNING: sharded flush-merge improvement {:.1}% is below the 30% target",
            flush_improvement * 100.0
        );
    }
    ExitCode::SUCCESS
}
