//! Flow-level tests of the persistent artifact store: the acceptance
//! bar for `--store` is that a *second process* over the same directory
//! (modelled here as a fresh `Flow` whose `DesignDb` reopens the store)
//! reports disk cache hits, recomputes no fabric characterizations, and
//! emits byte-identical Verilog — and that *any* damage to the store
//! files degrades to a recompute with identical output, never an error.

use alice_redaction::benchmarks;
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::db::{CacheCounts, DesignDb};
use alice_redaction::core::design::Design;
use alice_redaction::core::flow::{Flow, FlowOutcome};
use alice_redaction::store::{Kind, FORMAT_VERSION};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The segment file of every kind currently present in `dir`.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    Kind::ALL
        .iter()
        .map(|kind| dir.join(kind.file_name()))
        .filter(|path| path.exists())
        .collect()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alice-flow-store-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gcd_design() -> Design {
    benchmarks::gcd::benchmark().design().expect("load GCD")
}

/// Runs GCD cfg1 against a fresh store-backed db over `dir` (a new
/// process, as far as caching is concerned) and returns the outcome plus
/// the run's counter window.
fn run_store_backed(dir: &Path, design: &Design) -> (FlowOutcome, CacheCounts) {
    let cfg = AliceConfig {
        jobs: 1,
        store: Some(dir.to_path_buf()),
        ..AliceConfig::cfg1()
    };
    let flow = Flow::new(cfg);
    assert!(flow.db().store().is_some(), "store must attach");
    let before = flow.db().counts();
    let out = flow.run(design).expect("flow");
    let window = flow.db().counts().since(before);
    flow.db().flush_store().expect("flush");
    (out, window)
}

fn emitted(out: &FlowOutcome) -> (String, String) {
    let rd = out.redacted.as_ref().expect("redacts");
    (rd.top_asic_verilog(), rd.fabric_verilog.clone())
}

#[test]
fn second_process_is_warm_and_byte_identical() {
    let dir = store_dir("golden");
    let design = gcd_design();

    let (cold, cold_window) = run_store_backed(&dir, &design);
    assert_eq!(cold_window.disk_hits, 0, "first process has an empty store");
    assert!(cold_window.misses > 0, "first process computes");

    // A fresh flow + db over the same directory models the second CLI
    // process: >0 disk hits, zero fabric (or any) recomputations.
    let (warm, warm_window) = run_store_backed(&dir, &design);
    assert!(
        warm_window.disk_hits > 0,
        "second process must report disk cache hits"
    );
    assert_eq!(
        warm_window.misses, 0,
        "second process must recompute no characterizations"
    );
    assert_eq!(warm.report.cache_disk_hits, warm_window.disk_hits);
    assert_eq!(emitted(&warm), emitted(&cold), "byte-identical output");
    assert_eq!(
        warm.report.efpga_sizes, cold.report.efpga_sizes,
        "identical selection"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_store_still_yields_byte_identical_output() {
    let dir = store_dir("bitflip");
    let design = gcd_design();
    let (cold, _) = run_store_backed(&dir, &design);

    // Flip one bit somewhere in the middle of every segment file.
    let mut flipped_any = false;
    for path in segment_files(&dir) {
        if let Ok(mut bytes) = std::fs::read(&path) {
            if bytes.len() > 64 {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x20;
                std::fs::write(&path, &bytes).expect("rewrite");
                flipped_any = true;
            }
        }
    }
    assert!(flipped_any, "the store must have had content to damage");

    let (recovered, window) = run_store_backed(&dir, &design);
    assert!(
        window.misses > 0,
        "damaged records must be recomputed, not trusted"
    );
    assert_eq!(
        emitted(&recovered),
        emitted(&cold),
        "fallback recompute must reproduce the exact bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The next run over a store the current version cannot read is exactly
/// as cold as the first (`cold_window`), emits the same bytes as `cold`,
/// and rewrites the store so a third run is warm again.
fn assert_recomputed_then_warm(
    dir: &Path,
    design: &Design,
    cold: &FlowOutcome,
    cold_window: CacheCounts,
) {
    let (recomputed, window) = run_store_backed(dir, design);
    assert_eq!(
        window.disk_hits, 0,
        "version-mismatched records must never be served"
    );
    assert_eq!(
        window.misses, cold_window.misses,
        "the run is exactly as cold as the first one"
    );
    assert_eq!(emitted(&recomputed), emitted(cold));

    // The recompute rewrote the store at the current version: a third
    // process is warm again.
    let (_, rewarmed) = run_store_backed(dir, design);
    assert!(rewarmed.disk_hits > 0);
    assert_eq!(rewarmed.misses, 0);
}

#[test]
fn version_bump_invalidates_the_whole_store() {
    let dir = store_dir("version");
    let design = gcd_design();
    let (cold, cold_window) = run_store_backed(&dir, &design);

    // Pretend every segment was written by a future format version.
    for path in segment_files(&dir) {
        if let Ok(mut bytes) = std::fs::read(&path) {
            if bytes.len() >= 12 {
                bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
                std::fs::write(&path, &bytes).expect("rewrite");
            }
        }
    }

    assert_recomputed_then_warm(&dir, &design, &cold, cold_window);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v2_store_is_recomputed_like_a_version_bump() {
    let dir = store_dir("v2");
    let design = gcd_design();
    let (cold, cold_window) = run_store_backed(&dir, &design);
    assert!(cold_window.misses > 0);

    // Rewind the on-disk layout to v2: its `magic · version · kind`
    // header and its record frames are the current ones, so each kind's
    // segment becomes its v2 file by the version field and the
    // `<stem>.seg` name.
    let mut legacy_files: Vec<(PathBuf, Vec<u8>)> = Vec::new();
    for path in segment_files(&dir) {
        let mut bytes = std::fs::read(&path).expect("read segment");
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::remove_file(&path).expect("remove segment");
        let name = path.file_name().expect("name").to_string_lossy();
        let legacy = dir.join(name.replace(&format!(".v{FORMAT_VERSION}"), ""));
        std::fs::write(&legacy, &bytes).expect("write legacy");
        legacy_files.push((legacy, bytes));
    }
    assert!(
        !legacy_files.is_empty(),
        "the store must have had content to rewind"
    );

    assert_recomputed_then_warm(&dir, &design, &cold, cold_window);
    for (path, bytes) in &legacy_files {
        assert_eq!(
            &std::fs::read(path).expect("v2 file still present"),
            bytes,
            "{} is left untouched",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_processes_both_contribute_records_on_flush() {
    let dir = store_dir("merge-two-writers");
    // Both handles open before either flushes — the scenario where a
    // last-writer-wins flush would silently drop the first writer's
    // records. The flush-time merge must keep both contributions.
    let db_a = Arc::new(DesignDb::with_store(&dir).expect("open a"));
    let db_b = Arc::new(DesignDb::with_store(&dir).expect("open b"));
    let cfg = AliceConfig {
        jobs: 1,
        ..AliceConfig::cfg1()
    };
    let gcd = gcd_design();
    const DEMO_SRC: &str = "
module blk_a(input wire [7:0] a, output wire [7:0] y); assign y = a + 8'd3; endmodule
module blk_b(input wire [7:0] a, output wire [7:0] y); assign y = a ^ 8'h55; endmodule
module top(input wire [7:0] x, output wire [7:0] o1, output wire [7:0] o2);
  blk_a u_a(.a(x), .y(o1));
  blk_b u_b(.a(x), .y(o2));
endmodule";
    let demo = Design::from_source("demo", DEMO_SRC, None).expect("load");
    Flow::with_db(cfg.clone(), db_a.clone())
        .run(&gcd)
        .expect("flow a");
    db_a.flush_store().expect("flush a");
    Flow::with_db(cfg.clone(), db_b.clone())
        .run(&demo)
        .expect("flow b");
    db_b.flush_store().expect("flush b");

    // A third process must serve BOTH designs entirely from disk: zero
    // recomputation for GCD proves writer B's flush did not clobber
    // writer A's records.
    let (_, gcd_window) = run_store_backed(&dir, &gcd);
    assert_eq!(
        gcd_window.misses, 0,
        "writer A's records must survive writer B's flush"
    );
    assert!(gcd_window.disk_hits > 0);
    let (_, demo_window) = run_store_backed(&dir, &demo);
    assert_eq!(demo_window.misses, 0, "writer B's records persist too");
    assert!(demo_window.disk_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_flows_over_one_store_dir_stay_consistent() {
    let dir = store_dir("concurrent");
    let design = gcd_design();
    let baseline = {
        let (out, _) = run_store_backed(&dir, &design);
        let _ = std::fs::remove_dir_all(&dir);
        emitted(&out)
    };

    // Two threads each open their *own* store handle on one directory
    // and run concurrently — the cross-process interleaving a shared
    // cache directory sees in practice. Both must produce the golden
    // bytes, and the directory must end up readable and warm.
    let dir_a = dir.clone();
    let dir_b = dir.clone();
    let src = benchmarks::gcd::benchmark();
    let handle_a = std::thread::spawn(move || {
        let design = src.design().expect("load");
        let db = Arc::new(DesignDb::with_store(&dir_a).expect("open a"));
        let cfg = AliceConfig {
            jobs: 1,
            ..AliceConfig::cfg1()
        };
        let out = Flow::with_db(cfg, db.clone()).run(&design).expect("flow a");
        db.flush_store().expect("flush a");
        emitted(&out)
    });
    let handle_b = std::thread::spawn(move || {
        let design = gcd_design();
        let db = Arc::new(DesignDb::with_store(&dir_b).expect("open b"));
        let cfg = AliceConfig {
            jobs: 1,
            ..AliceConfig::cfg1()
        };
        let out = Flow::with_db(cfg, db.clone()).run(&design).expect("flow b");
        db.flush_store().expect("flush b");
        emitted(&out)
    });
    let out_a = handle_a.join().expect("thread a");
    let out_b = handle_b.join().expect("thread b");
    assert_eq!(out_a, baseline);
    assert_eq!(out_b, baseline);

    // Whoever flushed last, the surviving store serves a fully warm run.
    let (warm, window) = run_store_backed(&dir, &design);
    assert!(window.disk_hits > 0, "store survived concurrent writers");
    assert_eq!(window.misses, 0);
    assert_eq!(emitted(&warm), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
