//! One-command evaluation: regenerates Table 1 *and* Table 2 of the
//! paper, running every benchmark × {cfg1, cfg2} concurrently. With
//! `--verify`, every redaction is additionally proven equivalent to its
//! original (SAT CEC) and swept with wrong bitstreams, reported in an
//! extra verification table.
//!
//! ```text
//! suite [--jobs N] [--verify] [--wrong-keys N] [--store DIR]
//!       [--trace FILE] [--metrics FILE]
//!     # omit --jobs to use all available cores
//! ```
//!
//! `--trace FILE` records hierarchical spans across the whole matrix and
//! writes a Chrome trace-event JSON file (Perfetto-loadable); `--metrics
//! FILE` writes a Prometheus-style text snapshot of the process-wide
//! counters after the run.
//!
//! `--store DIR` backs the matrix's shared `DesignDb` with the
//! persistent artifact store at DIR, so a *re-run* of the suite (or any
//! `alice --store DIR` invocation on the same designs) starts warm.

use alice_bench::run_suite_with_db;
use alice_core::db::DesignDb;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: suite [--jobs N] [--verify] [--wrong-keys N] [--store DIR] \
                     [--trace FILE] [--metrics FILE]";

struct SuiteArgs {
    jobs: usize,
    verify: bool,
    wrong_keys: usize,
    store: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
}

fn parse_args() -> Result<SuiteArgs, String> {
    let mut args = SuiteArgs {
        jobs: 0,
        verify: false,
        wrong_keys: 0,
        store: None,
        trace: None,
        metrics: None,
    };
    let mut it = std::env::args().skip(1);
    let number = |flag: &str, v: Option<String>, min: usize| -> Result<usize, String> {
        let v = v.ok_or_else(|| format!("missing value for `{flag}`"))?;
        let n: usize = v
            .parse()
            .map_err(|_| format!("invalid value for `{flag}`: `{v}`"))?;
        if n < min {
            return Err(format!(
                "invalid value for `{flag}`: `{v}` (must be at least {min})"
            ));
        }
        Ok(n)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => args.jobs = number("--jobs", it.next(), 1)?,
            "--verify" => args.verify = true,
            "--wrong-keys" => {
                args.wrong_keys = number("--wrong-keys", it.next(), 1)?;
                args.verify = true;
            }
            "--store" => {
                args.store = Some(
                    it.next()
                        .ok_or_else(|| "missing value for `--store`".to_string())?,
                );
            }
            "--trace" => {
                args.trace = Some(
                    it.next()
                        .ok_or_else(|| "missing value for `--trace`".to_string())?,
                );
            }
            "--metrics" => {
                args.metrics = Some(
                    it.next()
                        .ok_or_else(|| "missing value for `--metrics`".to_string())?,
                );
            }
            other => return Err(format!("unknown argument `{other}` ({USAGE})")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("suite: error: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = args.jobs;
    if args.trace.is_some() {
        alice_obs::enable_tracing();
    }
    if args.metrics.is_some() {
        alice_obs::enable_metrics();
    }

    println!("Table 1: Characteristics of the selected benchmarks");
    println!(
        "{:<10} {:<8} {:>8} {:>10} {:>14}",
        "Suite", "Design", "Modules", "Instances", "I/O [min,max]"
    );
    for b in alice_benchmarks::suite() {
        let design = b.design().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let (modules, instances, lo, hi) = b.table1_stats(&design);
        println!(
            "{:<10} {:<8} {:>8} {:>10} {:>14}",
            b.suite,
            b.name,
            modules,
            instances,
            format!("[{lo}, {hi}]")
        );
    }
    println!();

    println!("Table 2: The ALICE flow on every benchmark (concurrent batch)");
    let db = match &args.store {
        Some(dir) => match DesignDb::with_store(dir) {
            Ok(db) => Arc::new(db),
            Err(e) => {
                eprintln!("suite: error: cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Arc::new(DesignDb::new()),
    };
    let runs = run_suite_with_db(jobs, args.wrong_keys, args.verify, db.clone());
    for run in &runs {
        println!(
            "── {} ─────────────────────────────────────────────",
            run.label
        );
        println!(
            "{:<8} {:>4} | {:>11} {:>4} | {:>11} {:>5} | {:>11} {:>6} {:>6} | {:<14} {:>3} | {:>11}",
            "Design",
            "#Ins",
            "filter t",
            "|R|",
            "cluster t",
            "|C|",
            "select t",
            "#valid",
            "|S|",
            "eFPGA sizes",
            "#red",
            "cache h/m"
        );
        for out in &run.outcomes {
            let r = &out.report;
            let sizes = if r.efpga_sizes.is_empty() {
                "- (n.a.)".to_string()
            } else {
                r.efpga_sizes
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!(
                "{:<8} {:>4} | {:>11} {:>4} | {:>11} {:>5} | {:>11} {:>6} {:>6} | {:<14} {:>3} | {:>11}",
                r.design,
                r.instances,
                format!("{:.2?}", r.filter_time),
                r.candidates,
                format!("{:.2?}", r.cluster_time),
                r.clusters,
                format!("{:.2?}", r.select_time),
                r.valid_efpgas,
                r.solutions,
                sizes,
                r.redacted_modules,
                if r.cache_disk_hits > 0 {
                    format!("{}/{}+{}d", r.cache_hits, r.cache_misses, r.cache_disk_hits)
                } else {
                    format!("{}/{}", r.cache_hits, r.cache_misses)
                }
            );
        }
        println!();
    }
    {
        // Matrix totals come from the shared db's own counters: the
        // per-run `cache h/m` columns are wall-clock attribution windows
        // that overlap when flows run concurrently, so summing them
        // would double-count.
        let counts = db.counts();
        let total = counts.hits + counts.disk_hits + counts.misses;
        println!(
            "Characterization cache over the whole matrix: {} hit(s), {} miss(es), {} disk hit(s){}",
            counts.hits,
            counts.misses,
            counts.disk_hits,
            if total > 0 {
                format!(" ({:.1}% served)", 100.0 * counts.hit_rate())
            } else {
                String::new()
            }
        );
        if let Some(store) = db.store() {
            match db.flush_store() {
                Ok(()) => {
                    let stats = store.stats();
                    println!(
                        "Persistent store {}: {} record(s), {} byte(s)",
                        store.path().display(),
                        stats.records(),
                        stats.bytes()
                    );
                }
                Err(e) => eprintln!("suite: warning: could not persist store: {e}"),
            }
        }
        println!();
    }

    if args.verify {
        println!("Verification: CEC proof + wrong-key corruptibility");
        for run in &runs {
            println!(
                "── {} ─────────────────────────────────────────────",
                run.label
            );
            println!(
                "{:<8} {:>12} {:>8} {:>10} {:>10} {:>11}",
                "Design", "verdict", "points", "cnf vars", "corrupt", "verify t"
            );
            for out in &run.outcomes {
                let r = &out.report;
                let Some(v) = &out.verify else {
                    println!("{:<8} {:>12}", r.design, "-");
                    continue;
                };
                let corrupt = v
                    .corruption_fraction()
                    .map(|f| format!("{f:.3}"))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "{:<8} {:>12} {:>8} {:>10} {:>10} {:>11}",
                    r.design,
                    v.outcome.to_string().split(' ').next().unwrap_or("-"),
                    v.diff_points,
                    v.cnf_vars,
                    corrupt,
                    format!("{:.2?}", r.verify_time)
                );
            }
            println!();
        }
    }
    if let Some(path) = &args.trace {
        match alice_obs::write_chrome_trace(std::path::Path::new(path)) {
            Ok(n) => eprintln!("suite: trace: {n} event(s) -> {path}"),
            Err(e) => eprintln!("suite: warning: could not write trace {path}: {e}"),
        }
    }
    if let Some(path) = &args.metrics {
        match std::fs::write(path, alice_obs::snapshot_prometheus()) {
            Ok(()) => eprintln!("suite: metrics -> {path}"),
            Err(e) => eprintln!("suite: warning: could not write metrics {path}: {e}"),
        }
    }
    ExitCode::SUCCESS
}
