//! `alice` — the command-line front end of the flow, mirroring Figure 3:
//! Verilog + YAML config in, redacted top + fabric netlists + bitstreams
//! out.
//!
//! ```text
//! alice <design.v> [--config flow.yaml] [--top NAME] [--out DIR]
//!       [--cfg1 | --cfg2] [--jobs N] [--report]
//!       [--verify] [--wrong-keys N] [--no-cache]
//!       [--store DIR] [--store-budget BYTES]
//!       [--trace FILE] [--metrics FILE]
//! alice store stats <DIR>
//! alice store gc <DIR> [--budget BYTES]
//! alice store clear <DIR>
//! ```
//!
//! `--trace FILE` records hierarchical spans across the whole run and
//! writes a Chrome trace-event JSON file (load it in Perfetto or
//! `chrome://tracing`); `--metrics FILE` writes a Prometheus-style text
//! snapshot of the process-wide counters. Both can also be set from the
//! YAML config (`trace:` / `metrics:`); the command line wins.

use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::design::Design;
use alice_redaction::core::flow::Flow;
use alice_redaction::store::Store;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: alice <design.v> [--config flow.yaml] [--top NAME] \
                     [--out DIR] [--cfg1 | --cfg2] [--jobs N] [--report] \
                     [--verify] [--wrong-keys N] [--no-cache] \
                     [--store DIR] [--store-budget BYTES] \
                     [--trace FILE] [--metrics FILE]\n\
                     \x20      alice store <stats|gc|clear> <DIR> [--budget BYTES]";

/// Default `alice store gc` budget when `--budget` is omitted: 256 MiB.
const DEFAULT_GC_BUDGET: u64 = 256 * 1024 * 1024;

#[derive(Debug)]
struct Args {
    design: PathBuf,
    config: Option<PathBuf>,
    top: Option<String>,
    out: PathBuf,
    preset: Option<&'static str>,
    jobs: Option<usize>,
    report_only: bool,
    verify: bool,
    wrong_keys: Option<usize>,
    no_cache: bool,
    store: Option<PathBuf>,
    store_budget: Option<u64>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

/// The `alice store <action> <DIR>` maintenance subcommand.
#[derive(Debug, PartialEq)]
struct StoreCmd {
    action: StoreAction,
    dir: PathBuf,
    budget: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreAction {
    Stats,
    Gc,
    Clear,
}

/// What one CLI invocation asks for.
#[derive(Debug)]
enum Command {
    Run(Box<Args>),
    Store(StoreCmd),
}

/// Parses a numeric flag value, rejecting out-of-range values with an
/// error that names the flag (`min` is the smallest accepted value).
fn parse_count(flag: &str, v: &str, min: usize) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("invalid value for `{flag}`: `{v}`"))?;
    if n < min {
        return Err(format!(
            "invalid value for `{flag}`: `{v}` (must be at least {min})"
        ));
    }
    Ok(n)
}

/// Parses the `store` maintenance subcommand's arguments.
fn parse_store_cmd(argv: impl Iterator<Item = String>) -> Result<StoreCmd, String> {
    let mut it = argv;
    let action = match it.next().as_deref() {
        Some("stats") => StoreAction::Stats,
        Some("gc") => StoreAction::Gc,
        Some("clear") => StoreAction::Clear,
        Some(other) => return Err(format!("unknown store action `{other}`")),
        None => return Err("missing store action (stats, gc or clear)".to_string()),
    };
    let mut dir: Option<PathBuf> = None;
    let mut budget = DEFAULT_GC_BUDGET;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => {
                if action != StoreAction::Gc {
                    return Err("`--budget` only applies to `store gc`".to_string());
                }
                let v = it
                    .next()
                    .ok_or_else(|| "missing value for `--budget`".to_string())?;
                budget = v
                    .parse()
                    .map_err(|_| format!("invalid value for `--budget`: `{v}`"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            _ if dir.is_none() => dir = Some(PathBuf::from(a)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let dir = dir.ok_or_else(|| "missing store <DIR> argument".to_string())?;
    Ok(StoreCmd {
        action,
        dir,
        budget,
    })
}

/// Parses the command line; every error names the offending flag.
/// `Ok(None)` means `--help` was requested (print usage, exit 0).
fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Command>, String> {
    let mut args = Args {
        design: PathBuf::new(),
        config: None,
        top: None,
        out: PathBuf::from("alice_out"),
        preset: None,
        jobs: None,
        report_only: false,
        verify: false,
        wrong_keys: None,
        no_cache: false,
        store: None,
        store_budget: None,
        trace: None,
        metrics: None,
    };
    let mut it = argv.peekable();
    // `alice store <stats|gc|clear> <DIR>` is a separate maintenance mode.
    if it.peek().map(String::as_str) == Some("store") {
        it.next();
        return parse_store_cmd(it).map(|c| Some(Command::Store(c)));
    }
    let mut positional = Vec::new();
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<String, String> {
        it.next()
            .ok_or_else(|| format!("missing value for `{flag}`"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => args.config = Some(PathBuf::from(value(&mut it, "--config")?)),
            "--top" => args.top = Some(value(&mut it, "--top")?),
            "--out" => args.out = PathBuf::from(value(&mut it, "--out")?),
            "--store" => args.store = Some(PathBuf::from(value(&mut it, "--store")?)),
            "--trace" => args.trace = Some(PathBuf::from(value(&mut it, "--trace")?)),
            "--metrics" => args.metrics = Some(PathBuf::from(value(&mut it, "--metrics")?)),
            "--store-budget" => {
                let v = value(&mut it, "--store-budget")?;
                let budget: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid value for `--store-budget`: `{v}`"))?;
                if budget == 0 {
                    return Err(
                        "invalid value for `--store-budget`: `0` (must be at least 1)".to_string(),
                    );
                }
                args.store_budget = Some(budget);
            }
            "--jobs" => {
                // 0 ("auto") is spelled by omitting the flag, not `--jobs 0`.
                let v = value(&mut it, "--jobs")?;
                args.jobs = Some(parse_count("--jobs", &v, 1)?);
            }
            "--wrong-keys" => {
                let v = value(&mut it, "--wrong-keys")?;
                args.wrong_keys = Some(parse_count("--wrong-keys", &v, 1)?);
                args.verify = true; // the sweep implies verification
            }
            "--verify" => args.verify = true,
            "--no-cache" => args.no_cache = true,
            "--cfg1" => args.preset = Some("cfg1"),
            "--cfg2" => args.preset = Some("cfg2"),
            "--report" => args.report_only = true,
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            _ => positional.push(a),
        }
    }
    match positional.len() {
        0 => return Err("missing <design.v> argument".to_string()),
        1 => args.design = PathBuf::from(&positional[0]),
        _ => {
            return Err(format!(
                "expected one design file, got {}: {}",
                positional.len(),
                positional.join(", ")
            ))
        }
    }
    Ok(Some(Command::Run(Box::new(args))))
}

/// Runs the `alice store` maintenance subcommand.
fn run_store_cmd(cmd: &StoreCmd) -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::open(&cmd.dir)
        .map_err(|e| format!("cannot open store {}: {e}", cmd.dir.display()))?;
    match cmd.action {
        StoreAction::Stats => {
            let stats = store.stats();
            println!("{stats}");
            // The per-shard breakdown makes key-distribution skew (and
            // pending tombstones) visible at a glance.
            println!();
            print!("{}", stats.shard_table());
            let reads = store.read_stats();
            println!();
            println!(
                "reads (this handle): {} get(s), {} copied, {} byte(s) copied",
                reads.gets, reads.copied_gets, reads.bytes_copied
            );
        }
        StoreAction::Gc => {
            let report = store.gc(cmd.budget)?;
            println!(
                "gc: kept {} record(s) ({} bytes), evicted {} ({} -> {} bytes, budget {})",
                report.kept,
                report.bytes_after,
                report.dropped,
                report.bytes_before,
                report.bytes_after,
                cmd.budget
            );
        }
        StoreAction::Clear => {
            let before = store.stats();
            store.clear()?;
            println!(
                "clear: removed {} record(s) ({} bytes)",
                before.records(),
                before.bytes()
            );
        }
    }
    Ok(())
}

/// Writes the enabled observability sinks. Runs even when the flow
/// failed — a trace of the run that died is the one worth looking at.
fn export_observability(trace: Option<&PathBuf>, metrics: Option<&PathBuf>) {
    if let Some(path) = trace {
        match alice_redaction::obs::write_chrome_trace(path) {
            Ok(n) => eprintln!("alice: trace: {} event(s) -> {}", n, path.display()),
            Err(e) => eprintln!(
                "alice: warning: could not write trace {}: {e}",
                path.display()
            ),
        }
    }
    if let Some(path) = metrics {
        let text = alice_redaction::obs::snapshot_prometheus();
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("alice: metrics -> {}", path.display()),
            Err(e) => eprintln!(
                "alice: warning: could not write metrics {}: {e}",
                path.display()
            ),
        }
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(&args.design)
        .map_err(|e| format!("cannot read {}: {e}", args.design.display()))?;
    let mut cfg = match args.preset {
        Some("cfg2") => AliceConfig::cfg2(),
        _ => AliceConfig::cfg1(),
    };
    if let Some(cpath) = &args.config {
        let ctext = std::fs::read_to_string(cpath)
            .map_err(|e| format!("cannot read {}: {e}", cpath.display()))?;
        cfg = AliceConfig::from_yaml(&ctext)?;
    }
    // The command line wins over the config file for the sinks.
    let trace = args.trace.clone().or(cfg.trace.clone());
    let metrics = args.metrics.clone().or(cfg.metrics.clone());
    if trace.is_some() {
        alice_redaction::obs::enable_tracing();
    }
    if metrics.is_some() {
        alice_redaction::obs::enable_metrics();
    }
    let result = run_flow(args, cfg, &src);
    export_observability(trace.as_ref(), metrics.as_ref());
    result
}

/// The flow proper: everything between sink setup and sink export.
fn run_flow(
    args: &Args,
    mut cfg: AliceConfig,
    src: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(jobs) = args.jobs {
        cfg.jobs = jobs;
    }
    if args.verify {
        cfg.verify = true;
    }
    if let Some(n) = args.wrong_keys {
        cfg.verify_wrong_keys = n;
    }
    if args.no_cache {
        // A/B baseline: run every characterization from scratch.
        cfg.cache = false;
    }
    if let Some(dir) = &args.store {
        // The command line wins over the config file for the store too.
        cfg.store = Some(dir.clone());
    }
    if let Some(budget) = args.store_budget {
        cfg.store_budget = Some(budget);
    }
    let name = args
        .design
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "design".to_string());
    // The command line wins over the config file for the top module.
    let top = args.top.clone().or(cfg.top.clone());
    let design = Design::from_source(&name, src, top.as_deref())?;
    eprintln!(
        "alice: {} ({} instances), config: {cfg}, {} characterization job(s)",
        design.name,
        design.instance_paths().len(),
        cfg.effective_jobs()
    );
    let flow = Flow::new(cfg);
    let outcome = flow.run(&design)?;
    println!("{}", outcome.report);
    eprintln!(
        "alice: characterization cache: {} hit(s), {} miss(es), {} disk hit(s)",
        outcome.report.cache_hits, outcome.report.cache_misses, outcome.report.cache_disk_hits
    );
    if let Some(store) = flow.db().store() {
        if let Err(e) = flow.db().flush_store() {
            eprintln!(
                "alice: warning: could not persist store {}: {e}",
                store.path().display()
            );
        } else {
            let stats = store.stats();
            let reads = store.read_stats();
            eprintln!(
                "alice: store {}: {} record(s), {} byte(s); {} get(s) \
                 ({} copied, {} byte(s) copied)",
                store.path().display(),
                stats.records(),
                stats.bytes(),
                reads.gets,
                reads.copied_gets,
                reads.bytes_copied
            );
        }
    }
    if let Some(v) = &outcome.verify {
        eprintln!(
            "alice: verify: {} ({} points, {} vars, {} clauses)",
            v.outcome, v.diff_points, v.cnf_vars, v.cnf_clauses
        );
        for wk in &v.wrong_keys {
            eprintln!(
                "alice: wrong key (flipping {} bit(s)): {}/{} outputs corrupted{} in {} µs{}",
                wk.flipped.len(),
                wk.corrupted,
                wk.total,
                if wk.complete { "" } else { " (budget hit)" },
                wk.solve_us,
                if wk.from_cache { " (cached)" } else { "" }
            );
        }
        if !v.outcome.is_equivalent() {
            return Err(format!("verification did not prove equivalence: {}", v.outcome).into());
        }
    }
    if args.report_only {
        return Ok(());
    }
    let Some(redacted) = &outcome.redacted else {
        eprintln!("alice: no feasible solution under this configuration");
        return Ok(());
    };
    std::fs::create_dir_all(&args.out)?;
    let top_path = args.out.join("top_asic.v");
    std::fs::write(&top_path, redacted.top_asic_verilog())?;
    let fabric_path = args.out.join("fabrics.v");
    std::fs::write(&fabric_path, &redacted.fabric_verilog)?;
    for (i, e) in redacted.efpgas.iter().enumerate() {
        let bits: String = e
            .config_stream
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        std::fs::write(args.out.join(format!("bitstream_e{i}.txt")), bits)?;
        eprintln!(
            "alice: eFPGA {i}: {} at `{}` redacting {:?} ({} config bits)",
            e.size,
            e.insertion_point,
            e.instances,
            e.config_stream.len()
        );
    }
    eprintln!(
        "alice: wrote {}, {} and {} bitstream file(s) — keep the bitstreams secret",
        top_path.display(),
        fabric_path.display(),
        redacted.efpgas.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(Some(c)) => c,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("alice: error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &cmd {
        Command::Run(args) => run(args),
        Command::Store(store_cmd) => run_store_cmd(store_cmd),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("alice: error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        match parse_args(args.iter().map(|s| s.to_string()))? {
            Some(Command::Run(a)) => Ok(Some(*a)),
            Some(Command::Store(c)) => panic!("expected a run command, got {c:?}"),
            None => Ok(None),
        }
    }

    fn parse_store(args: &[&str]) -> Result<StoreCmd, String> {
        match parse_args(args.iter().map(|s| s.to_string()))? {
            Some(Command::Store(c)) => Ok(c),
            other => panic!("expected a store command, got {other:?}"),
        }
    }

    #[test]
    fn jobs_zero_is_rejected_with_the_flag_named() {
        let err = parse(&["d.v", "--jobs", "0"]).expect_err("must reject");
        assert!(err.contains("--jobs"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["d.v", "--jobs", "many"]).expect_err("must reject");
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn wrong_keys_zero_is_rejected_with_the_flag_named() {
        let err = parse(&["d.v", "--wrong-keys", "0"]).expect_err("must reject");
        assert!(err.contains("--wrong-keys"), "{err}");
    }

    #[test]
    fn verify_flags_parse() {
        let a = parse(&["d.v", "--verify"]).expect("ok").expect("args");
        assert!(a.verify);
        assert_eq!(a.wrong_keys, None);
        let a = parse(&["d.v", "--wrong-keys", "5"])
            .expect("ok")
            .expect("args");
        assert!(a.verify, "--wrong-keys implies --verify");
        assert_eq!(a.wrong_keys, Some(5));
    }

    #[test]
    fn valid_jobs_still_parse() {
        let a = parse(&["d.v", "--jobs", "3"]).expect("ok").expect("args");
        assert_eq!(a.jobs, Some(3));
    }

    #[test]
    fn no_cache_parses() {
        let a = parse(&["d.v", "--no-cache"]).expect("ok").expect("args");
        assert!(a.no_cache);
        let a = parse(&["d.v"]).expect("ok").expect("args");
        assert!(!a.no_cache, "cache is on by default");
    }

    #[test]
    fn store_flag_parses() {
        let a = parse(&["d.v", "--store", "cache-dir"])
            .expect("ok")
            .expect("args");
        assert_eq!(a.store, Some(PathBuf::from("cache-dir")));
        let a = parse(&["d.v"]).expect("ok").expect("args");
        assert_eq!(a.store, None, "no store by default");
        let err = parse(&["d.v", "--store"]).expect_err("must reject");
        assert!(err.contains("--store"), "{err}");
    }

    #[test]
    fn store_budget_flag_parses() {
        let a = parse(&["d.v", "--store", "dir", "--store-budget", "1048576"])
            .expect("ok")
            .expect("args");
        assert_eq!(a.store_budget, Some(1_048_576));
        let a = parse(&["d.v"]).expect("ok").expect("args");
        assert_eq!(a.store_budget, None, "no auto-compaction by default");
        let err = parse(&["d.v", "--store-budget", "0"]).expect_err("must reject");
        assert!(err.contains("--store-budget"), "{err}");
        let err = parse(&["d.v", "--store-budget", "lots"]).expect_err("must reject");
        assert!(err.contains("--store-budget"), "{err}");
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        let a = parse(&["d.v", "--trace", "t.json", "--metrics", "m.prom"])
            .expect("ok")
            .expect("args");
        assert_eq!(a.trace, Some(PathBuf::from("t.json")));
        assert_eq!(a.metrics, Some(PathBuf::from("m.prom")));
        let a = parse(&["d.v"]).expect("ok").expect("args");
        assert_eq!(a.trace, None, "no trace sink by default");
        assert_eq!(a.metrics, None, "no metrics sink by default");
        let err = parse(&["d.v", "--trace"]).expect_err("must reject");
        assert!(err.contains("--trace"), "{err}");
        let err = parse(&["d.v", "--metrics"]).expect_err("must reject");
        assert!(err.contains("--metrics"), "{err}");
    }

    #[test]
    fn store_subcommand_parses() {
        let c = parse_store(&["store", "stats", "dir"]).expect("ok");
        assert_eq!(c.action, StoreAction::Stats);
        assert_eq!(c.dir, PathBuf::from("dir"));
        let c = parse_store(&["store", "gc", "dir", "--budget", "1024"]).expect("ok");
        assert_eq!(c.action, StoreAction::Gc);
        assert_eq!(c.budget, 1024);
        let c = parse_store(&["store", "gc", "dir"]).expect("ok");
        assert_eq!(c.budget, DEFAULT_GC_BUDGET);
        let c = parse_store(&["store", "clear", "dir"]).expect("ok");
        assert_eq!(c.action, StoreAction::Clear);
    }

    #[test]
    fn store_subcommand_errors_are_named() {
        let parse_raw = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string())).map(|_| ());
        let err = parse_raw(&["store"]).expect_err("must reject");
        assert!(err.contains("store action"), "{err}");
        let err = parse_raw(&["store", "frobnicate", "dir"]).expect_err("must reject");
        assert!(err.contains("frobnicate"), "{err}");
        let err = parse_raw(&["store", "gc", "dir", "--budget", "lots"]).expect_err("reject");
        assert!(err.contains("--budget"), "{err}");
        let err = parse_raw(&["store", "stats", "dir", "--budget", "9"]).expect_err("reject");
        assert!(err.contains("--budget"), "{err}");
        let err = parse_raw(&["store", "stats"]).expect_err("must reject");
        assert!(err.contains("<DIR>"), "{err}");
    }

    #[test]
    fn missing_values_and_unknown_flags_name_the_flag() {
        let err = parse(&["d.v", "--wrong-keys"]).expect_err("must reject");
        assert!(err.contains("--wrong-keys"), "{err}");
        let err = parse(&["d.v", "--frobnicate"]).expect_err("must reject");
        assert!(err.contains("--frobnicate"), "{err}");
    }
}
