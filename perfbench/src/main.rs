//! The ALICE benchmark: one command runs a named workload from a seed,
//! checks every op's output, and prints the workload's metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload redact_matrix --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` makes a traced run and prints the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; progress goes to standard error,
//! and nothing is printed inside a timed interval. `--bless` rewrites the
//! reference file from the current program's output instead.
//!
//! Scratch files (store copies, the Chrome trace) live under
//! `.perfbench_work/` in the working directory.

mod inputs;
mod layers;
mod ops;
mod traced;
mod workloads;

use layers::{median, ratio, unit_of, END_TO_END};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Expected, OpOut, Setup, Workload};

/// The pinned records of the DAC'22 cells.
const REFERENCE: &str = include_str!("../reference.txt");

/// Timed passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

/// Share of a run's timed work given to repeated set-ups. After every
/// pass, set-ups repeat until they reach this share, so the set-up median
/// rests on samples spread over the whole run.
const SETUP_SHARE: f64 = 0.2;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bless,
    })
}

/// Attempted and failed ops of a run, with the first few failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Checks every op in `ops` against `expected`.
    pub fn check(&mut self, ops: &[OpOut], expected: &mut Expected) {
        for op in ops {
            self.attempted += 1;
            if let Err(e) = expected.check(op) {
                self.failed += 1;
                if self.messages.len() < 8 {
                    self.messages.push(e);
                }
            }
        }
    }
}

/// Runs `f`, returning its value and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// The run's scratch directory, removed when dropped.
pub struct Work(PathBuf);

impl Work {
    fn create() -> Result<Work, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".perfbench_work")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Work(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes what a set-up left on disk.
pub fn discard(setup: Setup) {
    if let Some(dir) = &setup.store {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// An untraced run: the end-to-end metrics.
fn run_plain(args: &Args, work: &Work) -> Result<(Tally, BTreeMap<&'static str, f64>), String> {
    let start = Instant::now();
    let mut expected = Expected::from_reference(REFERENCE);
    let mut tally = Tally::default();
    let (setup, first) = timed(|| workloads::setup(args.workload, args.seed, work.path(), 0));
    let setup = setup?;
    let mut setup_s = vec![first];
    workloads::observe_references(&setup, &mut expected);
    tally.check(&setup.ops, &mut expected);
    let mut pass_s = Vec::new();
    let mut n = 1;
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let copy = prepare_pass(&setup, work, pass_s.len())?;
        let (out, dt) = timed(|| workloads::pass(&setup, copy.as_deref()));
        pass_s.push(dt);
        tally.check(&out.ops, &mut expected);
        drop(out);
        if let Some(dir) = copy {
            let _ = std::fs::remove_dir_all(dir);
        }
        let total = |xs: &[f64]| xs.iter().sum::<f64>();
        while total(&setup_s) < SETUP_SHARE * (total(&setup_s) + total(&pass_s)) {
            let (again, dt) = timed(|| workloads::setup(args.workload, args.seed, work.path(), n));
            n += 1;
            let again = again?;
            setup_s.push(dt);
            tally.check(&again.ops, &mut expected);
            discard(again);
        }
    }
    eprintln!(
        "perfbench: {} seed {}: {} passes, {} set-ups, {:.1} s",
        args.workload.name(),
        args.seed,
        pass_s.len(),
        setup_s.len(),
        start.elapsed().as_secs_f64()
    );
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&setup_s));
    metrics.insert("pass_s", median(&pass_s));
    metrics.insert("peak_rss_mb", peak_rss_mb()?);
    metrics.insert(
        "ok_frac",
        ratio(
            (tally.attempted - tally.failed) as f64,
            tally.attempted as f64,
        ),
    );
    debug_assert!(END_TO_END.iter().all(|(n, _)| metrics.contains_key(n)));
    discard(setup);
    Ok((tally, metrics))
}

/// A fresh copy of the base store for an `explore_store` pass, made
/// outside the timed interval.
pub fn prepare_pass(setup: &Setup, work: &Work, i: usize) -> Result<Option<PathBuf>, String> {
    match &setup.store {
        Some(base) => {
            let dir = work.path().join(format!("pass-{i}"));
            workloads::copy_store(base, &dir)?;
            Ok(Some(dir))
        }
        None => Ok(None),
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn result_json(tally: &Tally, metrics: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            debug_assert!(layers::valid_name(name), "{name}");
            let unit = unit_of(name).expect("every printed metric is in a metric table");
            // `+ 0.0` turns an empty sum's -0 into 0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Rewrites the reference file with the DAC'22 cells' records as the
/// current program produces them.
fn bless(work: &Work) -> Result<(), String> {
    let mut lines = vec![
        "# Pinned records of the DAC'22 cells: Table-2 fields, FNV-1a digests of".to_string(),
        "# the emitted top and fabric Verilog and of the config streams, and the".to_string(),
        "# verify verdicts with each wrong key's corrupted/compared points.".to_string(),
        "# Regenerate with `perfbench --bless` only when outputs change on purpose.".to_string(),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for w in [Workload::RedactMatrix, Workload::VerifyKeys] {
        let setup = workloads::setup(w, 0, work.path(), 0)?;
        let mut records: Vec<String> = setup
            .ops
            .iter()
            .filter(|o| o.pinned())
            .map(OpOut::record)
            .collect::<Result<_, _>>()?;
        let out = workloads::pass(&setup, None);
        for op in out.ops.iter().filter(|o| o.pinned()) {
            records.push(op.record()?);
        }
        for r in records {
            if seen.insert(r.clone()) {
                lines.push(r);
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("perfbench: wrote {} records to {path}", seen.len());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match Work::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.bless {
        return match bless(&work) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &work)
    } else {
        run_plain(&args, &work)
    };
    match result {
        Ok((tally, metrics)) => {
            let failed_frac = ratio(tally.failed as f64, tally.attempted as f64);
            eprintln!(
                "perfbench: failed_frac {failed_frac} ({} of {} ops)",
                tally.failed, tally.attempted
            );
            for m in &tally.messages {
                eprintln!("perfbench: FAILED {m}");
            }
            println!("{}", result_json(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_gives_every_metric_a_unit() {
        let tally = Tally {
            attempted: 4,
            failed: 1,
            messages: Vec::new(),
        };
        let metrics: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .chain(layers::PER_LAYER)
            .map(|&(n, _)| (n, 1.5))
            .collect();
        let line = result_json(&tally, &metrics);
        let doc = alice_obs::Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&alice_obs::Json::Bool(false)));
        assert_eq!(
            doc.get("attempted").and_then(alice_obs::Json::as_u64),
            Some(4)
        );
        let printed = doc.get("metrics").expect("metrics");
        for &(name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            let m = printed
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(alice_obs::Json::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(alice_obs::Json::as_f64), Some(1.5));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = alice_obs::Json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", layers::PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(alice_obs::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(alice_obs::Json::as_str)
                            .expect(k)
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(alice_obs::Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(alice_obs::Json::as_str)
                    .expect("name")
            })
            .collect();
        let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn reference_file_pins_every_paper_cell_once() {
        let keys: Vec<String> = REFERENCE
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split(' ').take(2).collect::<Vec<_>>().join(" "))
            .collect();
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "duplicate reference keys");
        assert_eq!(keys.iter().filter(|k| k.starts_with("flow ")).count(), 14);
        assert_eq!(keys.iter().filter(|k| k.starts_with("verify ")).count(), 3);
    }
}
