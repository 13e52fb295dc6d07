//! `cec_bench` — the CEC trajectory runner: times the verify stage's
//! equivalence proof, its wrong-key corruptibility sweep, and the
//! oracle-guided SAT attack, writing `BENCH_cec.json` so the
//! `bench_diff` gate can hold the line on absolute solve times.
//!
//! ```text
//! cec_bench [--out BENCH_cec.json] [--samples K] [--smoke] [--all]
//! ```
//!
//! Sections:
//!
//! * `benchmarks.<name>.verify_p1_ms` — verify-stage time (miter
//!   build, sweep and proof) for the SAT-heavy picks (GCD, DES3),
//! * `benchmarks.<name>.attack_p1_ms` — SAT-attack time against the
//!   flow's selected fabric contents (skipped for fabrics beyond the
//!   attack budget class),
//! * `benchmarks.<name>.sweep_incremental_ms` — verify stage with a
//!   16-wrong-key corruptibility sweep on one worker and a cold store:
//!   one assumption-parameterized keyed miter proves the correct key
//!   and answers every wrong key.
//!
//! `--all` adds IIR, whose redacted-multiplier miter takes minutes per
//! sample — far past the CI smoke budget — so it stays out of the
//! committed, CI-gated baseline and is measured on demand.
//!
//! Every flow run gets a fresh private [`DesignDb`], so no sample is
//! served a cached proof. `--smoke` shrinks to one sample for CI.

use alice_attacks::{sat_attack, AttackBudget};
use alice_benchmarks::Benchmark;
use alice_core::config::AliceConfig;
use alice_core::db::DesignDb;
use alice_core::design::Design;
use alice_core::flow::{Flow, FlowOutcome};
use alice_core::select::ClusterMapper;
use alice_core::verify::VerifyOutcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: cec_bench [--out FILE] [--samples K] [--smoke] [--all]";

/// The SAT-heavy picks in the gated baseline, lightest to heaviest miter.
const PICKS: [&str; 2] = ["GCD", "DES3"];

/// Extra picks behind `--all` (minutes per sample; see module docs).
const SLOW_PICKS: [&str; 1] = ["IIR"];

/// Fabrics beyond this LUT count are outside the attack budget class
/// (mirrors the `security` binary); their attack timings are skipped.
const LUT_CAP: usize = 220;

/// Each cell is the MINIMUM over samples, not the median: the measured
/// workload is deterministic, so run-to-run variance is pure scheduler
/// and CPU-steal noise, which only ever *adds* time — the fastest
/// observed run is the best estimate of true compute cost, and the one
/// estimator a steal burst during some samples cannot inflate.
fn best(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// A verifying single-worker config for `b`: cfg1 where feasible, cfg2
/// otherwise (IIR has no cfg1 solution).
fn bench_config(b: &Benchmark, design: &Design) -> AliceConfig {
    let mk = |base: AliceConfig| AliceConfig {
        verify: true,
        jobs: 1,
        ..b.config(base)
    };
    let probe = Flow::new(AliceConfig {
        verify: false,
        ..mk(AliceConfig::cfg1())
    })
    .run(design)
    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    if probe.redacted.is_some() {
        mk(AliceConfig::cfg1())
    } else {
        mk(AliceConfig::cfg2())
    }
}

/// Runs the verifying flow once on a fresh private db and returns the
/// outcome, insisting on a proven-equivalent verdict.
fn verified_run(b: &Benchmark, design: &Design, cfg: &AliceConfig) -> FlowOutcome {
    let out = Flow::new(cfg.clone())
        .run(design)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let v = out.verify.as_ref().expect("verify stage ran");
    assert_eq!(
        v.outcome,
        VerifyOutcome::Equivalent,
        "{}: benchmark redaction must verify",
        b.name
    );
    out
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_cec.json".to_string();
    let mut samples = 3usize;
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out_path = v,
                None => {
                    eprintln!("cec_bench: error: missing value for `--out`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => samples = v,
                _ => {
                    eprintln!(
                        "cec_bench: error: invalid value for `--samples` \
                         (must be at least 1)\n{USAGE}"
                    );
                    return ExitCode::from(2);
                }
            },
            "--smoke" => samples = 1,
            "--all" => all = true,
            other => {
                eprintln!("cec_bench: error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let budget = AttackBudget {
        max_dips: 12,
        conflicts_per_call: 8_000,
    };
    /// Wrong keys in the timed corruptibility sweep.
    const SWEEP_KEYS: usize = 16;
    let mut rows: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for b in alice_benchmarks::suite() {
        if !(PICKS.contains(&b.name) || (all && SLOW_PICKS.contains(&b.name))) {
            continue;
        }
        let design = b.design().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let cfg1 = bench_config(&b, &design);
        let mut first_run: Option<FlowOutcome> = None;
        let time_verify = |cfg: &AliceConfig, keep: &mut Option<FlowOutcome>| -> f64 {
            best(
                (0..samples)
                    .map(|_| {
                        let out = verified_run(&b, &design, cfg);
                        let ms = out.report.verify_time.as_secs_f64() * 1e3;
                        keep.get_or_insert(out);
                        ms
                    })
                    .collect(),
            )
        };
        let p1 = time_verify(&cfg1, &mut first_run);
        eprintln!("cec_bench: {:<8} verify {:>9.1} ms", b.name, p1);
        let mut cells = vec![("verify_p1_ms".to_string(), p1)];

        // The wrong-key sweep: 16 wrong keys on ONE worker and a cold
        // private db per run. Excluded for the `--all` slow picks
        // (minutes per key).
        if PICKS.contains(&b.name) {
            let sweep_cfg = AliceConfig {
                verify_wrong_keys: SWEEP_KEYS,
                ..cfg1.clone()
            };
            let sweep_ms = time_verify(&sweep_cfg, &mut None);
            eprintln!(
                "cec_bench: {:<8} sweep({SWEEP_KEYS}) {:>9.1} ms",
                b.name, sweep_ms
            );
            cells.push(("sweep_incremental_ms".to_string(), sweep_ms));
        }

        // Attack the selected fabric contents, exactly as `security` does.
        let out = first_run.expect("at least one sample ran");
        if let Some(sel) = &out.selection.best {
            let db = Arc::new(DesignDb::new());
            let mut mapper = ClusterMapper::new(&design, 4, &db);
            let network = sel
                .efpgas
                .iter()
                .map(|&vi| &out.selection.valid[vi])
                .filter_map(|chosen| {
                    mapper
                        .cluster_network(&chosen.cluster, &out.filter.candidates)
                        .ok()
                })
                .filter(|n| n.lut_count() <= LUT_CAP)
                .max_by_key(|n| n.lut_count());
            if let Some(network) = network {
                let a1 = best(
                    (0..samples)
                        .map(|_| {
                            let t = Instant::now();
                            let r = sat_attack(&network, budget);
                            assert!(r.key_bits > 0, "{}: empty key", b.name);
                            t.elapsed().as_secs_f64() * 1e3
                        })
                        .collect(),
                );
                eprintln!(
                    "cec_bench: {:<8} attack {:>9.1} ms ({} LUTs)",
                    b.name,
                    a1,
                    network.lut_count()
                );
                cells.push(("attack_p1_ms".to_string(), a1));
            } else {
                eprintln!(
                    "cec_bench: {:<8} attack skipped (fabrics beyond {LUT_CAP} LUTs)",
                    b.name
                );
            }
        }
        rows.push((b.name.to_string(), cells));
    }

    let mut json = String::new();
    writeln!(json, "{{").expect("string write");
    writeln!(json, "  \"schema\": \"alice-cec-bench-v1\",").expect("string write");
    writeln!(json, "  \"samples\": {samples},").expect("string write");
    writeln!(json, "  \"benchmarks\": {{").expect("string write");
    for (bi, (name, cells)) in rows.iter().enumerate() {
        let body: Vec<String> = cells
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.3}"))
            .collect();
        let comma = if bi + 1 < rows.len() { "," } else { "" };
        writeln!(json, "    \"{name}\": {{ {} }}{comma}", body.join(", ")).expect("string write");
    }
    writeln!(json, "  }}").expect("string write");
    writeln!(json, "}}").expect("string write");
    match std::fs::write(&out_path, &json) {
        Ok(()) => {
            eprintln!("cec_bench: wrote {out_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cec_bench: error: cannot write {out_path}: {e}");
            ExitCode::FAILURE
        }
    }
}
