//! `bench_diff` — the bench-trajectory gate: compares a freshly measured
//! `BENCH_pipeline.json` against the committed baseline and fails when
//! any phase regressed beyond a threshold.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--threshold PCT]
//! ```
//!
//! Raw wall-clock numbers are not comparable across machines (a CI
//! runner is not the laptop that produced the baseline), so the check
//! normalizes first: it computes the **median** candidate/baseline ratio
//! over every shared `*_ms` phase — the machine-speed factor — and then
//! flags phases whose ratio exceeds `median × (1 + threshold)`. A
//! uniformly slower machine passes; one phase ballooning relative to the
//! others fails. Sub-millisecond phases jitter by whole multiples, so a
//! phase only fails when it is *also* more than `NOISE_FLOOR_MS` beyond
//! its scaled baseline — a 0.4 ms blip cannot gate a merge, a 50 ms one
//! can. On shared (virtualized, CPU-steal-prone) hardware even a
//! correct measurement of a short phase can land whole multiples off,
//! so phases whose baseline is under `RELIABLE_MS` are reported but
//! never gate — only phases long enough to average over scheduler noise
//! can fail the build. Effectiveness fractions — any `*_improvement`
//! leaf, like the cache's `warm_vs_cold_improvement` or the CEC bench's
//! `incremental_improvement` — are machine-independent and compared
//! absolutely: a drop of more than `threshold` (as a fraction) fails,
//! and so does a baseline `*_improvement` leaf the candidate no longer
//! writes — retiring a gate leaf takes a reviewed edit of the baseline.
//!
//! The same gate understands every bench file the suite writes
//! (`BENCH_pipeline.json`, `BENCH_cec.json`, `BENCH_store.json`): each
//! is a tree of objects with numeric and string leaves, and the rules
//! are keyed on leaf-name conventions, not schemas.

use alice_obs::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: bench_diff <baseline.json> <candidate.json> [--threshold PCT]";

/// Minimum absolute excess (ms) over the scaled baseline before a phase
/// regression counts — timer jitter on sub-millisecond phases is larger
/// than any threshold ratio.
const NOISE_FLOOR_MS: f64 = 2.0;

/// Phases with a baseline shorter than this are informational only: on
/// shared hardware a CPU-steal burst can multiply a tens-of-milliseconds
/// measurement several-fold, so no ratio over such a baseline is
/// evidence of a code regression.
const RELIABLE_MS: f64 = 50.0;

/// Extracts every numeric leaf of a bench file as a dotted path → value
/// map. Bench files are trees of objects whose leaves are numbers or
/// string labels (ignored); arrays, booleans and null are errors, so a
/// malformed file cannot silently pass the gate.
fn numeric_leaves(src: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(src)?;
    let Json::Obj(fields) = doc else {
        return Err("the document must be a JSON object".to_string());
    };
    let mut out = BTreeMap::new();
    collect_leaves(&fields, "", &mut out)?;
    Ok(out)
}

fn collect_leaves(
    fields: &[(String, Json)],
    prefix: &str,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    for (key, value) in fields {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        match value {
            Json::Obj(inner) => collect_leaves(inner, &path, out)?,
            Json::Num(v) => {
                out.insert(path, *v);
            }
            Json::Str(_) => {} // schema/matrix labels
            Json::Arr(_) | Json::Bool(_) | Json::Null => {
                return Err(format!("`{path}`: unexpected {value} in a bench file"));
            }
        }
    }
    Ok(())
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    numeric_leaves(&text).map_err(|e| format!("{path}: {e}"))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn run(baseline_path: &str, candidate_path: &str, threshold: f64) -> Result<(), String> {
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;

    // Machine-speed normalization over the shared timing phases.
    // A phase is any `*_ms` leaf, including per-benchmark sub-keys like
    // `elaborate_ms.GCD`.
    let shared: Vec<(&String, f64, f64)> = baseline
        .iter()
        .filter(|(k, _)| k.ends_with("_ms") || k.contains("_ms."))
        .filter_map(|(k, &b)| candidate.get(k).map(|&c| (k, b, c)))
        .filter(|&(_, b, _)| b > 0.0)
        .collect();
    if shared.is_empty() {
        return Err("no shared `*_ms` phases between the two files".to_string());
    }
    let scale = median(shared.iter().map(|&(_, b, c)| c / b).collect());
    println!(
        "bench_diff: {} shared phase(s), machine-speed factor {scale:.2}x, \
         threshold +{:.0}% beyond that",
        shared.len(),
        threshold * 100.0
    );

    let mut regressions: Vec<String> = Vec::new();
    let bar = scale * (1.0 + threshold);
    for &(key, b, c) in &shared {
        let ratio = c / b;
        let regressed = b >= RELIABLE_MS && ratio > bar && c - b * scale > NOISE_FLOOR_MS;
        let flag = if regressed { "  << REGRESSION" } else { "" };
        println!("  {key:<40} {b:>10.2} -> {c:>10.2} ms  ({ratio:>5.2}x){flag}");
        if regressed {
            regressions.push(format!(
                "{key}: {ratio:.2}x vs allowed {bar:.2}x (baseline {b:.2} ms, now {c:.2} ms)"
            ));
        }
    }

    // Effectiveness fractions (`*_improvement`) are machine-independent
    // and compared absolutely, whatever bench file they come from. A
    // leaf the candidate stopped writing fails: dropping a gate leaf
    // must be a visible edit of the baseline, not silent drift.
    for (path, &b) in baseline.iter().filter(|(k, _)| k.ends_with("_improvement")) {
        let Some(&c) = candidate.get(path) else {
            println!("  {path:<40} {b:>10.4} ->    missing");
            regressions.push(format!("{path}: missing from the candidate"));
            continue;
        };
        println!("  {path:<40} {b:>10.4} -> {c:>10.4}");
        if c < b - threshold {
            regressions.push(format!(
                "{path}: improvement fell from {b:.4} to {c:.4} (allowed drop {threshold:.2})"
            ));
        }
    }

    if regressions.is_empty() {
        println!("bench_diff: OK — no phase regressed beyond the threshold");
        Ok(())
    } else {
        Err(format!(
            "{} phase(s) regressed:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let mut threshold = 0.25f64;
    let mut files: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it.next().unwrap_or_default();
                match v.parse::<f64>() {
                    Ok(pct) if pct > 0.0 => threshold = pct / 100.0,
                    _ => {
                        eprintln!("bench_diff: error: invalid value for `--threshold`: `{v}`");
                        return ExitCode::from(2);
                    }
                }
            }
            other if other.starts_with('-') => {
                eprintln!("bench_diff: error: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => files.push(a),
        }
    }
    if files.len() != 2 {
        eprintln!("bench_diff: error: expected exactly two files\n{USAGE}");
        return ExitCode::from(2);
    }
    match run(&files[0], &files[1], threshold) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "schema": "alice-bench-pipeline-v2",
  "samples": 5,
  "elaborate_ms": { "GCD": 100.0, "DES3": 200.0 },
  "lutmap_ms": { "GCD": 400.0 },
  "cec_encode_ms": 10.0,
  "select_stage": {
    "matrix": "benchmarks x {cfg1, cfg2}",
    "cold_total_ms": 5000.0,
    "warm_vs_cold_improvement": 0.95
  },
  "cache": { "hits": 7, "misses": 3 }
}"#;

    #[test]
    fn numeric_leaves_flatten_nested_objects() {
        let m = numeric_leaves(BASE).expect("parse");
        assert_eq!(m["elaborate_ms.GCD"], 100.0);
        assert_eq!(m["select_stage.cold_total_ms"], 5000.0);
        assert_eq!(m["select_stage.warm_vs_cold_improvement"], 0.95);
        assert_eq!(m["cache.hits"], 7.0);
        assert!(!m.contains_key("schema"), "strings are not leaves");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(numeric_leaves("{").is_err());
        assert!(numeric_leaves("{ \"a\": [1] }").is_err());
        assert!(numeric_leaves("{} trailing").is_err());
    }

    #[test]
    fn booleans_and_null_are_errors() {
        assert!(numeric_leaves("{ \"a\": { \"b\": true } }").is_err());
        assert!(numeric_leaves("{ \"a\": null }").is_err());
        assert!(numeric_leaves("3.5").is_err(), "the root must be an object");
    }

    fn diff_files(tag: &str, base: &str, cand: &str, threshold: f64) -> Result<(), String> {
        let dir = std::env::temp_dir();
        let bp = dir.join(format!("bench-diff-base-{tag}-{}.json", std::process::id()));
        let cp = dir.join(format!("bench-diff-cand-{tag}-{}.json", std::process::id()));
        std::fs::write(&bp, base).expect("write base");
        std::fs::write(&cp, cand).expect("write cand");
        let r = run(
            bp.to_str().expect("utf8"),
            cp.to_str().expect("utf8"),
            threshold,
        );
        let _ = std::fs::remove_file(&bp);
        let _ = std::fs::remove_file(&cp);
        r
    }

    #[test]
    fn uniform_slowdown_passes() {
        // Everything exactly 3x slower: a slower machine, not a regression.
        let cand = BASE
            .replace("100.0,", "300.0,")
            .replace("200.0 }", "600.0 }")
            .replace("400.0", "1200.0")
            .replace(": 10.0", ": 30.0")
            .replace("5000.0", "15000.0");
        diff_files("uniform", BASE, &cand, 0.25).expect("uniform scale must pass");
    }

    #[test]
    fn single_phase_blowup_fails() {
        // One phase 3x slower while the rest is unchanged.
        let cand = BASE.replace("\"GCD\": 400.0", "\"GCD\": 1200.0");
        let err = diff_files("blowup", BASE, &cand, 0.25).expect_err("must fail");
        assert!(err.contains("lutmap_ms.GCD"), "{err}");
    }

    #[test]
    fn short_phases_never_gate() {
        // A 10x blowup of a phase below RELIABLE_MS: on steal-prone
        // shared hardware that is indistinguishable from a scheduler
        // burst, so it is informational only.
        let cand = BASE.replace(": 10.0", ": 100.0");
        diff_files("short", BASE, &cand, 0.25).expect("short phases must not gate");
    }

    #[test]
    fn improvement_drop_fails() {
        let cand = BASE.replace("0.95", "0.40");
        let err = diff_files("impr", BASE, &cand, 0.25).expect_err("must fail");
        assert!(err.contains("warm_vs_cold_improvement"), "{err}");
    }

    #[test]
    fn missing_improvement_leaf_fails() {
        let cand = BASE.replace(",\n    \"warm_vs_cold_improvement\": 0.95", "");
        assert!(!cand.contains("warm_vs_cold_improvement"));
        let err = diff_files("impr-missing", BASE, &cand, 0.25).expect_err("must fail");
        assert!(
            err.contains("select_stage.warm_vs_cold_improvement: missing"),
            "{err}"
        );
    }

    const STORE_OPEN: &str = r#"{
  "schema": "alice-bench-pipeline-v3",
  "samples": 5,
  "elaborate_ms": { "GCD": 100.0 },
  "store_open_ms": {
    "cold_small_ms": 60.0,
    "cold_large_ms": 80.0,
    "warm_small_ms": 55.0,
    "warm_large_ms": 70.0
  }
}"#;

    #[test]
    fn store_open_phases_gate_like_any_other() {
        diff_files("open-ok", STORE_OPEN, STORE_OPEN, 0.25).expect("identical files pass");
        // A large-store open ballooning relative to the rest of the file
        // is exactly the eager-open regression this section exists to
        // catch.
        let cand = STORE_OPEN.replace("\"warm_large_ms\": 70.0", "\"warm_large_ms\": 700.0");
        let err = diff_files("open-large", STORE_OPEN, &cand, 0.25).expect_err("must fail");
        assert!(err.contains("store_open_ms.warm_large_ms"), "{err}");
    }

    const CEC: &str = r#"{
  "schema": "alice-cec-bench-v1",
  "samples": 3,
  "benchmarks": {
    "GCD": { "verify_p1_ms": 40.0, "sweep_incremental_ms": 300.0 },
    "DES3": { "verify_p1_ms": 1500.0, "sweep_incremental_ms": 3800.0 }
  },
  "wrong_key_sweep": { "design": "DES3", "keys": 16, "fresh_ms": 21000.0, "incremental_ms": 3800.0, "incremental_improvement": 0.819 }
}"#;

    #[test]
    fn cec_bench_files_gate_on_any_improvement_leaf() {
        diff_files("cec-ok", CEC, CEC, 0.25).expect("identical cec files pass");
        let cand = CEC.replace("0.819", "0.010");
        let err = diff_files("cec-impr", CEC, &cand, 0.25).expect_err("must fail");
        assert!(
            err.contains("wrong_key_sweep.incremental_improvement"),
            "{err}"
        );
        let cand = CEC.replace(
            "\"sweep_incremental_ms\": 3800.0 }\n  }",
            "\"sweep_incremental_ms\": 38000.0 }\n  }",
        );
        let err = diff_files("cec-ms", CEC, &cand, 0.25).expect_err("must fail");
        assert!(err.contains("DES3.sweep_incremental_ms"), "{err}");
    }
}
