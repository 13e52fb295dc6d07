//! Differential guard for the keyed wrong-key sweep: one
//! assumption-parameterized encoding answering the correct-key proof and
//! the whole wrong-key sweep must agree with a direct oracle — a fresh
//! pinned [`Miter`] per key, built from the redaction's own bindings —
//! on the equivalence verdict and on every key's corruption count,
//! compared total and completeness, on GCD and DES3 with 8 wrong keys.
//! The sweep runs at 1, 2 and 3 jobs, so its slices get zero, one and
//! two clones of the proof's miter.
//!
//! SAT-heavy: ignored in debug builds, run by CI's release matrix entry.

use alice_redaction::benchmarks;
use alice_redaction::cec::{CecResult, Miter, MiterOptions};
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::db::DesignDb;
use alice_redaction::core::design::Design;
use alice_redaction::core::flow::Flow;
use alice_redaction::core::redact::RedactedDesign;
use alice_redaction::core::verify::VerifyOutcome;
use alice_redaction::netlist::ir::Netlist;
use std::collections::HashMap;
use std::sync::Arc;

fn config(b: &benchmarks::Benchmark, jobs: usize) -> AliceConfig {
    AliceConfig {
        verify: true,
        verify_wrong_keys: 8,
        // A pinned worker count, so the sweep's slice partitioning
        // does not follow the host.
        jobs,
        ..b.config(AliceConfig::cfg1())
    }
}

/// The oracle: both sides elaborated as the verify stage elaborates
/// them, and the pinned options for a key with the `flipped` key bits
/// (indices into the concatenated per-fabric key-bit table) inverted.
struct Oracle {
    golden: Arc<Netlist>,
    revised: Arc<Netlist>,
    correct: MiterOptions,
    key_bits: Vec<usize>,
}

impl Oracle {
    fn new(design: &Design, redacted: &RedactedDesign, cfg: &AliceConfig) -> Oracle {
        let db = DesignDb::new();
        let top = design.hierarchy.top.as_str();
        let golden = db.elaborate(&design.file, top).expect("golden elaborates");
        let parsed = alice_redaction::verilog::parse_source(&redacted.combined_verilog())
            .expect("redacted output re-parses");
        let revised = db.elaborate(&parsed, top).expect("revised elaborates");
        let mut correct = MiterOptions {
            conflict_budget: cfg.verify_conflict_budget,
            ..MiterOptions::default()
        };
        correct.pin_inputs.push(("cfg_en".into(), vec![false]));
        let mut key_bits = Vec::new();
        for e in &redacted.efpgas {
            let offset = correct.pin_state.len();
            key_bits.extend(e.binding.key_bits.iter().map(|&i| offset + i));
            correct.pin_state.extend(e.binding.cfg_pins.iter().copied());
            correct
                .state_rename
                .extend(e.binding.state_map.iter().copied());
        }
        Oracle {
            golden,
            revised,
            correct,
            key_bits,
        }
    }

    fn prove(&self) -> CecResult {
        Miter::build(&self.golden, &self.revised, &self.correct)
            .expect("builds")
            .prove()
    }

    /// `(corrupted, total, complete)` of a fresh pinned miter.
    fn corruption(&self, flipped: &[usize]) -> (usize, usize, bool) {
        let mut opts = self.correct.clone();
        for &i in flipped {
            let pin = &mut opts.pin_state[self.key_bits[i]];
            pin.1 = !pin.1;
        }
        let c = Miter::build(&self.golden, &self.revised, &opts)
            .expect("builds")
            .corruption();
        (c.corrupted.len(), c.total, c.complete)
    }
}

#[cfg_attr(debug_assertions, ignore = "SAT-heavy; run with --release")]
#[test]
fn incremental_sweep_matches_the_fresh_baseline() {
    for b in [benchmarks::gcd::benchmark(), benchmarks::des3::benchmark()] {
        let design = b.design().expect("load");
        let mut oracle: Option<Oracle> = None;
        let mut want: HashMap<Vec<usize>, (usize, usize, bool)> = HashMap::new();
        for jobs in 1..=3 {
            let cfg = config(&b, jobs);
            let out = Flow::new(cfg.clone()).run(&design).expect("flow");
            let redacted = out.redacted.as_ref().expect("redacted");
            let oracle = oracle.get_or_insert_with(|| {
                let o = Oracle::new(&design, redacted, &cfg);
                assert_eq!(o.prove(), CecResult::Equivalent, "{}: oracle proof", b.name);
                o
            });
            let v = out.verify.as_ref().expect("verify ran");
            assert_eq!(
                v.outcome,
                VerifyOutcome::Equivalent,
                "{} at {jobs} job(s): the keyed proof disagrees with the pinned oracle",
                b.name
            );
            assert_eq!(v.wrong_keys.len(), 8, "{}", b.name);
            for wk in &v.wrong_keys {
                let expected = *want
                    .entry(wk.flipped.clone())
                    .or_insert_with(|| oracle.corruption(&wk.flipped));
                assert_eq!(
                    (wk.corrupted, wk.total, wk.complete),
                    expected,
                    "{} at {jobs} job(s), flips {:?}: keyed corruption differs from the pinned oracle",
                    b.name,
                    wk.flipped
                );
                assert!(wk.complete, "{}: sweep analyses must be exact", b.name);
            }
        }
        // The sweep must have found corrupting keys, or the equalities
        // above compared all-zero counts and prove nothing.
        assert!(
            want.values().any(|&(corrupted, _, _)| corrupted > 0),
            "{}: no wrong key corrupted anything — guard is vacuous",
            b.name
        );
    }
}
