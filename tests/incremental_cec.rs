//! Differential guard for the incremental keyed-miter CEC path: one
//! assumption-parameterized encoding answering the correct-key proof and
//! the whole wrong-key sweep must be *observationally identical* to the
//! classic pinned-constant path — same equivalence verdict, same per-key
//! corruption counts, same completeness — on GCD and DES3 with the
//! correct key plus 8 wrong keys. Only wall-clock may differ. The
//! incremental side runs at 1, 2 and 3 jobs, so the sweep's slices get
//! zero, one and two clones of the proof's miter.
//!
//! SAT-heavy: ignored in debug builds, run by CI's release matrix entry.

use alice_redaction::benchmarks;
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::flow::{Flow, FlowOutcome};
use alice_redaction::core::verify::VerifyOutcome;

fn verified_run(
    b: &benchmarks::Benchmark,
    incremental: bool,
    wrong_keys: usize,
    jobs: usize,
) -> FlowOutcome {
    let d = b.design().expect("load");
    let cfg = AliceConfig {
        verify: true,
        verify_wrong_keys: wrong_keys,
        incremental_cec: incremental,
        // A pinned worker count, so the sweep's slice partitioning
        // does not follow the host.
        jobs,
        ..b.config(AliceConfig::cfg1())
    };
    Flow::new(cfg).run(&d).expect("flow")
}

#[cfg_attr(debug_assertions, ignore = "SAT-heavy; run with --release")]
#[test]
fn incremental_sweep_matches_the_fresh_baseline() {
    for b in [benchmarks::gcd::benchmark(), benchmarks::des3::benchmark()] {
        let fresh = verified_run(&b, false, 8, 2);
        let vf = fresh.verify.as_ref().expect("verify ran");
        assert_eq!(
            vf.outcome,
            VerifyOutcome::Equivalent,
            "{}: baseline verdict",
            b.name
        );
        assert_eq!(vf.wrong_keys.len(), 8, "{}", b.name);
        // One slice keeps the proof's miter; each further job adds a
        // slice working on a clone of it.
        for jobs in 1..=3 {
            let inc = verified_run(&b, true, 8, jobs);
            let vi = inc.verify.as_ref().expect("verify ran");
            assert_eq!(
                vi.outcome, vf.outcome,
                "{} at {jobs} job(s): incremental path changed the verdict",
                b.name
            );
            // `WrongKeyOutcome` equality covers the flipped bit sets, the
            // per-key corruption counts, the compared totals, and the
            // completeness flags — everything but timing.
            assert_eq!(
                vi.wrong_keys, vf.wrong_keys,
                "{} at {jobs} job(s): per-key corruption differs between the paths",
                b.name
            );
            for wk in &vi.wrong_keys {
                assert!(wk.complete, "{}: sweep analyses must be exact", b.name);
                assert!(wk.corrupted <= wk.total, "{}", b.name);
            }
        }
        // The sweep must have found corrupting keys, or the equalities
        // above compared all-zero vectors and prove nothing.
        assert!(
            vf.wrong_keys.iter().any(|wk| wk.corrupted > 0),
            "{}: no wrong key corrupted anything — guard is vacuous",
            b.name
        );
    }
}
