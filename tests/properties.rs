//! Property-based tests: flow invariants on randomly generated designs
//! plus substrate-level round-trip properties.

use alice_redaction::benchmarks::generator::{generate, GeneratorParams};
use alice_redaction::core::cluster::identify_clusters;
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::design::Design;
use alice_redaction::core::filter::filter_modules;
use alice_redaction::core::flow::Flow;
use alice_redaction::verilog::{parse_source, print_source};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The printer's output always re-parses to the same AST (the property
    /// the redaction back-end relies on).
    #[test]
    fn printer_round_trip_on_synthetic_designs(seed in 0u64..5000) {
        let src = generate(seed, GeneratorParams::default());
        let f1 = parse_source(&src).expect("generated designs parse");
        let text = print_source(&f1);
        let f2 = parse_source(&text).expect("printed output parses");
        prop_assert_eq!(f1, f2);
    }

    /// Candidates returned by filtering always satisfy both criteria:
    /// positive score and the structural pin bound.
    #[test]
    fn filter_respects_structural_bound(seed in 0u64..5000, max_io in 8u32..80) {
        let src = generate(seed, GeneratorParams::default());
        let d = Design::from_source("synth", &src, None).expect("load");
        let df = alice_redaction::dataflow::analyze(&d.file, d.hierarchy.top.as_str()).expect("df");
        let cfg = AliceConfig { max_io_pins: max_io, ..AliceConfig::default() };
        let r = filter_modules(&d, &df, &cfg).expect("filter");
        for c in &r.candidates {
            prop_assert!(c.io_pins <= max_io);
            prop_assert!(c.score >= 1);
        }
        // candidates ⊆ functional
        prop_assert!(r.candidates.len() <= r.functional.len());
    }

    /// Every cluster from Algorithm 2 is admissible and unique; singletons
    /// are always present.
    #[test]
    fn clusters_are_admissible_and_unique(seed in 0u64..5000, max_io in 16u32..128) {
        let src = generate(seed, GeneratorParams::default());
        let d = Design::from_source("synth", &src, None).expect("load");
        let df = alice_redaction::dataflow::analyze(&d.file, d.hierarchy.top.as_str()).expect("df");
        let cfg = AliceConfig { max_io_pins: max_io, ..AliceConfig::default() };
        let r = filter_modules(&d, &df, &cfg).expect("filter").candidates;
        let c = identify_clusters(&r, &d.paths, &cfg);
        let mut seen = std::collections::BTreeSet::new();
        for cluster in &c.clusters {
            prop_assert!(seen.insert(cluster.clone()), "duplicate cluster");
            let pins: u32 = cluster.iter().map(|&i| r[i].io_pins).sum();
            prop_assert!(pins <= max_io);
        }
        // Every candidate appears as a singleton.
        for i in 0..r.len() {
            let singleton: std::collections::BTreeSet<usize> = [i].into_iter().collect();
            prop_assert!(c.clusters.contains(&singleton));
        }
    }

    /// The full flow never panics on generated designs and, when it finds a
    /// solution, the solution's clusters are disjoint.
    #[test]
    fn flow_solutions_are_disjoint(seed in 0u64..2000) {
        let src = generate(seed, GeneratorParams { leaves: 5, ..GeneratorParams::default() });
        let d = Design::from_source("synth", &src, None).expect("load");
        let out = Flow::new(AliceConfig::cfg1()).run(&d).expect("flow");
        if let Some(best) = &out.selection.best {
            let mut used = std::collections::BTreeSet::new();
            for &i in &best.efpgas {
                for &m in &out.selection.valid[i].cluster {
                    prop_assert!(used.insert(m), "overlapping instance in solution");
                }
            }
            prop_assert!(best.efpgas.len() <= 2, "cfg1 allows at most two eFPGAs");
        }
    }

    /// The shipped bitstream (each fabric's `config_stream`) holds 17
    /// bits per logic element of the chosen fabric's packing: a 16-bit
    /// truth table plus the FF-bypass flag.
    #[test]
    fn bitstream_length_matches_model(seed in 0u64..2000) {
        let src = generate(seed, GeneratorParams { leaves: 5, ..GeneratorParams::default() });
        let d = Design::from_source("synth", &src, None).expect("load");
        let out = Flow::new(AliceConfig::cfg1()).run(&d).expect("flow");
        if let (Some(best), Some(redacted)) = (&out.selection.best, &out.redacted) {
            prop_assert_eq!(best.efpgas.len(), redacted.efpgas.len());
            for (&vi, e) in best.efpgas.iter().zip(&redacted.efpgas) {
                let packing = &out.selection.valid[vi].efpga.packing;
                let les: usize = packing.clbs.iter().map(|c| c.les.len()).sum();
                prop_assert_eq!(les, packing.le_count);
                prop_assert_eq!(e.config_stream.len(), 17 * les);
            }
        }
    }
}

#[test]
fn flow_on_generated_design_with_redaction_round_trip() {
    // One deeper check outside proptest: redact a generated design and
    // re-parse the combined output.
    let src = generate(11, GeneratorParams::default());
    let d = Design::from_source("synth", &src, None).expect("load");
    let out = Flow::new(AliceConfig::cfg1()).run(&d).expect("flow");
    if let Some(r) = &out.redacted {
        let parsed = parse_source(&r.combined_verilog()).expect("round trip");
        assert!(parsed.module("synth_top").is_some());
    }
}
