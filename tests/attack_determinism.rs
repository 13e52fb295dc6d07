//! Determinism guard for the oracle-guided SAT attack: on small cluster
//! fabrics of GCD and DES3, two runs of `sat_attack` must recover the
//! same canonical key bit-for-bit, and that key must be functionally
//! correct. On each design's largest budget-class fabric, the
//! budget-truncated outcome must repeat too.
//!
//! SAT-heavy: ignored in debug builds, run by CI's release matrix entry.

use alice_redaction::attacks::{exhaustive_equiv, sat_attack, AttackBudget, AttackStatus};
use alice_redaction::benchmarks;
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::flow::Flow;
use alice_redaction::core::select::ClusterMapper;
use std::sync::Arc;

#[cfg_attr(debug_assertions, ignore = "SAT-heavy; run with --release")]
#[test]
fn attack_recovers_identical_keys() {
    // Key recovery requires the attack to RUN TO TERMINATION (the DIP
    // miter goes UNSAT), and termination is bounded by the fabric's
    // INPUT space, not its LUT count — so the bit-for-bit key
    // comparison runs full-budget attacks on small-input cluster
    // fabrics (≤ 2^INPUT_CAP possible DIPs), while the budget-truncated
    // Resilient regime is pinned separately on each design's largest
    // budget-class fabric.
    const INPUT_CAP: usize = 10;
    const LUT_CAP: usize = 220;
    let truncated = AttackBudget {
        max_dips: 12,
        conflicts_per_call: 8_000,
    };
    let inputs_of =
        |n: &alice_redaction::netlist::lutmap::MappedNetlist| n.input_names.len() + n.dffs.len();
    let mut compared = 0;
    for b in [benchmarks::gcd::benchmark(), benchmarks::des3::benchmark()] {
        let d = b.design().expect("load");
        // cfg1 where it redacts, cfg2 otherwise.
        let probe = Flow::new(b.config(AliceConfig::cfg1()))
            .run(&d)
            .expect("flow");
        let out = if probe.redacted.is_some() {
            probe
        } else {
            Flow::new(b.config(AliceConfig::cfg2()))
                .run(&d)
                .expect("flow")
        };
        let db = Arc::new(alice_redaction::core::db::DesignDb::new());
        let mut mapper = ClusterMapper::new(&d, 4, &db);
        let mut networks: Vec<_> = out
            .selection
            .valid
            .iter()
            .filter_map(|chosen| {
                mapper
                    .cluster_network(&chosen.cluster, &out.filter.candidates)
                    .ok()
            })
            .collect();
        networks.sort_by_key(|n| (inputs_of(n), n.lut_count()));

        // Regime 1: full-budget key recovery on up to two small-input
        // fabrics — both runs must terminate with identical, correct keys.
        for network in networks
            .iter()
            .filter(|n| inputs_of(n) <= INPUT_CAP)
            .take(2)
        {
            let first = sat_attack(network, AttackBudget::default());
            let again = sat_attack(network, AttackBudget::default());
            match (&first.status, &again.status) {
                (
                    AttackStatus::KeyRecovered { keys: k1 },
                    AttackStatus::KeyRecovered { keys: k2 },
                ) => {
                    assert_eq!(k1, k2, "{}: canonical keys must match bit-for-bit", b.name);
                    assert!(
                        exhaustive_equiv(network, k1),
                        "{}: the recovered key must be functionally correct",
                        b.name
                    );
                    compared += 1;
                }
                (x, y) => panic!(
                    "{}: a {}-input fabric must terminate on both runs, got {x:?} / {y:?}",
                    b.name,
                    inputs_of(network)
                ),
            }
        }

        // Regime 2: the budget-truncated verdict on the largest
        // budget-class fabric must repeat.
        if let Some(network) = networks
            .iter()
            .filter(|n| n.lut_count() <= LUT_CAP)
            .max_by_key(|n| n.lut_count())
        {
            let first = sat_attack(network, truncated);
            let again = sat_attack(network, truncated);
            assert_eq!(
                first.status == AttackStatus::Resilient,
                again.status == AttackStatus::Resilient,
                "{}: the truncated attack outcome changed between runs",
                b.name
            );
        }
    }
    // At least one fabric across the two designs must actually recover
    // a key, or the bit-for-bit comparison above never fired.
    assert!(
        compared > 0,
        "no small-input fabric recovered a key — guard is vacuous"
    );
}
