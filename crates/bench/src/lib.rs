//! Evaluation binaries: regenerate every table and figure of the paper's
//! evaluation section. The repository's benchmark is `perfbench/` (see
//! its README), not this crate.
//!
//! Binaries:
//!
//! * `suite` — Table 1 (benchmark characteristics) **and** Table 2 (the
//!   full flow under cfg1/cfg2) in one command, running every
//!   benchmark × {cfg1, cfg2} concurrently via [`run_suite_with_db`],
//! * `figure4` — GCD floorplans and die areas (paper Figure 4),
//! * `security` — SAT-attack resilience of selected fabrics (threat-model
//!   extension; §2.1/\[16\]),
//! * `trace_check` — validates a `--trace` file (CI's trace gate),
//! * `probe` — per-module synthesis/mapping/fabric statistics.

use alice_benchmarks::Benchmark;
use alice_core::config::AliceConfig;
use alice_core::db::DesignDb;
use alice_core::design::Design;
use alice_core::flow::{Flow, FlowOutcome};
use alice_core::par::shard;
use std::sync::Arc;

/// Runs one benchmark under a configuration, with its selected outputs.
///
/// # Panics
///
/// Panics if the benchmark fails to load or the flow errors (the shipped
/// suite must always run).
pub fn run_flow(bench: &Benchmark, base: AliceConfig) -> FlowOutcome {
    let design = bench
        .design()
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    Flow::new(bench.config(base))
        .run(&design)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// Like [`run_flow`], over an already-loaded design and against a shared
/// [`DesignDb`] so repeated runs (benchmarks × configurations) reuse
/// characterizations.
///
/// # Panics
///
/// Panics if the flow errors.
pub fn run_flow_on_db(
    bench: &Benchmark,
    design: &Design,
    base: AliceConfig,
    db: Arc<DesignDb>,
) -> FlowOutcome {
    Flow::with_db(bench.config(base), db)
        .run(design)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// The two configurations of §7.
pub fn paper_configs() -> [(&'static str, AliceConfig); 2] {
    [
        ("cfg1: 64 I/O pins and 2 eFPGAs", AliceConfig::cfg1()),
        ("cfg2: 96 I/O pins and 1 eFPGA", AliceConfig::cfg2()),
    ]
}

/// One configuration's worth of suite results: every DAC'22 benchmark run
/// under that configuration, in [`alice_benchmarks::suite`] order.
pub struct SuiteRun {
    /// Human-readable configuration label (see [`paper_configs`]).
    pub label: &'static str,
    /// The base configuration the benchmarks ran under.
    pub config: AliceConfig,
    /// One flow outcome per benchmark, in suite order.
    pub outcomes: Vec<FlowOutcome>,
}

/// Runs the full evaluation batch — every DAC'22 benchmark × {cfg1, cfg2}
/// — with up to `jobs` flows in parallel (`0` = all available cores),
/// against a caller-supplied [`DesignDb`] shared by every flow in the
/// matrix: a module characterized for one benchmark × config cell is
/// never LUT-mapped or sized again in any other cell. With `verify`, each
/// redaction is proven equivalent to its original via the `alice-cec`
/// SAT miter, and `wrong_keys` wrong bitstreams are swept for output
/// corruptibility.
///
/// Results are grouped per configuration and ordered deterministically
/// (suite order within each config), independent of `jobs`. Note the
/// per-flow select stage *also* parallelizes internally; for the batch
/// driver each flow is pinned to one worker (`AliceConfig::jobs = 1` per
/// flow) so the machine is not oversubscribed.
///
/// # Panics
///
/// Panics if any benchmark fails to load or any flow errors, like
/// [`run_flow`] (the shipped suite must always run).
pub fn run_suite_with_db(
    jobs: usize,
    wrong_keys: usize,
    verify: bool,
    db: Arc<DesignDb>,
) -> Vec<SuiteRun> {
    let benches = alice_benchmarks::suite();
    let configs = paper_configs();
    let jobs = alice_core::par::resolve_jobs(jobs);
    // Parse each benchmark once (in parallel); both configs share it.
    let designs: Vec<Design> = shard(benches.len(), jobs, |b| {
        benches[b]
            .design()
            .unwrap_or_else(|e| panic!("{}: {e}", benches[b].name))
    });
    let tasks: Vec<(usize, usize)> = configs
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| (0..benches.len()).map(move |bi| (ci, bi)))
        .collect();
    let mut outcomes = shard(tasks.len(), jobs, |t| {
        let (ci, bi) = tasks[t];
        let base = AliceConfig {
            jobs: 1,
            verify,
            verify_wrong_keys: wrong_keys,
            ..configs[ci].1.clone()
        };
        run_flow_on_db(&benches[bi], &designs[bi], base, db.clone())
    });
    configs
        .into_iter()
        .map(|(label, config)| SuiteRun {
            label,
            config,
            outcomes: outcomes.drain(..benches.len()).collect(),
        })
        .collect()
}
