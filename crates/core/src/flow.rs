//! The end-to-end ALICE flow (Figure 3): module filtering → cluster
//! identification → eFPGA selection → redacted-design generation, run as
//! the staged pipeline of [`crate::stage`] with per-stage instrumentation
//! for the Table 2 columns.

use crate::cluster::ClusterResult;
use crate::config::AliceConfig;
use crate::db::{CacheCounts, DesignDb};
use crate::design::Design;
use crate::error::AliceError;
use crate::filter::FilterResult;
use crate::redact::RedactedDesign;
use crate::select::SelectionResult;
use crate::stage::{
    run_stage, ClusterStage, FilterStage, FlowContext, PhaseTimings, RedactStage, SelectStage,
    Stage, VerifyStage, CLUSTER, FILTER, SELECT, VERIFY,
};
use crate::verify::VerifyReport;
use alice_fabric::FabricSize;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The flow's error type: the unified [`AliceError`]. (The former
/// `FlowError` wrapper enum is gone; every phase reports through
/// `AliceError` directly.)
pub type FlowError = AliceError;

/// Summary of one flow run — one row of Table 2, derived from the
/// pipeline's [`PhaseTimings`].
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Redactable instance count (Table 1 "Instances").
    pub instances: usize,
    /// Module-filtering time (includes dataflow analysis, as in the paper).
    pub filter_time: Duration,
    /// |R| — candidate redaction modules.
    pub candidates: usize,
    /// Cluster-identification time.
    pub cluster_time: Duration,
    /// |C| — candidate clusters.
    pub clusters: usize,
    /// eFPGA-selection time (includes all fabric characterizations).
    pub select_time: Duration,
    /// Number of valid eFPGA implementations.
    pub valid_efpgas: usize,
    /// |S| — enumerated solutions.
    pub solutions: usize,
    /// Fabric sizes of the chosen solution (empty if none).
    pub efpga_sizes: Vec<FabricSize>,
    /// Total redacted module instances in the chosen solution.
    pub redacted_modules: usize,
    /// Equivalence-check time (zero when the verify stage is off).
    pub verify_time: Duration,
    /// Equivalence verdict: `Some(true)` proven equivalent, `Some(false)`
    /// disproven, `None` when verification did not run to a verdict
    /// (disabled, no redaction, unsupported, or budget exhausted).
    pub verified: Option<bool>,
    /// Mean wrong-key corruption fraction from the sweep, if it ran.
    pub wrong_key_corruption: Option<f64>,
    /// Characterization-cache lookups answered from the [`DesignDb`]
    /// during this run's wall-clock window (elaborations, LUT mappings,
    /// fabric sizings). When the db is shared with *concurrently*
    /// running flows their lookups land in the window too, so treat
    /// per-run numbers as attribution, not an exact ledger — exact
    /// totals come from [`DesignDb::counts`] on the shared db.
    pub cache_hits: u64,
    /// Characterization-cache lookups computed (not served) during this
    /// run's window; same attribution caveat as
    /// [`FlowReport::cache_hits`].
    pub cache_misses: u64,
    /// Lookups served from the persistent on-disk store (cold in this
    /// process, warm on disk) during this run's window — the cross-
    /// process reuse the `--store` flag buys; zero without a store. Same
    /// attribution caveat as [`FlowReport::cache_hits`].
    pub cache_disk_hits: u64,
}

impl FlowReport {
    /// Derives the report from a finished pipeline context and its
    /// instrumentation (the only constructor the flow uses). `cache` is
    /// this run's hit/miss delta against the shared [`DesignDb`].
    pub fn from_timings(cx: &FlowContext<'_>, timings: &PhaseTimings, cache: CacheCounts) -> Self {
        let selection = cx.selection.as_ref();
        let (efpga_sizes, redacted_modules) = match selection.and_then(|s| s.best.as_ref()) {
            Some(best) => {
                let valid = &selection.expect("best implies selection").valid;
                let sizes: Vec<FabricSize> =
                    best.efpgas.iter().map(|&i| valid[i].efpga.size).collect();
                let n: usize = best.efpgas.iter().map(|&i| valid[i].cluster.len()).sum();
                (sizes, n)
            }
            None => (Vec::new(), 0),
        };
        let verified = cx.verify.as_ref().and_then(|v| match &v.outcome {
            crate::verify::VerifyOutcome::Equivalent => Some(true),
            crate::verify::VerifyOutcome::NotEquivalent(_) => Some(false),
            _ => None,
        });
        FlowReport {
            design: cx.design.name.clone(),
            instances: cx.design.instance_paths().len(),
            filter_time: timings.duration_of(FILTER),
            candidates: timings.items_of(FILTER),
            cluster_time: timings.duration_of(CLUSTER),
            clusters: timings.items_of(CLUSTER),
            select_time: timings.duration_of(SELECT),
            valid_efpgas: timings.items_of(SELECT),
            solutions: selection.map(|s| s.solutions).unwrap_or(0),
            efpga_sizes,
            redacted_modules,
            verify_time: timings.duration_of(VERIFY),
            verified,
            wrong_key_corruption: cx.verify.as_ref().and_then(|v| v.corruption_fraction()),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_disk_hits: cache.disk_hits,
        }
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes = if self.efpga_sizes.is_empty() {
            "-".to_string()
        } else {
            self.efpga_sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "{:<8} {:>4} | {:>9.2?} {:>4} | {:>9.2?} {:>5} | {:>9.2?} {:>5} {:>6} | {:<12} {:>3}",
            self.design,
            self.instances,
            self.filter_time,
            self.candidates,
            self.cluster_time,
            self.clusters,
            self.select_time,
            self.valid_efpgas,
            self.solutions,
            sizes,
            self.redacted_modules
        )?;
        match self.verified {
            Some(true) => write!(f, " | cec ok ({:.2?})", self.verify_time)?,
            Some(false) => write!(f, " | cec FAIL ({:.2?})", self.verify_time)?,
            None => {}
        }
        if let Some(c) = self.wrong_key_corruption {
            write!(f, " corr={c:.2}")?;
        }
        if self.cache_hits + self.cache_misses + self.cache_disk_hits > 0 {
            write!(f, " | cache {}h/{}m", self.cache_hits, self.cache_misses)?;
            if self.cache_disk_hits > 0 {
                write!(f, "+{}d", self.cache_disk_hits)?;
            }
        }
        Ok(())
    }
}

/// The result of a full flow run.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Table-2-style metrics.
    pub report: FlowReport,
    /// Per-stage wall-clock timings and counters.
    pub timings: PhaseTimings,
    /// Phase results, exposed for inspection (C-INTERMEDIATE).
    pub filter: FilterResult,
    /// Cluster-identification output.
    pub clusters: ClusterResult,
    /// Selection output (scores, valid fabrics, best solution).
    pub selection: SelectionResult,
    /// The redacted design, when a solution exists.
    pub redacted: Option<RedactedDesign>,
    /// Equivalence-check report (when [`AliceConfig::verify`] is on and a
    /// redacted design exists).
    pub verify: Option<VerifyReport>,
}

/// The ALICE flow driver.
///
/// # Example
///
/// ```
/// use alice_core::config::AliceConfig;
/// use alice_core::design::Design;
/// use alice_core::flow::Flow;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "
/// module inv(input wire [3:0] a, output wire [3:0] y); assign y = ~a; endmodule
/// module top(input wire [3:0] a, output wire [3:0] y);
///   inv u0(.a(a), .y(y));
/// endmodule";
/// let design = Design::from_source("demo", src, None)?;
/// let outcome = Flow::new(AliceConfig::cfg1()).run(&design)?;
/// assert_eq!(outcome.report.candidates, 1);
/// assert!(outcome.redacted.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Flow {
    cfg: AliceConfig,
    db: Arc<DesignDb>,
}

impl Flow {
    /// Creates a flow with the given configuration and a private
    /// [`DesignDb`] (disabled when [`AliceConfig::cache`] is off). With
    /// [`AliceConfig::store`] set, the db is backed by the persistent
    /// store at that directory, so a later process starts warm; an
    /// unopenable store directory degrades to a plain in-memory db (the
    /// flow itself must never fail on cache problems).
    pub fn new(cfg: AliceConfig) -> Self {
        let db = Arc::new(if !cfg.cache {
            DesignDb::new_disabled()
        } else {
            match &cfg.store {
                Some(dir) => DesignDb::with_store(dir).unwrap_or_else(|e| {
                    eprintln!(
                        "alice: warning: cannot open store {}: {e}; caching in memory only",
                        dir.display()
                    );
                    DesignDb::new()
                }),
                None => DesignDb::new(),
            }
        });
        if let Some(store) = db.store() {
            // Opportunistic compaction: flushes past 2x the configured
            // budget LRU-compact back down to it.
            store.set_compact_budget(cfg.store_budget);
        }
        Flow { cfg, db }
    }

    /// Creates a flow sharing a long-lived [`DesignDb`], so
    /// characterizations are reused across runs (the `suite` binary
    /// shares one db over its whole benchmarks × configs matrix).
    ///
    /// [`AliceConfig::cache`] still wins: with `cache: false` the shared
    /// db is set aside and a disabled one is used, so a no-cache config
    /// means no cache on every construction path.
    /// [`AliceConfig::store`] is ignored here — the caller's db (store-
    /// backed or not) is authoritative; open the store on the shared db
    /// itself ([`DesignDb::with_store`]) to persist a shared matrix.
    pub fn with_db(cfg: AliceConfig, db: Arc<DesignDb>) -> Self {
        if !cfg.cache {
            return Flow::new(cfg);
        }
        Flow { cfg, db }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AliceConfig {
        &self.cfg
    }

    /// The characterization cache this flow runs against.
    pub fn db(&self) -> &Arc<DesignDb> {
        &self.db
    }

    /// The pipeline's stages, in execution order.
    pub fn stages() -> [&'static dyn Stage; 5] {
        [
            &FilterStage,
            &ClusterStage,
            &SelectStage,
            &RedactStage,
            &VerifyStage,
        ]
    }

    /// Runs all phases on `design` through the staged pipeline.
    ///
    /// A design where no module survives filtering (like IIR under cfg1 in
    /// the paper) is *not* an error: the outcome simply has no solution.
    ///
    /// # Errors
    ///
    /// Returns [`AliceError`] on analysis failures (bad output names,
    /// unsupported constructs, internal inconsistencies).
    pub fn run(&self, design: &Design) -> Result<FlowOutcome, AliceError> {
        let before = self.db.counts();
        let mut cx = FlowContext::new(design, &self.cfg, &self.db);
        let mut timings = PhaseTimings::default();
        for stage in Self::stages() {
            run_stage(stage, &mut cx, &mut timings)?;
        }
        let cache = self.db.counts().since(before);
        let report = FlowReport::from_timings(&cx, &timings, cache);
        Ok(FlowOutcome {
            report,
            timings,
            filter: cx.filter.unwrap_or_default(),
            clusters: cx.clusters.unwrap_or_default(),
            selection: cx.selection.unwrap_or_default(),
            redacted: cx.redacted,
            verify: cx.verify,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::REDACT;

    const SRC: &str = r#"
module blk_a(input wire [7:0] a, output wire [7:0] y); assign y = a + 8'd3; endmodule
module blk_b(input wire [7:0] a, output wire [7:0] y); assign y = a ^ 8'h55; endmodule
module top(input wire [7:0] x, output wire [7:0] o1, output wire [7:0] o2);
  blk_a u_a(.a(x), .y(o1));
  blk_b u_b(.a(x), .y(o2));
endmodule
"#;

    #[test]
    fn full_flow_produces_redaction() {
        let d = Design::from_source("demo", SRC, None).expect("load");
        let out = Flow::new(AliceConfig::cfg1()).run(&d).expect("flow");
        assert_eq!(out.report.instances, 2);
        assert_eq!(out.report.candidates, 2);
        assert!(out.report.clusters >= 3);
        assert!(out.report.solutions >= 3);
        assert!(out.redacted.is_some());
        assert!(out.report.redacted_modules >= 1);
    }

    #[test]
    fn infeasible_config_reports_no_solution() {
        // 17 pins per module > 8-pin budget: nothing survives filtering.
        let d = Design::from_source("demo", SRC, None).expect("load");
        let cfg = AliceConfig {
            max_io_pins: 8,
            ..AliceConfig::cfg1()
        };
        let out = Flow::new(cfg).run(&d).expect("flow");
        assert_eq!(out.report.candidates, 0);
        assert_eq!(out.report.clusters, 0);
        assert_eq!(out.report.solutions, 0);
        assert!(out.redacted.is_none());
        assert!(out.report.efpga_sizes.is_empty());
    }

    #[test]
    fn report_renders_one_line() {
        let d = Design::from_source("demo", SRC, None).expect("load");
        let out = Flow::new(AliceConfig::cfg2()).run(&d).expect("flow");
        let line = out.report.to_string();
        assert!(line.contains("demo"));
        assert_eq!(line.lines().count(), 1);
    }

    #[test]
    fn report_times_come_from_stage_timings() {
        let d = Design::from_source("demo", SRC, None).expect("flow");
        let out = Flow::new(AliceConfig::cfg1()).run(&d).expect("flow");
        // All five stages ran and the report mirrors their records.
        let names: Vec<&str> = out.timings.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec![FILTER, CLUSTER, SELECT, REDACT, VERIFY]);
        assert_eq!(out.report.filter_time, out.timings.duration_of(FILTER));
        assert_eq!(out.report.select_time, out.timings.duration_of(SELECT));
        assert_eq!(out.report.valid_efpgas, out.timings.items_of(SELECT));
        assert_eq!(out.report.candidates, out.filter.candidates.len());
    }
}
