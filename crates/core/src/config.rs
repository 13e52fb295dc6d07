//! ALICE flow configuration (the YAML file of Figure 3).

use crate::yaml::{Yaml, YamlError};
use alice_fabric::emit::LE_INPUTS;
use alice_fabric::FabricArch;
use std::fmt;

/// How Eq. 1 turns fabric utilization into a score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreModel {
    /// Reward high I/O and CLB utilization (the stated *intent* of the
    /// paper: poorly-utilized fabrics are easier to attack, §6). Default.
    #[default]
    UtilizationReward,
    /// Equation 1 exactly as printed in the paper, which rewards *low*
    /// utilization; kept for fidelity experiments. See `DESIGN.md` for the
    /// discrepancy discussion.
    AsPrinted,
}

/// Configuration for one ALICE run.
#[derive(Debug, Clone, PartialEq)]
pub struct AliceConfig {
    /// Maximum I/O pins of a candidate module / cluster (structural
    /// criterion of Algorithm 1 and 2).
    pub max_io_pins: u32,
    /// Maximum number of eFPGA instances in a solution (at least 1).
    pub max_efpgas: u32,
    /// Weight of the I/O term in Eq. 1.
    pub alpha: f64,
    /// Weight of the CLB term in Eq. 1.
    pub beta: f64,
    /// Fabric architecture parameters (OpenFPGA XML equivalent).
    pub arch: FabricArch,
    /// Outputs to protect; empty means every top-level output.
    pub selected_outputs: Vec<String>,
    /// Scoring variant.
    pub score_model: ScoreModel,
    /// Optional cap on enumerated solutions (safety valve for the
    /// branch-and-bound of Algorithm 3).
    pub max_solutions: usize,
    /// Optional top module override (default: auto-detect).
    pub top: Option<String>,
    /// Worker threads for cluster characterization in the select stage
    /// (Algorithm 3's dominant cost). `0` means "use all available
    /// cores"; see [`AliceConfig::effective_jobs`]. Results are
    /// independent of this value.
    pub jobs: usize,
    /// Run the post-redaction `verify` stage: a SAT equivalence proof of
    /// the redacted design (with the correct bitstream pinned) against
    /// the original, via `alice-cec`.
    pub verify: bool,
    /// Wrong bitstreams to try in the verify stage's corruptibility
    /// sweep (`0` disables the sweep). Each flips a few truth-table key
    /// bits and measures the fraction of outputs provably corrupted.
    pub verify_wrong_keys: usize,
    /// Solver conflict budget per verify-stage SAT query; `None` is
    /// unlimited (the proof either finishes or runs forever — prefer a
    /// budget on untrusted inputs).
    pub verify_conflict_budget: Option<u64>,
    /// Directory of the persistent artifact store backing the
    /// [`DesignDb`](crate::db::DesignDb) (the `alice` CLI's `--store`,
    /// YAML `store:`). `None` keeps caching in-memory only.
    pub store: Option<std::path::PathBuf>,
    /// Opportunistic-compaction byte budget for the persistent store
    /// (the `alice` CLI's `--store-budget`, YAML `store_budget:`): a
    /// store flush that finds more than 2× this many bytes LRU-compacts
    /// down to the budget, so long-running sweeps stay bounded without
    /// an explicit `alice store gc`. `None` disables auto-compaction;
    /// meaningless without [`AliceConfig::store`].
    pub store_budget: Option<u64>,
    /// Write a Chrome trace-event JSON file (Perfetto-loadable) of the
    /// run's span tree here (the `alice` CLI's `--trace`, YAML
    /// `trace:`). `None` leaves tracing disabled — every span costs one
    /// relaxed atomic load and a branch.
    pub trace: Option<std::path::PathBuf>,
    /// Write a Prometheus-style text snapshot of the run's metric
    /// registry here (the `alice` CLI's `--metrics`, YAML `metrics:`).
    /// `None` leaves metric recording disabled.
    pub metrics: Option<std::path::PathBuf>,
}

impl Default for AliceConfig {
    fn default() -> Self {
        AliceConfig {
            max_io_pins: 64,
            max_efpgas: 2,
            alpha: 1.0,
            beta: 1.0,
            arch: FabricArch::default(),
            selected_outputs: Vec::new(),
            score_model: ScoreModel::default(),
            max_solutions: 1_000_000,
            top: None,
            jobs: 0,
            verify: false,
            verify_wrong_keys: 0,
            verify_conflict_budget: Some(5_000_000),
            store: None,
            store_budget: None,
            trace: None,
            metrics: None,
        }
    }
}

impl AliceConfig {
    /// The paper's `cfg1`: at most 64 I/O pins and two eFPGAs, α = β = 1.
    pub fn cfg1() -> Self {
        AliceConfig {
            max_io_pins: 64,
            max_efpgas: 2,
            ..AliceConfig::default()
        }
    }

    /// The paper's `cfg2`: at most 96 I/O pins and one eFPGA, α = β = 1.
    pub fn cfg2() -> Self {
        AliceConfig {
            max_io_pins: 96,
            max_efpgas: 1,
            ..AliceConfig::default()
        }
    }

    /// The worker-thread count to actually use: `jobs` itself, or the
    /// machine's available parallelism when `jobs` is `0`.
    pub fn effective_jobs(&self) -> usize {
        crate::par::resolve_jobs(self.jobs)
    }

    /// Parses a YAML configuration file.
    ///
    /// # Errors
    ///
    /// Returns [`YamlError`] for malformed YAML, out-of-range values, or
    /// a key the configuration does not know (a misspelt key would
    /// otherwise silently run the default).
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let cfg = alice_core::config::AliceConfig::from_yaml("
    /// max_io_pins: 96
    /// max_efpgas: 1
    /// alpha: 1.0
    /// beta: 1.0
    /// selected_outputs:
    ///   - dout
    /// ")?;
    /// assert_eq!(cfg.max_io_pins, 96);
    /// assert_eq!(cfg.selected_outputs, vec!["dout".to_string()]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_yaml(src: &str) -> Result<Self, YamlError> {
        let y = Yaml::parse(src)?;
        reject_unknown(&y, &KEYS, "")?;
        if let Some(f) = y.get("fabric") {
            reject_unknown(f, &FABRIC_KEYS, "fabric.")?;
        }
        let mut cfg = AliceConfig::default();
        let bad = |what: &str| YamlError {
            line: 0,
            message: format!("invalid value for `{what}`"),
        };
        if let Some(v) = y.get("max_io_pins") {
            cfg.max_io_pins = v.as_u32().ok_or_else(|| bad("max_io_pins"))?;
        }
        if let Some(v) = y.get("max_efpgas") {
            cfg.max_efpgas = v.as_u32().ok_or_else(|| bad("max_efpgas"))?;
            if cfg.max_efpgas == 0 {
                return Err(bad("max_efpgas"));
            }
        }
        if let Some(v) = y.get("alpha") {
            cfg.alpha = v.as_f64().ok_or_else(|| bad("alpha"))?;
        }
        if let Some(v) = y.get("beta") {
            cfg.beta = v.as_f64().ok_or_else(|| bad("beta"))?;
        }
        if let Some(v) = y.get("jobs") {
            cfg.jobs = v.as_u32().ok_or_else(|| bad("jobs"))? as usize;
        }
        if let Some(v) = y.get("verify") {
            cfg.verify = v.as_bool().ok_or_else(|| bad("verify"))?;
        }
        if let Some(v) = y.get("store") {
            let dir = v.as_str().ok_or_else(|| bad("store"))?;
            if dir.is_empty() {
                return Err(bad("store"));
            }
            cfg.store = Some(std::path::PathBuf::from(dir));
        }
        if let Some(v) = y.get("store_budget") {
            let budget = v.as_u64().ok_or_else(|| bad("store_budget"))?;
            if budget == 0 {
                return Err(bad("store_budget"));
            }
            cfg.store_budget = Some(budget);
        }
        if let Some(v) = y.get("trace") {
            let path = v.as_str().ok_or_else(|| bad("trace"))?;
            if path.is_empty() {
                return Err(bad("trace"));
            }
            cfg.trace = Some(std::path::PathBuf::from(path));
        }
        if let Some(v) = y.get("metrics") {
            let path = v.as_str().ok_or_else(|| bad("metrics"))?;
            if path.is_empty() {
                return Err(bad("metrics"));
            }
            cfg.metrics = Some(std::path::PathBuf::from(path));
        }
        if let Some(v) = y.get("wrong_keys") {
            cfg.verify_wrong_keys = v.as_u32().ok_or_else(|| bad("wrong_keys"))? as usize;
        }
        if let Some(v) = y.get("verify_budget") {
            let budget = v.as_u32().ok_or_else(|| bad("verify_budget"))?;
            cfg.verify_conflict_budget = if budget == 0 {
                None
            } else {
                Some(u64::from(budget))
            };
        }
        if let Some(v) = y.get("top") {
            cfg.top = Some(v.as_str().ok_or_else(|| bad("top"))?.to_string());
        }
        if let Some(v) = y.get("score_model") {
            cfg.score_model = match v.as_str() {
                Some("utilization_reward") => ScoreModel::UtilizationReward,
                Some("as_printed") => ScoreModel::AsPrinted,
                _ => return Err(bad("score_model")),
            };
        }
        if let Some(list) = y.get("selected_outputs").and_then(Yaml::as_list) {
            cfg.selected_outputs = list
                .iter()
                .map(|v| v.as_str().map(|s| s.to_string()))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| bad("selected_outputs"))?;
        }
        if let Some(f) = y.get("fabric") {
            if let Some(v) = f.get("lut_inputs") {
                cfg.arch.lut_inputs = v
                    .as_u32()
                    .filter(|k| (2..=LE_INPUTS).contains(k))
                    .ok_or_else(|| bad("fabric.lut_inputs"))?;
            }
            if let Some(v) = f.get("les_per_clb") {
                cfg.arch.les_per_clb = v
                    .as_u32()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("fabric.les_per_clb"))?;
            }
            if let Some(v) = f.get("gpio_per_tile") {
                cfg.arch.gpio_per_tile = v.as_u32().ok_or_else(|| bad("fabric.gpio_per_tile"))?;
            }
            if let Some(v) = f.get("max_dim") {
                cfg.arch.max_dim = v.as_u32().ok_or_else(|| bad("fabric.max_dim"))?;
            }
        }
        Ok(cfg)
    }
}

/// The top-level keys [`AliceConfig::from_yaml`] reads.
const KEYS: [&str; 16] = [
    "max_io_pins",
    "max_efpgas",
    "alpha",
    "beta",
    "jobs",
    "verify",
    "store",
    "store_budget",
    "trace",
    "metrics",
    "wrong_keys",
    "verify_budget",
    "top",
    "score_model",
    "selected_outputs",
    "fabric",
];

/// The keys of the `fabric:` map.
const FABRIC_KEYS: [&str; 4] = ["lut_inputs", "les_per_clb", "gpio_per_tile", "max_dim"];

/// Fails on the first key of `map` outside `known`, naming it with
/// `prefix` (`fabric.` for the fabric map).
fn reject_unknown(map: &Yaml, known: &[&str], prefix: &str) -> Result<(), YamlError> {
    let Yaml::Map(m) = map else { return Ok(()) };
    match m.keys().find(|k| !known.contains(&k.as_str())) {
        Some(key) => Err(YamlError {
            line: 0,
            message: format!("unknown key `{prefix}{key}`"),
        }),
        None => Ok(()),
    }
}

impl fmt::Display for AliceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} I/O pins, {} eFPGA(s), alpha={}, beta={}",
            self.max_io_pins, self.max_efpgas, self.alpha, self.beta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let c1 = AliceConfig::cfg1();
        assert_eq!((c1.max_io_pins, c1.max_efpgas), (64, 2));
        let c2 = AliceConfig::cfg2();
        assert_eq!((c2.max_io_pins, c2.max_efpgas), (96, 1));
        assert_eq!(c1.alpha, 1.0);
        assert_eq!(c1.beta, 1.0);
    }

    #[test]
    fn yaml_overrides_fabric_params() {
        let cfg =
            AliceConfig::from_yaml("max_io_pins: 128\nfabric:\n  max_dim: 30\n  lut_inputs: 3")
                .expect("parse");
        assert_eq!(cfg.max_io_pins, 128);
        assert_eq!(cfg.arch.max_dim, 30);
        assert_eq!(cfg.arch.lut_inputs, 3);
        // untouched defaults survive
        assert_eq!(cfg.arch.les_per_clb, 4);
    }

    #[test]
    fn bad_value_is_error() {
        assert!(AliceConfig::from_yaml("max_io_pins: lots").is_err());
        assert!(AliceConfig::from_yaml("score_model: whatever").is_err());
        assert!(AliceConfig::from_yaml("jobs: many").is_err());
        assert!(AliceConfig::from_yaml("max_efpgas: 0").is_err(), "no eFPGA");
        // The emitted logic element has 4 inputs; wider LUTs cannot
        // configure it, and a 1-input LUT is no LUT.
        for k in [5, 1] {
            let err = AliceConfig::from_yaml(&format!("fabric:\n  lut_inputs: {k}"))
                .expect_err("k outside 2..=4");
            assert!(err.message.contains("`fabric.lut_inputs`"), "{err}");
        }
        // A CLB holds at least one logic element.
        let err = AliceConfig::from_yaml("fabric:\n  les_per_clb: 0").expect_err("empty CLB");
        assert!(err.message.contains("`fabric.les_per_clb`"), "{err}");
    }

    #[test]
    fn lone_quote_is_a_scalar_not_a_panic() {
        let cfg = AliceConfig::from_yaml("top: '").expect("parse");
        assert_eq!(cfg.top.as_deref(), Some("'"));
        let err = AliceConfig::from_yaml("fabric:\n  lut_inputs: '").expect_err("not a number");
        assert!(err.message.contains("`fabric.lut_inputs`"), "{err}");
    }

    #[test]
    fn verify_keys_parse() {
        let cfg = AliceConfig::from_yaml("verify: true\nwrong_keys: 3\nverify_budget: 1000")
            .expect("parse");
        assert!(cfg.verify);
        assert_eq!(cfg.verify_wrong_keys, 3);
        assert_eq!(cfg.verify_conflict_budget, Some(1000));
        let unlimited = AliceConfig::from_yaml("verify_budget: 0").expect("parse");
        assert_eq!(unlimited.verify_conflict_budget, None);
        assert!(!unlimited.verify, "verify defaults to off");
        assert!(AliceConfig::from_yaml("verify: maybe").is_err());
        assert!(AliceConfig::from_yaml("wrong_keys: lots").is_err());
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        let err = AliceConfig::from_yaml("max_io_pin: 96").expect_err("typo");
        assert!(err.message.contains("unknown key `max_io_pin`"), "{err}");
        for (removed, key) in [("portfolio: 4", "portfolio"), ("cache: false", "cache")] {
            let err = AliceConfig::from_yaml(removed).expect_err("removed key");
            assert!(
                err.message.contains(&format!("unknown key `{key}`")),
                "{err}"
            );
        }
        for (yaml, key) in [
            ("fabric:\n  lut_input: 6", "fabric.lut_input"),
            ("fabric:\n  channel_width: 8", "fabric.channel_width"),
        ] {
            let err = AliceConfig::from_yaml(yaml).expect_err("unknown fabric key");
            assert!(
                err.message.contains(&format!("unknown key `{key}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn readme_example_parses() {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("```yaml\n# flow.yaml")
            .expect("README has the example");
        let body = &readme[start + "```yaml\n".len()..];
        let example = &body[..body.find("```").expect("closed code block")];
        let cfg = AliceConfig::from_yaml(example).expect("the README example parses");
        assert_eq!((cfg.max_io_pins, cfg.max_efpgas), (96, 1));
        assert_eq!(cfg.verify_wrong_keys, 4);
        assert_eq!(cfg.selected_outputs, vec!["dout".to_string()]);
        assert_eq!(cfg.arch.les_per_clb, 8);
    }

    #[test]
    fn store_parses() {
        let cfg = AliceConfig::from_yaml("store: /tmp/alice-store").expect("parse");
        assert_eq!(
            cfg.store,
            Some(std::path::PathBuf::from("/tmp/alice-store"))
        );
        assert!(AliceConfig::from_yaml("store:").is_err(), "empty path");
        assert_eq!(AliceConfig::default().store, None);
    }

    #[test]
    fn store_budget_parses() {
        let cfg = AliceConfig::from_yaml("store: d\nstore_budget: 268435456").expect("parse");
        assert_eq!(cfg.store_budget, Some(268_435_456));
        assert_eq!(AliceConfig::default().store_budget, None);
        assert!(AliceConfig::from_yaml("store_budget: lots").is_err());
        assert!(
            AliceConfig::from_yaml("store_budget: 0").is_err(),
            "zero budget"
        );
    }

    #[test]
    fn trace_and_metrics_parse() {
        let cfg = AliceConfig::from_yaml("trace: out.json\nmetrics: metrics.txt").expect("parse");
        assert_eq!(cfg.trace, Some(std::path::PathBuf::from("out.json")));
        assert_eq!(cfg.metrics, Some(std::path::PathBuf::from("metrics.txt")));
        assert_eq!(AliceConfig::default().trace, None);
        assert_eq!(AliceConfig::default().metrics, None);
        assert!(AliceConfig::from_yaml("trace:").is_err(), "empty path");
        assert!(AliceConfig::from_yaml("metrics:").is_err(), "empty path");
    }

    #[test]
    fn jobs_defaults_to_auto() {
        let cfg = AliceConfig::default();
        assert_eq!(cfg.jobs, 0);
        assert!(cfg.effective_jobs() >= 1);
        let fixed = AliceConfig {
            jobs: 3,
            ..AliceConfig::default()
        };
        assert_eq!(fixed.effective_jobs(), 3);
        let parsed = AliceConfig::from_yaml("jobs: 2").expect("parse");
        assert_eq!(parsed.jobs, 2);
    }
}
