//! Phase 3 — eFPGA characterization and selection (Algorithm 3).
//!
//! Every candidate cluster is pushed through the fabric oracle
//! ([`alice_fabric::create_efpga`]); valid implementations are scored with
//! Eq. 1, and a branch-and-bound enumeration finds all solutions (sets of
//! disjoint clusters, at most `max_efpgas` of them). The best solution is
//! the one maximizing the summed score.
//!
//! Characterization (the `select t` column of Table 2) is sharded across
//! [`AliceConfig::jobs`] scoped worker threads: module LUT-mapping first
//! (one task per distinct module), then per-cluster merge + fabric sizing
//! (one task per cluster). Workers pull indices from a shared counter and
//! results are reassembled in cluster order, so the output is
//! byte-identical for any thread count.

use crate::cluster::Cluster;
use crate::config::{AliceConfig, ScoreModel};
use crate::db::DesignDb;
use crate::design::Design;
use crate::error::AliceError;
use crate::filter::Candidate;
use crate::par::shard;
use alice_fabric::EfpgaImpl;
use alice_intern::Symbol;
use alice_netlist::lutmap::MappedNetlist;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A cluster with a valid fabric implementation and its Eq. 1 score.
#[derive(Debug, Clone)]
pub struct ValidEfpga {
    /// The cluster (indices into `R`).
    pub cluster: Cluster,
    /// The fabric implementation returned by the oracle (shared with the
    /// [`DesignDb`] cache — a hit is a pointer copy, not a bitstream
    /// clone).
    pub efpga: Arc<EfpgaImpl>,
    /// Eq. 1 score (filled in once all fabrics are characterized).
    pub score: f64,
}

/// One enumerated solution: indices into the valid-eFPGA list.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chosen eFPGA implementations.
    pub efpgas: Vec<usize>,
    /// Summed Eq. 1 score.
    pub score: f64,
}

/// The outcome of the selection phase.
#[derive(Debug, Clone, Default)]
pub struct SelectionResult {
    /// Characterized, valid fabric implementations (`F` in Algorithm 3).
    pub valid: Vec<ValidEfpga>,
    /// Clusters whose characterization failed (the "OpenFPGA returns an
    /// error" path of Algorithm 3), with the reason.
    pub failed: Vec<(Cluster, String)>,
    /// Number of solutions enumerated (`|S|` in Table 2).
    pub solutions: usize,
    /// The best solution, if any.
    pub best: Option<Solution>,
}

/// Maps each distinct module among the candidates to LUTs via the
/// [`DesignDb`] content-addressed cache (instances — and equal modules in
/// other designs — share the mapping).
///
/// The cluster's merged network is what the fabric oracle sizes; members
/// are independent, so the merge is a disjoint union (§6's synthetic top
/// that "instantiates all independent modules").
pub struct ClusterMapper<'a> {
    design: &'a Design,
    arch_k: u32,
    db: &'a DesignDb,
    cache: HashMap<Symbol, Arc<MappedNetlist>>,
}

impl<'a> ClusterMapper<'a> {
    /// Creates a mapper for the design, backed by `db`.
    pub fn new(design: &'a Design, lut_inputs: u32, db: &'a DesignDb) -> Self {
        ClusterMapper {
            design,
            arch_k: lut_inputs,
            db,
            cache: HashMap::new(),
        }
    }

    /// LUT-maps one module (memoized; instances share it).
    pub fn module(&mut self, module: Symbol) -> Result<&MappedNetlist, AliceError> {
        if !self.cache.contains_key(&module) {
            let mapped = self
                .db
                .map_module(&self.design.file, module.as_str(), self.arch_k)?;
            self.cache.insert(module, mapped);
        }
        Ok(&self.cache[&module])
    }

    /// Builds the merged network for a cluster, with instance-path
    /// prefixes keeping port names unique.
    pub fn cluster_network(
        &mut self,
        cluster: &Cluster,
        r: &[Candidate],
    ) -> Result<MappedNetlist, AliceError> {
        for &i in cluster {
            self.module(r[i].module)?;
        }
        let cache = &self.cache;
        build_cluster_network(|m| Ok(&cache[&m]), cluster, r)
    }
}

/// Pre-mapped module table shared read-only by characterization workers.
type ModuleCache = HashMap<Symbol, Result<Arc<MappedNetlist>, AliceError>>;

/// Builds a cluster's merged network from mapped modules supplied by
/// `lookup`, failing on the cluster's first unmappable member. The single
/// implementation behind both the memoized ([`ClusterMapper`]) and the
/// pre-mapped parallel paths, so their merge semantics cannot drift.
fn build_cluster_network<'a>(
    lookup: impl Fn(Symbol) -> Result<&'a MappedNetlist, AliceError>,
    cluster: &Cluster,
    r: &[Candidate],
) -> Result<MappedNetlist, AliceError> {
    let mut parts: Vec<MappedNetlist> = Vec::new();
    for &i in cluster {
        let cand = &r[i];
        parts.push(prefix_ports(
            lookup(cand.module)?,
            &sanitize(cand.path.as_str()),
        ));
    }
    Ok(merge(&parts))
}

/// [`build_cluster_network`] over the workers' pre-mapped module table.
fn cluster_network_cached(
    cache: &ModuleCache,
    cluster: &Cluster,
    r: &[Candidate],
) -> Result<MappedNetlist, AliceError> {
    build_cluster_network(
        |m| cache[&m].as_ref().map(Arc::as_ref).map_err(Clone::clone),
        cluster,
        r,
    )
}

/// Replaces `.` with `_` so hierarchical paths become legal identifiers.
pub fn sanitize(path: &str) -> String {
    path.replace('.', "_")
}

/// Prefixes every port name with `{prefix}_`.
fn prefix_ports(m: &MappedNetlist, prefix: &str) -> MappedNetlist {
    let pre = |n: &Symbol| Symbol::intern(&format!("{prefix}_{n}"));
    let mut out = m.clone();
    out.inputs = m.inputs.iter().map(|(n, b)| (pre(n), b.clone())).collect();
    out.outputs = m.outputs.iter().map(|(n, b)| (pre(n), b.clone())).collect();
    out.input_names = m.input_names.iter().map(pre).collect();
    out
}

/// Disjoint union of mapped networks (index spaces re-based).
pub fn merge(parts: &[MappedNetlist]) -> MappedNetlist {
    use alice_netlist::lutmap::MappedSrc;
    let mut out = MappedNetlist {
        name: "cluster".to_string(),
        k: parts.first().map(|p| p.k).unwrap_or(4),
        ..MappedNetlist::default()
    };
    for p in parts {
        let pi_base = out.input_names.len();
        let lut_base = out.luts.len();
        let dff_base = out.dffs.len();
        let shift = |s: &MappedSrc| -> MappedSrc {
            match s {
                MappedSrc::Const(b) => MappedSrc::Const(*b),
                MappedSrc::Pi(i) => MappedSrc::Pi(i + pi_base),
                MappedSrc::Lut(i) => MappedSrc::Lut(i + lut_base),
                MappedSrc::Dff(i) => MappedSrc::Dff(i + dff_base),
            }
        };
        out.input_names.extend(p.input_names.iter().copied());
        for (n, idxs) in &p.inputs {
            out.inputs
                .push((*n, idxs.iter().map(|i| i + pi_base).collect()));
        }
        for lut in &p.luts {
            out.luts.push(alice_netlist::lutmap::Lut {
                inputs: lut.inputs.iter().map(&shift).collect(),
                tt: lut.tt,
            });
        }
        for d in &p.dffs {
            out.dffs.push(alice_netlist::lutmap::MappedDff {
                d: shift(&d.d),
                init: d.init,
            });
        }
        out.dff_names.extend(p.dff_names.iter().copied());
        for (n, bits) in &p.outputs {
            out.outputs.push((*n, bits.iter().map(&shift).collect()));
        }
    }
    out
}

/// Eq. 1 of the paper.
///
/// `io`/`clb` are this fabric's utilizations; `max_io`/`max_clb` the maxima
/// over all characterized fabrics. The [`ScoreModel`] picks between the
/// formula as printed and the utilization-rewarding variant matching the
/// paper's prose (see DESIGN.md).
pub fn eq1_score(cfg: &AliceConfig, io: f64, clb: f64, max_io: f64, max_clb: f64) -> f64 {
    let (max_io, max_clb) = (max_io.max(1e-9), max_clb.max(1e-9));
    match cfg.score_model {
        ScoreModel::AsPrinted => {
            cfg.alpha * (max_io - io) / max_io + cfg.beta * (max_clb - clb) / max_clb
        }
        ScoreModel::UtilizationReward => cfg.alpha * io / max_io + cfg.beta * clb / max_clb,
    }
}

/// Runs Algorithm 3: characterize clusters, score, enumerate solutions.
///
/// Characterization is sharded over [`AliceConfig::jobs`] worker threads;
/// the result is identical for every thread count (see the module docs).
///
/// # Errors
///
/// This function currently always succeeds: clusters whose elaboration,
/// mapping, or fabric sizing fails are recorded in
/// [`SelectionResult::failed`] and dropped (they are simply not valid
/// implementations, mirroring OpenFPGA errors). The `Result` is kept for
/// staged-pipeline uniformity and future hard failures.
pub fn select_efpgas(
    design: &Design,
    r: &[Candidate],
    clusters: &[Cluster],
    cfg: &AliceConfig,
    db: &DesignDb,
) -> Result<SelectionResult, AliceError> {
    let jobs = cfg.effective_jobs();
    // LUT-map every distinct module once (instances share the mapping,
    // the DesignDb shares it across runs), one worker task per module,
    // deterministic order via BTreeSet.
    let modules: Vec<Symbol> = clusters
        .iter()
        .flat_map(|c| c.iter().map(|&i| r[i].module))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let cache: ModuleCache = shard(modules.len(), jobs, |m| {
        db.map_module(&design.file, modules[m].as_str(), cfg.arch.lut_inputs)
    })
    .into_iter()
    .enumerate()
    .map(|(m, res)| (modules[m], res))
    .collect();
    // Lines 2-7: characterize every cluster; keep the valid fabrics. A
    // cluster whose synthesis or sizing fails is simply not a valid
    // implementation ("OpenFPGA returns ... an error otherwise", §6).
    // Characterization goes through the DesignDb: same-shaped clusters
    // (equal name-free structural hash) share one fabric sizing.
    let characterized = shard(clusters.len(), jobs, |c| {
        let cluster = &clusters[c];
        let network = cluster_network_cached(&cache, cluster, r).map_err(|e| e.to_string())?;
        db.characterize(&network, &cfg.arch)
    });
    let mut valid: Vec<ValidEfpga> = Vec::new();
    let mut failed: Vec<(Cluster, String)> = Vec::new();
    for (cluster, res) in clusters.iter().zip(characterized) {
        match res {
            Ok(efpga) => valid.push(ValidEfpga {
                cluster: cluster.clone(),
                efpga,
                score: 0.0,
            }),
            Err(e) => failed.push((cluster.clone(), e)),
        }
    }
    // Line 8: Eq. 1 scores, normalized by the maxima over F.
    let max_io = valid.iter().map(|v| v.efpga.io_util).fold(0.0, f64::max);
    let max_clb = valid.iter().map(|v| v.efpga.clb_util).fold(0.0, f64::max);
    for v in &mut valid {
        v.score = eq1_score(cfg, v.efpga.io_util, v.efpga.clb_util, max_io, max_clb);
    }
    // Lines 9-24: branch-and-bound enumeration of disjoint combinations.
    // Work items carry the next index to try so each combination is
    // enumerated exactly once.
    let all_insts: BTreeSet<usize> = (0..r.len()).collect();
    let mut solutions: Vec<Vec<usize>> = Vec::new();
    let mut work: Vec<(Vec<usize>, BTreeSet<usize>)> = vec![(Vec::new(), BTreeSet::new())];
    while let Some((partial, used)) = work.pop() {
        let start = partial.last().map(|&i| i + 1).unwrap_or(0);
        #[allow(clippy::needless_range_loop)]
        for f in start..valid.len() {
            if solutions.len() >= cfg.max_solutions {
                break;
            }
            let cl = &valid[f].cluster;
            if cl.iter().any(|i| used.contains(i)) {
                continue; // overlapping module instances
            }
            let mut new_used = used.clone();
            new_used.extend(cl.iter().copied());
            let mut sol = partial.clone();
            sol.push(f);
            let is_final = sol.len() as u32 == cfg.max_efpgas || new_used.len() == all_insts.len();
            if is_final {
                solutions.push(sol);
            } else {
                solutions.push(sol.clone());
                work.push((sol, new_used));
            }
        }
    }
    // Line 25: rank by summed score.
    let best = solutions
        .iter()
        .map(|s| {
            let score: f64 = s.iter().map(|&i| valid[i].score).sum();
            (s, score)
        })
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    // Deterministic tie-break: more redacted instances, then
                    // lexicographic.
                    let ra: usize = a.0.iter().map(|&i| valid[i].cluster.len()).sum();
                    let rb: usize = b.0.iter().map(|&i| valid[i].cluster.len()).sum();
                    ra.cmp(&rb).then(b.0.cmp(a.0))
                })
        })
        .map(|(s, score)| Solution {
            efpgas: s.clone(),
            score,
        });
    Ok(SelectionResult {
        solutions: solutions.len(),
        valid,
        failed,
        best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::identify_clusters;
    use crate::filter::filter_modules;

    const SRC: &str = r#"
module xorblk(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);
  assign y = a ^ b;
endmodule
module addblk(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);
  assign y = a + b;
endmodule
module top(input wire [7:0] p, input wire [7:0] q, output wire [7:0] o1, output wire [7:0] o2);
  xorblk x0(.a(p), .b(q), .y(o1));
  addblk a0(.a(p), .b(q), .y(o2));
endmodule
"#;

    fn pipeline(cfg: &AliceConfig) -> (Design, Vec<Candidate>, Vec<Cluster>) {
        let d = Design::from_source("t", SRC, None).expect("load");
        let df = alice_dataflow::analyze(&d.file, d.hierarchy.top.as_str()).expect("df");
        let r = filter_modules(&d, &df, cfg).expect("filter").candidates;
        let c = identify_clusters(&r, &d.paths, cfg).clusters;
        (d, r, c)
    }

    #[test]
    fn characterizes_and_selects() {
        let cfg = AliceConfig {
            max_io_pins: 64,
            max_efpgas: 2,
            ..AliceConfig::default()
        };
        let (d, r, c) = pipeline(&cfg);
        assert_eq!(r.len(), 2);
        // singles + the pair (24+24 <= 64)
        assert_eq!(c.len(), 3);
        let sel = select_efpgas(&d, &r, &c, &cfg, &DesignDb::new()).expect("select");
        assert_eq!(sel.valid.len(), 3);
        // solutions: {x}, {a}, {xa-pair}, {x,a} = 4
        assert_eq!(sel.solutions, 4);
        let best = sel.best.expect("has best");
        assert!(best.score > 0.0);
    }

    #[test]
    fn one_efpga_limit_shrinks_solutions() {
        let cfg = AliceConfig {
            max_io_pins: 64,
            max_efpgas: 1,
            ..AliceConfig::default()
        };
        let (d, r, c) = pipeline(&cfg);
        let sel = select_efpgas(&d, &r, &c, &cfg, &DesignDb::new()).expect("select");
        // {x}, {a}, {pair} — no two-fabric combos.
        assert_eq!(sel.solutions, 3);
    }

    #[test]
    fn as_printed_scoring_prefers_low_utilization() {
        let mut cfg = AliceConfig {
            max_io_pins: 64,
            max_efpgas: 1,
            ..AliceConfig::default()
        };
        let (d, r, c) = pipeline(&cfg);
        let db = DesignDb::new();
        let reward = select_efpgas(&d, &r, &c, &cfg, &db).expect("select");
        cfg.score_model = ScoreModel::AsPrinted;
        let printed = select_efpgas(&d, &r, &c, &cfg, &db).expect("select");
        let high = reward.best.clone().expect("best");
        let low = printed.best.clone().expect("best");
        // The two models pick differently scored solutions.
        let util = |sel: &SelectionResult, sol: &Solution| -> f64 {
            sol.efpgas
                .iter()
                .map(|&i| sel.valid[i].efpga.clb_util + sel.valid[i].efpga.io_util)
                .sum()
        };
        assert!(util(&reward, &high) >= util(&printed, &low));
    }

    #[test]
    fn eq1_scoring_ranges() {
        let cfg = AliceConfig::default();
        // Full utilization = maximal score 2.0 with alpha=beta=1.
        assert!((eq1_score(&cfg, 0.8, 0.5, 0.8, 0.5) - 2.0).abs() < 1e-9);
        let printed = AliceConfig {
            score_model: ScoreModel::AsPrinted,
            ..AliceConfig::default()
        };
        assert!((eq1_score(&printed, 0.8, 0.5, 0.8, 0.5)).abs() < 1e-9);
    }

    #[test]
    fn merge_is_disjoint_union() {
        let d = Design::from_source("t", SRC, None).expect("load");
        let db = DesignDb::new();
        let mut mapper = ClusterMapper::new(&d, 4, &db);
        let x = mapper
            .module(Symbol::intern("xorblk"))
            .expect("map")
            .clone();
        let a = mapper
            .module(Symbol::intern("addblk"))
            .expect("map")
            .clone();
        let m = merge(&[x.clone(), a.clone()]);
        assert_eq!(m.lut_count(), x.lut_count() + a.lut_count());
        assert_eq!(m.io_pins(), x.io_pins() + a.io_pins());
    }
}
