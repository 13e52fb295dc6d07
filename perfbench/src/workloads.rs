//! The four workloads: what each sets up before timing, what one timed
//! pass does, and how its ops are checked.
//!
//! Every flow runs at [`JOBS`] worker threads. Everything else keeps the
//! shipped defaults (`portfolio: 1`, `incremental_cec: true`, the default
//! conflict budget). Every pass repeats identical work: each flow and each
//! verify gets a fresh [`DesignDb`], and each exploration pass opens a
//! fresh copy of the base store.

use crate::inputs::{self, Point, Source};
use crate::layers::Spans;
use crate::ops::{self, Cell, FlowOut};
use alice_core::config::AliceConfig;
use alice_core::db::{CacheCounts, DesignDb};
use alice_core::design::Design;
use alice_core::flow::Flow;
use alice_core::redact::RedactedDesign;
use alice_core::verify::VerifyReport;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Worker threads of every flow and verify, pinned so the thread count
/// does not follow the host.
pub const JOBS: usize = 2;

/// Wrong keys per `verify_keys` verify (the incremental keyed path).
pub const WRONG_KEYS: usize = 8;

/// The `verify_keys` cells over the paper designs, as (design, index
/// into the paper configurations). DES3 cfg1 carries most of the pass.
/// FIR cfg1 (0.8 s), SASC cfg1 (1.4 s), USB_PHY cfg2 (2.4 s), SHA256
/// (~7 s) and IIR cfg2 (~40 s) are left out so that a pass stays short
/// enough to repeat within one run.
const VERIFY_CELLS: [(&str, usize); 3] = [("GCD", 0), ("GCD", 1), ("DES3", 0)];

/// Generated designs per workload that uses [`inputs::generator_designs`].
const GENERATED: usize = 2;

/// MAC designs per `prove_mult` pass, each under cfg1 and cfg2 (about
/// one second of proof per cell).
const MAC_DESIGNS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 2: every DAC'22 design × {cfg1, cfg2} plus
    /// generated designs, each flow cold, verify off.
    RedactMatrix,
    /// `verify_redaction` with [`WRONG_KEYS`] wrong keys on redactions
    /// built during set-up.
    VerifyKeys,
    /// `verify_redaction` with no wrong keys (the pinned-constant proof)
    /// on redacted multiply-accumulate designs.
    ProveMult,
    /// A design-space sweep against a persistent store.
    ExploreStore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RedactMatrix,
        Workload::VerifyKeys,
        Workload::ProveMult,
        Workload::ExploreStore,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RedactMatrix => "redact_matrix",
            Workload::VerifyKeys => "verify_keys",
            Workload::ProveMult => "prove_mult",
            Workload::ExploreStore => "explore_store",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A parsed input design and the outputs it protects.
pub struct Input {
    pub name: String,
    pub design: Arc<Design>,
    pub outputs: Vec<String>,
    /// True for the DAC'22 designs, whose records are pinned in the
    /// reference file.
    pub paper: bool,
}

/// One op's output, kept until the timed interval has ended: the cell
/// label, whether its record is pinned, and the result.
pub enum OpOut {
    Flow(String, bool, Result<Box<FlowOut>, String>),
    Verify(String, bool, Result<(VerifyReport, CacheCounts), String>),
}

impl OpOut {
    /// The op's record, or why it failed.
    pub fn record(&self) -> Result<String, String> {
        match self {
            OpOut::Flow(label, _, r) => r.as_ref().map(|o| ops::flow_record(label, o)),
            OpOut::Verify(label, _, r) => r.as_ref().map(|(v, _)| ops::verify_record(label, v)),
        }
        .map_err(Clone::clone)
    }

    /// Whether the record must match the reference file.
    pub fn pinned(&self) -> bool {
        match self {
            OpOut::Flow(_, p, _) | OpOut::Verify(_, p, _) => *p,
        }
    }
}

/// What set-up leaves for the passes.
pub struct Setup {
    pub workload: Workload,
    /// The cells a pass runs (flows, or verifies of `redacted`).
    pub cells: Vec<Cell>,
    /// Per cell: the set-up flow's redaction (verify workloads only).
    pub redacted: Vec<Option<RedactedDesign>>,
    /// The ops set-up ran (flows whose output is checked too).
    pub ops: Vec<OpOut>,
    /// The flushed base store (`explore_store` only).
    pub store: Option<PathBuf>,
}

/// A pass's ops plus, for `explore_store`, its store.
pub struct PassOut {
    pub ops: Vec<OpOut>,
    pub store: Option<Arc<alice_store::Store>>,
}

/// `input` under `base`, labelled `NAME/cfg_name`. Paper designs under
/// the paper's configurations are pinned in the reference file.
fn cell(input: &Input, cfg_name: &str, base: AliceConfig) -> Cell {
    Cell {
        label: format!("{}/{cfg_name}", input.name),
        design: input.design.clone(),
        pinned: input.paper && cfg_name.starts_with("cfg"),
        cfg: AliceConfig {
            selected_outputs: input.outputs.clone(),
            jobs: JOBS,
            ..base
        },
    }
}

/// Parses `sources` (the DAC'22 suite when `paper`), one span each.
fn parse(
    sources: Vec<(Source, Option<&str>, Vec<String>)>,
    paper: bool,
) -> Result<Vec<Input>, String> {
    sources
        .into_iter()
        .map(|(src, top, outputs)| {
            let spans = Spans::new(format!("parse {}", src.name));
            let _span = spans.layer("bench.parse");
            let design = Design::from_source(src.name.as_str(), &src.verilog, top)
                .map_err(|e| format!("{}: {e}", src.name))?;
            Ok(Input {
                name: src.name,
                design: Arc::new(design),
                outputs,
                paper,
            })
        })
        .collect()
}

/// The DAC'22 designs, parsed.
fn paper_inputs(only: Option<&[&str]>) -> Result<Vec<Input>, String> {
    let sources = alice_benchmarks::suite()
        .into_iter()
        .filter(|b| only.is_none_or(|names| names.contains(&b.name)))
        .map(|b| {
            (
                Source {
                    name: b.name.to_string(),
                    verilog: b.source,
                },
                Some(b.top),
                b.selected_outputs,
            )
        })
        .collect();
    parse(sources, true)
}

/// Seeded generated designs, parsed.
fn generated_inputs(seed: u64) -> Result<Vec<Input>, String> {
    let sources = inputs::generator_designs(seed, "GEN", GENERATED)
        .into_iter()
        .map(|s| (s, None, Vec::new()))
        .collect();
    parse(sources, false)
}

/// The paper's two configurations as `(short name, config)`.
fn paper_configs() -> [(&'static str, AliceConfig); 2] {
    let [(_, c1), (_, c2)] = alice_bench::paper_configs();
    [("cfg1", c1), ("cfg2", c2)]
}

/// Runs one flow op against `db`.
fn flow_op(cell: &Cell, db: &DesignDb) -> OpOut {
    let spans = Spans::new(cell.label.clone());
    let _op = spans.op();
    OpOut::Flow(
        cell.label.clone(),
        cell.pinned,
        ops::guarded(|| ops::run_flow(cell, db, &spans).map(Box::new)),
    )
}

/// Runs `cells` through set-up flows, keeping each redaction for the
/// passes' verifies, and turns the cells into verify cells with
/// `wrong_keys` wrong keys.
fn redact_cells(setup: &mut Setup, cells: Vec<Cell>, wrong_keys: usize) {
    for mut cell in cells {
        let op = flow_op(&cell, &DesignDb::new());
        setup.redacted.push(match &op {
            OpOut::Flow(_, _, Ok(f)) => f.redacted.clone(),
            _ => None,
        });
        setup.ops.push(op);
        cell.cfg.verify = true;
        cell.cfg.verify_wrong_keys = wrong_keys;
        setup.cells.push(cell);
    }
}

/// The work done before timing starts. `work` is the run's scratch
/// directory and `n` numbers this set-up within the run.
pub fn setup(workload: Workload, seed: u64, work: &Path, n: usize) -> Result<Setup, String> {
    let [(c1n, c1), (c2n, c2)] = paper_configs();
    let mut out = Setup {
        workload,
        cells: Vec::new(),
        redacted: Vec::new(),
        ops: Vec::new(),
        store: None,
    };
    match workload {
        Workload::RedactMatrix => {
            let mut designs = paper_inputs(None)?;
            designs.extend(generated_inputs(seed)?);
            for (name, cfg) in [(c1n, &c1), (c2n, &c2)] {
                for input in &designs {
                    out.cells.push(cell(input, name, cfg.clone()));
                }
            }
        }
        Workload::VerifyKeys => {
            let names: Vec<&str> = VERIFY_CELLS.iter().map(|&(n, _)| n).collect();
            let mut designs = paper_inputs(Some(&names))?;
            designs.extend(generated_inputs(seed)?);
            let configs = [(c1n, &c1), (c2n, &c2)];
            let mut cells = Vec::new();
            for &(name, ci) in &VERIFY_CELLS {
                let input = designs
                    .iter()
                    .find(|i| i.name == name)
                    .expect("verify cell design is in the suite");
                cells.push(cell(input, configs[ci].0, configs[ci].1.clone()));
            }
            for input in designs.iter().filter(|i| !i.paper) {
                cells.push(cell(input, c1n, c1.clone()));
            }
            redact_cells(&mut out, cells, WRONG_KEYS);
        }
        Workload::ProveMult => {
            let sources = (0..MAC_DESIGNS)
                .map(|i| {
                    let seed = inputs::derive(seed, 0x3ac + i as u64);
                    (
                        inputs::mac_design(seed, &format!("MAC{i}")),
                        Some("mac_top"),
                        Vec::new(),
                    )
                })
                .collect();
            let designs = parse(sources, false)?;
            let mut cells = Vec::new();
            for (name, cfg) in [(c1n, &c1), (c2n, &c2)] {
                for input in &designs {
                    cells.push(cell(input, name, cfg.clone()));
                }
            }
            redact_cells(&mut out, cells, 0);
        }
        Workload::ExploreStore => {
            let mut designs = paper_inputs(None)?;
            designs.extend(generated_inputs(seed)?);
            let dir = work.join(format!("base-{n}"));
            let db = {
                let _span = Spans::new("base store").layer("bench.store_open");
                DesignDb::with_store(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?
            };
            for (name, cfg) in [(c1n, &c1), (c2n, &c2)] {
                for input in designs.iter().filter(|i| i.paper) {
                    out.ops.push(flow_op(&cell(input, name, cfg.clone()), &db));
                }
            }
            {
                let _span = Spans::new("base store").layer("bench.store_flush");
                db.flush_store()
                    .map_err(|e| format!("flush {}: {e}", dir.display()))?;
            }
            out.store = Some(dir);
            for point in inputs::explore_points(seed) {
                for input in &designs {
                    out.cells.push(explore_cell(input, point));
                }
            }
        }
    }
    Ok(out)
}

/// An exploration cell: `input` under `point`.
fn explore_cell(input: &Input, p: Point) -> Cell {
    cell(
        input,
        &format!("p{}x{}", p.max_io_pins, p.max_efpgas),
        AliceConfig {
            max_io_pins: p.max_io_pins,
            max_efpgas: p.max_efpgas,
            ..AliceConfig::default()
        },
    )
}

/// Copies the flat store directory `from` into a fresh `to`.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().expect("directory entries have names");
        std::fs::copy(&path, to.join(name)).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// One timed pass. For `explore_store`, `store_dir` must hold a fresh
/// copy of the base store.
pub fn pass(setup: &Setup, store_dir: Option<&Path>) -> PassOut {
    match setup.workload {
        Workload::RedactMatrix => PassOut {
            ops: setup
                .cells
                .iter()
                .map(|c| flow_op(c, &DesignDb::new()))
                .collect(),
            store: None,
        },
        Workload::VerifyKeys | Workload::ProveMult => PassOut {
            ops: setup
                .cells
                .iter()
                .zip(&setup.redacted)
                .map(|(c, r)| {
                    let spans = Spans::new(c.label.clone());
                    let _op = spans.op();
                    let res = match r {
                        Some(r) => ops::guarded(|| ops::run_verify(c, r, &spans)),
                        None => Err("set-up flow produced no redaction".to_string()),
                    };
                    OpOut::Verify(c.label.clone(), c.pinned, res)
                })
                .collect(),
            store: None,
        },
        Workload::ExploreStore => {
            let dir = store_dir.expect("explore passes run on a store copy");
            let db = {
                let _span = Spans::new("pass store").layer("bench.store_open");
                DesignDb::with_store(dir)
            };
            let db = match db {
                Ok(db) => db,
                Err(e) => {
                    let msg = format!("open {}: {e}", dir.display());
                    return PassOut {
                        ops: setup
                            .cells
                            .iter()
                            .map(|c| OpOut::Flow(c.label.clone(), false, Err(msg.clone())))
                            .collect(),
                        store: None,
                    };
                }
            };
            let mut ops: Vec<OpOut> = setup.cells.iter().map(|c| flow_op(c, &db)).collect();
            let flushed = {
                let _span = Spans::new("pass store").layer("bench.store_flush");
                db.flush_store()
            };
            if let Err(e) = flushed {
                // A failed flush loses the cell's writes: fail every cell.
                for op in &mut ops {
                    if let OpOut::Flow(_, _, r) = op {
                        *r = Err(format!("flush: {e}"));
                    }
                }
            }
            PassOut {
                ops,
                store: db.store().cloned(),
            }
        }
    }
}

/// Expected records: pinned ones from the reference file, and ones
/// observed for seeded cells (from an independent run, or the first
/// pass).
pub struct Expected {
    pinned: HashMap<String, String>,
    observed: HashMap<String, String>,
}

/// The key of a record: its kind and cell label.
fn record_key(record: &str) -> String {
    record.split(' ').take(2).collect::<Vec<_>>().join(" ")
}

impl Expected {
    /// Expectations from the reference file's text.
    pub fn from_reference(text: &str) -> Self {
        Expected {
            pinned: text
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(|l| (record_key(l), l.to_string()))
                .collect(),
            observed: HashMap::new(),
        }
    }

    /// Records `record` as the expectation of its cell.
    pub fn observe(&mut self, record: String) {
        self.observed.insert(record_key(&record), record);
    }

    /// Checks one op; `Err` says why it failed.
    pub fn check(&mut self, op: &OpOut) -> Result<(), String> {
        let record = op.record()?;
        if let OpOut::Verify(..) = op {
            // Every redaction must prove equivalent and every wrong-key
            // analysis must complete, whatever the reference says.
            if !record.contains(" equivalent ") || record.contains('?') {
                return Err(format!("verify did not prove or complete: {record}"));
            }
        }
        let key = record_key(&record);
        let want = if op.pinned() {
            self.pinned
                .get(&key)
                .ok_or_else(|| format!("no reference for `{key}`"))?
        } else {
            self.observed.entry(key).or_insert_with(|| record.clone())
        };
        if *want == record {
            Ok(())
        } else {
            Err(format!("expected `{want}`, got `{record}`"))
        }
    }
}

/// Computes, outside any timed interval, expectations for the cells that
/// are not pinned, from an independent public entry point: [`Flow::run`]
/// on an in-memory db. For `explore_store` this means the results must
/// equal the same configurations run without a store.
pub fn observe_references(setup: &Setup, expected: &mut Expected) {
    let shared = Arc::new(DesignDb::new());
    for c in setup.cells.iter().filter(|c| !c.pinned) {
        // Set-up flows of the verify workloads run without verify.
        let cfg = AliceConfig {
            verify: false,
            verify_wrong_keys: 0,
            ..c.cfg.clone()
        };
        let db = match setup.workload {
            Workload::ExploreStore => shared.clone(),
            _ => Arc::new(DesignDb::new()),
        };
        if let Ok(o) = Flow::with_db(cfg, db).run(&c.design) {
            let out = FlowOut {
                report: o.report,
                timings: o.timings,
                filter: o.filter,
                clusters: o.clusters,
                selection_failed: o.selection.failed.len(),
                redacted: o.redacted,
            };
            expected.observe(ops::flow_record(&c.label, &out));
        }
    }
}
