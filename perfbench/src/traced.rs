//! The traced run: per-layer self times from the benchmark's spans,
//! program counters from public stats and the Prometheus snapshot, and a
//! Chrome trace of the traced set-up, the first traced pass and the side
//! calls.
//!
//! Untraced and traced passes alternate, so `trace.overhead_frac`
//! compares passes taken under the same host conditions. Sub-layer times
//! below `SelectStage` and `verify_redaction` come from calling their
//! public entry points on the same inputs after the passes, outside the
//! intervals that comparison uses.

use crate::layers::{median, parse_prometheus, ratio, self_times};
use crate::ops::{Cell, FlowOut};
use crate::workloads::{self, Expected, OpOut, PassOut, Setup, Workload};
use crate::{discard, prepare_pass, timed, Tally, Work, REFERENCE};
use alice_cec::{EngineStats, KeyedMiter, Miter, MiterOptions};
use alice_core::db::DesignDb;
use alice_core::redact::RedactedDesign;
use alice_core::select::ClusterMapper;
use alice_core::AliceConfig;
use alice_intern::Symbol;
use alice_obs::{Trace, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Traced (and untraced) passes a traced run makes at least.
const MIN_EACH: usize = 2;

/// Self nanoseconds per benchmark span name.
type SelfTimes = BTreeMap<&'static str, u64>;

/// What the side calls measured beyond their spans.
#[derive(Default)]
struct Side {
    luts: u64,
    characterizations: u64,
    cnf_vars: u64,
    cnf_clauses: u64,
    engine: EngineStats,
    /// Miter build + prove wall seconds, the base of `sat.props_per_s`.
    solve_s: f64,
    mismatches: Vec<String>,
}

/// The verify stage's miter options, rebuilt from the redaction's
/// binding through public fields: cfg registers pinned to the correct
/// bitstream, fabric FFs renamed onto the registers they replaced, and
/// `cfg_en` low.
fn miter_options(redacted: &RedactedDesign, cfg: &AliceConfig) -> MiterOptions {
    let mut opts = MiterOptions {
        conflict_budget: cfg.verify_conflict_budget,
        ..MiterOptions::default()
    };
    opts.pin_inputs
        .push((Symbol::intern("cfg_en"), vec![false]));
    for e in &redacted.efpgas {
        opts.pin_state.extend(e.binding.cfg_pins.iter().copied());
        opts.state_rename
            .extend(e.binding.state_map.iter().copied());
    }
    opts
}

/// LUT-maps every distinct module the flows' clusters use, then sizes
/// every cluster, on one fresh db (so each distinct module and shape is
/// computed once). One span per flow and layer keeps the trace small.
fn side_select(flows: &[(&Cell, &FlowOut)], side: &mut Side) {
    let db = DesignDb::new();
    let mut seen: BTreeSet<(String, Symbol)> = BTreeSet::new();
    for (cell, flow) in flows {
        let k = cell.cfg.arch.lut_inputs;
        let r = &flow.filter.candidates;
        let modules: Vec<Symbol> = flow
            .clusters
            .clusters
            .iter()
            .flat_map(|c| c.iter().map(|&i| r[i].module))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .filter(|&m| seen.insert((cell.design.name.clone(), m)))
            .collect();
        let spans = crate::layers::Spans::new(cell.label.clone());
        {
            let _span = spans.layer("bench.map");
            for m in modules {
                if let Ok(mapped) = db.map_module(&cell.design.file, m.as_str(), k) {
                    side.luts += mapped.lut_count() as u64;
                }
            }
        }
        let mut mapper = ClusterMapper::new(&cell.design, k, &db);
        let networks: Vec<_> = flow
            .clusters
            .clusters
            .iter()
            .filter_map(|c| mapper.cluster_network(c, r).ok())
            .collect();
        let before = db.counts().misses;
        {
            let _span = spans.layer("bench.characterize");
            for network in &networks {
                let _ = db.characterize(network, &cell.cfg.arch);
            }
        }
        side.characterizations += db.counts().misses - before;
    }
}

/// Builds and proves each verify cell's miter: a [`KeyedMiter`] (the
/// incremental path `verify_keys` takes) or a pinned [`Miter`] (the proof
/// path of `prove_mult`).
fn side_cec(setup: &Setup, keyed: bool, side: &mut Side) {
    for (cell, redacted) in setup.cells.iter().zip(&setup.redacted) {
        let Some(redacted) = redacted else { continue };
        let db = DesignDb::new();
        let top = cell.design.hierarchy.top.as_str();
        let Ok(golden) = db.elaborate(&cell.design.file, top) else {
            continue;
        };
        let Ok(parsed) = alice_verilog::parse_source(&redacted.combined_verilog()) else {
            continue;
        };
        let Ok(revised) = db.elaborate(&parsed, top) else {
            continue;
        };
        let opts = miter_options(redacted, &cell.cfg);
        let spans = crate::layers::Spans::new(cell.label.clone());
        let start = Instant::now();
        let (result, stats, cnf) = if keyed {
            let built = {
                let _span = spans.layer("bench.cec_build");
                KeyedMiter::build(&golden, &revised, &opts, 1)
            };
            let Ok(mut km) = built else { continue };
            let result = {
                let _span = spans.layer("bench.cec_prove");
                km.prove(&opts.pin_state)
            };
            (result.ok(), km.stats(), km.cnf_size())
        } else {
            let built = {
                let _span = spans.layer("bench.cec_build");
                Miter::build(&golden, &revised, &opts)
            };
            let Ok(m) = built else { continue };
            let cnf = m.cnf_size();
            let (result, stats) = {
                let _span = spans.layer("bench.cec_prove");
                m.prove_with_stats()
            };
            (Some(result), stats, cnf)
        };
        side.solve_s += start.elapsed().as_secs_f64();
        if !result.is_some_and(|r| r.is_equivalent()) {
            side.mismatches
                .push(format!("{}: side-call proof is not equivalent", cell.label));
        }
        side.cnf_vars += cnf.0 as u64;
        side.cnf_clauses += cnf.1 as u64;
        side.engine.conflicts += stats.conflicts;
        side.engine.propagations += stats.propagations;
    }
}

/// The flows whose select stage the side calls re-run, with their cells.
fn flows_of<'a>(setup: &'a Setup, pass: &'a PassOut) -> Vec<(&'a Cell, &'a FlowOut)> {
    let ops = match setup.workload {
        Workload::VerifyKeys | Workload::ProveMult => &setup.ops,
        Workload::RedactMatrix | Workload::ExploreStore => &pass.ops,
    };
    setup
        .cells
        .iter()
        .zip(ops)
        .filter_map(|(c, op)| match op {
            OpOut::Flow(_, _, Ok(f)) => Some((c, f.as_ref())),
            _ => None,
        })
        .collect()
}

/// A traced run of `workload`: the per-layer metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Work,
) -> Result<(Tally, BTreeMap<&'static str, f64>), String> {
    let start = Instant::now();
    let mut expected = Expected::from_reference(REFERENCE);
    let mut tally = Tally::default();
    // The process's one cold set-up stays out of the traced numbers.
    let cold = workloads::setup(workload, seed, work.path(), 0)?;
    workloads::observe_references(&cold, &mut expected);
    tally.check(&cold.ops, &mut expected);
    discard(cold);

    alice_obs::enable_tracing();
    let _ = alice_obs::take_trace();
    let setup = workloads::setup(workload, seed, work.path(), 1)?;
    alice_obs::disable_tracing();
    let mut events: Vec<TraceEvent> = alice_obs::take_trace().events;
    let setup_self = self_times(&events);
    tally.check(&setup.ops, &mut expected);

    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut pass_self: Vec<SelfTimes> = Vec::new();
    let mut last: Option<(PassOut, BTreeMap<String, f64>)> = None;
    let mut i = 0;
    while traced_s.len() < MIN_EACH || start.elapsed().as_secs_f64() < seconds {
        let copy = prepare_pass(&setup, work, i)?;
        i += 1;
        let (out, dt) = timed(|| workloads::pass(&setup, copy.as_deref()));
        plain_s.push(dt);
        tally.check(&out.ops, &mut expected);
        drop(out);

        let copy = prepare_pass(&setup, work, i)?;
        i += 1;
        alice_obs::reset_metrics();
        alice_obs::enable_metrics();
        alice_obs::enable_tracing();
        let (out, dt) = timed(|| workloads::pass(&setup, copy.as_deref()));
        alice_obs::disable_tracing();
        alice_obs::disable_metrics();
        traced_s.push(dt);
        let pass_events = alice_obs::take_trace().events;
        pass_self.push(self_times(&pass_events));
        // The file keeps one traced pass: validating a trace costs time
        // that grows faster than its size.
        if pass_self.len() == 1 {
            events.extend(pass_events);
        }
        tally.check(&out.ops, &mut expected);
        last = Some((out, parse_prometheus(&alice_obs::snapshot_prometheus())));
    }
    let (pass, counters) = last.expect("at least one traced pass ran");

    alice_obs::enable_tracing();
    let mut side = Side::default();
    side_select(&flows_of(&setup, &pass), &mut side);
    if matches!(workload, Workload::VerifyKeys | Workload::ProveMult) {
        side_cec(&setup, workload == Workload::VerifyKeys, &mut side);
    }
    alice_obs::disable_tracing();
    let side_trace = alice_obs::take_trace();
    let side_self = self_times(&side_trace.events);
    events.extend(side_trace.events);
    for m in side.mismatches.drain(..) {
        tally.attempted += 1;
        tally.failed += 1;
        tally.messages.push(m);
    }

    let trace = Trace {
        events,
        thread_names: side_trace.thread_names,
        dropped: side_trace.dropped,
    };
    let json = trace.to_chrome_json();
    let summary = alice_obs::validate_chrome_trace(&json)?;
    let path = work
        .path()
        .parent()
        .expect("the run directory sits in .perfbench_work")
        .join(format!("{}-trace.json", workload.name()));
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} seed {seed}: {} untraced + {} traced passes, {:.1} s; trace {} ({} spans, {} lanes)",
        workload.name(),
        plain_s.len(),
        traced_s.len(),
        start.elapsed().as_secs_f64(),
        path.display(),
        summary.events,
        summary.threads
    );

    let metrics = layer_metrics(&LayerInputs {
        setup: &setup,
        pass: &pass,
        counters: &counters,
        setup_self: &setup_self,
        pass_self: &pass_self,
        side_self: &side_self,
        side: &side,
        overhead: median(&traced_s) / median(&plain_s) - 1.0,
    });
    discard(setup);
    Ok((tally, metrics))
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    setup: &'a Setup,
    pass: &'a PassOut,
    counters: &'a BTreeMap<String, f64>,
    setup_self: &'a SelfTimes,
    pass_self: &'a [SelfTimes],
    side_self: &'a SelfTimes,
    side: &'a Side,
    overhead: f64,
}

/// The per-layer metrics: self seconds of one set-up plus one (median)
/// pass plus the side calls, counts over the set-up and the last traced
/// pass, and the counters of that pass.
fn layer_metrics(x: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let secs = |span: &str| {
        let pass: Vec<f64> = x
            .pass_self
            .iter()
            .map(|t| t.get(span).copied().unwrap_or(0) as f64)
            .collect();
        let own = |t: &SelfTimes| t.get(span).copied().unwrap_or(0) as f64;
        (own(x.setup_self) + median(&pass) + own(x.side_self)) / 1e9
    };
    let counter = |name: &str| x.counters.get(name).copied().unwrap_or(0.0);
    let ops: Vec<&OpOut> = x.setup.ops.iter().chain(&x.pass.ops).collect();
    let flows: Vec<&FlowOut> = ops
        .iter()
        .filter_map(|op| match op {
            OpOut::Flow(_, _, Ok(f)) => Some(f.as_ref()),
            _ => None,
        })
        .collect();
    let verifies: Vec<_> = ops
        .iter()
        .filter_map(|op| match op {
            OpOut::Verify(_, _, Ok(v)) => Some(v),
            _ => None,
        })
        .collect();
    let sum = |f: &dyn Fn(&FlowOut) -> usize| flows.iter().map(|o| f(o)).sum::<usize>() as f64;
    let (hits, disk_hits, misses) = flows
        .iter()
        .map(|f| {
            (
                f.report.cache_hits,
                f.report.cache_disk_hits,
                f.report.cache_misses,
            )
        })
        .chain(
            verifies
                .iter()
                .map(|(_, c)| (c.hits, c.disk_hits, c.misses)),
        )
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    let keys: Vec<_> = verifies.iter().flat_map(|(v, _)| &v.wrong_keys).collect();
    let (reads, records, bytes) = match &x.pass.store {
        Some(s) => {
            let st = s.stats();
            (s.read_stats(), st.records() as f64, st.bytes() as f64)
        }
        None => (Default::default(), 0.0, 0.0),
    };
    let reads: alice_store::ReadStats = reads;
    let candidates = counter("alice_cec_sweep_candidates_total");
    let merged = counter("alice_cec_sweep_merged_total");
    let conflicts = counter("alice_sat_conflicts_total");
    let props = counter("alice_sat_propagations_total");
    BTreeMap::from([
        ("verilog.parse_s", secs("bench.parse")),
        ("filter.s", secs("bench.filter")),
        ("filter.candidates", sum(&|f| f.timings.items_of("filter"))),
        ("cluster.s", secs("bench.cluster")),
        ("cluster.clusters", sum(&|f| f.timings.items_of("cluster"))),
        ("select.s", secs("bench.select")),
        ("select.valid", sum(&|f| f.report.valid_efpgas)),
        ("select.failed", sum(&|f| f.selection_failed)),
        ("select.solutions", sum(&|f| f.report.solutions)),
        ("netlist.map_s", secs("bench.map")),
        ("netlist.luts", x.side.luts as f64),
        ("fabric.characterize_s", secs("bench.characterize")),
        ("fabric.characterizations", x.side.characterizations as f64),
        ("db.hits", hits as f64),
        ("db.disk_hits", disk_hits as f64),
        ("db.misses", misses as f64),
        (
            "db.hit_ratio",
            ratio(
                (hits + disk_hits) as f64,
                (hits + disk_hits + misses) as f64,
            ),
        ),
        ("redact.s", secs("bench.redact")),
        (
            "redact.config_bits",
            sum(&|f| {
                f.redacted
                    .as_ref()
                    .map(|r| r.efpgas.iter().map(|e| e.config_stream.len()).sum())
                    .unwrap_or(0)
            }),
        ),
        ("verify.s", secs("bench.verify")),
        (
            "verify.key_solve_s",
            keys.iter().map(|k| k.solve_us as f64).sum::<f64>() / 1e6,
        ),
        ("verify.keys", keys.len() as f64),
        ("cec.build_s", secs("bench.cec_build")),
        ("cec.prove_s", secs("bench.cec_prove")),
        ("cec.cnf_vars", x.side.cnf_vars as f64),
        ("cec.cnf_clauses", x.side.cnf_clauses as f64),
        ("cec.sweep_candidates", candidates),
        ("cec.sweep_merged", merged),
        ("cec.sweep_merge_ratio", ratio(merged, candidates)),
        (
            "cec.lemma_hits",
            counter("alice_cec_sweep_lemma_hits_total"),
        ),
        ("sat.conflicts", conflicts),
        ("sat.propagations", props),
        (
            "sat.props_per_s",
            ratio(x.side.engine.propagations as f64, x.side.solve_s),
        ),
        ("sat.props_per_conflict", ratio(props, conflicts)),
        (
            "sat.assumption_solves",
            counter("alice_solver_assumption_solves"),
        ),
        ("sat.restarts", counter("alice_solver_restarts")),
        ("sat.learned_kept", counter("alice_solver_learned_kept")),
        (
            "sat.learned_dropped",
            counter("alice_solver_learned_dropped"),
        ),
        ("store.open_s", secs("bench.store_open")),
        ("store.flush_s", secs("bench.store_flush")),
        ("store.gets", reads.gets as f64),
        ("store.mapped_gets", reads.mapped_gets as f64),
        ("store.bytes_copied", reads.bytes_copied as f64),
        ("store.records", records),
        ("store.bytes", bytes),
        (
            "store.shard_flushes",
            counter("alice_store_shard_flushes_total"),
        ),
        ("trace.overhead_frac", x.overhead),
    ])
}
