//! Post-redaction verification: the pipeline's `Verify` stage.
//!
//! The paper's functional claim — *the redacted design with the correct
//! bitstream is the original design* — was previously spot-checked by
//! random simulation. This stage proves it: it re-parses the flow's own
//! Verilog output (top ASIC + fabric netlists, exactly what ships),
//! elaborates both sides to gate level, and runs a SAT miter from
//! `alice-cec` with
//!
//! * every fabric configuration register pinned to the bitstream value
//!   the chain would load ([`crate::redact::RedactedEfpga::binding`]),
//! * `cfg_en` pinned low (functional mode) and the remaining config pins
//!   free,
//! * each fabric FF paired with the original register it replaced, so
//!   sequential designs are checked under the standard scan model
//!   (outputs *and* next-state functions, over all states).
//!
//! The same miter, with key bits flipped instead of correct, drives the
//! wrong-key corruptibility sweep: for each of N wrong bitstreams it
//! computes the exact set of output/next-state bits an attacker-visible
//! difference can reach — the security-relevant converse of the
//! equivalence proof. With wrong keys to analyse, the pair is encoded
//! and swept **once per verify**, as the assumption-parameterized
//! [`KeyedMiter`] that proves the correct key. Unique flip sets are
//! partitioned into contiguous slices across workers; the first slice
//! keeps that warmed miter and every other slice gets a clone of it,
//! and each worker answers its whole slice by `solve_with(assumptions)`
//! on its one long-lived solver — learned clauses, variable activities,
//! saved phases, and the key's own decision levels carry across
//! queries. Verdicts and corruption counts are bit-identical to a
//! pinned [`Miter`] per key. A lone correct-key proof (no wrong keys)
//! runs on the pinned [`Miter`], whose encode-time constant folding is
//! unbeatable for a single key.

use crate::config::AliceConfig;
use crate::db::DesignDb;
use crate::design::Design;
use crate::error::AliceError;
use crate::par::shard;
use crate::redact::RedactedDesign;
use alice_cec::cache::{self as cec_cache, CachedCorruption, CachedProof};
use alice_cec::{miter_fingerprint, CecResult, Counterexample, KeyedMiter, Miter, MiterOptions};
use alice_intern::Symbol;
use alice_netlist::ir::Netlist;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Both sides of the check, elaborated; the inner `Err` is the
/// "unsupported at gate level" reason, not a flow error.
type ElaboratedSides = Result<(Arc<Netlist>, Arc<Netlist>), String>;

/// The verdict of the verify stage's equivalence proof.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyOutcome {
    /// Proven: redacted + correct bitstream ≡ original, for all inputs
    /// and states.
    Equivalent,
    /// A concrete disagreement was found (a redaction bug).
    NotEquivalent(Box<Counterexample>),
    /// The solver budget ran out before a verdict.
    ResourceLimit,
    /// The design uses constructs the gate-level elaborator cannot
    /// handle, so no netlist-level check is possible (reason attached).
    Unsupported(String),
}

impl VerifyOutcome {
    /// True only for a completed equivalence proof.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, VerifyOutcome::Equivalent)
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyOutcome::Equivalent => write!(f, "equivalent"),
            VerifyOutcome::NotEquivalent(cex) => {
                write!(f, "NOT equivalent ({} differing point(s))", cex.diffs.len())
            }
            VerifyOutcome::ResourceLimit => write!(f, "undecided (budget exhausted)"),
            VerifyOutcome::Unsupported(why) => write!(f, "unsupported ({why})"),
        }
    }
}

/// One wrong bitstream's corruptibility result.
///
/// Equality compares the *analysis verdict* (flips, corruption counts,
/// completeness) and deliberately ignores [`WrongKeyOutcome::solve_us`]
/// and [`WrongKeyOutcome::from_cache`]: a warm run serving the same
/// verdict from the proof cache is the same outcome, just faster.
#[derive(Debug, Clone)]
pub struct WrongKeyOutcome {
    /// Which key-bit indices (into the concatenated per-fabric
    /// [`crate::redact::VerifyBinding::key_bits`]) were flipped.
    pub flipped: Vec<usize>,
    /// Output/next-state points provably corrupted by this key.
    pub corrupted: usize,
    /// Total compared points.
    pub total: usize,
    /// False when the solver budget cut the analysis short.
    pub complete: bool,
    /// Wall-clock of this key's analysis, in microseconds — per key, so
    /// one pathological key is visible instead of hiding inside the
    /// sweep's aggregate mean. It covers the key's assumption solves on
    /// a miter built before the sweep; only when the proof came from the
    /// store does a worker's first uncached key also pay for building
    /// its miter.
    pub solve_us: u64,
    /// True when the verdict was served from the persistent proof
    /// cache instead of being solved.
    pub from_cache: bool,
}

impl PartialEq for WrongKeyOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.flipped == other.flipped
            && self.corrupted == other.corrupted
            && self.total == other.total
            && self.complete == other.complete
    }
}

impl WrongKeyOutcome {
    /// Corrupted fraction of compared points.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.corrupted as f64 / self.total as f64
        }
    }
}

/// The verify stage's artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Equivalence verdict under the correct bitstream.
    pub outcome: VerifyOutcome,
    /// Compared difference points (output bits + paired next-states).
    pub diff_points: usize,
    /// Miter CNF size `(variables, clauses)`, zero when unsupported.
    pub cnf_vars: usize,
    /// Miter CNF clause count.
    pub cnf_clauses: usize,
    /// Wrong-key corruptibility sweep results (empty when disabled).
    pub wrong_keys: Vec<WrongKeyOutcome>,
}

impl VerifyReport {
    /// Mean corrupted fraction over the wrong-key sweep, if it ran.
    pub fn corruption_fraction(&self) -> Option<f64> {
        if self.wrong_keys.is_empty() {
            return None;
        }
        let sum: f64 = self.wrong_keys.iter().map(WrongKeyOutcome::fraction).sum();
        Some(sum / self.wrong_keys.len() as f64)
    }
}

/// Observability: per-miter wall-clock of wrong-key analyses (µs).
/// One pathological key shows up in the tail buckets instead of being
/// averaged away by the sweep's aggregate duration.
static WRONG_KEY_SOLVE_US: alice_obs::Histogram = alice_obs::Histogram::new(
    "alice_verify_wrong_key_solve_us",
    "Per-miter wall-clock of wrong-key corruption analyses (µs)",
);

/// Builds the miter options shared by the proof and the sweep: state
/// renames and cfg pins from every fabric's binding, `cfg_en` low.
///
/// The binding's pin and state names were minted by the emitter's own
/// naming contract ([`alice_fabric::emit::cfg_bit_name`] /
/// [`alice_fabric::emit::ff_bit_name`] over
/// [`alice_fabric::emit::le_path`]), so they match the hierarchical DFF
/// names the re-elaboration of the emitted netlist produces by
/// construction — no string surgery happens here.
fn base_options(redacted: &RedactedDesign, cfg: &AliceConfig) -> MiterOptions {
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

/// Elaborates both sides of the check. `Err` carries the *reason* the
/// design is unsupported at gate level (an [`VerifyOutcome::Unsupported`]
/// verdict, not a flow error); genuine flow bugs — the redacted output
/// failing to re-parse — surface as [`AliceError::Verify`] from
/// [`verify_redaction`] instead.
fn elaborate_sides(
    design: &Design,
    redacted: &RedactedDesign,
    db: &DesignDb,
) -> Result<ElaboratedSides, AliceError> {
    let top = design.hierarchy.top.as_str();
    // Both sides go through the DesignDb, so suite-style repeat runs
    // re-elaborate neither the original nor an identical redaction.
    let golden = match db.elaborate(&design.file, top) {
        Ok(n) => n,
        Err(e) => return Ok(Err(format!("original does not elaborate: {e}"))),
    };
    let combined = redacted.combined_verilog();
    let parsed = alice_verilog::parse_source(&combined)
        .map_err(|e| AliceError::Verify(format!("redacted output does not re-parse: {e}")))?;
    let revised = db
        .elaborate(&parsed, top)
        .map_err(|e| AliceError::Verify(format!("redacted output does not elaborate: {e}")))?;
    Ok(Ok((golden, revised)))
}

/// Runs the equivalence proof and (optionally) the wrong-key sweep.
///
/// # Errors
///
/// Returns [`AliceError::Verify`] when the flow's own output cannot be
/// checked (re-parse/elaboration failure of the redacted design, or a
/// boundary that cannot be paired) — conditions that indicate a redaction
/// bug. Designs whose *original* cannot be elaborated are reported as
/// [`VerifyOutcome::Unsupported`], not as errors.
pub fn verify_redaction(
    design: &Design,
    redacted: &RedactedDesign,
    cfg: &AliceConfig,
    db: &DesignDb,
) -> Result<VerifyReport, AliceError> {
    let (golden, revised) = match elaborate_sides(design, redacted, db)? {
        Ok(pair) => pair,
        Err(reason) => {
            return Ok(VerifyReport {
                outcome: VerifyOutcome::Unsupported(reason),
                diff_points: 0,
                cnf_vars: 0,
                cnf_clauses: 0,
                wrong_keys: Vec::new(),
            })
        }
    };
    let opts = base_options(redacted, cfg);

    // The persistent proof cache: an identical (golden, revised, pins)
    // query across suite re-runs or CLI invocations skips the whole
    // miter build *and* the SAT proof. Only proven-Equivalent entries
    // exist (see `alice_cec::cache`), so a hit is always a proof. The
    // fingerprint keys nothing else, so without a store it is skipped.
    let cache = db
        .store()
        .map(|s| (s.as_ref(), miter_fingerprint(&golden, &revised, &opts)));
    let cached = cache.and_then(|(s, fp)| cec_cache::lookup_proof(s, fp));
    // The keyed miter behind the correct-key proof, handed to the
    // wrong-key sweep afterwards (and cloned for its further slices) so
    // its sweep, learned clauses, activities, and saved phases keep
    // working across the wrong keys.
    let mut seed: Option<KeyedMiter> = None;
    // A keyed miter pays when its encode and search effort is amortized
    // over many keys; a lone correct-key proof stays on the pinned
    // miter, whose encode-time folding is unbeatable for a single key.
    let keyed = cfg.verify_wrong_keys > 0;
    let (outcome, diff_points, cnf_vars, cnf_clauses) = match cached {
        Some(proof) => {
            db.count_external_disk_hit();
            (
                VerifyOutcome::Equivalent,
                proof.diff_points as usize,
                proof.cnf_vars as usize,
                proof.cnf_clauses as usize,
            )
        }
        None => {
            let _span = alice_obs::span("verify.prove");
            let miter_err = |e: alice_cec::MiterError| AliceError::Verify(e.to_string());
            let (result, diff_points, (cnf_vars, cnf_clauses)) = if keyed {
                // One assumption-parameterized miter proves the correct
                // key and then serves the wrong-key sweep from the same
                // solver.
                let mut km = KeyedMiter::build(&golden, &revised, &opts, 0).map_err(miter_err)?;
                let result = km.prove(&opts.pin_state).map_err(miter_err)?;
                let (diff_points, cnf) = (km.diff_points(), km.cnf_size());
                seed = Some(km);
                (result, diff_points, cnf)
            } else {
                let m = Miter::build(&golden, &revised, &opts).map_err(miter_err)?;
                let (diff_points, cnf) = (m.diff_points(), m.cnf_size());
                (m.prove(), diff_points, cnf)
            };
            let outcome = match result {
                CecResult::Equivalent => VerifyOutcome::Equivalent,
                CecResult::NotEquivalent(cex) => VerifyOutcome::NotEquivalent(cex),
                CecResult::ResourceLimit => VerifyOutcome::ResourceLimit,
            };
            if let Some((s, fp)) = cache {
                if outcome.is_equivalent() {
                    cec_cache::record_proof(
                        s,
                        fp,
                        CachedProof {
                            diff_points: diff_points as u64,
                            cnf_vars: cnf_vars as u64,
                            cnf_clauses: cnf_clauses as u64,
                        },
                    );
                    db.count_external_miss();
                }
            }
            (outcome, diff_points, cnf_vars, cnf_clauses)
        }
    };

    // Wrong-key sweep: only meaningful once the correct key is proven.
    let wrong_keys = if cfg.verify_wrong_keys > 0 && outcome.is_equivalent() {
        let _span = alice_obs::span("verify.wrong_key_sweep");
        wrong_key_sweep(&golden, &revised, redacted, cfg, db, seed)
            .map_err(|e| AliceError::Verify(e.to_string()))?
    } else {
        Vec::new()
    };

    Ok(VerifyReport {
        outcome,
        diff_points,
        cnf_vars,
        cnf_clauses,
        wrong_keys,
    })
}

/// Deterministic splitmix64 (the workspace's stand-in for `rand`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the corruptibility sweep: N wrong bitstreams, each flipping a few
/// meaningful truth-table bits.
///
/// Identical flip sets are deduplicated up front — duplicates share one
/// analysis — and the unique keys are partitioned into contiguous slices
/// across [`shard`] workers. Each slice owns one long-lived
/// [`KeyedMiter`] and answers its whole slice by assumption solves. The
/// miter `seed`ed by the correct-key proof, complete with its sweep,
/// learned clauses and saved phases, goes to slice 0 and a clone of it
/// to every other slice, all dealt out before the workers start; only
/// when the proof came from the store (no `seed`) does each worker build
/// its own, on its slice's first uncached key. Each wrong key remains
/// its own cacheable query (its pins are part of the miter fingerprint,
/// computed on the *pinned* options), so re-sweeping an identical
/// redaction serves every complete analysis from the store.
fn wrong_key_sweep(
    golden: &Netlist,
    revised: &Netlist,
    redacted: &RedactedDesign,
    cfg: &AliceConfig,
    db: &DesignDb,
    seed: Option<KeyedMiter>,
) -> Result<Vec<WrongKeyOutcome>, alice_cec::MiterError> {
    // Global key-bit table: (cfg-register name, correct value), over all
    // fabrics, restricted to reachable truth-table bits.
    let key_bits: Vec<(Symbol, bool)> = redacted
        .efpgas
        .iter()
        .flat_map(|e| e.binding.key_bits.iter().map(|&i| e.binding.cfg_pins[i]))
        .collect();
    if key_bits.is_empty() {
        return Ok(Vec::new());
    }
    let base = base_options(redacted, cfg);
    let n = cfg.verify_wrong_keys;

    // Pre-draw the flip sets (deterministic, independent of sharding).
    let mut rng: u64 = 0xA11C_E0DD ^ key_bits.len() as u64;
    let flips: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let count = 1 + (splitmix64(&mut rng) % 4) as usize;
            let mut f: Vec<usize> = (0..count)
                .map(|_| (splitmix64(&mut rng) % key_bits.len() as u64) as usize)
                .collect();
            f.sort_unstable();
            f.dedup();
            f
        })
        .collect();

    // Dedupe identical flip sets: `uniq` holds one representative key
    // index per distinct set, `rep[k]` maps every key to its entry.
    let mut uniq: Vec<usize> = Vec::new();
    let mut rep: Vec<usize> = Vec::with_capacity(n);
    {
        let mut index: HashMap<&[usize], usize> = HashMap::new();
        for f in &flips {
            let u = *index.entry(f.as_slice()).or_insert_with(|| {
                uniq.push(rep.len());
                uniq.len() - 1
            });
            rep.push(u);
        }
    }

    let store = db.store().map(Arc::as_ref);
    let jobs = cfg.effective_jobs();
    let workers = jobs.min(uniq.len()).max(1);
    let slices: Vec<&[usize]> = uniq.chunks(uniq.len().div_ceil(workers).max(1)).collect();
    // One keyed miter per slice, dealt out before the shard starts:
    // slice 0 keeps the proof's warmed miter and every other slice a
    // clone of it, so no worker re-encodes or re-sweeps the pair and
    // every slice's solver state is the same whatever the worker timing.
    let mut warmed: Vec<Mutex<Option<KeyedMiter>>> = Vec::with_capacity(slices.len());
    if let Some(km) = seed {
        warmed.extend((1..slices.len()).map(|_| Mutex::new(Some(km.clone()))));
        warmed.insert(0, Mutex::new(Some(km)));
    }
    warmed.resize_with(slices.len(), || Mutex::new(None));
    let sliced = shard(slices.len(), jobs, |w| {
        // Without a proof miter (the proof came from the store), the
        // worker builds its own on the slice's first uncached key.
        let mut km = warmed[w].lock().expect("a sweep worker panicked").take();
        let mut out: Vec<WrongKeyOutcome> = Vec::with_capacity(slices[w].len());
        for &k in slices[w] {
            let _span = alice_obs::span_with("verify.wrong_key", || format!("key {k}"));
            let started = std::time::Instant::now();
            let mut opts = base.clone();
            // Flip the chosen key bits relative to the correct bitstream.
            let flipped: HashMap<Symbol, bool> = flips[k]
                .iter()
                .map(|&i| (key_bits[i].0, !key_bits[i].1))
                .collect();
            for (name, v) in &mut opts.pin_state {
                if let Some(&nv) = flipped.get(name) {
                    *v = nv;
                }
            }
            let cache = store.map(|s| (s, miter_fingerprint(golden, revised, &opts)));
            if let Some(hit) = cache.and_then(|(s, fp)| cec_cache::lookup_corruption(s, fp)) {
                db.count_external_disk_hit();
                out.push(WrongKeyOutcome {
                    flipped: flips[k].clone(),
                    corrupted: hit.corrupted as usize,
                    total: hit.total as usize,
                    complete: true,
                    solve_us: started.elapsed().as_micros() as u64,
                    from_cache: true,
                });
                continue;
            }
            if km.is_none() {
                km = Some(KeyedMiter::build(golden, revised, &base, 0)?);
            }
            let c = km
                .as_mut()
                .expect("built above")
                .corruption(&opts.pin_state)?;
            if let Some((s, fp)) = cache {
                if c.complete {
                    cec_cache::record_corruption(
                        s,
                        fp,
                        CachedCorruption {
                            corrupted: c.corrupted.len() as u64,
                            total: c.total as u64,
                        },
                    );
                    db.count_external_miss();
                }
            }
            let solve_us = started.elapsed().as_micros() as u64;
            WRONG_KEY_SOLVE_US.observe(solve_us);
            out.push(WrongKeyOutcome {
                flipped: flips[k].clone(),
                corrupted: c.corrupted.len(),
                total: c.total,
                complete: c.complete,
                solve_us,
                from_cache: false,
            });
        }
        Ok(out)
    });
    let mut by_uniq: Vec<WrongKeyOutcome> = Vec::with_capacity(uniq.len());
    for slice in sliced {
        by_uniq.extend(slice?);
    }
    // Replicate each representative's verdict to its duplicates.
    Ok((0..n)
        .map(|k| {
            let mut o = by_uniq[rep[k]].clone();
            o.flipped = flips[k].clone();
            o
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;

    const SRC: &str = r#"
module xorblk(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a ^ b;
endmodule
module regblk(input wire clk, input wire [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= d + 4'd1;
endmodule
module top(input wire clk, input wire [3:0] p, input wire [3:0] q,
           output wire [3:0] o1, output wire [3:0] o2);
  xorblk x0(.a(p), .b(q), .y(o1));
  regblk r0(.clk(clk), .d(p), .q(o2));
endmodule
"#;

    fn verified_flow(wrong_keys: usize) -> crate::flow::FlowOutcome {
        let d = Design::from_source("demo", SRC, None).expect("load");
        let cfg = AliceConfig {
            verify: true,
            verify_wrong_keys: wrong_keys,
            ..AliceConfig::cfg1()
        };
        Flow::new(cfg).run(&d).expect("flow")
    }

    #[test]
    fn correct_bitstream_proves_equivalent() {
        let out = verified_flow(0);
        let v = out.verify.as_ref().expect("verify ran");
        assert_eq!(v.outcome, VerifyOutcome::Equivalent, "{}", v.outcome);
        // o1/o2 output bits + 4 paired register next-states.
        assert!(v.diff_points >= 12, "got {}", v.diff_points);
        assert!(v.cnf_vars > 0 && v.cnf_clauses > 0);
    }

    #[test]
    fn wrong_keys_corrupt_outputs() {
        let out = verified_flow(3);
        let v = out.verify.as_ref().expect("verify ran");
        assert!(v.outcome.is_equivalent());
        assert_eq!(v.wrong_keys.len(), 3);
        let frac = v.corruption_fraction().expect("sweep ran");
        assert!(frac > 0.0, "wrong keys must corrupt something");
        for wk in &v.wrong_keys {
            assert!(wk.complete, "tiny design must analyse exactly");
            assert!(!wk.flipped.is_empty());
        }
    }

    #[test]
    fn more_workers_than_key_slices_is_fine() {
        // 5 distinct keys over 4 workers: slices of 2 keys leave the
        // fourth worker nothing to do, and nothing may index past the
        // key list.
        let d = Design::from_source("demo", SRC, None).expect("load");
        let cfg = AliceConfig {
            verify: true,
            verify_wrong_keys: 5,
            jobs: 4,
            ..AliceConfig::cfg1()
        };
        let out = Flow::new(cfg).run(&d).expect("flow");
        let v = out.verify.expect("verify ran");
        assert!(v.outcome.is_equivalent());
        assert_eq!(v.wrong_keys.len(), 5);
    }

    #[test]
    fn verify_is_opt_in() {
        let d = Design::from_source("demo", SRC, None).expect("load");
        let out = Flow::new(AliceConfig::cfg1()).run(&d).expect("flow");
        assert!(out.verify.is_none());
    }

    #[test]
    fn store_backed_verify_skips_reproving() {
        let dir = std::env::temp_dir().join(format!(
            "alice-verify-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Design::from_source("demo", SRC, None).expect("load");
        let cfg = AliceConfig {
            verify: true,
            verify_wrong_keys: 2,
            store: Some(dir.clone()),
            ..AliceConfig::cfg1()
        };
        let first = Flow::new(cfg.clone()).run(&d).expect("flow");
        let v1 = first.verify.clone().expect("verify ran");
        assert!(v1.outcome.is_equivalent());
        // A fresh flow over the same store models a second process: the
        // proof and both complete wrong-key analyses come from disk.
        let flow = Flow::new(cfg);
        let before = flow.db().counts();
        let second = flow.run(&d).expect("flow");
        let window = flow.db().counts().since(before);
        let v2 = second.verify.expect("verify ran");
        assert_eq!(v2.outcome, v1.outcome);
        assert_eq!(v2.diff_points, v1.diff_points);
        assert_eq!(v2.cnf_vars, v1.cnf_vars);
        assert_eq!(v2.cnf_clauses, v1.cnf_clauses);
        assert_eq!(v2.wrong_keys, v1.wrong_keys);
        assert_eq!(window.misses, 0, "nothing recomputed on the warm run");
        assert!(
            window.disk_hits >= 3,
            "proof + 2 wrong keys served from disk, got {}",
            window.disk_hits
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_served_proof_leaves_each_worker_to_build_its_miter() {
        // A store warmed with 2 wrong keys serves the proof and those
        // keys to a 5-key run, so no proof miter exists to deal out:
        // each of the 2 workers builds its own keyed miter on its first
        // uncached key.
        let dir = std::env::temp_dir().join(format!(
            "alice-verify-lazy-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Design::from_source("demo", SRC, None).expect("load");
        let cfg = |wrong_keys: usize, store: Option<std::path::PathBuf>| AliceConfig {
            verify: true,
            verify_wrong_keys: wrong_keys,
            jobs: 2,
            store,
            ..AliceConfig::cfg1()
        };
        Flow::new(cfg(2, Some(dir.clone()))).run(&d).expect("warm");

        let flow = Flow::new(cfg(5, Some(dir.clone())));
        let before = flow.db().counts();
        let out = flow.run(&d).expect("flow");
        let window = flow.db().counts().since(before);
        let v = out.verify.expect("verify ran");
        assert!(v.outcome.is_equivalent());
        assert_eq!(v.wrong_keys.len(), 5);
        assert!(
            v.wrong_keys[..2].iter().all(|wk| wk.from_cache),
            "the warmed keys are disk hits"
        );
        let solved: std::collections::BTreeSet<&[usize]> = v
            .wrong_keys
            .iter()
            .filter(|wk| !wk.from_cache)
            .map(|wk| wk.flipped.as_slice())
            .collect();
        assert!(!solved.is_empty(), "at least one key must be solved");
        // Every miss is a solved key: the flow's artifacts and the proof
        // all came from disk.
        assert_eq!(window.misses, solved.len() as u64);

        let cold = Flow::new(cfg(5, None)).run(&d).expect("flow");
        assert_eq!(v.wrong_keys, cold.verify.expect("verify ran").wrong_keys);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_design_is_caught() {
        // Sabotage the redacted output after the fact: flip one cfg pin
        // in the binding so the "correct" bitstream is wrong.
        let d = Design::from_source("demo", SRC, None).expect("load");
        let cfg = AliceConfig {
            verify: true,
            ..AliceConfig::cfg1()
        };
        let out = Flow::new(cfg.clone()).run(&d).expect("flow");
        let mut redacted = out.redacted.clone().expect("redacted");
        let bind = &mut redacted.efpgas[0].binding;
        let key = bind.key_bits[0];
        bind.cfg_pins[key].1 = !bind.cfg_pins[key].1;
        let report = verify_redaction(&d, &redacted, &cfg, &DesignDb::new()).expect("check runs");
        match report.outcome {
            VerifyOutcome::NotEquivalent(cex) => assert!(!cex.diffs.is_empty()),
            other => panic!("sabotage must be caught, got {other}"),
        }
    }
}
