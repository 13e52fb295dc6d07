//! Oracle-guided SAT attack on eFPGA-redacted logic.
//!
//! Implements the attack of Subramanyan et al. (reference \[16\] of the
//! paper) against a redacted cluster: the attacker knows the fabric
//! netlist (LUT topology) but not the configuration bitstream, and owns a
//! fully-scanned unlocked chip as an oracle. The LUT truth-table bits are
//! the key; the attack finds distinguishing input patterns (DIPs) until
//! the key space collapses, then extracts a functionally-correct
//! bitstream.
//!
//! Routing bits are fixed in our fabric model (see `alice-fabric`), so the
//! key is exactly the truth-table portion of the bitstream — consistent
//! with the LUT-oriented security analyses the paper builds on [3, 4].

use crate::oracle::{query, OracleResponse};
use crate::solver::{Lit, SatResult, Solver, Var};
use alice_intern::Symbol;
use alice_netlist::lutmap::{MappedNetlist, MappedSrc};
use std::collections::HashMap;
use std::time::Instant;

/// One distinguishing input pattern found by the attack, recorded in
/// oracle order (primary inputs by [`MappedNetlist::input_names`], state
/// by `dff_names`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dip {
    /// Primary-input bits.
    pub pi: Vec<bool>,
    /// Scan-state bits.
    pub state: Vec<bool>,
}

impl Dip {
    /// The primary-input assignment paired with the network's interned
    /// port-bit names.
    pub fn named_inputs(&self, mapped: &MappedNetlist) -> Vec<(Symbol, bool)> {
        mapped
            .input_names
            .iter()
            .copied()
            .zip(self.pi.iter().copied())
            .collect()
    }

    /// The state assignment paired with the network's register-bit names.
    pub fn named_state(&self, mapped: &MappedNetlist) -> Vec<(Symbol, bool)> {
        mapped
            .dff_names
            .iter()
            .copied()
            .zip(self.state.iter().copied())
            .collect()
    }
}

/// Interned names for every key bit of the network, in exactly the
/// concatenated per-LUT order of [`AttackReport::key_bits`] and of the
/// recovered truth tables: `lut{i}[{p}]` is truth-table bit `p` of the
/// `i`-th mapped LUT. The same bits, deployed on a fabric, surface as
/// the `cfg[p]` registers that `alice_core::redact`'s verify binding
/// pins — these names are the attack-side ledger of that key space.
pub fn key_bit_names(mapped: &MappedNetlist) -> Vec<Symbol> {
    mapped
        .luts
        .iter()
        .enumerate()
        .flat_map(|(i, l)| {
            (0..(1usize << l.inputs.len())).map(move |p| Symbol::intern(&format!("lut{i}[{p}]")))
        })
        .collect()
}

/// Outcome of a SAT attack run.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackStatus {
    /// A functionally-correct bitstream was recovered.
    KeyRecovered {
        /// Recovered truth tables, one per LUT.
        keys: Vec<Vec<bool>>,
    },
    /// The budget ran out before the key space collapsed.
    Resilient,
}

/// Statistics of a SAT attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Final status.
    pub status: AttackStatus,
    /// Number of distinguishing input patterns found.
    pub dips: usize,
    /// Key length in bits (truth-table bits of the cluster).
    pub key_bits: usize,
    /// Total solver conflicts.
    pub conflicts: u64,
    /// Wall-clock milliseconds.
    pub millis: u128,
    /// Every distinguishing input pattern, in discovery order (pair with
    /// [`Dip::named_inputs`]/[`Dip::named_state`] for readable traces).
    pub dip_trace: Vec<Dip>,
}

/// Attack budget limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackBudget {
    /// Maximum DIP iterations.
    pub max_dips: usize,
    /// Solver conflict budget per call.
    pub conflicts_per_call: u64,
}

impl Default for AttackBudget {
    fn default() -> Self {
        AttackBudget {
            max_dips: 2_000,
            conflicts_per_call: 200_000,
        }
    }
}

/// Per-copy observable bundle (literals, not variables: a constant-fed
/// cone can fold an observable straight down to a key literal).
struct Copy {
    outs: Vec<Lit>,
    next_state: Vec<Lit>,
}

struct Encoder<'a> {
    mapped: &'a MappedNetlist,
    const_true: Var,
    /// Structural hash of encoded LUT cones, shared across every copy
    /// this encoder emits: `(key row, input literals) → output var`.
    /// Key rows are globally unique per (key set, LUT), so `keys[li][0]`
    /// alone identifies both. DIP-replay copies feed constant inputs,
    /// which fold sub-cones to key literals — two DIPs agreeing on a
    /// cone's support therefore reproduce the *same* hash key, and the
    /// second copy reuses the first one's clauses instead of re-emitting
    /// `2·2^k` of them per LUT, iteration after iteration.
    strash: HashMap<(Var, Vec<Lit>), Var>,
}

impl<'a> Encoder<'a> {
    fn new(s: &mut Solver, mapped: &'a MappedNetlist) -> Self {
        let const_true = s.new_var();
        s.add_clause(&[Lit::pos(const_true)]);
        Encoder {
            mapped,
            const_true,
            strash: HashMap::new(),
        }
    }

    fn alloc_keys(&self, s: &mut Solver) -> Vec<Vec<Var>> {
        self.mapped
            .luts
            .iter()
            .map(|l| {
                (0..(1usize << l.inputs.len()))
                    .map(|_| s.new_var())
                    .collect()
            })
            .collect()
    }

    /// Encodes one circuit copy with the given key variables. `pi` and
    /// `state` supply the input literals (shared variables, or constants
    /// from [`Encoder::fixed_inputs`]). Constant inputs are folded at
    /// encode time: a row contradicted by a constant emits nothing, a
    /// fully-constant LUT *is* its selected key literal, and whatever
    /// still needs clauses is deduplicated through the structural hash.
    fn encode_copy(
        &mut self,
        s: &mut Solver,
        keys: &[Vec<Var>],
        pi: &[Lit],
        state: &[Lit],
    ) -> Copy {
        let t = self.const_true;
        let mut lut_lits: Vec<Lit> = Vec::with_capacity(self.mapped.luts.len());
        let src = |v: &MappedSrc, lut_lits: &[Lit]| -> Lit {
            match v {
                MappedSrc::Const(true) => Lit::pos(t),
                MappedSrc::Const(false) => Lit::neg(t),
                MappedSrc::Pi(i) => pi[*i],
                MappedSrc::Lut(i) => lut_lits[*i],
                MappedSrc::Dff(i) => state[*i],
            }
        };
        for (li, lut) in self.mapped.luts.iter().enumerate() {
            let ins: Vec<Lit> = lut.inputs.iter().map(|i| src(i, &lut_lits)).collect();
            // Constant view of each input: the shared `const_true` var is
            // the only root-pinned one, so ±it is the only constant form.
            let consts: Vec<Option<bool>> = ins
                .iter()
                .map(|&l| {
                    if l == Lit::pos(t) {
                        Some(true)
                    } else if l == Lit::neg(t) {
                        Some(false)
                    } else {
                        None
                    }
                })
                .collect();
            if consts.iter().all(Option::is_some) {
                // Fully-constant support: the LUT output is exactly the
                // key bit its inputs select. No clauses, no variable.
                let p = consts
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (b, c)| acc | ((c.unwrap() as usize) << b));
                lut_lits.push(Lit::pos(keys[li][p]));
                continue;
            }
            let hkey = (keys[li][0], ins.clone());
            if let Some(&o) = self.strash.get(&hkey) {
                lut_lits.push(Lit::pos(o));
                continue;
            }
            let o = s.new_var();
            'rows: for (p, &kp) in keys[li].iter().enumerate() {
                // match(p) & k_p -> o   and   match(p) & !k_p -> !o
                let mut base: Vec<Lit> = Vec::with_capacity(ins.len() + 2);
                for (b, (&inl, c)) in ins.iter().zip(&consts).enumerate() {
                    let want = (p >> b) & 1 == 1;
                    match c {
                        // Constant agrees with the row: the "differs"
                        // literal is constantly false, drop it.
                        Some(v) if *v == want => {}
                        // Constant contradicts the row: both clauses are
                        // constantly satisfied, skip them.
                        Some(_) => continue 'rows,
                        // literal asserting "input b != bit b of p"
                        None => base.push(if want { inl.negate() } else { inl }),
                    }
                }
                let mut c1 = base.clone();
                c1.push(Lit::neg(kp));
                c1.push(Lit::pos(o));
                s.add_clause(&c1);
                let mut c2 = base;
                c2.push(Lit::pos(kp));
                c2.push(Lit::neg(o));
                s.add_clause(&c2);
            }
            self.strash.insert(hkey, o);
            lut_lits.push(Lit::pos(o));
        }
        let outs = self
            .mapped
            .outputs
            .iter()
            .flat_map(|(_, bits)| bits.iter())
            .map(|b| src(b, &lut_lits))
            .collect();
        let next_state = self
            .mapped
            .dffs
            .iter()
            .map(|d| src(&d.d, &lut_lits))
            .collect();
        Copy { outs, next_state }
    }

    /// Constant input literals (±`const_true`) for a fixed bit pattern —
    /// no fresh variables, no unit clauses, and downstream cones fold.
    fn fixed_inputs(&self, bits: &[bool]) -> Vec<Lit> {
        bits.iter()
            .map(|&b| {
                if b {
                    Lit::pos(self.const_true)
                } else {
                    Lit::neg(self.const_true)
                }
            })
            .collect()
    }

    /// Constrains a copy's observables to the oracle response.
    fn pin_outputs(&self, s: &mut Solver, copy: &Copy, resp: &OracleResponse) {
        for (&l, &b) in copy.outs.iter().zip(&resp.outputs) {
            s.add_clause(&[if b { l } else { l.negate() }]);
        }
        for (&l, &b) in copy.next_state.iter().zip(&resp.next_state) {
            s.add_clause(&[if b { l } else { l.negate() }]);
        }
    }
}

/// Runs the oracle-guided SAT attack against `mapped`.
///
/// `mapped`'s own truth tables play the oracle (the unlocked chip); the
/// attacker model sees only the topology. Returns the recovered bitstream
/// or [`AttackStatus::Resilient`] when the budget is exhausted.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "module m(input wire [3:0] a, output wire y); assign y = ^a; endmodule";
/// let f = alice_verilog::parse_source(src)?;
/// let n = alice_netlist::elaborate::elaborate(&f, "m")?;
/// let mapped = alice_netlist::lutmap::map_luts(&n, 4)?;
/// let report = alice_attacks::sat_attack(&mapped, alice_attacks::AttackBudget::default());
/// assert!(matches!(report.status, alice_attacks::AttackStatus::KeyRecovered { .. }));
/// # Ok(())
/// # }
/// ```
pub fn sat_attack(mapped: &MappedNetlist, budget: AttackBudget) -> AttackReport {
    let start = Instant::now();
    let key_bits: usize = mapped.luts.iter().map(|l| 1usize << l.inputs.len()).sum();
    let n_st = mapped.dffs.len();

    // Miter solver: two keyed copies over shared inputs, outputs differ.
    let mut s = Solver::new();
    s.conflict_budget = Some(budget.conflicts_per_call);
    let mut enc = Encoder::new(&mut s, mapped);
    let k1 = enc.alloc_keys(&mut s);
    let k2 = enc.alloc_keys(&mut s);
    // The shared miter inputs carry the network's own port and register
    // names, so a satisfying assignment reads back as a named DIP.
    // (`dff_names` is maintained independently of the `dffs` list the
    // encoder sizes copies by, so the lengths genuinely can disagree.)
    debug_assert_eq!(mapped.dff_names.len(), n_st);
    let pi: Vec<Var> = mapped
        .input_names
        .iter()
        .map(|&n| s.new_named_var(n))
        .collect();
    let st: Vec<Var> = mapped
        .dff_names
        .iter()
        .map(|&n| s.new_named_var(n))
        .collect();
    let pi_lits: Vec<Lit> = pi.iter().map(|&v| Lit::pos(v)).collect();
    let st_lits: Vec<Lit> = st.iter().map(|&v| Lit::pos(v)).collect();
    let c1 = enc.encode_copy(&mut s, &k1, &pi_lits, &st_lits);
    let c2 = enc.encode_copy(&mut s, &k2, &pi_lits, &st_lits);
    // d_i -> (o1_i xor o2_i); assert OR d_i.
    let mut diff_lits = Vec::new();
    for (&a, &b) in c1
        .outs
        .iter()
        .chain(&c1.next_state)
        .zip(c2.outs.iter().chain(&c2.next_state))
    {
        let d = s.new_var();
        // d -> (a != b)
        s.add_clause(&[Lit::neg(d), a, b]);
        s.add_clause(&[Lit::neg(d), a.negate(), b.negate()]);
        diff_lits.push(Lit::pos(d));
    }
    s.add_clause(&diff_lits);

    // Key solver: accumulates I/O constraints on a single key copy;
    // solved at the end to extract a consistent bitstream.
    let mut ks = Solver::new();
    ks.conflict_budget = Some(budget.conflicts_per_call);
    let mut kenc = Encoder::new(&mut ks, mapped);
    let kk = kenc.alloc_keys(&mut ks);
    // Key variables carry their truth-table-bit identities, so the key
    // solver's model is the recovered bitstream by name.
    for (&v, name) in kk.iter().flatten().zip(key_bit_names(mapped)) {
        ks.label(v, name);
    }

    let mut dips = 0usize;
    let mut dip_trace: Vec<Dip> = Vec::new();
    loop {
        if dips >= budget.max_dips {
            return AttackReport {
                status: AttackStatus::Resilient,
                dips,
                key_bits,
                conflicts: s.stats().conflicts + ks.stats().conflicts,
                millis: start.elapsed().as_millis(),
                dip_trace,
            };
        }
        match s.solve() {
            SatResult::Unknown => {
                return AttackReport {
                    status: AttackStatus::Resilient,
                    dips,
                    key_bits,
                    conflicts: s.stats().conflicts + ks.stats().conflicts,
                    millis: start.elapsed().as_millis(),
                    dip_trace,
                }
            }
            SatResult::Unsat => break,
            SatResult::Sat => {
                // Extract the DIP before touching the solver again.
                let dip_pi: Vec<bool> = pi.iter().map(|&v| s.value(v).unwrap_or(false)).collect();
                let dip_st: Vec<bool> = st.iter().map(|&v| s.value(v).unwrap_or(false)).collect();
                let resp = query(mapped, &dip_pi, &dip_st, None);
                dips += 1;
                dip_trace.push(Dip {
                    pi: dip_pi.clone(),
                    state: dip_st.clone(),
                });
                // Both key copies must reproduce the oracle on this DIP.
                for keys in [&k1, &k2] {
                    let fpi = enc.fixed_inputs(&dip_pi);
                    let fst = enc.fixed_inputs(&dip_st);
                    let copy = enc.encode_copy(&mut s, keys, &fpi, &fst);
                    enc.pin_outputs(&mut s, &copy, &resp);
                }
                // And the key solver learns the same I/O pair.
                let fpi = kenc.fixed_inputs(&dip_pi);
                let fst = kenc.fixed_inputs(&dip_st);
                let copy = kenc.encode_copy(&mut ks, &kk, &fpi, &fst);
                kenc.pin_outputs(&mut ks, &copy, &resp);
            }
        }
    }
    // Key space collapsed: any key satisfying the accumulated I/O pairs
    // is functionally correct. Stronger: since the miter is UNSAT, no two
    // consistent keys differ on any input, and the true key is itself
    // consistent — so the consistent set is exactly the functional
    // equivalence class of the true key, independent of which DIP
    // sequence got us here. Extracting its lexicographically smallest
    // member in `key_bit_names` order thus yields a canonical
    // bitstream: every run recovers the same key bit for bit.
    let verdict = ks.solve();
    // Snapshot before extraction so the reported effort covers exactly
    // the verdict-producing search.
    let conflicts = s.stats().conflicts + ks.stats().conflicts;
    let status = match verdict {
        SatResult::Sat => {
            // Lex-min per bit, preferring 0. A solve is only needed when
            // the cached witness has a 1 (a witness with a 0 already
            // proves 0 feasible); on Unsat the previous witness still
            // backs every fixed literal, so it stays cached. Budget off:
            // these queries are easy and must not flake a canonical key
            // into a nondeterministic one.
            ks.conflict_budget = None;
            let order: Vec<Var> = kk.iter().flatten().copied().collect();
            let mut witness: Vec<bool> = order
                .iter()
                .map(|&v| ks.value(v).unwrap_or(false))
                .collect();
            let mut fixed: Vec<Lit> = Vec::with_capacity(order.len());
            for (i, &v) in order.iter().enumerate() {
                if !witness[i] {
                    fixed.push(Lit::neg(v));
                    continue;
                }
                fixed.push(Lit::neg(v));
                if ks.solve_with(&fixed) == SatResult::Sat {
                    for (j, &w) in order.iter().enumerate() {
                        witness[j] = ks.value(w).unwrap_or(false);
                    }
                } else {
                    *fixed.last_mut().expect("just pushed") = Lit::pos(v);
                }
            }
            let mut bits = fixed.iter().map(|l| !l.is_neg());
            let keys: Vec<Vec<bool>> = kk
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|_| bits.next().expect("one per key var"))
                        .collect()
                })
                .collect();
            AttackStatus::KeyRecovered { keys }
        }
        _ => AttackStatus::Resilient,
    };
    AttackReport {
        status,
        dips,
        key_bits,
        conflicts,
        millis: start.elapsed().as_millis(),
        dip_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::exhaustive_equiv;
    use alice_netlist::elaborate::elaborate;
    use alice_netlist::lutmap::map_luts;
    use alice_verilog::parse_source;

    fn mapped(src: &str, top: &str) -> MappedNetlist {
        let f = parse_source(src).expect("parse");
        let n = elaborate(&f, top).expect("elab");
        map_luts(&n, 4).expect("map")
    }

    #[test]
    fn attack_recovers_single_lut() {
        let m = mapped(
            "module m(input wire [3:0] a, output wire y);\
             assign y = (a[0] & a[1]) | (a[2] ^ a[3]); endmodule",
            "m",
        );
        let r = sat_attack(&m, AttackBudget::default());
        match r.status {
            AttackStatus::KeyRecovered { keys } => {
                assert!(exhaustive_equiv(&m, &keys), "recovered key must match");
            }
            AttackStatus::Resilient => panic!("tiny circuit must break"),
        }
        assert!(r.dips >= 1);
    }

    #[test]
    fn attack_recovers_multi_lut_adder() {
        let m = mapped(
            "module m(input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);\
             assign y = {1'b0, a} + {1'b0, b}; endmodule",
            "m",
        );
        let r = sat_attack(&m, AttackBudget::default());
        match r.status {
            AttackStatus::KeyRecovered { keys } => {
                assert!(exhaustive_equiv(&m, &keys));
            }
            AttackStatus::Resilient => panic!("adder must break"),
        }
        // Key bits: 2^|inputs| per LUT, between 2 and 16 each.
        assert!(r.key_bits >= 2 * m.lut_count());
        assert!(r.key_bits <= 16 * m.lut_count());
    }

    #[test]
    fn attack_handles_sequential_as_scan() {
        let m = mapped(
            "module c(input wire clk, input wire en, output reg [1:0] q);\
             always @(posedge clk) begin if (en) q <= q + 2'd1; end endmodule",
            "c",
        );
        let r = sat_attack(&m, AttackBudget::default());
        match r.status {
            AttackStatus::KeyRecovered { keys } => {
                assert!(exhaustive_equiv(&m, &keys));
            }
            AttackStatus::Resilient => panic!("2-bit counter must break"),
        }
    }

    #[test]
    fn budget_exhaustion_reports_resilient() {
        let m = mapped(
            "module m(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);\
             assign y = a * b; endmodule",
            "m",
        );
        let r = sat_attack(
            &m,
            AttackBudget {
                max_dips: 1,
                conflicts_per_call: 100_000,
            },
        );
        assert_eq!(r.status, AttackStatus::Resilient);
        assert!(r.dips <= 1);
    }

    #[test]
    fn dip_trace_is_named_and_distinguishing() {
        let m = mapped(
            "module m(input wire [3:0] a, output wire y);\
             assign y = (a[0] & a[1]) | (a[2] ^ a[3]); endmodule",
            "m",
        );
        let r = sat_attack(&m, AttackBudget::default());
        assert_eq!(r.dip_trace.len(), r.dips);
        assert!(!r.dip_trace.is_empty());
        for dip in &r.dip_trace {
            let named = dip.named_inputs(&m);
            assert_eq!(named.len(), m.input_names.len());
            // Names come straight from the network's interned ports.
            for ((name, _), want) in named.iter().zip(&m.input_names) {
                assert_eq!(name, want);
            }
            assert!(dip.named_state(&m).is_empty(), "combinational network");
        }
    }

    #[test]
    fn key_bit_names_align_with_recovered_tables() {
        let m = mapped(
            "module m(input wire [3:0] a, output wire y); assign y = ^a; endmodule",
            "m",
        );
        let names = key_bit_names(&m);
        let r = sat_attack(&m, AttackBudget::default());
        assert_eq!(names.len(), r.key_bits);
        // Concatenated per-LUT order: lut{i}[{p}] with p dense per LUT.
        let mut want = Vec::new();
        for (i, l) in m.luts.iter().enumerate() {
            for p in 0..(1usize << l.inputs.len()) {
                want.push(Symbol::intern(&format!("lut{i}[{p}]")));
            }
        }
        assert_eq!(names, want);
    }

    #[test]
    fn reruns_recover_the_same_canonical_key() {
        let m = mapped(
            "module m(input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);\
             assign y = {1'b0, a} + {1'b0, b}; endmodule",
            "m",
        );
        let r1 = sat_attack(&m, AttackBudget::default());
        let r1b = sat_attack(&m, AttackBudget::default());
        let keys = |r: &AttackReport| match &r.status {
            AttackStatus::KeyRecovered { keys } => keys.clone(),
            AttackStatus::Resilient => panic!("adder must break"),
        };
        // Lex-min extraction is canonical: reruns agree bit-for-bit, and
        // the canonical key is still correct.
        assert_eq!(keys(&r1), keys(&r1b));
        assert!(exhaustive_equiv(&m, &keys(&r1)));
    }

    #[test]
    fn dip_replay_copies_fold_and_share_structure() {
        let m = mapped(
            "module m(input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);\
             assign y = {1'b0, a} + {1'b0, b}; endmodule",
            "m",
        );
        let mut s = Solver::new();
        let mut enc = Encoder::new(&mut s, &m);
        let kk = enc.alloc_keys(&mut s);
        let bits: Vec<bool> = (0..m.input_names.len()).map(|i| i % 3 == 0).collect();
        let fpi = enc.fixed_inputs(&bits);
        let c1 = enc.encode_copy(&mut s, &kk, &fpi, &[]);
        let (vars, clauses) = (s.num_vars(), s.num_clauses());
        // Replaying the same DIP against the same key set is a pure
        // structural-hash hit: no new variables, no new clauses, and the
        // observables fold to the very same literals.
        let c2 = enc.encode_copy(&mut s, &kk, &fpi, &[]);
        assert_eq!(s.num_vars(), vars);
        assert_eq!(s.num_clauses(), clauses);
        assert_eq!(c1.outs, c2.outs);
        assert_eq!(c1.next_state, c2.next_state);
    }

    #[test]
    fn key_bits_counted() {
        let m = mapped(
            "module m(input wire [3:0] a, output wire y); assign y = &a; endmodule",
            "m",
        );
        let r = sat_attack(&m, AttackBudget::default());
        assert_eq!(r.key_bits, 16 * m.lut_count());
    }
}
