//! Tseitin CNF lowering of [`Netlist`]s onto the in-tree CDCL solver.
//!
//! The encoder is shared by both sides of a miter: it keeps a structural
//! hash over *solver* literals, so when two netlists are encoded against
//! the same [`Encoder`] with shared input/state variables, every cone that
//! is structurally identical in both collapses to the very same solver
//! literal. A miter over an original design and its redacted twin then
//! only carries real CNF for the logic the redaction actually changed —
//! the untouched majority of the design contributes no clauses at all.
//!
//! Constants fold at encode time (the same rules as [`Netlist`]'s
//! builders), which is what
//! makes bitstream binding effective: pinning the fabric's configuration
//! registers to constants collapses each `cfg[in]` mux tree down to the
//! configured LUT function before the solver ever sees it.

use alice_attacks::solver::{Lit, Solver, Var};
use alice_intern::Symbol;
use alice_netlist::ir::{Lit as NLit, Netlist, Node};
use std::collections::HashMap;

/// One encoded flip-flop: the free (or bound) current-state literal and
/// the encoded next-state function.
#[derive(Debug, Clone)]
pub struct EncodedDff {
    /// Hierarchical register-bit name from elaboration (interned).
    pub name: Symbol,
    /// Current-state (Q) literal.
    pub q: Lit,
    /// Next-state (D) literal.
    pub next: Lit,
    /// Power-on value (informational; the scan model ignores it).
    pub init: bool,
}

/// A netlist lowered to CNF: the literal handles for its boundary.
#[derive(Debug, Clone)]
pub struct EncodedNetlist {
    /// Input ports: name and per-bit literals (LSB first).
    pub inputs: Vec<(Symbol, Vec<Lit>)>,
    /// Output ports: name and per-bit literals (LSB first).
    pub outputs: Vec<(Symbol, Vec<Lit>)>,
    /// Flip-flops in [`Netlist::dffs`] order.
    pub dffs: Vec<EncodedDff>,
    /// The solver literal of every netlist node, indexed by
    /// [`NodeId`](alice_netlist::ir::NodeId) — the hook SAT sweeping uses
    /// to talk about internal points.
    pub node_lits: Vec<Lit>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GateKey {
    And(Lit, Lit),
    Xor(Lit, Lit),
    Mux(Lit, Lit, Lit),
}

/// A structurally-hashing, constant-folding Tseitin encoder.
///
/// # Example
///
/// ```
/// use alice_attacks::solver::Solver;
/// use alice_cec::encode::Encoder;
///
/// let mut s = Solver::new();
/// let mut enc = Encoder::new(&mut s);
/// let a = enc.fresh(&mut s);
/// let o1 = enc.and(&mut s, a, enc.tru());
/// assert_eq!(o1, a, "AND with constant true folds");
/// let b = enc.fresh(&mut s);
/// let g1 = enc.xor(&mut s, a, b);
/// let g2 = enc.xor(&mut s, b.negate(), a);
/// assert_eq!(g1, g2.negate(), "strash catches complemented reuse");
/// ```
#[derive(Debug)]
pub struct Encoder {
    strash: HashMap<GateKey, Lit>,
    tru: Lit,
}

impl Encoder {
    /// Creates an encoder over `s`, allocating its constant variable.
    pub fn new(s: &mut Solver) -> Self {
        let t = Lit::pos(s.new_var());
        s.add_clause(&[t]);
        Encoder {
            strash: HashMap::new(),
            tru: t,
        }
    }

    /// The constant-true literal.
    pub fn tru(&self) -> Lit {
        self.tru
    }

    /// The constant-false literal.
    pub fn fls(&self) -> Lit {
        self.tru.negate()
    }

    /// A fresh unconstrained literal.
    pub fn fresh(&self, s: &mut Solver) -> Lit {
        Lit::pos(s.new_var())
    }

    /// Encodes `o = a AND b` (folded, structurally hashed).
    pub fn and(&mut self, s: &mut Solver, a: Lit, b: Lit) -> Lit {
        if a == self.fls() || b == self.fls() || a == b.negate() {
            return self.fls();
        }
        if a == self.tru || a == b {
            return b;
        }
        if b == self.tru {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = GateKey::And(a, b);
        if let Some(&o) = self.strash.get(&key) {
            return o;
        }
        let o = Lit::pos(s.new_var());
        s.add_clause(&[o.negate(), a]);
        s.add_clause(&[o.negate(), b]);
        s.add_clause(&[o, a.negate(), b.negate()]);
        self.strash.insert(key, o);
        o
    }

    /// Encodes `o = a OR b` via De Morgan.
    pub fn or(&mut self, s: &mut Solver, a: Lit, b: Lit) -> Lit {
        self.and(s, a.negate(), b.negate()).negate()
    }

    /// Encodes `o = a XOR b` (folded, negation-normalized, hashed).
    pub fn xor(&mut self, s: &mut Solver, a: Lit, b: Lit) -> Lit {
        if a == self.fls() {
            return b;
        }
        if b == self.fls() {
            return a;
        }
        if a == self.tru {
            return b.negate();
        }
        if b == self.tru {
            return a.negate();
        }
        if a == b {
            return self.fls();
        }
        if a == b.negate() {
            return self.tru;
        }
        // Negations migrate to the output so x^y and !x^!y share a node.
        let compl = a.is_neg() ^ b.is_neg();
        let (a, b) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = GateKey::Xor(a, b);
        let o = if let Some(&o) = self.strash.get(&key) {
            o
        } else {
            let o = Lit::pos(s.new_var());
            s.add_clause(&[o.negate(), a, b]);
            s.add_clause(&[o.negate(), a.negate(), b.negate()]);
            s.add_clause(&[o, a, b.negate()]);
            s.add_clause(&[o, a.negate(), b]);
            self.strash.insert(key, o);
            o
        };
        if compl {
            o.negate()
        } else {
            o
        }
    }

    /// Encodes `o = c ? t : e` (folded, select-polarity-normalized).
    pub fn mux(&mut self, s: &mut Solver, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.tru || t == e {
            return t;
        }
        if c == self.fls() {
            return e;
        }
        if t == e.negate() {
            return self.xor(s, c, e);
        }
        if t == self.tru {
            return self.or(s, c, e);
        }
        if t == self.fls() {
            return self.and(s, c.negate(), e);
        }
        if e == self.tru {
            return self.or(s, c.negate(), t);
        }
        if e == self.fls() {
            return self.and(s, c, t);
        }
        if c == t {
            return self.or(s, c, e);
        }
        if c == e {
            return self.and(s, c, t);
        }
        let (c, t, e) = if c.is_neg() {
            (c.negate(), e, t)
        } else {
            (c, t, e)
        };
        let key = GateKey::Mux(c, t, e);
        if let Some(&o) = self.strash.get(&key) {
            return o;
        }
        let o = Lit::pos(s.new_var());
        s.add_clause(&[c.negate(), t.negate(), o]);
        s.add_clause(&[c.negate(), t, o.negate()]);
        s.add_clause(&[c, e.negate(), o]);
        s.add_clause(&[c, e, o.negate()]);
        // Redundant but propagation-strengthening: t = e forces o.
        s.add_clause(&[t.negate(), e.negate(), o]);
        s.add_clause(&[t, e, o.negate()]);
        self.strash.insert(key, o);
        o
    }

    /// Lowers `n` to CNF in `s`.
    ///
    /// `input_bind` supplies pre-allocated literals for input ports (for
    /// sharing across a miter, or constants for pinned ports) and
    /// `state_bind` does the same per DFF name; everything unbound gets a
    /// fresh variable. Bound literal vectors must match the port width.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle or a bound input
    /// width mismatches the port (the miter builder validates widths
    /// before calling this).
    pub fn encode(
        &mut self,
        s: &mut Solver,
        n: &Netlist,
        input_bind: &HashMap<Symbol, Vec<Lit>>,
        state_bind: &HashMap<Symbol, Lit>,
    ) -> EncodedNetlist {
        let order = n
            .comb_topo_order()
            .expect("combinational cycle in netlist under CEC");
        let mut node_lit: Vec<Option<Lit>> = vec![None; n.len()];

        // Inputs: bound or fresh.
        let mut inputs = Vec::with_capacity(n.inputs.len());
        for (name, bits) in &n.inputs {
            let lits: Vec<Lit> = match input_bind.get(name) {
                Some(bound) => {
                    assert_eq!(bound.len(), bits.len(), "width mismatch on `{name}`");
                    bound.clone()
                }
                None => bits.iter().map(|_| self.fresh(s)).collect(),
            };
            for (&id, &l) in bits.iter().zip(&lits) {
                node_lit[id.0 as usize] = Some(l);
            }
            inputs.push((*name, lits));
        }

        // DFF Q literals: bound (shared with the twin or pinned) or fresh.
        let records = n.dff_records();
        for &(id, name, _, _) in &records {
            let q = state_bind
                .get(&name)
                .copied()
                .unwrap_or_else(|| self.fresh(s));
            node_lit[id.0 as usize] = Some(q);
        }

        let resolve = |node_lit: &[Option<Lit>], l: NLit| -> Lit {
            let base = node_lit[l.node().0 as usize].expect("fanin encoded before use");
            if l.is_compl() {
                base.negate()
            } else {
                base
            }
        };

        for id in order {
            let idx = id.0 as usize;
            if node_lit[idx].is_some() {
                continue; // inputs and DFFs are pre-assigned
            }
            let lit = match n.node(id) {
                Node::Const0 => self.fls(),
                Node::Input { .. } | Node::Dff { .. } => unreachable!("pre-assigned"),
                Node::Buf(a) => resolve(&node_lit, *a),
                Node::And(a, b) => {
                    let (a, b) = (resolve(&node_lit, *a), resolve(&node_lit, *b));
                    self.and(s, a, b)
                }
                Node::Xor(a, b) => {
                    let (a, b) = (resolve(&node_lit, *a), resolve(&node_lit, *b));
                    self.xor(s, a, b)
                }
                Node::Mux { s: c, t, e } => {
                    let (c, t, e) = (
                        resolve(&node_lit, *c),
                        resolve(&node_lit, *t),
                        resolve(&node_lit, *e),
                    );
                    self.mux(s, c, t, e)
                }
            };
            node_lit[idx] = Some(lit);
        }

        let outputs = n
            .outputs
            .iter()
            .map(|(name, bits)| (*name, bits.iter().map(|&l| resolve(&node_lit, l)).collect()))
            .collect();
        let dffs = records
            .into_iter()
            .map(|(id, name, d, init)| EncodedDff {
                name,
                q: node_lit[id.0 as usize].expect("assigned above"),
                next: resolve(&node_lit, d),
                init,
            })
            .collect();
        EncodedNetlist {
            inputs,
            outputs,
            dffs,
            node_lits: node_lit
                .into_iter()
                .map(|l| l.expect("all nodes encoded"))
                .collect(),
        }
    }
}

/// Reads the model value of `l` after a SAT answer (`false` when the
/// variable went unassigned, i.e. the formula does not constrain it).
pub fn model_value(s: &Solver, l: Lit) -> bool {
    s.value(l.var()).unwrap_or(false) ^ l.is_neg()
}

/// Convenience: the variable of a literal (for pinning via unit clauses).
pub fn lit_var(l: Lit) -> Var {
    l.var()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alice_attacks::solver::SatResult;

    #[test]
    fn constant_folding_mirrors_netlist_builders() {
        let mut s = Solver::new();
        let mut enc = Encoder::new(&mut s);
        let a = enc.fresh(&mut s);
        let b = enc.fresh(&mut s);
        assert_eq!(enc.and(&mut s, a, enc.fls()), enc.fls());
        assert_eq!(enc.xor(&mut s, a, a), enc.fls());
        assert_eq!(enc.xor(&mut s, a, a.negate()), enc.tru());
        assert_eq!(enc.mux(&mut s, enc.tru(), a, b), a);
        assert_eq!(enc.mux(&mut s, enc.fls(), a, b), b);
        assert_eq!(enc.mux(&mut s, a, b, b), b);
    }

    #[test]
    fn strash_shares_across_encodes() {
        // Two identical netlists over shared inputs produce identical
        // output literals — the CEC fast path.
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 2);
        let x = n.xor(a[0], a[1]);
        let y = n.and(x, a[0]);
        n.add_output("y", vec![y]);

        let mut s = Solver::new();
        let mut enc = Encoder::new(&mut s);
        let shared: HashMap<Symbol, Vec<Lit>> = [(
            Symbol::intern("a"),
            vec![enc.fresh(&mut s), enc.fresh(&mut s)],
        )]
        .into();
        let e1 = enc.encode(&mut s, &n, &shared, &HashMap::new());
        let e2 = enc.encode(&mut s, &n, &shared, &HashMap::new());
        assert_eq!(e1.outputs[0].1, e2.outputs[0].1);
    }

    #[test]
    fn encoded_function_matches_semantics() {
        // y = (a & b) ^ c, checked by forcing each input pattern.
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 1)[0];
        let b = n.add_input("b", 1)[0];
        let c = n.add_input("c", 1)[0];
        let ab = n.and(a, b);
        let y = n.xor(ab, c);
        n.add_output("y", vec![y]);

        for pat in 0..8u32 {
            let mut s = Solver::new();
            let mut enc = Encoder::new(&mut s);
            let e = enc.encode(&mut s, &n, &HashMap::new(), &HashMap::new());
            for (i, (_, bits)) in e.inputs.iter().enumerate() {
                let v = (pat >> i) & 1 == 1;
                let l = bits[0];
                s.add_clause(&[if v { l } else { l.negate() }]);
            }
            assert_eq!(s.solve(), SatResult::Sat);
            let want = ((pat & 1 == 1) && (pat >> 1 & 1 == 1)) ^ (pat >> 2 & 1 == 1);
            assert_eq!(model_value(&s, e.outputs[0].1[0]), want, "pattern {pat}");
        }
    }

    #[test]
    fn state_binding_pins_dffs_to_constants() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d", 1)[0];
        let q = n.dff("r[0]", false);
        n.set_dff_input(q, d);
        n.add_output("q", vec![q]);

        let mut s = Solver::new();
        let mut enc = Encoder::new(&mut s);
        let t = enc.tru();
        let state: HashMap<Symbol, Lit> = [(Symbol::intern("r[0]"), t)].into();
        let e = enc.encode(&mut s, &n, &HashMap::new(), &state);
        assert_eq!(e.outputs[0].1[0], t, "pinned Q folds to constant");
        assert_eq!(e.dffs[0].name, "r[0]");
        assert_eq!(e.dffs[0].next, e.inputs[0].1[0]);
    }
}
