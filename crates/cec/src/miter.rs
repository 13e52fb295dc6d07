//! Miter construction and SAT-based equivalence proofs.
//!
//! A [`Miter`] composes a *golden* netlist `a` and a *revised* netlist `b`
//! over shared primary inputs and XOR-compared outputs. Sequential designs
//! are handled with the scan model standard in logic-locking analyses:
//! every paired flip-flop's Q is a shared free variable and its
//! next-state function becomes an additional compared output, so a proof
//! covers all reachable (indeed all) states.
//!
//! Ports and state that exist only in `b` are the *key*: eFPGA
//! configuration inputs and configuration-chain registers. They can be
//! pinned to a concrete bitstream (proving the legitimate user's chip
//! correct) or left free (the attacker's view; a proof then holds for
//! *every* key, which for a real redaction should instead produce a
//! counterexample).

use crate::encode::{model_value, Encoder};
use crate::sweep::{const_sig, random_sig, sweep, ConeHash, Sig, SweepSide, SweepStats};
use alice_attacks::solver::{EngineStats, Lit, SatResult, Solver};
use alice_intern::{StableHasher, Symbol};
use alice_netlist::ir::{Netlist, NodeId};
use alice_store::Store;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Why a miter could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterError {
    /// An input port of the golden netlist is missing in the revised one.
    MissingInput(String),
    /// A port exists in both netlists with different widths.
    WidthMismatch(String),
    /// An output port of the golden netlist is missing in the revised one.
    MissingOutput(String),
    /// The revised netlist has a non-key output the golden one lacks.
    ExtraOutput(String),
    /// A golden-netlist flip-flop has no counterpart in the revised one,
    /// so its next-state function would go unchecked.
    UnpairedState(String),
    /// A pin constraint names an unknown port or register.
    UnknownPin(String),
}

impl fmt::Display for MiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiterError::MissingInput(n) => write!(f, "input `{n}` missing in revised netlist"),
            MiterError::WidthMismatch(n) => write!(f, "port `{n}` has mismatched widths"),
            MiterError::MissingOutput(n) => write!(f, "output `{n}` missing in revised netlist"),
            MiterError::ExtraOutput(n) => {
                write!(f, "revised netlist has unexpected non-key output `{n}`")
            }
            MiterError::UnpairedState(n) => {
                write!(f, "golden flip-flop `{n}` has no revised counterpart")
            }
            MiterError::UnknownPin(n) => write!(f, "pin constraint names unknown `{n}`"),
        }
    }
}

impl std::error::Error for MiterError {}

/// A difference witness: one assignment to the shared inputs and state
/// (plus the key, when free) on which the two netlists disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Shared primary-input values, per golden port (LSB first).
    pub inputs: Vec<(Symbol, Vec<bool>)>,
    /// Shared state values, by golden register name.
    pub state: Vec<(Symbol, bool)>,
    /// Free key-input values, per revised-only port.
    pub key_inputs: Vec<(Symbol, Vec<bool>)>,
    /// Free key-state values, by revised-only register name.
    pub key_state: Vec<(Symbol, bool)>,
    /// Names of the difference points that disagree under this assignment
    /// (`port[bit]` for outputs, `next(reg)` for next-state functions).
    pub diffs: Vec<String>,
}

/// The verdict of an equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// Proven equivalent on every compared point, for all inputs and
    /// states (and all keys, if any were left free).
    Equivalent,
    /// A concrete disagreement was found.
    NotEquivalent(Box<Counterexample>),
    /// The solver's conflict budget ran out before a verdict.
    ResourceLimit,
}

impl CecResult {
    /// True for [`CecResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecResult::Equivalent)
    }
}

/// Exhaustive per-output corruption analysis (used by the wrong-key
/// sweep): which difference points *can* disagree under the current
/// constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Difference points proven corruptible (some input shows a
    /// disagreement).
    pub corrupted: BTreeSet<String>,
    /// Total difference points compared.
    pub total: usize,
    /// False when the solver budget ran out; `corrupted` is then a lower
    /// bound and the un-marked points are *not* proven clean.
    pub complete: bool,
}

impl Corruption {
    /// Corrupted fraction of all compared points.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.corrupted.len() as f64 / self.total as f64
        }
    }
}

/// Build-time options for [`Miter::build`].
#[derive(Debug, Clone)]
pub struct MiterOptions {
    /// Ports/registers present only in the revised netlist whose names
    /// start with one of these prefixes (on any hierarchy segment) are
    /// treated as key material instead of errors. Default: `["cfg_"]`.
    pub key_prefixes: Vec<String>,
    /// Renames applied to revised-netlist register names before pairing
    /// (`revised name` → `golden name`); this is how redaction maps each
    /// fabric FF back onto the register it replaced.
    pub state_rename: HashMap<Symbol, Symbol>,
    /// Revised-netlist input ports pinned to constants (LSB first).
    pub pin_inputs: Vec<(Symbol, Vec<bool>)>,
    /// Revised-netlist registers pinned to constants — the bitstream.
    pub pin_state: Vec<(Symbol, bool)>,
    /// Compare next-state functions of paired flip-flops (the scan
    /// model). Disable only for purely combinational netlists.
    pub check_next_state: bool,
    /// Solver conflict budget per proof query; `None` = unlimited. The
    /// SAT sweep that runs at build time uses its own fixed per-pair
    /// budget.
    pub conflict_budget: Option<u64>,
    /// Persistent store consulted for — and extended with — per-pair
    /// sweep lemmas (`alice_store::Kind::Lemma`): internal equivalences
    /// proven by any past sweep, keyed by boundary-labelled cone hashes
    /// so they transfer to novel miters over familiar sub-structures.
    /// A lemma only short-circuits a proof the sweep would have
    /// completed anyway, so — like the budget — this steers wall-clock,
    /// never verdicts, and is excluded from [`miter_fingerprint`].
    pub lemma_store: Option<Arc<Store>>,
}

impl Default for MiterOptions {
    fn default() -> Self {
        MiterOptions {
            key_prefixes: vec!["cfg_".to_string()],
            state_rename: HashMap::new(),
            pin_inputs: Vec::new(),
            pin_state: Vec::new(),
            check_next_state: true,
            conflict_budget: None,
            lemma_store: None,
        }
    }
}

/// A deterministic, *name-free* 128-bit fingerprint of the equivalence
/// query `(a, b, opts)` — the key of the persistent CEC proof cache.
///
/// Two queries get the same fingerprint exactly when they pose the same
/// verification question up to renaming: the netlists'
/// [name-free structural hashes](Netlist::structural_hash_namefree)
/// plus the *resolved* boundary binding expressed in ordinals — which
/// golden input/output port pairs with which revised position, which
/// revised register is pinned to what value, which pairs with which
/// golden register (after [`MiterOptions::state_rename`]), whether
/// next-state functions are compared, and the key-prefix set (it
/// decides whether revised-only boundary material is tolerated as key
/// or a build error). The solver budget and the
/// [`MiterOptions::lemma_store`] handle are deliberately excluded: they
/// affect how long a proof takes, never what verdict is sound, so a
/// cached `Equivalent` stays valid across them.
///
/// Infallible by design — a pair the miter would reject still
/// fingerprints fine (the mismatch is hashed as an unpaired marker);
/// failed builds are simply never cached.
pub fn miter_fingerprint(a: &Netlist, b: &Netlist, opts: &MiterOptions) -> (u64, u64) {
    const UNPAIRED: u64 = u64::MAX;
    let mut h = StableHasher::new();
    let (s0, s1) = a.structural_hash_namefree();
    h.write_u64(s0);
    h.write_u64(s1);
    let (s0, s1) = b.structural_hash_namefree();
    h.write_u64(s0);
    h.write_u64(s1);

    // Input pairing: for each golden port (in order), the revised port
    // position it binds to.
    let b_in_pos: HashMap<Symbol, u64> = b
        .inputs
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i as u64))
        .collect();
    h.write_u64(a.inputs.len() as u64);
    for (name, bits) in &a.inputs {
        h.write_u64(b_in_pos.get(name).copied().unwrap_or(UNPAIRED));
        h.write_u64(bits.len() as u64);
    }

    // Pinned revised inputs, by revised position (sorted, so the
    // fingerprint is independent of the options' list order).
    let mut pins: Vec<(u64, &[bool])> = opts
        .pin_inputs
        .iter()
        .map(|(n, v)| (b_in_pos.get(n).copied().unwrap_or(UNPAIRED), v.as_slice()))
        .collect();
    pins.sort();
    h.write_u64(pins.len() as u64);
    for (pos, vals) in pins {
        h.write_u64(pos);
        h.write_u64(vals.len() as u64);
        for &v in vals {
            h.write_u32(v as u32);
        }
    }

    // Output pairing, golden ordinal → revised ordinal.
    let b_out_pos: HashMap<Symbol, u64> = b
        .outputs
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i as u64))
        .collect();
    h.write_u64(a.outputs.len() as u64);
    for (name, bits) in &a.outputs {
        h.write_u64(b_out_pos.get(name).copied().unwrap_or(UNPAIRED));
        h.write_u64(bits.len() as u64);
    }

    // Revised state, in dff order: pinned value, paired golden ordinal
    // (after renaming), or free key state.
    let a_ord: HashMap<Symbol, u64> = a
        .dff_records()
        .iter()
        .enumerate()
        .map(|(i, &(_, n, _, _))| (n, i as u64))
        .collect();
    let pin_state: HashMap<Symbol, bool> = opts.pin_state.iter().copied().collect();
    let b_records = b.dff_records();
    h.write_u64(b_records.len() as u64);
    for &(_, name, _, _) in &b_records {
        if let Some(&v) = pin_state.get(&name) {
            h.write_u32(0);
            h.write_u32(v as u32);
        } else {
            let golden = opts.state_rename.get(&name).copied().unwrap_or(name);
            match a_ord.get(&golden) {
                Some(&g) => {
                    h.write_u32(1);
                    h.write_u64(g);
                }
                None => h.write_u32(2),
            }
        }
    }
    h.write_u64(a.dff_records().len() as u64);
    h.write_u32(opts.check_next_state as u32);
    // Key prefixes decide whether a revised-only non-key output is an
    // error or tolerated, so they are part of the query's meaning
    // (hashed as a sorted set — matching is any-of, order-free).
    let mut prefixes: Vec<&str> = opts.key_prefixes.iter().map(String::as_str).collect();
    prefixes.sort_unstable();
    h.write_u64(prefixes.len() as u64);
    for p in prefixes {
        h.write_str(p);
    }
    h.finish()
}

fn is_key_name(name: Symbol, prefixes: &[String]) -> bool {
    // A key name matches a prefix on its last hierarchical segment (the
    // register or port's own name) or on the whole path.
    let name = name.as_str();
    let last = name.rsplit('.').next().unwrap_or(name);
    prefixes
        .iter()
        .any(|p| name.starts_with(p) || last.starts_with(p))
}

/// Registers of `n` whose Q is in the combinational support of a
/// compared difference point: an output bit, or the next-state function
/// of a register in `next_roots` (the paired ones). Traversal stops at
/// flip-flop boundaries — in the single-cycle miter every register's Q
/// is a free state variable, so only direct support matters; a register
/// outside this set cannot influence any compared point and may be
/// dropped from the shared state.
fn observed_registers(n: &Netlist, next_roots: &BTreeSet<Symbol>) -> BTreeSet<Symbol> {
    let records = n.dff_records();
    let name_of: HashMap<NodeId, Symbol> = records.iter().map(|&(id, nm, _, _)| (id, nm)).collect();
    let mut stack: Vec<NodeId> = n
        .outputs
        .iter()
        .flat_map(|(_, lits)| lits.iter().map(|l| l.node()))
        .collect();
    stack.extend(
        records
            .iter()
            .filter(|(_, nm, _, _)| next_roots.contains(nm))
            .map(|&(_, _, d, _)| d.node()),
    );
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut observed = BTreeSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Some(&nm) = name_of.get(&id) {
            // Reached a Q: record it, but don't cross into its D cone.
            observed.insert(nm);
            continue;
        }
        for f in n.node(id).fanins() {
            stack.push(f.node());
        }
    }
    observed
}

/// Hashes a boundary leaf's *role* in the miter — shared-input ordinal,
/// pinned constant value, free-key ordinal, golden-state ordinal — into
/// the 128-bit label the sweeper's cone hashes are built over. Two
/// leaves get the same label exactly when every miter binds them the
/// same way (same shared variable, same constant, same free key slot),
/// which is what makes persisted sweep lemmas transferable across
/// miters: a lemma proven under one set of pinned key bits still names
/// the same boundary functions in any miter that reproduces the labels.
fn boundary_label(role: &str, ord: u64, bit: u64) -> ConeHash {
    let mut h = StableHasher::new();
    h.write_str(role);
    h.write_u64(ord);
    h.write_u64(bit);
    h.finish()
}

/// The composed miter, ready to solve.
pub struct Miter {
    solver: Solver,
    shared_inputs: Vec<(Symbol, Vec<Lit>)>,
    shared_state: Vec<(Symbol, Lit)>,
    key_inputs: Vec<(Symbol, Vec<Lit>)>,
    key_state: Vec<(Symbol, Lit)>,
    /// Difference points: `(name, xor-literal)`.
    diffs: Vec<(String, Lit)>,
    /// The encoder's constant-true literal (to recognize folded diffs).
    tru: Lit,
    sweep_stats: SweepStats,
    budget: Option<u64>,
}

/// The miter body shared by [`Miter`] and [`KeyedMiter`]: boundary
/// literals, difference points, and the sweep outcome, with the solver
/// owned by the caller.
struct MiterCore {
    shared_inputs: Vec<(Symbol, Vec<Lit>)>,
    shared_state: Vec<(Symbol, Lit)>,
    key_inputs: Vec<(Symbol, Vec<Lit>)>,
    key_state: Vec<(Symbol, Lit)>,
    /// Keyed mode only: the `pin_state` registers left free, in revised
    /// `dff_records` order, each with its assumption-slot literal.
    key_slots: Vec<(Symbol, Lit)>,
    diffs: Vec<(String, Lit)>,
    tru: Lit,
    sweep_stats: SweepStats,
}

/// Encodes the miter of `a` against `b` into `s`.
///
/// `keyed = false` is the classic path: [`MiterOptions::pin_state`]
/// registers fold to constants at encode time. `keyed = true` leaves
/// them as *free* variables instead, recording one assumption slot per
/// register, so the caller can pose per-key queries as assumption sets
/// over one long-lived solver. Free key slots label their sweep cones
/// exactly like ordinary free key state (`keystate` by revised ordinal):
/// a lemma proven with the key free holds for every key, so it is sound
/// wherever a free-key lemma is.
fn assemble(
    s: &mut Solver,
    a: &Netlist,
    b: &Netlist,
    opts: &MiterOptions,
    keyed: bool,
) -> Result<MiterCore, MiterError> {
    let mut enc = Encoder::new(s);
    // Deterministic signature words for the sweeping pass, built in
    // lockstep with the literal bindings: shared literal ⇒ shared
    // word, pinned literal ⇒ constant word.
    let mut rng: u64 = 0x5EED_A11C_E000_0001 ^ (a.len() as u64) << 1 ^ b.len() as u64;
    let mut wbind_a: HashMap<Symbol, Vec<Sig>> = HashMap::new();
    let mut wbind_b: HashMap<Symbol, Vec<Sig>> = HashMap::new();
    // Boundary labels for the persisted-lemma cone hashes, also in
    // lockstep: shared inputs label by golden ordinal, pins by their
    // constant value, free key inputs/state by revised ordinal.
    let mut labels_a: HashMap<Symbol, Vec<ConeHash>> = HashMap::new();
    let mut labels_b: HashMap<Symbol, Vec<ConeHash>> = HashMap::new();
    let mut slabels_a: HashMap<Symbol, ConeHash> = HashMap::new();
    let mut slabels_b: HashMap<Symbol, ConeHash> = HashMap::new();

    // --- Shared inputs: allocate once, bind into both encodes. ---
    let b_in_widths: HashMap<Symbol, usize> =
        b.inputs.iter().map(|(n, bits)| (*n, bits.len())).collect();
    let mut bind_a: HashMap<Symbol, Vec<Lit>> = HashMap::new();
    let mut bind_b: HashMap<Symbol, Vec<Lit>> = HashMap::new();
    let mut shared_inputs = Vec::new();
    for (pi, (name, bits)) in a.inputs.iter().enumerate() {
        match b_in_widths.get(name) {
            None => return Err(MiterError::MissingInput(name.to_string())),
            Some(&w) if w != bits.len() => return Err(MiterError::WidthMismatch(name.to_string())),
            Some(_) => {}
        }
        let lits: Vec<Lit> = bits.iter().map(|_| enc.fresh(s)).collect();
        let words: Vec<Sig> = bits.iter().map(|_| random_sig(&mut rng)).collect();
        bind_a.insert(*name, lits.clone());
        bind_b.insert(*name, lits.clone());
        wbind_a.insert(*name, words.clone());
        wbind_b.insert(*name, words);
        let labels: Vec<ConeHash> = (0..bits.len())
            .map(|j| boundary_label("in", pi as u64, j as u64))
            .collect();
        labels_a.insert(*name, labels.clone());
        labels_b.insert(*name, labels);
        shared_inputs.push((*name, lits));
    }

    // --- Pinned revised inputs (e.g. cfg_en = 0). ---
    for (name, vals) in &opts.pin_inputs {
        let Some(&w) = b_in_widths.get(name) else {
            return Err(MiterError::UnknownPin(name.to_string()));
        };
        if w != vals.len() {
            return Err(MiterError::WidthMismatch(name.to_string()));
        }
        let consts: Vec<Lit> = vals
            .iter()
            .map(|&v| if v { enc.tru() } else { enc.fls() })
            .collect();
        bind_b.insert(*name, consts);
        wbind_b.insert(*name, vals.iter().map(|&v| const_sig(v)).collect());
        // A pinned bit is the constant function of its value: the
        // value alone identifies it, so lemmas over cones that read
        // it survive any renaming — but not a changed pin value.
        labels_b.insert(
            *name,
            vals.iter()
                .map(|&v| boundary_label("pin", v as u64, 0))
                .collect(),
        );
    }

    // --- Remaining revised-only inputs are free key inputs. ---
    let mut key_inputs = Vec::new();
    for (bi, (name, bits)) in b.inputs.iter().enumerate() {
        if bind_b.contains_key(name) {
            continue;
        }
        // Revised-only inputs (key or otherwise) stay free: a free
        // input can only produce spurious differences, never a false
        // Equivalent, so this is conservative for non-key extras.
        let lits: Vec<Lit> = bits.iter().map(|_| enc.fresh(s)).collect();
        bind_b.insert(*name, lits.clone());
        wbind_b.insert(*name, bits.iter().map(|_| random_sig(&mut rng)).collect());
        labels_b.insert(
            *name,
            (0..bits.len())
                .map(|j| boundary_label("key", bi as u64, j as u64))
                .collect(),
        );
        key_inputs.push((*name, lits));
    }

    // --- Golden state: fresh shared Q variables. ---
    let mut state_a: HashMap<Symbol, Lit> = HashMap::new();
    let mut wstate_a: HashMap<Symbol, Sig> = HashMap::new();
    let mut shared_state = Vec::new();
    for (gi, (_, name, _, _)) in a.dff_records().into_iter().enumerate() {
        let q = enc.fresh(s);
        state_a.insert(name, q);
        wstate_a.insert(name, random_sig(&mut rng));
        slabels_a.insert(name, boundary_label("state", gi as u64, 0));
        shared_state.push((name, q));
    }

    // --- Revised state: renamed pairing, pins, free key state. ---
    let pin_state: HashMap<Symbol, bool> = opts.pin_state.iter().copied().collect();
    let b_records = b.dff_records();
    let b_names: BTreeSet<Symbol> = b_records.iter().map(|&(_, n, _, _)| n).collect();
    for name in pin_state.keys() {
        if !b_names.contains(name) {
            return Err(MiterError::UnknownPin(name.to_string()));
        }
    }
    let mut state_b: HashMap<Symbol, Lit> = HashMap::new();
    let mut wstate_b: HashMap<Symbol, Sig> = HashMap::new();
    let mut key_state = Vec::new();
    let mut key_slots: Vec<(Symbol, Lit)> = Vec::new();
    let mut paired: Vec<(Symbol, Symbol)> = Vec::new(); // (golden, revised)
    for (bi, &(_, name, _, _)) in b_records.iter().enumerate() {
        let golden = opts.state_rename.get(&name).copied().unwrap_or(name);
        if let Some(&v) = pin_state.get(&name) {
            if keyed {
                // Assumption slot: the register stays a free
                // variable (the pinned *value* is ignored here — the
                // caller supplies it per query), labelled like any
                // other free key state so sweep lemmas stay sound
                // for every key.
                let q = enc.fresh(s);
                state_b.insert(name, q);
                wstate_b.insert(name, random_sig(&mut rng));
                slabels_b.insert(name, boundary_label("keystate", bi as u64, 0));
                key_state.push((name, q));
                key_slots.push((name, q));
            } else {
                let l = if v { enc.tru() } else { enc.fls() };
                state_b.insert(name, l);
                wstate_b.insert(name, const_sig(v));
                slabels_b.insert(name, boundary_label("pin", v as u64, 0));
                key_state.push((name, l));
            }
        } else if let Some(&q) = state_a.get(&golden) {
            state_b.insert(name, q);
            wstate_b.insert(name, wstate_a[&golden]);
            slabels_b.insert(name, slabels_a[&golden]);
            paired.push((golden, name));
        } else {
            let q = enc.fresh(s);
            state_b.insert(name, q);
            wstate_b.insert(name, random_sig(&mut rng));
            slabels_b.insert(name, boundary_label("keystate", bi as u64, 0));
            key_state.push((name, q));
        }
    }
    // Every *observable* golden register must be covered, or its
    // next-state check would silently vanish. A register outside the
    // support of every compared point — a write-only counter, say,
    // which LUT mapping rightly prunes from the revised side — is
    // dead weight: excluding it from the shared state is sound (the
    // proof then holds for *all* values of the dropped Q), so it is
    // dropped rather than reported as a pairing failure.
    let covered: BTreeSet<Symbol> = paired.iter().map(|&(g, _)| g).collect();
    let observed = observed_registers(a, &covered);
    for &(name, _) in &shared_state {
        if !covered.contains(&name) && observed.contains(&name) {
            return Err(MiterError::UnpairedState(name.to_string()));
        }
    }
    shared_state.retain(|(name, _)| covered.contains(name) || observed.contains(name));

    // --- Encode both sides against the shared encoder. ---
    let (enc_a, enc_b) = {
        let _span = alice_obs::span("cec.encode");
        (
            enc.encode(s, a, &bind_a, &state_a),
            enc.encode(s, b, &bind_b, &state_b),
        )
    };

    // --- SAT sweeping: stitch matching internal nodes together. ---
    let sweep_stats = sweep(
        s,
        &mut enc,
        &SweepSide {
            n: a,
            input_lits: &bind_a,
            state_lits: &state_a,
            input_base: &wbind_a,
            state_base: &wstate_a,
            input_labels: &labels_a,
            state_labels: &slabels_a,
            node_lits: &enc_a.node_lits,
        },
        &SweepSide {
            n: b,
            input_lits: &bind_b,
            state_lits: &state_b,
            input_base: &wbind_b,
            state_base: &wstate_b,
            input_labels: &labels_b,
            state_labels: &slabels_b,
            node_lits: &enc_b.node_lits,
        },
        opts.lemma_store.as_deref(),
    );

    // --- Difference points: outputs... ---
    let b_outs: HashMap<Symbol, &Vec<Lit>> = enc_b.outputs.iter().map(|(n, l)| (*n, l)).collect();
    let mut diffs = Vec::new();
    for (name, lits_a) in &enc_a.outputs {
        let Some(lits_b) = b_outs.get(name) else {
            return Err(MiterError::MissingOutput(name.to_string()));
        };
        if lits_b.len() != lits_a.len() {
            return Err(MiterError::WidthMismatch(name.to_string()));
        }
        for (bit, (&la, &lb)) in lits_a.iter().zip(lits_b.iter()).enumerate() {
            let d = enc.xor(s, la, lb);
            diffs.push((format!("{name}[{bit}]"), d));
        }
    }
    let a_out_names: BTreeSet<Symbol> = enc_a.outputs.iter().map(|(n, _)| *n).collect();
    for &(name, _) in &enc_b.outputs {
        if !a_out_names.contains(&name) && !is_key_name(name, &opts.key_prefixes) {
            return Err(MiterError::ExtraOutput(name.to_string()));
        }
    }

    // --- ... and next-state functions of paired registers. ---
    if opts.check_next_state {
        let next_a: HashMap<Symbol, Lit> = enc_a.dffs.iter().map(|d| (d.name, d.next)).collect();
        let next_b: HashMap<Symbol, Lit> = enc_b.dffs.iter().map(|d| (d.name, d.next)).collect();
        for &(golden, revised) in &paired {
            let (na, nb) = (next_a[&golden], next_b[&revised]);
            let d = enc.xor(s, na, nb);
            diffs.push((format!("next({golden})"), d));
        }
    }

    Ok(MiterCore {
        shared_inputs,
        shared_state,
        key_inputs,
        key_state,
        key_slots,
        diffs,
        tru: enc.tru(),
        sweep_stats,
    })
}

/// Reads a [`Counterexample`] out of the solver's current model.
fn extract_model_cex(
    s: &Solver,
    shared_inputs: &[(Symbol, Vec<Lit>)],
    shared_state: &[(Symbol, Lit)],
    key_inputs: &[(Symbol, Vec<Lit>)],
    key_state: &[(Symbol, Lit)],
    diffs_true: Vec<String>,
) -> Box<Counterexample> {
    let port = |ports: &[(Symbol, Vec<Lit>)]| -> Vec<(Symbol, Vec<bool>)> {
        ports
            .iter()
            .map(|(n, lits)| (*n, lits.iter().map(|&l| model_value(s, l)).collect()))
            .collect()
    };
    let bits = |regs: &[(Symbol, Lit)]| -> Vec<(Symbol, bool)> {
        regs.iter().map(|(n, l)| (*n, model_value(s, *l))).collect()
    };
    Box::new(Counterexample {
        inputs: port(shared_inputs),
        state: bits(shared_state),
        key_inputs: port(key_inputs),
        key_state: bits(key_state),
        diffs: diffs_true,
    })
}

/// Difference points that are true under the solver's current model.
fn model_diff_names_of(s: &Solver, diffs: &[(String, Lit)]) -> Vec<String> {
    diffs
        .iter()
        .filter(|&&(_, d)| model_value(s, d))
        .map(|(n, _)| n.clone())
        .collect()
}

impl Miter {
    /// Builds the miter of golden `a` against revised `b`.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError`] when the two netlists' boundaries cannot be
    /// paired (see the variants for the exact conditions).
    pub fn build(a: &Netlist, b: &Netlist, opts: &MiterOptions) -> Result<Miter, MiterError> {
        let _span = alice_obs::span("cec.build");
        let mut solver = Solver::new();
        let core = assemble(&mut solver, a, b, opts, false)?;
        Ok(Miter {
            solver,
            shared_inputs: core.shared_inputs,
            shared_state: core.shared_state,
            key_inputs: core.key_inputs,
            key_state: core.key_state,
            diffs: core.diffs,
            tru: core.tru,
            sweep_stats: core.sweep_stats,
            budget: opts.conflict_budget,
        })
    }

    /// Number of compared difference points (output bits + paired
    /// next-state functions).
    pub fn diff_points(&self) -> usize {
        self.diffs.len()
    }

    /// CNF statistics: `(variables, clauses)` of the composed miter.
    pub fn cnf_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    fn extract_cex(&self, diffs_true: Vec<String>) -> Box<Counterexample> {
        extract_model_cex(
            &self.solver,
            &self.shared_inputs,
            &self.shared_state,
            &self.key_inputs,
            &self.key_state,
            diffs_true,
        )
    }

    /// Statistics of the SAT-sweeping pass that ran at build time.
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep_stats
    }

    /// Proves equivalence over all difference points, one assumption
    /// query per point (learned clauses are shared across queries).
    pub fn prove(self) -> CecResult {
        self.prove_with_stats().0
    }

    /// [`Miter::prove`], also reporting the solver's total search
    /// effort (sweeping plus the proof itself).
    pub fn prove_with_stats(mut self) -> (CecResult, EngineStats) {
        let r = self.prove_inner();
        (r, self.solver.stats())
    }

    fn prove_inner(&mut self) -> CecResult {
        let _span = alice_obs::span("cec.prove");
        self.solver.conflict_budget = self.budget;
        let mut limited = false;
        for i in 0..self.diffs.len() {
            let d = self.diffs[i].1;
            if self.is_const_false(d) {
                continue; // folded to the same literal — trivially equal
            }
            if d == self.tru {
                // Folded to provably different — the verdict needs no
                // search. Solve without a budget for a witness model
                // (circuit-consistency CNF alone is always satisfiable);
                // if that somehow fails, still report the folded points.
                self.solver.conflict_budget = None;
                let names = if self.solver.solve() == SatResult::Sat {
                    self.model_diff_names()
                } else {
                    self.diffs
                        .iter()
                        .filter(|&&(_, p)| p == self.tru)
                        .map(|(n, _)| n.clone())
                        .collect()
                };
                return CecResult::NotEquivalent(self.extract_cex(names));
            }
            match self.solver.solve_with(&[d]) {
                SatResult::Unsat => {}
                SatResult::Unknown => limited = true,
                SatResult::Sat => {
                    let names = self.model_diff_names();
                    return CecResult::NotEquivalent(self.extract_cex(names));
                }
            }
        }
        if limited {
            CecResult::ResourceLimit
        } else {
            CecResult::Equivalent
        }
    }

    /// Computes the exact set of corruptible difference points under the
    /// current constraints (each marked point disagrees for some input;
    /// when `complete`, every unmarked point is proven to always agree).
    ///
    /// Every SAT model marks *all* points that differ under it, so the
    /// number of solver calls is bounded by the number of corruptible
    /// points plus the number of clean points.
    pub fn corruption(mut self) -> Corruption {
        let _span = alice_obs::span("cec.corruption");
        self.solver.conflict_budget = self.budget;
        let total = self.diffs.len();
        let mut corrupted: BTreeSet<String> = BTreeSet::new();
        let mut complete = true;
        for i in 0..self.diffs.len() {
            let (name, d) = self.diffs[i].clone();
            if corrupted.contains(&name) || self.is_const_false(d) {
                continue;
            }
            if d == self.tru {
                corrupted.insert(name);
                continue;
            }
            match self.solver.solve_with(&[d]) {
                SatResult::Unsat => {}
                SatResult::Unknown => complete = false,
                SatResult::Sat => {
                    for n in self.model_diff_names() {
                        corrupted.insert(n);
                    }
                }
            }
        }
        Corruption {
            corrupted,
            total,
            complete,
        }
    }

    fn is_const_false(&self, d: Lit) -> bool {
        d == self.tru.negate()
    }

    fn model_diff_names(&self) -> Vec<String> {
        model_diff_names_of(&self.solver, &self.diffs)
    }
}

/// An assumption-parameterized key miter: the golden/revised pair
/// encoded **once** with the bitstream registers left as *free*
/// variables, so the correct-key equivalence proof and every wrong-key
/// corruption analysis become [`Solver::solve_with`] calls on one
/// long-lived solver. Learned clauses, sweep-derived equalities,
/// variable activities, and saved phases all transfer across keys —
/// the per-key cost is one assumption solve instead of a fresh Tseitin
/// encode plus a cold CDCL search.
///
/// The registers named by [`MiterOptions::pin_state`] define the
/// assumption *slots* (their pinned values are ignored at build time);
/// every query supplies concrete values for some or all slots via
/// [`KeyedMiter::prove`] / [`KeyedMiter::corruption`]. Slots a query
/// leaves unnamed stay free, so the verdict then covers every value of
/// the unnamed bits — the attacker's view, exactly as in a keyless
/// [`Miter`].
///
/// # Equivalence with the pinned-constant path
///
/// For any complete key, `prove`/`corruption` return *bit-identical*
/// verdicts and corruption sets to a fresh [`Miter`] built with the
/// same bits in [`MiterOptions::pin_state`]: both paths compute exact
/// answers to the same logical query, and assumptions constrain the
/// free key bits to precisely the pinned constants. What changes is
/// only wall-clock — the keyed CNF keeps the configuration mux trees
/// the pinned encode would have constant-folded, and in exchange
/// amortizes encode and search effort across all N keys of a sweep.
pub struct KeyedMiter {
    solver: Solver,
    shared_inputs: Vec<(Symbol, Vec<Lit>)>,
    shared_state: Vec<(Symbol, Lit)>,
    key_inputs: Vec<(Symbol, Vec<Lit>)>,
    key_state: Vec<(Symbol, Lit)>,
    key_slots: Vec<(Symbol, Lit)>,
    slot_of: HashMap<Symbol, Lit>,
    diffs: Vec<(String, Lit)>,
    tru: Lit,
    sweep_stats: SweepStats,
    budget: Option<u64>,
}

impl KeyedMiter {
    /// Builds the keyed miter of golden `a` against revised `b`.
    ///
    /// The fourth argument is unused. It is kept only so that existing
    /// callers still compile, and will be removed.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError`] when the two netlists' boundaries cannot
    /// be paired (the same conditions as [`Miter::build`]).
    pub fn build(
        a: &Netlist,
        b: &Netlist,
        opts: &MiterOptions,
        _unused: usize,
    ) -> Result<KeyedMiter, MiterError> {
        let _span = alice_obs::span("cec.keyed_build");
        let mut solver = Solver::new();
        let core = assemble(&mut solver, a, b, opts, true)?;
        let slot_of = core.key_slots.iter().copied().collect();
        Ok(KeyedMiter {
            solver,
            shared_inputs: core.shared_inputs,
            shared_state: core.shared_state,
            key_inputs: core.key_inputs,
            key_state: core.key_state,
            key_slots: core.key_slots,
            slot_of,
            diffs: core.diffs,
            tru: core.tru,
            sweep_stats: core.sweep_stats,
            budget: opts.conflict_budget,
        })
    }

    /// The assumption slots, in revised `dff_records` order: one
    /// `(register, free literal)` per [`MiterOptions::pin_state`] entry.
    pub fn key_slots(&self) -> &[(Symbol, Lit)] {
        &self.key_slots
    }

    /// Number of compared difference points (output bits + paired
    /// next-state functions).
    pub fn diff_points(&self) -> usize {
        self.diffs.len()
    }

    /// CNF statistics: `(variables, clauses)` of the keyed miter.
    pub fn cnf_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Statistics of the SAT-sweeping pass that ran at build time.
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep_stats
    }

    /// Cumulative solver search effort across every query so far.
    pub fn stats(&self) -> EngineStats {
        self.solver.stats()
    }

    /// Lowers a key to its assumption set: one literal per named slot,
    /// positive for `true` bits.
    ///
    /// # Errors
    ///
    /// [`MiterError::UnknownPin`] when `key` names a register that is
    /// not an assumption slot.
    pub fn assumptions(&self, key: &[(Symbol, bool)]) -> Result<Vec<Lit>, MiterError> {
        key.iter()
            .map(|&(name, v)| match self.slot_of.get(&name) {
                Some(&l) => Ok(if v { l } else { l.negate() }),
                None => Err(MiterError::UnknownPin(name.to_string())),
            })
            .collect()
    }

    /// Proves equivalence under `key`, one assumption query per
    /// difference point — the incremental counterpart of
    /// [`Miter::prove`]. The solver is reset to the root afterwards, so
    /// the next key starts from a coherent level-0 state.
    ///
    /// # Errors
    ///
    /// [`MiterError::UnknownPin`] when `key` names an unknown register.
    pub fn prove(&mut self, key: &[(Symbol, bool)]) -> Result<CecResult, MiterError> {
        let mut assumptions = self.assumptions(key)?;
        let _span = alice_obs::span("cec.prove");
        let budget = self.budget;
        self.solver.conflict_budget = budget;
        let mut verdict = None;
        let mut limited = false;
        for i in 0..self.diffs.len() {
            let d = self.diffs[i].1;
            if d == self.tru.negate() {
                continue; // folded to the same literal — trivially equal
            }
            let r = if d == self.tru {
                // Folded to provably different for *every* key: solve
                // only for a witness consistent with this key (the
                // circuit CNF plus a consistent key assignment is
                // always satisfiable), without a budget.
                self.solver.conflict_budget = None;
                let r = self.solver.solve_with(&assumptions);
                self.solver.conflict_budget = budget;
                if r != SatResult::Sat {
                    // No witness after all: still report folded points.
                    let names = self
                        .diffs
                        .iter()
                        .filter(|&&(_, p)| p == self.tru)
                        .map(|(n, _)| n.clone())
                        .collect();
                    verdict = Some(CecResult::NotEquivalent(self.extract_cex(names)));
                    break;
                }
                SatResult::Sat
            } else {
                assumptions.push(d);
                let r = self.solver.solve_with(&assumptions);
                assumptions.pop();
                r
            };
            match r {
                SatResult::Unsat => {}
                SatResult::Unknown => limited = true,
                SatResult::Sat => {
                    let names = self.model_diff_names();
                    verdict = Some(CecResult::NotEquivalent(self.extract_cex(names)));
                    break;
                }
            }
        }
        self.solver.reset_to_root();
        Ok(verdict.unwrap_or(if limited {
            CecResult::ResourceLimit
        } else {
            CecResult::Equivalent
        }))
    }

    /// Computes the exact corruptible-point set under `key` — the
    /// incremental counterpart of [`Miter::corruption`], with identical
    /// semantics (every SAT model marks all points differing under it;
    /// `complete` is false only on budget exhaustion). The solver is
    /// reset to the root afterwards.
    ///
    /// # Errors
    ///
    /// [`MiterError::UnknownPin`] when `key` names an unknown register.
    pub fn corruption(&mut self, key: &[(Symbol, bool)]) -> Result<Corruption, MiterError> {
        let mut assumptions = self.assumptions(key)?;
        let _span = alice_obs::span("cec.corruption");
        self.solver.conflict_budget = self.budget;
        let total = self.diffs.len();
        let mut corrupted: BTreeSet<String> = BTreeSet::new();
        let mut complete = true;
        for i in 0..self.diffs.len() {
            let (name, d) = self.diffs[i].clone();
            if corrupted.contains(&name) || d == self.tru.negate() {
                continue;
            }
            if d == self.tru {
                corrupted.insert(name);
                continue;
            }
            assumptions.push(d);
            let r = self.solver.solve_with(&assumptions);
            assumptions.pop();
            match r {
                SatResult::Unsat => {}
                SatResult::Unknown => complete = false,
                SatResult::Sat => {
                    for n in self.model_diff_names() {
                        corrupted.insert(n);
                    }
                }
            }
        }
        self.solver.reset_to_root();
        Ok(Corruption {
            corrupted,
            total,
            complete,
        })
    }

    fn extract_cex(&self, diffs_true: Vec<String>) -> Box<Counterexample> {
        extract_model_cex(
            &self.solver,
            &self.shared_inputs,
            &self.shared_state,
            &self.key_inputs,
            &self.key_state,
            diffs_true,
        )
    }

    fn model_diff_names(&self) -> Vec<String> {
        model_diff_names_of(&self.solver, &self.diffs)
    }
}

/// Proves `a` equivalent to `b` under default options (no key pins, scan
/// model for sequential logic).
///
/// # Errors
///
/// Returns [`MiterError`] when the netlists' boundaries cannot be paired.
///
/// # Example
///
/// ```
/// use alice_cec::{prove_equivalent, CecResult};
/// use alice_netlist::ir::Netlist;
///
/// let mut n = Netlist::new("xor2");
/// let a = n.add_input("a", 1)[0];
/// let b = n.add_input("b", 1)[0];
/// let y = n.xor(a, b);
/// n.add_output("y", vec![y]);
/// assert_eq!(prove_equivalent(&n, &n), Ok(CecResult::Equivalent));
/// ```
pub fn prove_equivalent(a: &Netlist, b: &Netlist) -> Result<CecResult, MiterError> {
    Ok(Miter::build(a, b, &MiterOptions::default())?.prove())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(flip: bool) -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 4);
        let b = n.add_input("b", 4);
        let mut acc = n.xor(a[0], b[0]);
        for i in 1..4 {
            let x = n.xor(a[i], b[i]);
            acc = n.and(acc, x);
        }
        n.add_output("y", vec![if flip { acc.compl() } else { acc }]);
        n
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let n = xor_chain(false);
        assert_eq!(prove_equivalent(&n, &n), Ok(CecResult::Equivalent));
    }

    #[test]
    fn flipped_output_produces_counterexample() {
        let a = xor_chain(false);
        let b = xor_chain(true);
        match prove_equivalent(&a, &b).expect("builds") {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.diffs, vec!["y[0]".to_string()]);
                assert_eq!(cex.inputs.len(), 2);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn structurally_different_but_equal_circuits() {
        // a^b vs (a&!b)|(!a&b)
        let mut n1 = Netlist::new("x");
        let a = n1.add_input("a", 1)[0];
        let b = n1.add_input("b", 1)[0];
        let y = n1.xor(a, b);
        n1.add_output("y", vec![y]);

        let mut n2 = Netlist::new("x2");
        let a = n2.add_input("a", 1)[0];
        let b = n2.add_input("b", 1)[0];
        let t1 = n2.and(a, b.compl());
        let t2 = n2.and(a.compl(), b);
        let y = n2.or(t1, t2);
        n2.add_output("y", vec![y]);
        assert_eq!(prove_equivalent(&n1, &n2), Ok(CecResult::Equivalent));
    }

    #[test]
    fn sequential_next_state_is_checked() {
        // Register q <= q ^ d, versus a broken copy q <= q & d.
        let build = |broken: bool| {
            let mut n = Netlist::new("s");
            let d = n.add_input("d", 1)[0];
            let q = n.dff("s.q[0]", false);
            let nx = if broken { n.and(q, d) } else { n.xor(q, d) };
            n.set_dff_input(q, nx);
            n.add_output("q", vec![q]);
            n
        };
        let good = build(false);
        let bad = build(true);
        assert_eq!(prove_equivalent(&good, &good), Ok(CecResult::Equivalent));
        match prove_equivalent(&good, &bad).expect("builds") {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.diffs, vec!["next(s.q[0])".to_string()]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn dead_unpaired_golden_register_is_tolerated() {
        // The golden side carries a write-only register (toggles itself,
        // read by nothing) that a pruning revised implementation drops —
        // the classic dead-counter case. The pairing must tolerate it.
        let build = |with_dead: bool| {
            let mut n = Netlist::new("s");
            let d = n.add_input("d", 1)[0];
            let q = n.dff("s.q[0]", false);
            let nx = n.xor(q, d);
            n.set_dff_input(q, nx);
            if with_dead {
                let dead = n.dff("s.dead[0]", false);
                n.set_dff_input(dead, dead.compl());
            }
            n.add_output("q", vec![q]);
            n
        };
        assert_eq!(
            prove_equivalent(&build(true), &build(false)),
            Ok(CecResult::Equivalent)
        );
    }

    #[test]
    fn live_unpaired_golden_register_is_an_error() {
        // Same shape, but the extra register feeds the output: dropping
        // it would silently weaken the proof, so it must stay a hard
        // pairing failure.
        let mut a = Netlist::new("s");
        let d = a.add_input("d", 1)[0];
        let live = a.dff("s.live[0]", false);
        a.set_dff_input(live, d);
        let y = a.xor(live, d);
        a.add_output("y", vec![y]);

        let mut b = Netlist::new("s2");
        let d = b.add_input("d", 1)[0];
        b.add_output("y", vec![d]);
        assert_eq!(
            prove_equivalent(&a, &b),
            Err(MiterError::UnpairedState("s.live[0]".to_string()))
        );
    }

    #[test]
    fn unpaired_register_feeding_a_paired_next_state_is_an_error() {
        // The extra register is invisible at the outputs but drives the
        // D of a paired register — its Q is in a compared next-state
        // cone, so it is observable and must not be dropped.
        let mut a = Netlist::new("s");
        let d = a.add_input("d", 1)[0];
        let hidden = a.dff("s.hidden[0]", false);
        a.set_dff_input(hidden, d);
        let q = a.dff("s.q[0]", false);
        let nx = a.xor(q, hidden);
        a.set_dff_input(q, nx);
        a.add_output("q", vec![q]);

        let mut b = Netlist::new("s2");
        let d = b.add_input("d", 1)[0];
        let q = b.dff("s.q[0]", false);
        let nx = b.xor(q, d);
        b.set_dff_input(q, nx);
        b.add_output("q", vec![q]);
        assert_eq!(
            prove_equivalent(&a, &b),
            Err(MiterError::UnpairedState("s.hidden[0]".to_string()))
        );
    }

    #[test]
    fn key_state_free_vs_pinned() {
        // b computes y = a ^ k where k is a "cfg" register; a computes
        // y = a. Free key: inequivalent. Pinned k=0: equivalent.
        let mut a_nl = Netlist::new("a");
        let ai = a_nl.add_input("a", 1)[0];
        a_nl.add_output("y", vec![ai]);

        let mut b_nl = Netlist::new("b");
        let bi = b_nl.add_input("a", 1)[0];
        let k = b_nl.dff("top.le0.cfg[0]", false);
        b_nl.set_dff_input(k, k);
        let y = b_nl.xor(bi, k);
        b_nl.add_output("y", vec![y]);

        let free = Miter::build(&a_nl, &b_nl, &MiterOptions::default())
            .expect("builds")
            .prove();
        assert!(matches!(free, CecResult::NotEquivalent(_)));

        let opts = MiterOptions {
            pin_state: vec![(Symbol::intern("top.le0.cfg[0]"), false)],
            ..MiterOptions::default()
        };
        let pinned = Miter::build(&a_nl, &b_nl, &opts).expect("builds").prove();
        assert_eq!(pinned, CecResult::Equivalent);
    }

    #[test]
    fn corruption_marks_exactly_the_differing_outputs() {
        // y0 identical, y1 flipped: exactly one of two points corrupts.
        let mut a_nl = Netlist::new("a");
        let ai = a_nl.add_input("a", 2);
        let x = a_nl.xor(ai[0], ai[1]);
        a_nl.add_output("y0", vec![ai[0]]);
        a_nl.add_output("y1", vec![x]);

        let mut b_nl = Netlist::new("b");
        let bi = b_nl.add_input("a", 2);
        let x = b_nl.xor(bi[0], bi[1]);
        b_nl.add_output("y0", vec![bi[0]]);
        b_nl.add_output("y1", vec![x.compl()]);

        let c = Miter::build(&a_nl, &b_nl, &MiterOptions::default())
            .expect("builds")
            .corruption();
        assert!(c.complete);
        assert_eq!(c.total, 2);
        assert_eq!(
            c.corrupted.into_iter().collect::<Vec<_>>(),
            vec!["y1[0]".to_string()]
        );
    }

    #[test]
    fn boundary_mismatches_are_named_errors() {
        let mut a_nl = Netlist::new("a");
        let ai = a_nl.add_input("a", 2);
        a_nl.add_output("y", vec![ai[0]]);

        let mut b_nl = Netlist::new("b");
        let bi = b_nl.add_input("b", 2);
        b_nl.add_output("y", vec![bi[0]]);
        assert_eq!(
            Miter::build(&a_nl, &b_nl, &MiterOptions::default()).err(),
            Some(MiterError::MissingInput("a".to_string()))
        );

        let mut c_nl = Netlist::new("c");
        let ci = c_nl.add_input("a", 3);
        c_nl.add_output("y", vec![ci[0]]);
        assert_eq!(
            Miter::build(&a_nl, &c_nl, &MiterOptions::default()).err(),
            Some(MiterError::WidthMismatch("a".to_string()))
        );
    }

    #[test]
    fn fingerprint_is_name_free_but_binding_sensitive() {
        let build = |in_name: &str, reg: &str, out: &str| {
            let mut n = Netlist::new("t");
            let a = n.add_input(in_name, 2);
            let q = n.dff(reg, false);
            let x = n.xor(a[0], q);
            n.set_dff_input(q, x);
            n.add_output(out, vec![x, a[1]]);
            n
        };
        let a1 = build("a", "t.q[0]", "y");
        let b1 = build("a", "t.q[0]", "y");
        let a2 = build("p", "t.r[0]", "z");
        let b2 = build("p", "t.r[0]", "z");
        let opts = MiterOptions::default();
        // Renaming everything consistently leaves the fingerprint alone.
        assert_eq!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a2, &b2, &opts)
        );
        // Pinning a register changes it.
        let pinned = MiterOptions {
            pin_state: vec![(Symbol::intern("t.q[0]"), true)],
            ..MiterOptions::default()
        };
        assert_ne!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &b1, &pinned)
        );
        // ...and so does the pinned *value* (a different wrong key).
        let pinned_low = MiterOptions {
            pin_state: vec![(Symbol::intern("t.q[0]"), false)],
            ..MiterOptions::default()
        };
        assert_ne!(
            miter_fingerprint(&a1, &b1, &pinned),
            miter_fingerprint(&a1, &b1, &pinned_low)
        );
        // Structure changes change it.
        let mut flipped = build("a", "t.q[0]", "y");
        flipped.outputs[0].1[0] = flipped.outputs[0].1[0].compl();
        assert_ne!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &flipped, &opts)
        );
        // The solver budget does not (a cached verdict is
        // budget-independent).
        let budgeted = MiterOptions {
            conflict_budget: Some(1),
            ..MiterOptions::default()
        };
        assert_eq!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &b1, &budgeted)
        );
        // The key-prefix set does: it changes what would even build.
        let no_prefixes = MiterOptions {
            key_prefixes: Vec::new(),
            ..MiterOptions::default()
        };
        assert_ne!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &b1, &no_prefixes)
        );
        // Cross-wiring the input pairing (same shapes, different binding)
        // changes it: swap which golden port pairs with which revised
        // position by renaming ports asymmetrically.
        let crossed = build("b", "t.q[0]", "y");
        assert_ne!(
            miter_fingerprint(&a1, &crossed, &opts),
            miter_fingerprint(&a1, &b1, &opts),
            "unpaired inputs must not fingerprint like paired ones"
        );
    }

    #[test]
    fn resource_limit_is_reported() {
        // A miter hard enough to exceed a one-conflict budget: two
        // different-looking 6-bit adder-ish structures.
        let build = |swap: bool| {
            let mut n = Netlist::new("t");
            let a = n.add_input("a", 6);
            let b = n.add_input("b", 6);
            let mut carry = alice_netlist::ir::Lit::FALSE;
            let mut outs = Vec::new();
            for i in 0..6 {
                let (x, y) = if swap { (b[i], a[i]) } else { (a[i], b[i]) };
                let s1 = n.xor(x, y);
                let s2 = n.xor(s1, carry);
                let c1 = n.and(x, y);
                let c2 = n.and(s1, carry);
                carry = n.or(c1, c2);
                outs.push(s2);
            }
            n.add_output("s", outs);
            n
        };
        let a_nl = build(false);
        let b_nl = build(true);
        let opts = MiterOptions {
            conflict_budget: Some(0),
            ..MiterOptions::default()
        };
        let r = Miter::build(&a_nl, &b_nl, &opts).expect("builds").prove();
        // Commutated operands strash to the same nodes, so this may fold
        // to Equivalent without search; accept either outcome but never a
        // counterexample.
        assert!(!matches!(r, CecResult::NotEquivalent(_)));
    }

    fn tmp_lemma_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alice-miter-lemma-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// a^b per bit, versus the (a&!b)|(!a&b) decomposition: equivalent,
    /// structurally different, so every bit is real sweep work.
    fn xor_vs_decomposed(width: u32) -> (Netlist, Netlist) {
        let mut n1 = Netlist::new("x");
        let a = n1.add_input("a", width);
        let b = n1.add_input("b", width);
        let ys = (0..width as usize).map(|i| n1.xor(a[i], b[i])).collect();
        n1.add_output("y", ys);

        let mut n2 = Netlist::new("x2");
        let a = n2.add_input("a", width);
        let b = n2.add_input("b", width);
        let ys = (0..width as usize)
            .map(|i| {
                let t1 = n2.and(a[i], b[i].compl());
                let t2 = n2.and(a[i].compl(), b[i]);
                n2.or(t1, t2)
            })
            .collect();
        n2.add_output("y", ys);
        (n1, n2)
    }

    #[test]
    fn warm_lemmas_skip_sweep_proofs() {
        let (a, b) = xor_vs_decomposed(4);
        let dir = tmp_lemma_dir("warm");

        // Cold run: every merge costs a per-pair SAT proof, and the
        // proven lemmas are persisted on flush.
        let store = Arc::new(Store::open(&dir).expect("open"));
        let opts = MiterOptions {
            lemma_store: Some(Arc::clone(&store)),
            ..MiterOptions::default()
        };
        let m = Miter::build(&a, &b, &opts).expect("builds");
        let s1 = m.sweep_stats();
        assert!(s1.merged > 0, "sweep must stitch the xor decompositions");
        assert_eq!(s1.lemma_hits, 0, "cold store cannot serve lemmas");
        assert_eq!(m.prove(), CecResult::Equivalent);
        store.flush().expect("flush");
        drop(store);
        drop(opts);

        // Warm run from a fresh handle (a second process): the same
        // cone pairs are served from the store, skipping their proofs,
        // and the verdict is unchanged.
        let store = Arc::new(Store::open(&dir).expect("reopen"));
        let opts = MiterOptions {
            lemma_store: Some(Arc::clone(&store)),
            ..MiterOptions::default()
        };
        let m = Miter::build(&a, &b, &opts).expect("builds");
        let s2 = m.sweep_stats();
        assert!(s2.lemma_hits > 0, "warm lemmas must be served: {s2:?}");
        assert_eq!(s2.merged, s1.merged, "lemmas change cost, not merges");
        assert!(
            s2.candidates - s2.lemma_hits < s1.candidates,
            "warm run must pose fewer per-pair SAT proofs ({s2:?} vs {s1:?})"
        );
        assert_eq!(m.prove(), CecResult::Equivalent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lemmas_transfer_across_pinned_key_values() {
        // A *novel* miter over familiar sub-structures: the same netlist
        // pair under a different pinned key value. y0 is key-independent
        // xor-vs-decomposition work; y1 reads the cfg register k but is
        // equal to a[0] for either value of k. Lemmas proven for the y0
        // cones under k=0 must warm the k=1 miter even though its
        // whole-miter fingerprint differs.
        let width = 4u32;
        let mut g = Netlist::new("g");
        let a = g.add_input("a", width);
        let b = g.add_input("b", width);
        let ys = (0..width as usize).map(|i| g.xor(a[i], b[i])).collect();
        g.add_output("y0", ys);
        g.add_output("y1", vec![a[0]]);

        let mut r = Netlist::new("r");
        let a = r.add_input("a", width);
        let b = r.add_input("b", width);
        let ys = (0..width as usize)
            .map(|i| {
                let t1 = r.and(a[i], b[i].compl());
                let t2 = r.and(a[i].compl(), b[i]);
                r.or(t1, t2)
            })
            .collect();
        r.add_output("y0", ys);
        let k = r.dff("top.le0.cfg[0]", false);
        r.set_dff_input(k, k);
        let alt = {
            let t1 = r.and(a[0], b[0]);
            let t2 = r.and(a[0], b[0].compl());
            r.or(t1, t2) // == a[0], but not structurally
        };
        let y1 = r.mux(k, a[0], alt);
        r.add_output("y1", vec![y1]);

        let dir = tmp_lemma_dir("crosspin");
        let pin = |v: bool, store: &Arc<Store>| MiterOptions {
            pin_state: vec![(Symbol::intern("top.le0.cfg[0]"), v)],
            lemma_store: Some(Arc::clone(store)),
            ..MiterOptions::default()
        };

        let store = Arc::new(Store::open(&dir).expect("open"));
        let o0 = pin(false, &store);
        let m = Miter::build(&g, &r, &o0).expect("builds");
        let s1 = m.sweep_stats();
        assert!(s1.merged > 0);
        assert_eq!(s1.lemma_hits, 0);
        assert_eq!(m.prove(), CecResult::Equivalent);
        store.flush().expect("flush");
        drop(store);

        let store = Arc::new(Store::open(&dir).expect("reopen"));
        let o1 = pin(true, &store);
        assert_ne!(
            miter_fingerprint(&g, &r, &o0),
            miter_fingerprint(&g, &r, &o1),
            "different pinned key bits must be a whole-miter cache miss"
        );
        let m = Miter::build(&g, &r, &o1).expect("builds");
        let s2 = m.sweep_stats();
        assert!(
            s2.lemma_hits > 0,
            "key-independent lemmas must transfer: {s2:?}"
        );
        assert!(
            s2.candidates - s2.lemma_hits < s1.candidates,
            "warm novel miter must pose fewer per-pair SAT proofs ({s2:?} vs {s1:?})"
        );
        assert_eq!(m.prove(), CecResult::Equivalent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Golden `y = a`; revised `y = a ^ cfg` with a 2-bit cfg chain:
    /// correct key is `cfg[0] = cfg[1] = 0` (any set bit corrupts y).
    fn keyed_pair() -> (Netlist, Netlist, Vec<(Symbol, bool)>) {
        let mut g = Netlist::new("g");
        let a = g.add_input("a", 1)[0];
        g.add_output("y", vec![a]);

        let mut r = Netlist::new("r");
        let a = r.add_input("a", 1)[0];
        let k0 = r.dff("top.le0.cfg[0]", false);
        r.set_dff_input(k0, k0);
        let k1 = r.dff("top.le0.cfg[1]", false);
        r.set_dff_input(k1, k1);
        let k = r.xor(k0, k1);
        let y = r.xor(a, k);
        r.add_output("y", vec![y]);
        let key = vec![
            (Symbol::intern("top.le0.cfg[0]"), false),
            (Symbol::intern("top.le0.cfg[1]"), false),
        ];
        (g, r, key)
    }

    #[test]
    fn keyed_miter_matches_pinned_verdicts_across_keys() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut km = KeyedMiter::build(&g, &r, &base, 1).expect("builds");
        assert_eq!(km.key_slots().len(), 2);
        assert_eq!(km.diff_points(), 1);

        // Every key value, interleaved and repeated: the long-lived
        // solver must keep answering exactly what a fresh pinned miter
        // answers, regardless of what it learned from earlier keys.
        for &(b0, b1) in &[
            (false, false),
            (true, false),
            (false, true),
            (true, true),
            (false, false),
        ] {
            let key = vec![(correct[0].0, b0), (correct[1].0, b1)];
            let pinned = MiterOptions {
                pin_state: key.clone(),
                ..MiterOptions::default()
            };
            let want = Miter::build(&g, &r, &pinned).expect("builds").prove();
            let got = km.prove(&key).expect("known slots");
            assert_eq!(
                got.is_equivalent(),
                want.is_equivalent(),
                "key ({b0},{b1}): keyed {got:?} vs pinned {want:?}"
            );
            let want_c = Miter::build(&g, &r, &pinned).expect("builds").corruption();
            let got_c = km.corruption(&key).expect("known slots");
            assert_eq!(got_c, want_c, "corruption must be bit-identical");
        }
        let stats = km.stats();
        assert!(
            stats.assumption_solves > 0,
            "keyed queries must be incremental: {stats:?}"
        );
    }

    #[test]
    fn keyed_counterexample_reports_the_assumed_key() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut km = KeyedMiter::build(&g, &r, &base, 1).expect("builds");
        let wrong = vec![(correct[0].0, true), (correct[1].0, false)];
        match km.prove(&wrong).expect("known slots") {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.diffs, vec!["y[0]".to_string()]);
                // The witness's key-state values are the assumed key.
                let got: Vec<(Symbol, bool)> = cex.key_state.clone();
                assert_eq!(got, wrong);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn keyed_partial_keys_and_unknown_slots() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut km = KeyedMiter::build(&g, &r, &base, 1).expect("builds");
        // A slot left free makes the query cover every value of that
        // bit: some value corrupts y, so this cannot be Equivalent.
        let partial = vec![(correct[0].0, false)];
        assert!(matches!(
            km.prove(&partial).expect("known slot"),
            CecResult::NotEquivalent(_)
        ));
        // ...and the complete correct key still proves afterwards.
        assert_eq!(km.prove(&correct).expect("known"), CecResult::Equivalent);
        // Unknown names are rejected, not silently ignored.
        let bogus = vec![(Symbol::intern("top.le9.cfg[7]"), true)];
        assert_eq!(
            km.prove(&bogus).err(),
            Some(MiterError::UnknownPin("top.le9.cfg[7]".to_string()))
        );
    }
}
