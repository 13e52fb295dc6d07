//! SAT sweeping: proving internal equivalences bottom-up before the
//! output miter is attempted.
//!
//! A plain miter over an original design and its LUT-mapped twin asks the
//! solver to rediscover, output by output, that every LUT computes the
//! cone it replaced — which blows up on arithmetic (a redacted multiplier
//! is the classic worst case). The classic fix, and what ABC's `cec`
//! does, is to work inside-out:
//!
//! 1. simulate both netlists on shared random words and group internal
//!    nodes by signature (up to complement),
//! 2. for each revised-side node whose signature matches a golden-side
//!    node, ask the solver — under an assumption, so failures leave no
//!    trace — whether the two literals can differ,
//! 3. when they cannot, assert the equality as a unit lemma.
//!
//! Random patterns alone are not enough: rarely-toggling signals (carry
//! outs, saturation flags) alias, and refuting such a false candidate is
//! itself a hard SAT call. So the pass is counterexample-guided: every
//! SAT answer's model is captured as a fresh simulation pattern, and the
//! next round re-partitions the signature classes with it — one witness
//! typically dissolves an entire family of false candidates. Candidates
//! are processed in topological order so each proof runs with its fanin
//! lemmas already in the clause database and stays local.
//!
//! **Persisted lemmas.** With a lemma store attached
//! ([`crate::miter::MiterOptions::lemma_store`]), every per-pair proof
//! consults — and on success extends — a cross-process cache keyed by
//! the pair's *boundary-labelled cone hashes* (`lemma_key`): a
//! name-free structural hash of each candidate's combinational cone,
//! whose leaves are labelled by their miter-boundary role (shared-input
//! ordinal, pinned *value*, key ordinal). The label scheme makes a hit
//! sound by construction: equal keys mean the two cones compute the
//! same pair of functions over identically-labelled leaves that the
//! solver once proved equal for *all* leaf valuations (pinned leaves
//! fold their constant value into the label, so a lemma never outlives
//! the pin value it depended on). A novel miter over the same netlist
//! pair with *different* pinned key bits therefore reuses every lemma
//! whose cones don't read the changed pins — it starts warm even though
//! its whole-miter fingerprint misses.

use crate::cache;
use crate::encode::{model_value, Encoder};
use alice_attacks::solver::{Lit, SatResult, Solver};
use alice_intern::{StableHasher, Symbol};
use alice_netlist::ir::{Lit as NLit, Netlist, Node};
use alice_store::Store;
use std::collections::{HashMap, HashSet};

/// Base signature: two 64-bit words = 128 random patterns. Refinement
/// rounds append more words.
pub(crate) type Sig = [u64; 2];

/// Per-port signature words (one growable word vector per bit).
type PortWords = HashMap<Symbol, Vec<Vec<u64>>>;
/// Per-register signature words.
type StateWords = HashMap<Symbol, Vec<u64>>;

/// Refinement rounds (beyond the first) before giving up on remaining
/// false candidates.
const MAX_ROUNDS: usize = 4;

/// Counterexample patterns captured per round (one extra word).
const CEX_PER_ROUND: usize = 64;

/// Conflict budget of each per-pair proof. Pairs the budget gives up on
/// are simply left unmerged.
const PAIR_CONFLICT_BUDGET: u64 = 2_000;

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(crate) fn random_sig(rng: &mut u64) -> Sig {
    [splitmix64(rng), splitmix64(rng)]
}

pub(crate) fn const_sig(v: bool) -> Sig {
    if v {
        [u64::MAX; 2]
    } else {
        [0; 2]
    }
}

/// Word-parallel simulation of `n` over arbitrarily many 64-bit words
/// per boundary bit. `input_words`/`state_words` mirror the literal
/// bindings used for CNF encoding (shared ports get shared words, pins
/// get constant words), so equal signatures are meaningful across two
/// netlists. Returns one word vector per node.
pub(crate) fn sim_words(
    n: &Netlist,
    input_words: &PortWords,
    state_words: &StateWords,
    words: usize,
) -> Vec<Vec<u64>> {
    let order = n.comb_topo_order().expect("acyclic netlist");
    let mut val: Vec<Vec<u64>> = vec![vec![0; words]; n.len()];
    for (name, bits) in &n.inputs {
        let port = &input_words[name];
        for (&id, w) in bits.iter().zip(port) {
            val[id.0 as usize] = w.clone();
        }
    }
    for (id, name, _, _) in n.dff_records() {
        val[id.0 as usize] = state_words[&name].clone();
    }
    let get = |val: &[Vec<u64>], l: NLit, k: usize| -> u64 {
        let w = val[l.node().0 as usize][k];
        if l.is_compl() {
            !w
        } else {
            w
        }
    };
    for id in order {
        let idx = id.0 as usize;
        match n.node(id) {
            Node::Const0 | Node::Input { .. } | Node::Dff { .. } => continue,
            Node::Buf(a) => {
                let a = *a;
                for k in 0..words {
                    val[idx][k] = get(&val, a, k);
                }
            }
            Node::And(a, b) => {
                let (a, b) = (*a, *b);
                for k in 0..words {
                    val[idx][k] = get(&val, a, k) & get(&val, b, k);
                }
            }
            Node::Xor(a, b) => {
                let (a, b) = (*a, *b);
                for k in 0..words {
                    val[idx][k] = get(&val, a, k) ^ get(&val, b, k);
                }
            }
            Node::Mux { s, t, e } => {
                let (s, t, e) = (*s, *t, *e);
                for k in 0..words {
                    let c = get(&val, s, k);
                    val[idx][k] = (c & get(&val, t, k)) | (!c & get(&val, e, k));
                }
            }
        }
    }
    val
}

/// Complement-canonical form: clear pattern 0 and adjust the literal so
/// equal canonical pairs are equal literals.
fn canon(mut w: Vec<u64>, l: Lit) -> (Vec<u64>, Lit) {
    if w[0] & 1 == 1 {
        for x in &mut w {
            *x = !*x;
        }
        (w, l.negate())
    } else {
        (w, l)
    }
}

/// Sweep statistics (surfaced for reporting/tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Candidate pairs whose equality was attempted (across all rounds).
    pub candidates: usize,
    /// Pairs proven equal and asserted as unit lemmas.
    pub merged: usize,
    /// Merges served from the persistent lemma store — candidates whose
    /// per-pair SAT proof was skipped entirely. Every remaining
    /// candidate (`candidates - lemma_hits`) cost a solver call.
    pub lemma_hits: usize,
    /// Pairs the per-pair budget gave up on in the final round.
    pub undecided: usize,
    /// Refinement rounds run.
    pub rounds: usize,
}

/// A 128-bit boundary label (see `crate::miter`'s label construction)
/// or cone hash.
pub(crate) type ConeHash = (u64, u64);

/// The per-netlist boundary handles the sweep needs: literal bindings (to
/// read counterexample models), base signature words, and boundary
/// labels (for the persistent lemma cache), all in lockstep.
pub(crate) struct SweepSide<'a> {
    pub n: &'a Netlist,
    pub input_lits: &'a HashMap<Symbol, Vec<Lit>>,
    pub state_lits: &'a HashMap<Symbol, Lit>,
    pub input_base: &'a HashMap<Symbol, Vec<Sig>>,
    pub state_base: &'a HashMap<Symbol, Sig>,
    pub input_labels: &'a HashMap<Symbol, Vec<ConeHash>>,
    pub state_labels: &'a HashMap<Symbol, ConeHash>,
    pub node_lits: &'a [Lit],
}

fn hash_parts(tag: &str, parts: &[ConeHash]) -> ConeHash {
    let mut h = StableHasher::new();
    h.write_str(tag);
    for &(x, y) in parts {
        h.write_u64(x);
        h.write_u64(y);
    }
    h.finish()
}

/// Hash of the function a *literal* denotes: the cone hash of its node
/// plus the complement flag.
fn lit_hash(cones: &[ConeHash], l: NLit) -> ConeHash {
    let base = cones[l.node().0 as usize];
    let mut h = StableHasher::new();
    h.write_str("lit");
    h.write_u64(base.0);
    h.write_u64(base.1);
    h.write_u32(l.is_compl() as u32);
    h.finish()
}

/// Per-node structural hashes of every combinational cone, expressed
/// over the miter's boundary labels instead of names or node ids: two
/// equal hashes (within one miter or across miters) denote structurally
/// identical cones over identically-labelled leaves — i.e. the same
/// function of the same boundary roles. Commutative gate fanins are
/// sorted so operand order cannot split otherwise-equal cones.
pub(crate) fn cone_hashes(
    n: &Netlist,
    input_labels: &HashMap<Symbol, Vec<ConeHash>>,
    state_labels: &HashMap<Symbol, ConeHash>,
) -> Vec<ConeHash> {
    let mut h: Vec<ConeHash> = vec![(0, 0); n.len()];
    for (name, bits) in &n.inputs {
        let labels = &input_labels[name];
        for (&id, &lab) in bits.iter().zip(labels) {
            h[id.0 as usize] = hash_parts("leaf", &[lab]);
        }
    }
    for (id, name, _, _) in n.dff_records() {
        h[id.0 as usize] = hash_parts("leaf", &[state_labels[&name]]);
    }
    let order = n.comb_topo_order().expect("acyclic netlist");
    for id in order {
        let idx = id.0 as usize;
        match n.node(id) {
            Node::Input { .. } | Node::Dff { .. } => {}
            Node::Const0 => h[idx] = hash_parts("const0", &[]),
            Node::Buf(a) => {
                let la = lit_hash(&h, *a);
                h[idx] = hash_parts("buf", &[la]);
            }
            Node::And(a, b) => {
                let (mut x, mut y) = (lit_hash(&h, *a), lit_hash(&h, *b));
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                h[idx] = hash_parts("and", &[x, y]);
            }
            Node::Xor(a, b) => {
                let (mut x, mut y) = (lit_hash(&h, *a), lit_hash(&h, *b));
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                h[idx] = hash_parts("xor", &[x, y]);
            }
            Node::Mux { s, t, e } => {
                let (ls, lt, le) = (lit_hash(&h, *s), lit_hash(&h, *t), lit_hash(&h, *e));
                h[idx] = hash_parts("mux", &[ls, lt, le]);
            }
        }
    }
    h
}

/// The canonical persistent key of the lemma "cone `a` (complemented if
/// `fa`) equals cone `b` (complemented if `fb`)". Equality is symmetric
/// and invariant under complementing *both* sides, so the key sorts the
/// two literal-hashes and takes the minimum over the joint-complement
/// pair — the same proven fact always lands on the same key.
pub(crate) fn lemma_key(ha: ConeHash, fa: bool, hb: ConeHash, fb: bool) -> (u64, u64) {
    let lit = |base: ConeHash, f: bool| -> ConeHash {
        let mut h = StableHasher::new();
        h.write_str("lit");
        h.write_u64(base.0);
        h.write_u64(base.1);
        h.write_u32(f as u32);
        h.finish()
    };
    let variant = |fa: bool, fb: bool| -> (u64, u64) {
        let (mut x, mut y) = (lit(ha, fa), lit(hb, fb));
        if x > y {
            std::mem::swap(&mut x, &mut y);
        }
        hash_parts("pair", &[x, y])
    };
    variant(fa, fb).min(variant(!fa, !fb))
}

impl SweepSide<'_> {
    /// Base words + one word per snapshot chunk, per boundary bit.
    fn words(&self, solver: &Solver, snaps: &[Vec<HashMap<Lit, bool>>]) -> (PortWords, StateWords) {
        let extend = |l: Lit, base: &Sig| -> Vec<u64> {
            let mut w = base.to_vec();
            for chunk in snaps {
                let mut word = 0u64;
                for k in 0..64usize {
                    // Pad a short chunk by replicating its last witness:
                    // every bit column must stay a *consistent* valuation
                    // (all-zero padding would violate pinned constants
                    // and poison the signature classes).
                    let snap = chunk.get(k).or(chunk.last()).expect("non-empty chunk");
                    // A boundary literal missing from a snapshot (e.g. a
                    // pinned constant) is re-read from the solver's
                    // root-level assignment via the snapshot fallback.
                    if *snap.get(&l).unwrap_or(&model_value(solver, l)) {
                        word |= 1 << k;
                    }
                }
                w.push(word);
            }
            w
        };
        let inputs = self
            .input_lits
            .iter()
            .map(|(name, lits)| {
                let base = &self.input_base[name];
                (
                    *name,
                    lits.iter()
                        .zip(base)
                        .map(|(&l, b)| extend(l, b))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let state = self
            .state_lits
            .iter()
            .map(|(name, &l)| (*name, extend(l, &self.state_base[name])))
            .collect();
        (inputs, state)
    }
}

/// Runs the counterexample-guided sweeping pass: proves golden/revised
/// internal node pairs with matching signatures equal and asserts the
/// equalities as unit lemmas in `solver`. With a `lemma_store`, pairs
/// whose canonical cone-hash key is already persisted skip their SAT
/// proof (the equality is asserted directly), and fresh proofs are
/// written back for future processes.
pub(crate) fn sweep(
    solver: &mut Solver,
    enc: &mut Encoder,
    a: &SweepSide<'_>,
    b: &SweepSide<'_>,
    lemma_store: Option<&Store>,
) -> SweepStats {
    let _span = alice_obs::span("cec.sweep");
    let debug = std::env::var_os("ALICE_CEC_DEBUG").is_some();
    let saved_budget = solver.conflict_budget;
    solver.conflict_budget = Some(PAIR_CONFLICT_BUDGET);
    // Cone hashes are boundary-relative and round-independent, so they
    // are computed once — and only when a lemma store is listening.
    let cones = lemma_store.map(|_| {
        (
            cone_hashes(a.n, a.input_labels, a.state_labels),
            cone_hashes(b.n, b.input_labels, b.state_labels),
        )
    });
    // All boundary literals whose model values a counterexample snapshot
    // must capture.
    let boundary: Vec<Lit> = a
        .input_lits
        .values()
        .chain(b.input_lits.values())
        .flatten()
        .copied()
        .chain(a.state_lits.values().copied())
        .chain(b.state_lits.values().copied())
        .collect();

    let mut stats = SweepStats::default();
    let mut merged: HashSet<(Lit, Lit)> = HashSet::new();
    let mut refuted: HashSet<(Lit, Lit)> = HashSet::new();
    let mut snaps: Vec<Vec<HashMap<Lit, bool>>> = Vec::new();
    for round in 0..=MAX_ROUNDS {
        stats.rounds = round + 1;
        let words = 2 + snaps.len();
        let (iw_a, sw_a) = a.words(&*solver, &snaps);
        let (iw_b, sw_b) = b.words(&*solver, &snaps);
        let sig_a = sim_words(a.n, &iw_a, &sw_a, words);
        let sig_b = sim_words(b.n, &iw_b, &sw_b, words);

        // First golden literal per canonical signature, topological order
        // (inputs and registers included so buffered pass-throughs merge).
        // The node index rides along so the lemma cache can hash the
        // representative's cone.
        let mut classes: HashMap<Vec<u64>, (Lit, usize)> = HashMap::new();
        for (id, node) in a.n.iter() {
            if matches!(node, Node::Const0) {
                continue;
            }
            let idx = id.0 as usize;
            let (w, l) = canon(sig_a[idx].clone(), a.node_lits[idx]);
            classes.entry(w).or_insert((l, idx));
        }

        let mut chunk: Vec<HashMap<Lit, bool>> = Vec::new();
        let mut undecided = 0usize;
        let merged_before = stats.merged;
        for (id, node) in b.n.iter() {
            if !node.is_gate() {
                continue;
            }
            let idx_b = id.0 as usize;
            let (w, lb) = canon(sig_b[idx_b].clone(), b.node_lits[idx_b]);
            let Some(&(la, idx_a)) = classes.get(&w) else {
                continue;
            };
            if la == lb || la == lb.negate() {
                continue; // identical already, or provably different
            }
            if merged.contains(&(la, lb)) || refuted.contains(&(la, lb)) {
                continue;
            }
            stats.candidates += 1;
            let d = enc.xor(solver, la, lb);
            if d == enc.fls() {
                continue;
            }
            if d == enc.tru() {
                continue;
            }
            // The persistent lemma key: the candidate literals' cone
            // hashes with their complement-relative-to-node flags (canon
            // may have flipped either literal).
            let key = cones.as_ref().map(|(ca, cb)| {
                lemma_key(
                    ca[idx_a],
                    la != a.node_lits[idx_a],
                    cb[idx_b],
                    lb != b.node_lits[idx_b],
                )
            });
            if let (Some(store), Some(key)) = (lemma_store, key) {
                if cache::lookup_lemma(store, key) {
                    // Proven equal in a past process: assert the lemma
                    // without a solver call.
                    solver.add_clause(&[d.negate()]);
                    merged.insert((la, lb));
                    stats.merged += 1;
                    stats.lemma_hits += 1;
                    continue;
                }
            }
            let verdict = {
                let _span = alice_obs::span("cec.pair_proof");
                solver.solve_with(&[d])
            };
            match verdict {
                SatResult::Unsat => {
                    solver.add_clause(&[d.negate()]);
                    merged.insert((la, lb));
                    stats.merged += 1;
                    if let (Some(store), Some(key)) = (lemma_store, key) {
                        cache::record_lemma(store, key);
                    }
                }
                SatResult::Sat => {
                    refuted.insert((la, lb));
                    if chunk.len() < CEX_PER_ROUND {
                        chunk.push(
                            boundary
                                .iter()
                                .map(|&l| (l, model_value(solver, l)))
                                .collect(),
                        );
                    }
                }
                SatResult::Unknown => undecided += 1,
            }
        }
        stats.undecided = undecided;
        if debug {
            eprintln!(
                "cec sweep round {round}: {stats:?}, {} new witnesses",
                chunk.len()
            );
        }
        if chunk.is_empty() || (round > 0 && stats.merged == merged_before) {
            // Nothing left to dissolve, or refinement stopped paying off.
            break;
        }
        snaps.push(chunk);
    }
    solver.conflict_budget = saved_budget;
    SWEEP_CANDIDATES.add(stats.candidates as u64);
    SWEEP_MERGED.add(stats.merged as u64);
    SWEEP_LEMMA_HITS.add(stats.lemma_hits as u64);
    stats
}

/// Observability mirrors of [`SweepStats`], accumulated process-wide
/// across every miter build and exported via `--metrics`.
static SWEEP_CANDIDATES: alice_obs::Counter = alice_obs::Counter::new(
    "alice_cec_sweep_candidates_total",
    "Equivalence candidates the SAT sweeper examined",
);
static SWEEP_MERGED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_cec_sweep_merged_total",
    "Candidate pairs proven equal and stitched together",
);
static SWEEP_LEMMA_HITS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_cec_sweep_lemma_hits_total",
    "Pair merges served by persisted lemmas instead of SAT calls",
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_sim_matches_scalar_semantics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 1)[0];
        let b = n.add_input("b", 1)[0];
        let x = n.xor(a, b);
        let y = n.mux(x, a, b.compl());
        n.add_output("y", vec![y]);

        let mut rng = 7u64;
        let wa = random_sig(&mut rng);
        let wb = random_sig(&mut rng);
        let inputs: HashMap<Symbol, Vec<Vec<u64>>> = [
            (Symbol::intern("a"), vec![wa.to_vec()]),
            (Symbol::intern("b"), vec![wb.to_vec()]),
        ]
        .into();
        let vals = sim_words(&n, &inputs, &HashMap::new(), 2);
        for pat in 0..128usize {
            let bit = |w: Sig| (w[pat / 64] >> (pat % 64)) & 1 == 1;
            let (va, vb) = (bit(wa), bit(wb));
            let vx = va ^ vb;
            let vy = if vx { va } else { !vb };
            let w = &vals[y.node().0 as usize];
            let got = ((w[pat / 64] >> (pat % 64)) & 1 == 1) ^ y.is_compl();
            assert_eq!(got, vy, "pattern {pat}");
        }
    }

    #[test]
    fn canonical_form_is_complement_stable() {
        let mut rng = 3u64;
        let w = random_sig(&mut rng).to_vec();
        let inv: Vec<u64> = w.iter().map(|x| !x).collect();
        let l = Lit::pos(alice_attacks::solver::Var(5));
        let (cw, cl) = canon(w.clone(), l);
        let (cw2, cl2) = canon(inv, l.negate());
        assert_eq!(cw, cw2);
        assert_eq!(cl, cl2);
        assert_eq!(cw[0] & 1, 0);
    }
}
