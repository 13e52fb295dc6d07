//! A CDCL SAT solver built from scratch for the attack harness.
//!
//! Implements the standard architecture: two-watched-literal propagation,
//! first-UIP conflict analysis with clause learning, VSIDS variable
//! activities on an indexed order heap, phase saving, Luby restarts, and
//! incremental solving under assumptions ([`Solver::solve_with`]).
//!
//! The learned-clause database is actively managed for long-lived
//! incremental use (hundreds of assumption solves against one formula,
//! as in the keyed-miter CEC path): every learned clause is tagged with
//! its literal-block distance (LBD, "glue") at learn time and carries a
//! MiniSat-style clause activity bumped whenever conflict analysis
//! traverses it; when the live learned count outgrows a growing limit,
//! a reduction pass at a restart point drops the coldest half of the
//! *deletable* clauses — originals, glue ≤ 2 clauses, and clauses
//! locked as the reason of a current implication are never dropped —
//! and compacts the database (watches and reason pointers are remapped
//! in place). Saved phases, variable activities, and the surviving
//! learned clauses all persist across [`Solver::solve_with`] calls, so
//! later queries on the same formula start warm.
//!
//! So does the trail. Consecutive queries that share leading assumption
//! literals (a keyed miter asks about one difference point at a time
//! under the same key) keep those decision levels and everything
//! propagated under them, and decide only the literals that differ.
//! Restarts still unwind to level 0. A [`Solver`] is `Clone`: a copy
//! carries the whole search state, so one encoded and warmed formula
//! can serve several threads.
//!
//! # Clause store
//!
//! Every clause's literals sit back to back in one `arena: Vec<Lit>`;
//! a clause is a `u32` reference into `clauses`, whose `(start, len)`
//! span locates its literals. Watch lists and implication reasons hold
//! those references, and a variable with no reason clause (a decision,
//! an assumption, or a root-level unit) holds the `NO_REASON` sentinel.
//! Literal values are kept per literal, both polarities, so reading one
//! is a single byte load. Propagation relies on one invariant: a
//! clause's two watched literals are its first two, so a visit only
//! swaps the falsified watch into slot 1 when it sits in slot 0.
//! Reduction compacts the arena in clause order and remaps every
//! reference, and a clone copies the whole store as a few flat blocks.

use alice_intern::Symbol;
use std::collections::HashMap;
use std::fmt;

static SAT_CONFLICTS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_sat_conflicts_total",
    "CDCL conflicts across all solver instances",
);
static SAT_LEARNED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_sat_learned_total",
    "Learned clauses across all solver instances",
);
static SAT_PROPAGATIONS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_sat_propagations_total",
    "Unit-propagation literal dequeues across all solver instances",
);
static SAT_RESTARTS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_restarts",
    "Luby restarts across all solver instances",
);
static SAT_ASSUMPTION_SOLVES: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_assumption_solves",
    "Incremental solve_with calls carrying a non-empty assumption set",
);
static SAT_LEARNED_KEPT: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_learned_kept",
    "Learned clauses surviving clause-database reductions (cumulative over reductions)",
);
static SAT_LEARNED_DROPPED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_learned_dropped",
    "Learned clauses dropped by clause-database reductions",
);

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Builds a literal with an explicit sign (`true` = negated).
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit(v.0 << 1 | negated as u32)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complement literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "-" } else { "" },
            self.var().0
        )
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; read the model with [`Solver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Conflict/decision budget exhausted.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Assign {
    Unassigned,
    True,
    False,
}

/// Reason of a variable no clause implied: a decision, an assumption,
/// a root-level unit, or an unassigned variable.
const NO_REASON: u32 = u32::MAX;

/// Where one clause's literals sit in `Solver::arena`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Indexed max-heap over variable activities (MiniSat's `order_heap`),
/// so picking the next decision variable is O(log n) instead of a linear
/// scan — the difference between seconds and hours on CEC miters with
/// tens of thousands of variables.
#[derive(Debug, Default, Clone)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `NONE`.
    pos: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl OrderHeap {
    fn grow(&mut self) {
        self.pos.push(NONE);
    }

    fn in_heap(&self, v: u32) -> bool {
        self.pos[v as usize] != NONE
    }

    fn percolate_up(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let p = (i - 1) >> 1;
            if activity[self.heap[p] as usize] >= activity[v as usize] {
                break;
            }
            self.heap[i] = self.heap[p];
            self.pos[self.heap[i] as usize] = i as u32;
            i = p;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn percolate_down(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[l] as usize]
            {
                r
            } else {
                l
            };
            if activity[self.heap[c] as usize] <= activity[v as usize] {
                break;
            }
            self.heap[i] = self.heap[c];
            self.pos[self.heap[i] as usize] = i as u32;
            i = c;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn insert(&mut self, activity: &[f64], v: u32) {
        if self.in_heap(v) {
            return;
        }
        self.heap.push(v);
        self.percolate_up(activity, self.heap.len() - 1);
    }

    fn bumped(&mut self, activity: &[f64], v: u32) {
        let p = self.pos[v as usize];
        if p != NONE {
            self.percolate_up(activity, p as usize);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = NONE;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.percolate_down(activity, 0);
        }
        Some(top)
    }
}

/// Per-clause bookkeeping for database reduction, index-parallel to
/// `Solver::clauses`.
#[derive(Debug, Clone, Copy)]
struct ClauseInfo {
    /// Learned (deletable) vs original (permanent).
    learned: bool,
    /// Literal-block distance at learn time: the number of distinct
    /// decision levels among the clause's literals. Low-LBD ("glue")
    /// clauses connect few levels and are empirically the ones worth
    /// keeping forever; `lbd <= 2` exempts a clause from reduction.
    lbd: u32,
    /// Clause activity: bumped when conflict analysis traverses the
    /// clause, decayed once per conflict. Reduction drops the coldest
    /// deletable half.
    act: f64,
}

/// Reductions start once this many learned clauses are live (the limit
/// then grows ~10% per reduction, MiniSat-style).
const REDUCE_BASE: u64 = 2_000;

/// Clause-activity decay per conflict (MiniSat's `clause-decay`).
const CLAUSE_DECAY: f64 = 0.999;

/// VSIDS activity decay per conflict (MiniSat's `var-decay`).
const VAR_DECAY: f64 = 0.95;

/// Base interval of the Luby restart sequence, in conflicts.
const RESTART_BASE: u64 = 64;

/// Cumulative search-effort statistics of a [`Solver`] (see
/// [`Solver::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Conflicts over the solver's lifetime.
    pub conflicts: u64,
    /// Learned clauses, including learned units.
    pub learned: u64,
    /// Literals dequeued by unit propagation.
    pub propagations: u64,
    /// Luby restarts.
    pub restarts: u64,
    /// `solve_with` calls that carried a non-empty assumption set — the
    /// incremental queries of the keyed-miter CEC path.
    pub assumption_solves: u64,
    /// Learned clauses surviving clause-database reductions, summed
    /// over every reduction pass.
    pub learned_kept: u64,
    /// Learned clauses dropped by clause-database reductions.
    pub learned_dropped: u64,
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use alice_attacks::solver::{Lit, SatResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Solver {
    /// The literals of every clause, back to back in clause order.
    arena: Vec<Lit>,
    /// Each clause's span in `arena`, indexed by clause reference.
    clauses: Vec<Span>,
    /// Reduction metadata, index-parallel to `clauses`.
    clause_info: Vec<ClauseInfo>,
    /// Clause-activity bump amount (grows as `cla_inc / CLAUSE_DECAY`
    /// per conflict, rescaled with the activities on overflow).
    cla_inc: f64,
    /// Original (non-learned) clauses of length >= 2 ever added.
    originals: u64,
    /// Learned clauses of length >= 2 currently in the database.
    learned_live: u64,
    /// Live learned count that triggers the next reduction; `0` = not
    /// yet derived from the instance size.
    reduce_limit: u64,
    watches: Vec<Vec<u32>>, // per literal: clause references
    /// Per literal (indexed by `Lit::index`): its current value.
    values: Vec<Assign>,
    phase: Vec<bool>,
    level: Vec<u32>,
    /// Per variable: the clause that implied it, or `NO_REASON`.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// The assumption literal decided at each of the lowest decision
    /// levels (`assumed[i]` opened level `i + 1`); free decisions above
    /// the assumptions are not recorded. Lets the next
    /// [`Solver::solve_with`] keep the levels its assumptions share.
    assumed: Vec<Lit>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    order: OrderHeap,
    /// Conflict-analysis marks, one per variable; all false between
    /// conflicts.
    seen: Vec<bool>,
    unsat: bool,
    /// Conflict budget for [`Solver::solve`]; `None` = unlimited.
    pub conflict_budget: Option<u64>,
    conflicts: u64,
    /// Total conflicts over the solver's lifetime (statistics).
    pub total_conflicts: u64,
    /// Total learned clauses (including learned units) over the solver's
    /// lifetime (statistics).
    pub total_learned: u64,
    /// Total literals dequeued by unit propagation over the solver's
    /// lifetime (statistics).
    pub total_propagations: u64,
    /// Total Luby restarts over the solver's lifetime (statistics).
    pub total_restarts: u64,
    /// Total [`Solver::solve_with`] calls carrying a non-empty
    /// assumption set (statistics).
    pub total_assumption_solves: u64,
    /// Learned clauses surviving clause-database reductions, summed
    /// over every reduction pass (statistics).
    pub total_learned_kept: u64,
    /// Learned clauses dropped by clause-database reductions
    /// (statistics).
    pub total_learned_dropped: u64,
    /// Diagnostic labels: problem-level names (interned port, register,
    /// or key-bit names) attached to CNF variables. Sparse — only the
    /// variables an encoder chooses to label carry one.
    names: HashMap<u32, Symbol>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            act_inc: 1.0,
            cla_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.values.push(Assign::Unassigned);
        self.values.push(Assign::Unassigned);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.order.insert(&self.activity, v.0);
        v
    }

    /// Allocates a fresh variable carrying a diagnostic label (see
    /// [`Solver::label`]).
    pub fn new_named_var(&mut self, name: Symbol) -> Var {
        let v = self.new_var();
        self.label(v, name);
        v
    }

    /// Attaches (or replaces) a problem-level name on `v` — the interned
    /// port, register, or key-bit identity the variable encodes. Labels
    /// never affect solving; they make models and DIPs readable.
    pub fn label(&mut self, v: Var, name: Symbol) {
        self.names.insert(v.0, name);
    }

    /// The label of `v`, if one was attached.
    pub fn name_of(&self, v: Var) -> Option<Symbol> {
        self.names.get(&v.0).copied()
    }

    /// The model restricted to labeled variables, as `(name, value)`
    /// pairs in variable order — a readable satisfying assignment after
    /// [`Solver::solve`] returns [`SatResult::Sat`].
    pub fn named_model(&self) -> Vec<(Symbol, bool)> {
        let mut out: Vec<(u32, Symbol, bool)> = self
            .names
            .iter()
            .filter_map(|(&v, &name)| self.value(Var(v)).map(|b| (v, name, b)))
            .collect();
        out.sort_unstable_by_key(|&(v, _, _)| v);
        out.into_iter().map(|(_, name, b)| (name, b)).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause. An empty clause makes the instance trivially UNSAT.
    ///
    /// Adding a clause resets the search to decision level 0, so any model
    /// from a previous [`Solver::solve`] call must be read *before* adding.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        self.cancel_until(0);
        // Deduplicate and check for tautology.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        if c.windows(2).any(|w| w[0] == w[1].negate()) {
            return; // tautology
        }
        // Must be at decision level 0 here.
        debug_assert!(self.trail_lim.is_empty());
        if c.iter().any(|l| self.lit_value(*l) == Assign::True) {
            return; // satisfied at level 0
        }
        c.retain(|l| self.lit_value(*l) != Assign::False);
        match c.len() {
            0 => self.unsat = true,
            1 => {
                if self.lit_value(c[0]) == Assign::False {
                    self.unsat = true;
                } else if self.lit_value(c[0]) == Assign::Unassigned {
                    self.enqueue(c[0], NO_REASON);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
            }
            _ => {
                self.push_clause(
                    &c,
                    ClauseInfo {
                        learned: false,
                        lbd: 0,
                        act: 0.0,
                    },
                );
                self.originals += 1;
            }
        }
    }

    /// Appends a clause of two or more literals to the arena, watches
    /// its first two, and returns its reference.
    fn push_clause(&mut self, lits: &[Lit], info: ClauseInfo) -> u32 {
        let end = self.arena.len() + lits.len();
        assert!(
            end <= u32::MAX as usize && self.clauses.len() < NO_REASON as usize,
            "clause store outgrew its u32 offsets"
        );
        let ci = self.clauses.len() as u32;
        self.watches[lits[0].index()].push(ci);
        self.watches[lits[1].index()].push(ci);
        self.clauses.push(Span {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
        });
        self.arena.extend_from_slice(lits);
        self.clause_info.push(info);
        ci
    }

    /// Unwinds the search to decision level 0, keeping every assignment
    /// implied by the formula itself. Models from a previous `Sat`
    /// answer become unreadable; learned clauses, saved phases, and
    /// variable activities survive. Incremental drivers call this
    /// between assumption solves once they are done reading the model.
    pub fn reset_to_root(&mut self) {
        self.cancel_until(0);
    }

    fn lit_value(&self, l: Lit) -> Assign {
        self.values[l.index()]
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().0 as usize;
        self.values[l.index()] = Assign::True;
        self.values[l.negate().index()] = Assign::False;
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.total_propagations += 1;
            let falsified = l.negate();
            let mut i = 0;
            // Take the watch list to sidestep aliasing; rebuilt as we scan.
            let mut watch_list = std::mem::take(&mut self.watches[falsified.index()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                let c = &mut self.arena[self.clauses[ci as usize].range()];
                // The watched pair is c[0], c[1]: put the falsified one
                // at position 1.
                if c[0] == falsified {
                    c.swap(0, 1);
                }
                let first = c[0];
                if self.values[first.index()] == Assign::True {
                    i += 1;
                    continue; // clause satisfied
                }
                // Find a new watch.
                if let Some(k) = (2..c.len()).find(|&k| self.values[c[k].index()] != Assign::False)
                {
                    c.swap(1, k);
                    self.watches[c[1].index()].push(ci);
                    watch_list.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if self.values[first.index()] == Assign::False {
                    // Conflict: restore remaining watches.
                    self.watches[falsified.index()] = watch_list;
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            self.watches[falsified.index()] = watch_list;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.act_inc;
        if self.activity[v.0 as usize] > 1e100 {
            // Uniform rescale preserves the heap order.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        self.order.bumped(&self.activity, v.0);
    }

    /// Bumps a learned clause's activity (originals are permanent and
    /// carry none). Mirrors variable bumping, with the same uniform
    /// overflow rescale.
    fn bump_clause(&mut self, ci: u32) {
        let info = &mut self.clause_info[ci as usize];
        if !info.learned {
            return;
        }
        info.act += self.cla_inc;
        if info.act > 1e20 {
            for info in &mut self.clause_info {
                info.act *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis; returns (learned clause, backjump level).
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = vec![Lit(0)]; // slot 0 for the UIP
        let mut counter = 0u32;
        let mut trail_idx = self.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            // Clauses that conflict analysis traverses are the ones
            // pulling their weight; their activity decides reduction.
            self.bump_clause(confl);
            // Skip clause[0] of reason clauses: it is the implied literal p.
            let skip = if p.is_none() { 0 } else { 1 };
            for j in self.clauses[confl as usize].range().skip(skip) {
                let q = self.arena[j];
                let v = q.var().0 as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.bump(q.var());
                if self.level[v] >= cur_level {
                    counter += 1;
                } else {
                    learned.push(q);
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            self.seen[pl.var().0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pl.var().0 as usize];
            debug_assert_ne!(confl, NO_REASON, "implied literal has a reason");
            p = Some(pl);
        }
        learned[0] = p.expect("found UIP").negate();
        // Every current-level mark was cleared as the walk resolved it;
        // the marks left are exactly the lower-level literals learned.
        for l in &learned[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        // Backjump level = max level among the other literals; keep one
        // literal of that level at slot 1 so the watch pair stays valid
        // after the backjump.
        let mut bj = 0;
        let mut bj_idx = 0;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > bj {
                bj = lv;
                bj_idx = i;
            }
        }
        if bj_idx > 1 {
            learned.swap(1, bj_idx);
        }
        (learned, bj)
    }

    fn cancel_until(&mut self, level: u32) {
        self.assumed.truncate(level as usize);
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var().0 as usize;
                self.values[l.index()] = Assign::Unassigned;
                self.values[l.negate().index()] = Assign::Unassigned;
                self.reason[v] = NO_REASON;
                self.order.insert(&self.activity, v as u32);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Runs a clause-database reduction if the live learned count has
    /// outgrown the current limit. Called only at decision level 0 with
    /// propagation complete (restart points and solve entry), where the
    /// set of locked clauses is exactly the reasons of root implications.
    fn maybe_reduce(&mut self) {
        if self.reduce_limit == 0 {
            // First trigger scales with the instance: a third of the
            // original clause count, floored so tiny formulas never
            // churn their (useful) learned clauses.
            self.reduce_limit = REDUCE_BASE.max(self.originals / 3);
        }
        if self.learned_live > self.reduce_limit {
            self.reduce_db();
            // Grow ~10% per reduction so a genuinely hard instance is
            // allowed to retain more as the search deepens.
            self.reduce_limit += self.reduce_limit / 10;
        }
    }

    /// Drops the coldest half of the deletable learned clauses and
    /// compacts the database. Deletable = learned, glue (LBD) > 2, and
    /// not locked as the reason of a current implication; originals are
    /// permanent. The surviving clauses keep their order and slide down
    /// the arena; watch lists and reasons are rebuilt against the
    /// compacted references — positions 0/1 of every clause are its
    /// watched literals by invariant, so re-pushing them reproduces a
    /// valid watch state.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce only at level 0");
        let mut locked = vec![false; self.clauses.len()];
        for l in &self.trail {
            let ci = self.reason[l.var().0 as usize];
            if ci != NO_REASON {
                locked[ci as usize] = true;
            }
        }
        let mut cand: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let info = self.clause_info[ci];
                info.learned && info.lbd > 2 && !locked[ci]
            })
            .collect();
        // Coldest first; ties broken toward dropping higher glue, then
        // older clauses — fully deterministic.
        let info = &self.clause_info;
        cand.sort_unstable_by(|&a, &b| {
            info[a]
                .act
                .partial_cmp(&info[b].act)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(info[b].lbd.cmp(&info[a].lbd))
                .then(a.cmp(&b))
        });
        let ndrop = cand.len() / 2;
        if ndrop == 0 {
            return;
        }
        let mut drop_mask = vec![false; self.clauses.len()];
        for &ci in &cand[..ndrop] {
            drop_mask[ci] = true;
        }
        // Compact in place, recording the old -> new reference map.
        // Spans ascend with the reference, so the write end never
        // passes the span being read.
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let (mut w, mut end) = (0usize, 0u32);
        for r in 0..self.clauses.len() {
            if drop_mask[r] {
                continue;
            }
            let span = self.clauses[r];
            self.arena.copy_within(span.range(), end as usize);
            self.clauses[w] = Span {
                start: end,
                len: span.len,
            };
            self.clause_info[w] = self.clause_info[r];
            remap[r] = w as u32;
            w += 1;
            end += span.len;
        }
        self.arena.truncate(end as usize);
        self.clauses.truncate(w);
        self.clause_info.truncate(w);
        for wl in &mut self.watches {
            wl.clear();
        }
        for (ci, span) in self.clauses.iter().enumerate() {
            let c = &self.arena[span.range()];
            self.watches[c[0].index()].push(ci as u32);
            self.watches[c[1].index()].push(ci as u32);
        }
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "locked clauses are kept");
            }
        }
        self.learned_live -= ndrop as u64;
        self.total_learned_dropped += ndrop as u64;
        self.total_learned_kept += self.learned_live;
    }

    fn decide(&mut self) -> Option<Lit> {
        // Lazy deletion: assigned variables are dropped as they surface.
        while let Some(v) = self.order.pop(&self.activity) {
            let l = Lit::new(Var(v), !self.phase[v as usize]);
            if self.lit_value(l) == Assign::Unassigned {
                return Some(l);
            }
        }
        None
    }

    /// Solves the current formula.
    ///
    /// Returns [`SatResult::Unknown`] when the conflict budget (if set) is
    /// exhausted — the attack harness uses this as its "resilient within
    /// budget" signal.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves the current formula under `assumptions` (incremental
    /// MiniSat-style interface).
    ///
    /// Each assumption literal is forced as a decision before the free
    /// search starts. [`SatResult::Unsat`] then means *unsatisfiable
    /// under these assumptions* — the formula itself stays usable and
    /// later calls with different assumptions may be SAT. This is what
    /// lets equivalence checking discharge thousands of per-output and
    /// per-candidate-pair queries against one shared clause database,
    /// reusing everything learned between queries.
    ///
    /// The trail is kept between calls: a call whose assumptions start
    /// with the same literals as the previous call's keeps those
    /// decision levels, with everything they implied, and decides only
    /// the rest. The last assumption is always decided afresh, so a
    /// one-literal query always starts from level 0. Restarts, budget
    /// exhaustion, [`Solver::add_clause`] and [`Solver::reset_to_root`]
    /// still unwind to level 0, and the clause database is reduced only
    /// there.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !assumptions.is_empty() {
            self.total_assumption_solves += 1;
            SAT_ASSUMPTION_SOLVES.inc();
        }
        let before = (
            self.total_conflicts,
            self.total_learned,
            self.total_propagations,
            self.total_restarts,
            self.total_learned_kept,
            self.total_learned_dropped,
        );
        let res = self.solve_with_inner(assumptions);
        // Process-wide effort mirror, summed over every solver instance.
        SAT_CONFLICTS.add(self.total_conflicts - before.0);
        SAT_LEARNED.add(self.total_learned - before.1);
        SAT_PROPAGATIONS.add(self.total_propagations - before.2);
        SAT_RESTARTS.add(self.total_restarts - before.3);
        SAT_LEARNED_KEPT.add(self.total_learned_kept - before.4);
        SAT_LEARNED_DROPPED.add(self.total_learned_dropped - before.5);
        res
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        // The levels still holding a prefix of these assumptions are
        // propagated already: keep them.
        let kept = self
            .assumed
            .iter()
            .zip(&assumptions[..assumptions.len().saturating_sub(1)])
            .take_while(|(a, b)| a == b)
            .count();
        self.cancel_until(kept as u32);
        if kept == 0 {
            if self.propagate().is_some() {
                self.unsat = true;
                return SatResult::Unsat;
            }
            // Incremental entry point: a burst of cheap assumption solves
            // can accumulate clauses without ever restarting, so the
            // database check runs here too, not only at restart points.
            self.maybe_reduce();
        }
        self.conflicts = 0;
        let mut restart_idx = 0u64;
        let mut restart_limit = RESTART_BASE * luby(restart_idx);
        loop {
            match self.propagate() {
                Some(confl) => {
                    self.conflicts += 1;
                    self.total_conflicts += 1;
                    if let Some(budget) = self.conflict_budget {
                        if self.conflicts > budget {
                            self.cancel_until(0);
                            return SatResult::Unknown;
                        }
                    }
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let (learned, bj) = self.analyze(confl);
                    // LBD while every learned literal is still assigned:
                    // the number of distinct decision levels it spans.
                    let lbd = {
                        let mut levels: Vec<u32> = learned
                            .iter()
                            .map(|l| self.level[l.var().0 as usize])
                            .collect();
                        levels.sort_unstable();
                        levels.dedup();
                        levels.len() as u32
                    };
                    self.cancel_until(bj);
                    self.total_learned += 1;
                    if learned.len() == 1 {
                        self.enqueue(learned[0], NO_REASON);
                    } else {
                        let ci = self.push_clause(
                            &learned,
                            ClauseInfo {
                                learned: true,
                                lbd,
                                act: self.cla_inc,
                            },
                        );
                        self.learned_live += 1;
                        self.enqueue(learned[0], ci);
                    }
                    self.act_inc /= VAR_DECAY;
                    self.cla_inc /= CLAUSE_DECAY;
                    if self.conflicts >= restart_limit {
                        restart_idx += 1;
                        restart_limit = self.conflicts + RESTART_BASE * luby(restart_idx);
                        self.total_restarts += 1;
                        self.cancel_until(0);
                        self.maybe_reduce();
                    }
                }
                None => {
                    // Re-apply assumptions first: one decision level per
                    // literal (restarts and backjumps may have popped
                    // them). An already-false assumption is a conflict
                    // with what has been learned: UNSAT under
                    // assumptions, but not globally. The levels below it
                    // stay for the next call to reuse.
                    let mut enqueued = false;
                    while self.trail_lim.len() < assumptions.len() {
                        let p = assumptions[self.trail_lim.len()];
                        match self.lit_value(p) {
                            Assign::True => {
                                self.trail_lim.push(self.trail.len());
                                self.assumed.push(p);
                            }
                            Assign::False => return SatResult::Unsat,
                            Assign::Unassigned => {
                                self.trail_lim.push(self.trail.len());
                                self.assumed.push(p);
                                self.enqueue(p, NO_REASON);
                                enqueued = true;
                                break;
                            }
                        }
                    }
                    if enqueued {
                        continue;
                    }
                    match self.decide() {
                        None => return SatResult::Sat,
                        Some(l) => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, NO_REASON);
                        }
                    }
                }
            }
        }
    }

    /// Model value of `v` after a SAT answer (`None` if unassigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.lit_value(Lit::pos(v)) {
            Assign::Unassigned => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    /// Search-effort totals over the solver's lifetime.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            conflicts: self.total_conflicts,
            learned: self.total_learned,
            propagations: self.total_propagations,
            restarts: self.total_restarts,
            assumption_solves: self.total_assumption_solves,
            learned_kept: self.total_learned_kept,
            learned_dropped: self.total_learned_dropped,
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...).
fn luby(i: u64) -> u64 {
    let mut k = 1u64;
    while (1u64 << (k + 1)) - 1 <= i + 1 {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    loop {
        if i + 1 == (1u64 << kk) - 1 {
            return 1u64 << (kk - 1);
        }
        if i + 1 < (1u64 << kk) - 1 {
            kk -= 1;
            if kk == 0 {
                return 1;
            }
            continue;
        }
        i -= (1u64 << kk) - 1;
        kk = 1;
        while (1u64 << (kk + 1)) - 1 <= i + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));

        let mut s2 = Solver::new();
        let b = s2.new_var();
        s2.add_clause(&[Lit::pos(b)]);
        s2.add_clause(&[Lit::neg(b)]);
        assert_eq!(s2.solve(), SatResult::Unsat);
    }

    #[test]
    fn chain_implication() {
        // (a -> b -> c -> d), a  => d
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::pos(vs[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(vs[3]), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j] = pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_constraint_forces_model() {
        // a xor b = 1, a = 1 => b = 0.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(false));
    }

    #[test]
    fn incremental_solving_with_added_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.cancel_until(0);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.cancel_until(0);
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn budget_returns_unknown_or_solves() {
        // Hard-ish random-like instance with a tiny budget.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
        // Parity chain: x0 ^ x1 ^ ... ^ x29 = 1 encoded pairwise.
        for i in 0..29 {
            let (a, b) = (vs[i], vs[i + 1]);
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        s.conflict_budget = Some(1);
        let r = s.solve();
        assert!(r == SatResult::Sat || r == SatResult::Unknown);
    }

    #[test]
    fn assumptions_are_temporary() {
        // (a | b) & (!a | c): assuming !b forces a and c; assuming
        // (!a, !b) is UNSAT under assumptions but the formula survives.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(c)]);
        assert_eq!(s.solve_with(&[Lit::neg(b)]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(c), Some(true));
        assert_eq!(s.solve_with(&[Lit::neg(a), Lit::neg(b)]), SatResult::Unsat);
        // Not globally unsat: a plain solve still succeeds.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with(&[Lit::pos(b)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn assumption_conflicting_with_learned_units_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        // a and b are root-level implied; assuming !b must fail cleanly.
        assert_eq!(s.solve_with(&[Lit::neg(b)]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn incremental_queries_share_learned_clauses() {
        // Pigeonhole core plus a relaxing selector: with the selector
        // assumed true the instance is UNSAT, without it SAT.
        let mut s = Solver::new();
        let sel = s.new_var();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::neg(sel), Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        for _ in 0..3 {
            assert_eq!(s.solve_with(&[Lit::pos(sel)]), SatResult::Unsat);
            assert_eq!(s.solve_with(&[Lit::neg(sel)]), SatResult::Sat);
        }
    }

    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&row.iter().map(|&v| Lit::pos(v)).collect::<Vec<_>>());
        }
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                for (&x, &y) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
                }
            }
        }
    }

    #[test]
    fn clause_db_reduction_preserves_verdicts_and_state() {
        // Force a reduction at every restart point: the verdict must be
        // unaffected and the solver must stay usable afterwards.
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        s.reduce_limit = 1;
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.total_learned_dropped > 0,
            "a conflict-heavy instance with limit 1 must reduce"
        );
        assert!(s.total_restarts > 0);

        // SAT instances survive aggressive reduction too, and the model
        // is a real one.
        let mut s = Solver::new();
        let sel = s.new_var();
        let mut rows: Vec<Vec<Var>> = Vec::new();
        for _ in 0..5 {
            rows.push((0..4).map(|_| s.new_var()).collect());
        }
        for row in &rows {
            let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            c.push(Lit::neg(sel));
            s.add_clause(&c);
        }
        for i1 in 0..5 {
            for i2 in (i1 + 1)..5 {
                for (&x, &y) in rows[i1].iter().zip(&rows[i2]) {
                    s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
                }
            }
        }
        s.reduce_limit = 1;
        // Alternate UNSAT/SAT assumption solves across reductions: the
        // clause database churns, the answers must not.
        for _ in 0..4 {
            assert_eq!(s.solve_with(&[Lit::pos(sel)]), SatResult::Unsat);
            assert_eq!(s.solve_with(&[Lit::neg(sel)]), SatResult::Sat);
            assert_eq!(s.value(sel), Some(false));
        }
        assert_eq!(s.stats().assumption_solves, 8);
    }

    #[test]
    fn reduction_never_drops_glue_or_locked_clauses() {
        // An implication chain learns only small (glue <= 2) clauses;
        // none may be dropped no matter how low the limit.
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 3);
        s.reduce_limit = 1;
        assert_eq!(s.solve(), SatResult::Unsat);
        // Root-level implications keep their reason clauses alive: after
        // any number of reductions every reason index must stay valid,
        // which `solve` exercises by propagating from the root again.
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        s.reduce_limit = 1;
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Unsat, "state intact after reduce");
    }

    /// SplitMix64: the seeded stream of the property test below.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn lit(&mut self, vars: usize) -> Lit {
            Lit::new(Var(self.below(vars as u64) as u32), self.below(2) == 1)
        }
    }

    fn holds(l: Lit, assignment: u64) -> bool {
        ((assignment >> l.var().0) & 1 == 1) != l.is_neg()
    }

    #[test]
    fn reduction_on_every_call_agrees_with_brute_force() {
        // Random 5-SAT just below its phase transition (~21 clauses per
        // variable), so both verdicts occur and conflicts learn long,
        // deletable clauses. The database is reduced at every solve
        // entry and restart, with assumption solves, resets and new
        // clauses interleaved: the arena compaction and its reference
        // remap run between queries whose answers must stay exact.
        let (mut dropped, mut verdicts) = (0, [0; 2]);
        for seed in 0..64 {
            let mut rng = SplitMix(seed);
            let vars = 12 + rng.below(4) as usize; // 12..=15
            let mut s = Solver::new();
            for _ in 0..vars {
                s.new_var();
            }
            s.reduce_limit = 1;
            // Every assignment that satisfies the clauses added so far.
            let mut models: Vec<u64> = (0..1u64 << vars).collect();
            let add = |s: &mut Solver, models: &mut Vec<u64>, c: Vec<Lit>| {
                s.add_clause(&c);
                models.retain(|&a| c.iter().any(|&l| holds(l, a)));
            };
            for _ in 0..vars * 18 {
                let c = (0..5).map(|_| rng.lit(vars)).collect();
                add(&mut s, &mut models, c);
            }
            for call in 0..32 {
                match rng.below(8) {
                    0 => s.reset_to_root(),
                    1 => {
                        let c = (0..3 + rng.below(3)).map(|_| rng.lit(vars)).collect();
                        add(&mut s, &mut models, c);
                    }
                    _ => {}
                }
                let assumptions: Vec<Lit> = (0..1 + rng.below(4)).map(|_| rng.lit(vars)).collect();
                let expect = models
                    .iter()
                    .any(|&a| assumptions.iter().all(|&l| holds(l, a)));
                match s.solve_with(&assumptions) {
                    SatResult::Sat => {
                        verdicts[0] += 1;
                        assert!(expect, "seed {seed} call {call}: SAT, brute force UNSAT");
                        let a = (0..vars)
                            .filter(|&v| s.value(Var(v as u32)) == Some(true))
                            .fold(0u64, |bits, v| bits | 1 << v);
                        assert!(models.contains(&a), "seed {seed} call {call}: bad model");
                        assert!(
                            assumptions.iter().all(|&l| holds(l, a)),
                            "seed {seed} call {call}: model breaks an assumption"
                        );
                    }
                    SatResult::Unsat => {
                        verdicts[1] += 1;
                        assert!(!expect, "seed {seed} call {call}: UNSAT, brute force SAT")
                    }
                    SatResult::Unknown => panic!("no budget set"),
                }
            }
            dropped += s.total_learned_dropped;
        }
        assert!(dropped > 0, "the run must actually reduce");
        assert!(verdicts.iter().all(|&n| n > 0), "both verdicts occur");
    }

    #[test]
    fn reset_to_root_keeps_formula_and_phases() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve_with(&[Lit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.reset_to_root();
        // The model is gone but the formula still solves.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn shared_assumption_prefix_is_not_redecided() {
        // k free prefix variables, each implying one more. Re-deciding
        // the prefix would dequeue all k (and their implications) again
        // for every query.
        let k = 24;
        let mut s = Solver::new();
        let prefix: Vec<Lit> = (0..k)
            .map(|_| {
                let p = s.new_var();
                let q = s.new_var();
                s.add_clause(&[Lit::neg(p), Lit::pos(q)]);
                Lit::pos(p)
            })
            .collect();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
        let mut query = prefix.clone();
        query.push(Lit::neg(x));
        assert_eq!(s.solve_with(&query), SatResult::Sat);
        assert_eq!(s.value(y), Some(true));
        let before = s.stats().propagations;
        *query.last_mut().expect("non-empty") = Lit::neg(y);
        assert_eq!(s.solve_with(&query), SatResult::Sat);
        let dequeued = s.stats().propagations - before;
        assert!(
            dequeued < k as u64,
            "{dequeued} literals dequeued for a query sharing {k} assumptions"
        );
        assert_eq!(s.value(x), Some(true));
        assert!(prefix.iter().all(|p| s.value(p.var()) == Some(true)));
        // The last assumption is decided afresh: repeating the query
        // dequeues it again, and a conflicting one is still Unsat.
        query.push(Lit::neg(x));
        assert_eq!(s.solve_with(&query), SatResult::Unsat);
        assert_eq!(s.solve_with(&prefix), SatResult::Sat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }

    #[test]
    fn labels_name_the_model() {
        let mut s = Solver::new();
        let a = s.new_named_var(Symbol::intern("key[0]"));
        let b = s.new_var(); // unlabeled: stays out of the named model
        let c = s.new_named_var(Symbol::intern("key[1]"));
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::pos(b)]);
        s.add_clause(&[Lit::neg(c)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.name_of(a), Some(Symbol::intern("key[0]")));
        assert_eq!(s.name_of(b), None);
        assert_eq!(
            s.named_model(),
            vec![
                (Symbol::intern("key[0]"), true),
                (Symbol::intern("key[1]"), false),
            ]
        );
    }
}
