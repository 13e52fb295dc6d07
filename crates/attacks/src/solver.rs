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

/// Indexed max-heap over variable activities (MiniSat's `order_heap`),
/// so picking the next decision variable is O(log n) instead of a linear
/// scan — the difference between seconds and hours on CEC miters with
/// tens of thousands of variables.
#[derive(Debug, Default)]
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

/// Per-clause bookkeeping for database reduction, parallel to
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
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
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
    watches: Vec<Vec<usize>>, // per literal: clause indices
    assigns: Vec<Assign>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    order: OrderHeap,
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
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Unassigned);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
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
        self.assigns.len()
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
                    self.enqueue(c[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[c[0].index()].push(idx);
                self.watches[c[1].index()].push(idx);
                self.clauses.push(c);
                self.clause_info.push(ClauseInfo {
                    learned: false,
                    lbd: 0,
                    act: 0.0,
                });
                self.originals += 1;
            }
        }
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
        match self.assigns[l.var().0 as usize] {
            Assign::Unassigned => Assign::Unassigned,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        let v = l.var().0 as usize;
        self.assigns[v] = if l.is_neg() {
            Assign::False
        } else {
            Assign::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause index if any.
    fn propagate(&mut self) -> Option<usize> {
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
                // Ensure watched literal is at position 1.
                let pos = self.clauses[ci]
                    .iter()
                    .position(|&x| x == falsified)
                    .expect("watched literal in clause");
                self.clauses[ci].swap(pos, 1);
                if self.lit_value(self.clauses[ci][0]) == Assign::True {
                    i += 1;
                    continue; // clause satisfied
                }
                // Find a new watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].len() {
                    if self.lit_value(self.clauses[ci][k]) != Assign::False {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watches[new_watch.index()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                let first = self.clauses[ci][0];
                match self.lit_value(first) {
                    Assign::False => {
                        // Conflict: restore remaining watches.
                        self.watches[falsified.index()] = watch_list;
                        return Some(ci);
                    }
                    Assign::Unassigned => {
                        self.enqueue(first, Some(ci));
                        i += 1;
                    }
                    Assign::True => {
                        i += 1;
                    }
                }
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
    fn bump_clause(&mut self, ci: usize) {
        if !self.clause_info[ci].learned {
            return;
        }
        self.clause_info[ci].act += self.cla_inc;
        if self.clause_info[ci].act > 1e20 {
            for info in &mut self.clause_info {
                info.act *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis; returns (learned clause, backjump level).
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = vec![Lit(0)]; // slot 0 for the UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0u32;
        let mut trail_idx = self.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            // Clauses that conflict analysis traverses are the ones
            // pulling their weight; their activity decides reduction.
            self.bump_clause(confl);
            // Skip clause[0] of reason clauses: it is the implied literal p.
            let start = if p.is_none() { 0 } else { 1 };
            let lits: Vec<Lit> = self.clauses[confl][start..].to_vec();
            for q in lits {
                let v = q.var().0 as usize;
                if seen[v] || self.level[v] == 0 {
                    continue;
                }
                seen[v] = true;
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
                if seen[self.trail[trail_idx].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            seen[pl.var().0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pl.var().0 as usize].expect("implied literal has a reason");
            p = Some(pl);
        }
        learned[0] = p.expect("found UIP").negate();
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
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var().0 as usize;
                self.assigns[v] = Assign::Unassigned;
                self.reason[v] = None;
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
    /// permanent. Watch lists and reason pointers are rebuilt against
    /// the compacted indices — positions 0/1 of every clause are its
    /// watched literals by invariant, so re-pushing them reproduces a
    /// valid watch state.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce only at level 0");
        let mut locked = vec![false; self.clauses.len()];
        for l in &self.trail {
            if let Some(ci) = self.reason[l.var().0 as usize] {
                locked[ci] = true;
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
        // Compact in place, recording the old -> new index map.
        let mut remap: Vec<usize> = vec![usize::MAX; self.clauses.len()];
        let mut w = 0usize;
        for r in 0..self.clauses.len() {
            if drop_mask[r] {
                continue;
            }
            if w != r {
                self.clauses.swap(w, r);
                self.clause_info.swap(w, r);
            }
            remap[r] = w;
            w += 1;
        }
        self.clauses.truncate(w);
        self.clause_info.truncate(w);
        for wl in &mut self.watches {
            wl.clear();
        }
        for ci in 0..self.clauses.len() {
            let (l0, l1) = (self.clauses[ci][0], self.clauses[ci][1]);
            self.watches[l0.index()].push(ci);
            self.watches[l1.index()].push(ci);
        }
        for r in self.reason.iter_mut().flatten() {
            *r = remap[*r];
            debug_assert_ne!(*r, usize::MAX, "locked clauses are kept");
        }
        self.learned_live -= ndrop as u64;
        self.total_learned_dropped += ndrop as u64;
        self.total_learned_kept += self.learned_live;
    }

    fn decide(&mut self) -> Option<Lit> {
        // Lazy deletion: assigned variables are dropped as they surface.
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == Assign::Unassigned {
                return Some(Lit::new(Var(v), !self.phase[v as usize]));
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
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        // Incremental entry point: a burst of cheap assumption solves
        // can accumulate clauses without ever restarting, so the
        // database check runs here too, not only at restart points.
        self.maybe_reduce();
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
                        self.enqueue(learned[0], None);
                    } else {
                        let idx = self.clauses.len();
                        self.watches[learned[0].index()].push(idx);
                        self.watches[learned[1].index()].push(idx);
                        let unit = learned[0];
                        self.clauses.push(learned);
                        self.clause_info.push(ClauseInfo {
                            learned: true,
                            lbd,
                            act: self.cla_inc,
                        });
                        self.learned_live += 1;
                        self.enqueue(unit, Some(idx));
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
                    // assumptions, but not globally.
                    let mut enqueued = false;
                    while self.trail_lim.len() < assumptions.len() {
                        let p = assumptions[self.trail_lim.len()];
                        match self.lit_value(p) {
                            Assign::True => self.trail_lim.push(self.trail.len()),
                            Assign::False => {
                                self.cancel_until(0);
                                return SatResult::Unsat;
                            }
                            Assign::Unassigned => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(p, None);
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
                            self.enqueue(l, None);
                        }
                    }
                }
            }
        }
    }

    /// Model value of `v` after a SAT answer (`None` if unassigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.0 as usize] {
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
