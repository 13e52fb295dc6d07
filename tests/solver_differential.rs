//! Differential test of the CDCL solver against brute-force enumeration
//! on random small CNF instances: SAT/UNSAT verdicts must agree, SAT
//! models must satisfy the formula, and the incremental assumption
//! interface must match brute force under the same pinned literals.
//!
//! Clause densities straddle the ~4.26 clauses/variable 3-SAT phase
//! transition so both verdicts occur, and instances are large enough to
//! exercise unit propagation, conflict analysis, clause learning, and
//! Luby restarts rather than pure backtracking.

use alice_redaction::attacks::solver::{EngineStats, Lit, SatResult, Solver, Var};
use proptest::prelude::*;

struct Cnf {
    vars: usize,
    clauses: Vec<Vec<(usize, bool)>>, // (variable, negated)
}

/// Deterministic random CNF: `vars` ≤ 14 so brute force stays cheap.
fn random_cnf(seed: u64) -> Cnf {
    let mut rng = proptest::TestRng::deterministic(&format!("cnf-{seed}"));
    let vars = 3 + (rng.next_u64() % 12) as usize; // 3..=14
                                                   // Density sweeps 2..6 clauses/var across seeds: SAT-ish to UNSAT-ish.
    let clauses_n = vars * (2 + (seed % 5) as usize);
    let clauses = (0..clauses_n)
        .map(|_| {
            let width = 1 + (rng.next_u64() % 3) as usize; // 1..=3 literals
            (0..width)
                .map(|_| {
                    (
                        (rng.next_u64() % vars as u64) as usize,
                        rng.next_u64() & 1 == 1,
                    )
                })
                .collect()
        })
        .collect();
    Cnf { vars, clauses }
}

/// Random 3-SAT at 3 clauses per variable, below the phase transition,
/// so most assumption queries against it are satisfiable.
fn sparse_3sat(seed: u64) -> Cnf {
    let mut rng = proptest::TestRng::deterministic(&format!("3sat-{seed}"));
    let vars = 8 + (rng.next_u64() % 7) as usize; // 8..=14
    let mut lit = || {
        (
            (rng.next_u64() % vars as u64) as usize,
            rng.next_u64() & 1 == 1,
        )
    };
    let clauses = (0..3 * vars)
        .map(|_| (0..3).map(|_| lit()).collect())
        .collect();
    Cnf { vars, clauses }
}

fn clause_satisfied(clause: &[(usize, bool)], assignment: u64) -> bool {
    clause
        .iter()
        .any(|&(v, neg)| ((assignment >> v) & 1 == 1) != neg)
}

/// Brute force: is there a satisfying assignment with `pinned` respected?
fn brute_force(cnf: &Cnf, pinned: &[(usize, bool)]) -> bool {
    'outer: for assignment in 0..(1u64 << cnf.vars) {
        for &(v, val) in pinned {
            if ((assignment >> v) & 1 == 1) != val {
                continue 'outer;
            }
        }
        if cnf.clauses.iter().all(|c| clause_satisfied(c, assignment)) {
            return true;
        }
    }
    false
}

/// The model after a `Sat` answer, one bit per variable.
fn model(s: &Solver, vars: &[Var]) -> u64 {
    vars.iter()
        .enumerate()
        .filter(|&(_, &v)| s.value(v) == Some(true))
        .fold(0, |bits, (i, _)| bits | 1 << i)
}

fn load(cnf: &Cnf) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..cnf.vars).map(|_| s.new_var()).collect();
    for c in &cnf.clauses {
        let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
        s.add_clause(&lits);
    }
    (s, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Unlimited-budget verdicts agree with brute force, and SAT models
    /// actually satisfy every clause.
    #[test]
    fn solver_agrees_with_brute_force(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let (mut s, vars) = load(&cnf);
        match s.solve() {
            SatResult::Sat => {
                prop_assert!(expect_sat, "solver said SAT, brute force UNSAT");
                let assignment = model(&s, &vars);
                for c in &cnf.clauses {
                    prop_assert!(clause_satisfied(c, assignment), "model violates a clause");
                }
            }
            SatResult::Unsat => prop_assert!(!expect_sat, "solver said UNSAT, brute force SAT"),
            SatResult::Unknown => prop_assert!(false, "no budget set, Unknown impossible"),
        }
    }

    /// Assumption-based solving agrees with brute force under the same
    /// pins, and never corrupts the solver for later calls.
    #[test]
    fn assumptions_agree_with_brute_force(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let (mut s, vars) = load(&cnf);
        let mut rng = proptest::TestRng::deterministic(&format!("assume-{seed}"));
        for _ in 0..4 {
            let k = 1 + (rng.next_u64() % 3) as usize;
            let pinned: Vec<(usize, bool)> = (0..k)
                .map(|_| ((rng.next_u64() % cnf.vars as u64) as usize, rng.next_u64() & 1 == 1))
                .collect();
            // Contradictory duplicate pins make brute force UNSAT; the
            // solver must agree rather than wedge.
            let assumptions: Vec<Lit> = pinned.iter().map(|&(v, val)| Lit::new(vars[v], !val)).collect();
            let expect = brute_force(&cnf, &pinned);
            match s.solve_with(&assumptions) {
                SatResult::Sat => prop_assert!(expect),
                SatResult::Unsat => prop_assert!(!expect),
                SatResult::Unknown => prop_assert!(false, "no budget set"),
            }
        }
        // The formula itself must still answer consistently.
        let expect = brute_force(&cnf, &[]);
        prop_assert_eq!(s.solve() == SatResult::Sat, expect);
    }

    /// The incremental contract the keyed CEC miter rests on, stated
    /// directly: `solve_with(assumptions)` on one long-lived solver
    /// returns exactly the verdict a *fresh* solver is forced to when
    /// the same bits are added as unit clauses — across a sequence of
    /// assumption sets, with learned clauses and phase saving carrying
    /// over in between.
    #[test]
    fn assumptions_equal_unit_clause_pinning(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let (mut incremental, vars) = load(&cnf);
        let mut rng = proptest::TestRng::deterministic(&format!("pin-{seed}"));
        for _ in 0..4 {
            let k = 1 + (rng.next_u64() % 4) as usize;
            let pinned: Vec<(usize, bool)> = (0..k)
                .map(|_| ((rng.next_u64() % cnf.vars as u64) as usize, rng.next_u64() & 1 == 1))
                .collect();
            let assumptions: Vec<Lit> = pinned.iter().map(|&(v, val)| Lit::new(vars[v], !val)).collect();
            let got = incremental.solve_with(&assumptions);
            let (mut fresh, fvars) = load(&cnf);
            for &(v, val) in &pinned {
                fresh.add_clause(&[Lit::new(fvars[v], !val)]);
            }
            prop_assert_eq!(got, fresh.solve(), "pins {:?}", pinned);
        }
    }

    /// Prefix reuse: consecutive `solve_with` calls share a random
    /// prefix and vary one trailing literal, so the solver keeps the
    /// prefix's decision levels between calls. Every few calls the
    /// prefix keeps a random head and gets a new tail, and plain solves,
    /// `reset_to_root` and new clauses are interleaved. Every verdict
    /// equals brute force on the clauses added so far, and every model
    /// satisfies them and all the assumptions.
    #[test]
    fn shared_prefix_queries_agree_with_brute_force(seed in 0u64..100_000) {
        // Mostly satisfiable, so most answers leave their levels on the
        // trail for the next query.
        let mut cnf = sparse_3sat(seed);
        let (mut s, vars) = load(&cnf);
        let mut rng = proptest::TestRng::deterministic(&format!("prefix-{seed}"));
        let lit = |rng: &mut proptest::TestRng| {
            ((rng.next_u64() % cnf.vars as u64) as usize, rng.next_u64() & 1 == 1)
        };
        let mut prefix: Vec<(usize, bool)> = Vec::new();
        for call in 0..32 {
            if call % (2 + (rng.next_u64() % 3) as usize) == 0 {
                // Keep a random head of the old prefix, so a new prefix
                // can share levels with queries before the last one.
                prefix.truncate((rng.next_u64() % (prefix.len() as u64 + 1)) as usize);
                prefix.extend((0..1 + rng.next_u64() % 3).map(|_| lit(&mut rng)));
            }
            match rng.next_u64() % 16 {
                0 => {
                    let expect = brute_force(&cnf, &[]);
                    prop_assert_eq!(s.solve() == SatResult::Sat, expect, "call {}", call);
                }
                1 => s.reset_to_root(),
                2 => {
                    let clause: Vec<(usize, bool)> =
                        (0..2 + rng.next_u64() % 2).map(|_| lit(&mut rng)).collect();
                    let lits: Vec<Lit> =
                        clause.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
                    s.add_clause(&lits);
                    cnf.clauses.push(clause);
                }
                _ => {}
            }
            let mut pinned = prefix.clone();
            pinned.push(lit(&mut rng));
            let assumptions: Vec<Lit> =
                pinned.iter().map(|&(v, val)| Lit::new(vars[v], !val)).collect();
            let expect = brute_force(&cnf, &pinned);
            match s.solve_with(&assumptions) {
                SatResult::Sat => {
                    prop_assert!(expect, "call {}: solver SAT, brute force UNSAT", call);
                    let assignment = model(&s, &vars);
                    for c in &cnf.clauses {
                        prop_assert!(clause_satisfied(c, assignment), "call {}: clause", call);
                    }
                    for &(v, val) in &pinned {
                        let got = (assignment >> v) & 1 == 1;
                        prop_assert_eq!(got, val, "call {}: model breaks an assumption", call);
                    }
                }
                SatResult::Unsat => {
                    prop_assert!(!expect, "call {}: solver UNSAT, brute force SAT", call)
                }
                SatResult::Unknown => prop_assert!(false, "no budget set"),
            }
        }
    }

    /// A conflict budget may only turn an answer into Unknown, never
    /// flip it; restarts under tiny budgets stay sound, and lifting the
    /// budget on the same solver restores the definitive verdict.
    #[test]
    fn budget_never_flips_the_verdict(seed in 0u64..50_000, budget in 1u64..64) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let (mut s, _) = load(&cnf);
        s.conflict_budget = Some(budget);
        match s.solve() {
            SatResult::Sat => prop_assert!(expect_sat),
            SatResult::Unsat => prop_assert!(!expect_sat),
            SatResult::Unknown => {}
        }
        s.conflict_budget = None;
        prop_assert_eq!(s.solve() == SatResult::Sat, expect_sat);
    }

    /// The budget contract a caller that retries with a growing budget
    /// relies on (the test keeps the name it had when a portfolio of
    /// budgeted solvers made those retries): every `Unknown` leaves the
    /// solver reusable with its learned clauses, each doubled budget
    /// still never flips the verdict, the retries reach a definitive
    /// answer, and lifting the budget afterwards repeats it.
    #[test]
    fn portfolio_budget_never_flips_the_verdict(seed in 0u64..50_000, budget in 1u64..64) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let (mut s, _) = load(&cnf);
        let mut verdict = SatResult::Unknown;
        for round in 0..20 {
            s.conflict_budget = Some(budget << round);
            verdict = s.solve();
            match verdict {
                SatResult::Sat => prop_assert!(expect_sat, "round {}", round),
                SatResult::Unsat => prop_assert!(!expect_sat, "round {}", round),
                SatResult::Unknown => continue,
            }
            break;
        }
        prop_assert!(verdict != SatResult::Unknown, "doubling budgets never settled");
        s.conflict_budget = None;
        prop_assert_eq!(s.solve() == SatResult::Sat, expect_sat);
    }
}

/// A parity (XOR) chain forces deep conflict analysis and many restarts;
/// its satisfiability is known analytically.
#[test]
fn parity_chains_exercise_restarts() {
    for n in [8usize, 12, 14] {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // x_i xor x_{i+1} = 1 for all i, plus x_0 = 0: satisfiable by
        // alternation; adding x_{n-1} = x_0's forced complement flipped
        // makes it UNSAT for even n.
        for w in vars.windows(2) {
            s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1])]);
            s.add_clause(&[Lit::neg(w[0]), Lit::neg(w[1])]);
        }
        s.add_clause(&[Lit::neg(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat, "n={n}");
        // Alternation: odd positions true.
        for (i, &v) in vars.iter().enumerate() {
            assert_eq!(s.value(v), Some(i % 2 == 1), "n={n} position {i}");
        }
        // Force the contradiction (x_{n-1} must be true for even n).
        s.add_clause(&[Lit::new(vars[n - 1], (n - 1) % 2 == 1)]);
        assert_eq!(s.solve(), SatResult::Unsat, "n={n} forced parity break");
    }
}

/// Folds `bits` into a running FNV-1a digest.
fn fnv(digest: u64, bits: u64) -> u64 {
    bits.to_le_bytes().iter().fold(digest, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn add_stats(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        conflicts: a.conflicts + b.conflicts,
        learned: a.learned + b.learned,
        propagations: a.propagations + b.propagations,
        restarts: a.restarts + b.restarts,
        assumption_solves: a.assumption_solves + b.assumption_solves,
        learned_kept: a.learned_kept + b.learned_kept,
        learned_dropped: a.learned_dropped + b.learned_dropped,
    }
}

/// The search itself, pinned: a fixed seeded sequence of `solve_with`,
/// `add_clause` and `reset_to_root` calls must reproduce these effort
/// counts, verdicts and models exactly. A change to the watch-visit
/// order, to which watch is replaced, or to the literal order inside a
/// clause moves them; a faster store for the same search does not.
#[test]
fn search_counts_are_pinned() {
    let mut total = EngineStats::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..40 {
        let cnf = sparse_3sat(seed);
        let (mut s, vars) = load(&cnf);
        let mut rng = proptest::TestRng::deterministic(&format!("pinned-{seed}"));
        let lit = |rng: &mut proptest::TestRng| {
            let v = vars[(rng.next_u64() % cnf.vars as u64) as usize];
            Lit::new(v, rng.next_u64() & 1 == 1)
        };
        for _ in 0..24 {
            match rng.next_u64() % 8 {
                0 => s.reset_to_root(),
                1 => {
                    let clause: Vec<Lit> =
                        (0..2 + rng.next_u64() % 2).map(|_| lit(&mut rng)).collect();
                    s.add_clause(&clause);
                }
                _ => {}
            }
            let assumptions: Vec<Lit> =
                (0..1 + rng.next_u64() % 4).map(|_| lit(&mut rng)).collect();
            let verdict = s.solve_with(&assumptions);
            digest = fnv(digest, verdict as u64);
            if verdict == SatResult::Sat {
                digest = fnv(digest, model(&s, &vars));
            }
        }
        total = add_stats(total, s.stats());
    }
    // A pigeonhole core behind a selector: UNSAT with the selector
    // assumed, SAT without it, asked repeatedly on one warm solver.
    let mut s = Solver::new();
    let sel = s.new_var();
    let (pigeons, holes) = (8, 7);
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        c.push(Lit::neg(sel));
        s.add_clause(&c);
    }
    for i1 in 0..pigeons {
        for i2 in (i1 + 1)..pigeons {
            for (&x, &y) in p[i1].iter().zip(&p[i2]) {
                s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
            }
        }
    }
    let all: Vec<Var> = p.iter().flatten().copied().collect();
    for _ in 0..2 {
        assert_eq!(s.solve_with(&[Lit::pos(sel)]), SatResult::Unsat);
        assert_eq!(s.solve_with(&[Lit::neg(sel)]), SatResult::Sat);
        digest = fnv(digest, model(&s, &all));
    }
    total = add_stats(total, s.stats());
    assert_eq!(
        total,
        EngineStats {
            conflicts: 5_329,
            learned: 5_326,
            propagations: 76_084,
            restarts: 31,
            assumption_solves: 964,
            learned_kept: 3_649,
            learned_dropped: 3_647,
        }
    );
    assert_eq!(digest, 0x4077_0504_d2dc_93c9, "verdicts and models");
}
