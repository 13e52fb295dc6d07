//! Differential test of the CDCL solver against brute-force enumeration
//! on random small CNF instances: SAT/UNSAT verdicts must agree, SAT
//! models must satisfy the formula, and the incremental assumption
//! interface must match brute force under the same pinned literals.
//!
//! Clause densities straddle the ~4.26 clauses/variable 3-SAT phase
//! transition so both verdicts occur, and instances are large enough to
//! exercise unit propagation, conflict analysis, clause learning, and
//! Luby restarts rather than pure backtracking.

use alice_redaction::attacks::solver::{Lit, SatResult, Solver, Var};
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
                let mut assignment = 0u64;
                for (i, &v) in vars.iter().enumerate() {
                    if s.value(v) == Some(true) {
                        assignment |= 1 << i;
                    }
                }
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
