//! Property tests: the CDCL solver agrees with the reference DPLL on
//! random small formulas, models satisfy every clause, and
//! selector-assumption cores are themselves unsatisfiable.

use coremax_cnf::{CnfFormula, Lit};
use coremax_sat::{
    dpll_is_satisfiable, IncrementalSolver, RestartMode, SolveOutcome, Solver, SolverConfig,
};
use proptest::prelude::*;

/// A configuration that stresses every new hot-path mechanism at once:
/// a tiny learned-clause cap forces database reductions, `gc_frac: 0.0`
/// forces an arena collection after every reduction, and glucose-mode
/// restarts exercise the adaptive schedule.
fn stress_config() -> SolverConfig {
    SolverConfig {
        learntsize_factor: 0.01,
        learntsize_inc: 1.01,
        min_learnts: 3.0,
        gc_frac: 0.0,
        restart_mode: RestartMode::Glucose,
        glucose_lbd_window: 5,
        ..SolverConfig::default()
    }
}

/// Loads every clause of `f` as a soft clause `cᵢ ∨ sᵢ` and solves with
/// all of them enforced. Returns the positions of the clauses named by
/// the failed selectors, or `None` when `f` is satisfiable.
fn soft_core(f: &CnfFormula, config: SolverConfig) -> Option<Vec<usize>> {
    let mut engine = IncrementalSolver::with_config(config);
    engine.ensure_vars(f.num_vars());
    for c in f.iter() {
        engine.add_soft(c.lits().iter().copied());
    }
    let outcome = engine.solve(&[]);
    assert!(engine.is_ok(), "soft clauses alone are never refuted");
    match outcome {
        SolveOutcome::Sat => None,
        SolveOutcome::Unsat => Some(engine.failed_softs().iter().map(|id| id.0).collect()),
        SolveOutcome::Unknown => unreachable!("no budget set"),
    }
}

/// The clauses of `f` at the given positions.
fn sub_formula(f: &CnfFormula, core: &[usize]) -> CnfFormula {
    let mut sub = CnfFormula::with_vars(f.num_vars());
    for &i in core {
        sub.add_clause(f.clause(i).lits().iter().copied());
    }
    sub
}

/// Strategy: random CNF over `max_vars` variables with clauses of length
/// 1..=4. Produces a mix of SAT and UNSAT formulas.
fn arb_cnf(max_vars: i32, max_clauses: usize) -> impl Strategy<Value = CnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=4);
    prop::collection::vec(clause, 1..=max_clauses).prop_map(|clauses| {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
        }
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn cdcl_agrees_with_dpll(f in arb_cnf(8, 30)) {
        let expected = dpll_is_satisfiable(&f);
        let mut s = Solver::new();
        s.add_formula(&f);
        let outcome = s.solve();
        let got = match outcome {
            SolveOutcome::Sat => true,
            SolveOutcome::Unsat => false,
            SolveOutcome::Unknown => unreachable!("no budget set"),
        };
        prop_assert_eq!(got, expected);
        // Without assumptions, every UNSAT answer refutes the formula.
        prop_assert_eq!(s.is_ok(), expected);
    }

    #[test]
    fn models_satisfy_every_clause(f in arb_cnf(10, 40)) {
        let mut s = Solver::new();
        s.add_formula(&f);
        if s.solve() == SolveOutcome::Sat {
            let m = s.model().expect("model after SAT");
            for c in f.iter() {
                prop_assert!(c.is_satisfied_by(m), "violated clause {c}");
            }
        }
    }

    #[test]
    fn cores_are_unsatisfiable(f in arb_cnf(7, 25)) {
        let core = soft_core(&f, SolverConfig::default());
        prop_assert_eq!(core.is_none(), dpll_is_satisfiable(&f));
        if let Some(core) = core {
            prop_assert!(!core.is_empty());
            // Every position must name a clause we added.
            prop_assert!(core.iter().all(|&i| i < f.num_clauses()));
            // The core alone must be UNSAT (checked by the reference DPLL).
            prop_assert!(!dpll_is_satisfiable(&sub_formula(&f, &core)), "core was satisfiable");
        }
    }

    #[test]
    fn solving_under_assumptions_consistent(f in arb_cnf(6, 20), polarity in any::<bool>()) {
        // φ ∧ a is SAT iff DPLL says φ with the unit a added is SAT.
        let a = Lit::new(coremax_cnf::Var::new(0), polarity);
        let mut s = Solver::new();
        s.add_formula(&f);
        s.ensure_vars(1);
        let outcome = s.solve_with_assumptions(&[a]);
        let mut g = f.clone();
        g.ensure_var(coremax_cnf::Var::new(0));
        g.add_clause([a]);
        let expected = dpll_is_satisfiable(&g);
        match outcome {
            SolveOutcome::Sat => prop_assert!(expected),
            SolveOutcome::Unsat => prop_assert!(!expected),
            SolveOutcome::Unknown => unreachable!("no budget set"),
        }
    }

    #[test]
    fn stressed_cdcl_agrees_with_dpll(f in arb_cnf(8, 35)) {
        // The optimized engine (binary watches, LBD reduction, forced
        // arena GC, glucose restarts) must agree with the reference DPLL
        // and keep its models valid.
        let expected = dpll_is_satisfiable(&f);
        let mut s = Solver::with_config(stress_config());
        s.add_formula(&f);
        match s.solve() {
            SolveOutcome::Sat => {
                prop_assert!(expected);
                let m = s.model().expect("model after SAT");
                for c in f.iter() {
                    prop_assert!(c.is_satisfied_by(m), "violated clause {c}");
                }
            }
            SolveOutcome::Unsat => prop_assert!(!expected),
            SolveOutcome::Unknown => unreachable!("no budget set"),
        }
    }

    #[test]
    fn cores_survive_arena_gc(f in arb_cnf(7, 30)) {
        // Cores extracted after (possibly many) arena compactions must
        // still be genuinely unsatisfiable subsets of the input.
        if let Some(core) = soft_core(&f, stress_config()) {
            prop_assert!(!core.is_empty());
            prop_assert!(core.iter().all(|&i| i < f.num_clauses()));
            prop_assert!(
                !dpll_is_satisfiable(&sub_formula(&f, &core)),
                "core was satisfiable after GC"
            );
        }
    }

    #[test]
    fn incremental_addition_matches_batch(f in arb_cnf(6, 16)) {
        // Adding clauses one by one with intermediate solves must agree
        // with solving the whole formula at once.
        let mut incremental = Solver::new();
        let mut all_sat = true;
        for c in f.iter() {
            incremental.add_clause(c.lits().iter().copied());
            let o = incremental.solve();
            all_sat = o == SolveOutcome::Sat;
        }
        prop_assert_eq!(all_sat, dpll_is_satisfiable(&f));
    }
}
