//! msu1 — Fu & Malik's core-guided algorithm (reference \[11\]).

use coremax_cards::{encode_exactly, CardEncoding};
use coremax_cnf::{Lit, WcnfFormula};
use coremax_sat::{Budget, SoftId, SolveOutcome};

use crate::run::CoreGuidedRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// Fu & Malik's algorithm (SAT 2006), the paper's msu1.
///
/// Repeatedly solve the working formula; on UNSAT, add a **fresh**
/// blocking variable to every soft clause in the core (clauses hit by
/// `r` cores accumulate `r` blocking variables — the drawback §2.3
/// points out) together with an *exactly-one* constraint over the new
/// variables, and increase the cost by one. The first satisfiable
/// working formula proves the accumulated cost optimal.
///
/// # Input restrictions
///
/// Unweighted (partial) MaxSAT: soft weights must all be 1.
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
///
/// # Examples
///
/// ```
/// use coremax::{Msu1, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
///
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(Msu1::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Msu1 {
    encoding: CardEncoding,
    budget: Budget,
}

impl Default for Msu1 {
    fn default() -> Self {
        Msu1::new()
    }
}

impl Msu1 {
    /// msu1 with the pairwise exactly-one encoding used by Fu & Malik.
    #[must_use]
    pub fn new() -> Self {
        Msu1 {
            encoding: CardEncoding::Pairwise,
            budget: Budget::new(),
        }
    }

    /// msu1 with an alternative exactly-one encoding.
    #[must_use]
    pub fn with_encoding(encoding: CardEncoding) -> Self {
        Msu1 {
            encoding,
            budget: Budget::new(),
        }
    }
}

impl MaxSatSolver for Msu1 {
    fn name(&self) -> &'static str {
        "msu1"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "msu1 handles unweighted (partial) MaxSAT; got weighted soft clauses"
        );
        // One engine for the whole run: each soft is registered with a
        // selector and enforced by assumption (the working formula
        // treats softs as mandatory; relaxation happens through the
        // blocking literals Fu–Malik adds *inside* them).
        let mut run = CoreGuidedRun::new(wcnf, &self.budget, None);
        // Current working copy of each soft clause: its literals (which
        // grow blocking variables over time) and its live handle.
        let mut soft: Vec<Vec<Lit>> = wcnf
            .soft_clauses()
            .iter()
            .map(|s| s.clause.lits().to_vec())
            .collect();
        let mut handles: Vec<SoftId> = soft
            .iter()
            .map(|lits| run.engine.add_soft(lits.iter().copied()))
            .collect();

        loop {
            match run.solve(&[]) {
                // Every extracted core charged one unit: the lower bound
                // is certified even though no incumbent exists yet (the
                // first SAT answer would already be optimal).
                SolveOutcome::Unknown => return run.unknown(),
                SolveOutcome::Sat => {
                    run.offer_model();
                    return run.optimal();
                }
                SolveOutcome::Unsat => {
                    run.stats.unsat_iterations += 1;
                    // A refutation independent of the soft assumptions can
                    // only cite hard clauses (every selector is free at the
                    // clause level, and exactly-one constraints are
                    // satisfiable on their own): infeasible.
                    if !run.engine.is_ok() {
                        return run.infeasible();
                    }
                    let failed = run.engine.failed_softs();
                    let in_core: Vec<usize> = failed
                        .iter()
                        .filter_map(|id| handles.iter().position(|h| h == id))
                        .collect();
                    if in_core.is_empty() {
                        return run.infeasible();
                    }
                    run.count_core(in_core.len(), 1);
                    // Fresh blocking variable per soft core clause. The
                    // stored clause cannot be mutated in place, so the old
                    // copy is retired and the extended clause registered as
                    // a new soft under a fresh selector.
                    let engine = &mut run.engine;
                    let mut fresh: Vec<Lit> = Vec::with_capacity(in_core.len());
                    for &i in &in_core {
                        let b = Lit::positive(engine.new_var());
                        soft[i].push(b);
                        fresh.push(b);
                        run.stats.blocking_vars += 1;
                        engine.retire(handles[i]);
                        handles[i] = engine.add_soft(soft[i].iter().copied());
                    }
                    // Exactly one of the fresh variables is spent.
                    let ((), clauses) =
                        run.encode(None, |sink| encode_exactly(&fresh, 1, self.encoding, sink));
                    coremax_obs::emit(coremax_obs::Event::RelaxationEncoded {
                        blocking_vars: fresh.len() as u64,
                        clauses,
                    });
                    run.bounds.charge(1);
                }
            }
            if run.budget.interrupted() {
                return run.unknown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaxSatStatus;
    use coremax_cnf::dimacs;
    use coremax_sat::dpll_max_satisfiable;

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_examples() {
        let e1 = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        assert_eq!(Msu1::new().solve(&e1).cost, Some(1));
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = Msu1::new().solve(&e2);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&e2), Some(6));
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let s = Msu1::new().solve(&w);
        assert_eq!(s.cost, Some(0));
        assert_eq!(s.stats.cores, 0);
    }

    #[test]
    fn model_attains_cost() {
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu1::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        let m = s.model.unwrap();
        assert_eq!(w.cost(&m), Some(2));
    }

    #[test]
    fn partial_infeasible() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        assert_eq!(Msu1::new().solve(&w).status, MaxSatStatus::Infeasible);
    }

    #[test]
    fn clauses_accumulate_multiple_blockers() {
        // A clause participating in several cores gains several blocking
        // vars; the run must still report the right optimum.
        let w = unweighted("p cnf 3 6\n1 0\n-1 0\n1 2 0\n-2 0\n1 3 0\n-3 0\n");
        let oracle = {
            let f = dimacs::parse_cnf("p cnf 3 6\n1 0\n-1 0\n1 2 0\n-2 0\n1 3 0\n-3 0\n").unwrap();
            f.num_clauses() - dpll_max_satisfiable(&f)
        };
        let s = Msu1::new().solve(&w);
        assert_eq!(s.cost, Some(oracle as u64));
    }

    #[test]
    fn agrees_with_oracle_on_random_formulas() {
        let mut seed = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let num_vars = 4 + (next() % 3) as usize;
            let num_clauses = 5 + (next() % 10) as usize;
            let mut f = coremax_cnf::CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = coremax_cnf::Var::new((next() % num_vars as u64) as u32);
                        Lit::new(v, next() & 1 == 0)
                    })
                    .collect();
                f.add_clause(lits);
            }
            let oracle = f.num_clauses() - dpll_max_satisfiable(&f);
            let w = WcnfFormula::from_cnf_all_soft(&f);
            let s = Msu1::new().solve(&w);
            assert_eq!(s.cost, Some(oracle as u64), "msu1 wrong on {f}");
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let mut solver = Msu1::new();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        let s = solver.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert!(s.lower_bound <= 2, "lb stays below the optimum");
    }

    #[test]
    fn optimal_carries_tight_lower_bound() {
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu1::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.lower_bound, 2);
        assert_eq!(s.gap(), Some(0));
    }
}
